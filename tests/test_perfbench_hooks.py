"""The package names a traced benchmark run patches and counts.

perfbench/tracing.py finds its targets by name and reads a missing one as a
null metric, not as an error, so a rename in the package would go unseen
without these checks.
"""

from __future__ import annotations

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nfdlm as nf

from conftest import numeric_ds

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # write nothing to perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapper_target_is_a_callable_of_the_package(tracing):
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.WRAPPER_TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


@pytest.mark.parametrize("build", [nf.build_mlp, nf.build_lstm])
def test_params_counter_counts_every_parameter(tracing, build):
    names = [f"c{j}" for j in range(11)]
    model = build(names, seed=0)
    ds = numeric_ds(np.zeros((4, 11)), labels=[0, 1, 0, 1], names=names)
    counts = collections.Counter()
    tracing.COUNTERS["neuralnet.train"](counts, (model, ds, nf.TrainingConfig(1, 2)), None)
    assert counts["neuralnet.params"] == model.params.size
    if build is nf.build_lstm:
        assert model.params.size == 27_393  # lstm_train's FS4 model
