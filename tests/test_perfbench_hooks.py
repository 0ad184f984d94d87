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
import time
from pathlib import Path

import numpy as np
import pytest

import nfdlm as nf

from conftest import numeric_ds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports speed.py by name
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def perfbench_files():
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*")}


def test_workloads_run_small(tracing, workloads, tmp_path, monkeypatch):
    """Set-up and one repetition of bulk_prep's stages and of mlp_train's CLI
    calls at a small size: every operation runs and passes its checks, the
    accuracy floors aside (zeroed here, as small data cannot be held to them)."""
    before = perfbench_files()
    monkeypatch.setattr(workloads, "BULK_ACCURACY_FLOOR", 0.0)

    class SmallBulkPrep(workloads.BulkPrepWorkload):
        SPEC = (3900, 100, 36, 4, 6.0)

    presets = dict.fromkeys(workloads.MLP_PRESETS, 0.0)
    runs = [(SmallBulkPrep(), 17),  # parse to score_held_out
            (workloads.PresetWorkload((1900, 100, 30, 5, 6.0), presets, 0.85, None),
             2 * len(presets) + 1)]  # train and evaluate each, then compare
    for bench, operations in runs:
        work = tmp_path / type(bench).__name__
        work.mkdir()
        spans = tracing.Spans(time.perf_counter)
        bench.setup(1, work)
        rep = bench.run(spans, 1, work)
        assert (rep.attempted, rep.errors, spans.uncounted) == (operations, [], set())
    assert perfbench_files() == before
