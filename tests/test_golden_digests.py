"""Every preset, in both SMOTE orders, writes the bytes the fixture pins.

See golden_digests.py for what is digested and how to regenerate the fixture.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from golden_digests import DIGESTS, FIXTURE, RUNS, SPEC, host_fingerprint, round_tripped_dataset, run_digests

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return round_tripped_dataset(tmp_path_factory.mktemp("golden"))


def test_fixture_covers_every_run():
    assert GOLDEN["spec"] == asdict(SPEC)
    assert sorted(GOLDEN["runs"]) == sorted(f"{name}/{order}" for name, order in RUNS)


@pytest.mark.parametrize("name,order", RUNS, ids=[f"{name}-{order}" for name, order in RUNS])
def test_run_matches_its_golden_digests(dataset, tmp_path, name, order):
    want = GOLDEN["runs"][f"{name}/{order}"]
    got = run_digests(dataset, name, order, tmp_path)
    assert got["kept"] == want["kept"]
    assert got["confusion"] == want["confusion"]
    host = host_fingerprint()
    differs = [field for field, value in GOLDEN["host"].items() if host.get(field) != value]
    if differs:
        pytest.skip(f"digests not compared: this host's {', '.join(differs)} differ from "
                    "the fixture's")
    assert {k: got[k] for k in DIGESTS} == {k: want[k] for k in DIGESTS}
