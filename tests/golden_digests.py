"""Golden digests: the bytes every preset writes, pinned by SHA-256.

Each run trains one preset, with smote_before_split off or on, on one small
synthetic dataset that has been through save_dataset and load_dataset. Its
digests are the SHA-256 of the model file, of the report less its
wall-clock fields and model_path, and of predict_proba's bytes on the
held-out rows. test_golden_digests.py checks each run against
fixtures/golden_digests.json. Regenerate that file only for a change that
alters these bits on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden_digests.py

BLAS kernels may round differently on another CPU or library, so the
fixture records the host it was made on (host_fingerprint); elsewhere the
test checks only each run's kept features and confusion counts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

import nfdlm as nf
from nfdlm.experiment import PRESET_NAMES

SPEC = nf.SynthesisSpec(3000, 150, 12, 2, 3.0, seed=1)
SEED = 1
FIXTURE = Path(__file__).parent / "fixtures" / "golden_digests.json"
DIGESTS = ("model_sha256", "report_sha256", "proba_sha256")
RUNS = [(name, order) for name in PRESET_NAMES for order in ("split_first", "smote_first")]


def host_fingerprint() -> dict:
    """What the digests' bits may depend on beyond the code: numpy, its BLAS,
    and the CPU features numpy dispatches on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def round_tripped_dataset(work: Path) -> nf.FlowDataset:
    path = work / "golden.ds"
    nf.save_dataset(nf.generate_synthetic_flows(SPEC), path)
    return nf.load_dataset(path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(ds: nf.FlowDataset, name: str, order: str, work: Path) -> dict:
    """Train one preset at its frozen epochs and digest what it wrote."""
    cfg = nf.preset(name, seed=SEED, smote_before_split=order == "smote_first")
    model_path = work / f"{name}-{order}.model.json"
    report = nf.run_experiment(cfg, ds, source="golden", model_path=model_path)
    doc = report.to_dict()
    del doc["phase_seconds"], doc["model_path"]
    for epoch in doc["history"]:
        del epoch["seconds"]
    # The held-out rows, split as run_experiment splits them.
    rows = nf.smote_resample(ds, cfg.smote) if cfg.smote_before_split else ds
    _, test = nf.stratified_split(rows, cfg.split_fraction, cfg.seed)
    model = nf.load_model(model_path)
    cm = nf.confusion(nf.predict(model, test), test.labels)
    return {
        "model_sha256": _sha256(model_path.read_bytes()),
        "report_sha256": _sha256(json.dumps(doc, sort_keys=True).encode("utf-8")),
        "proba_sha256": _sha256(nf.predict_proba(model, test).tobytes()),
        "kept": list(report.selection.kept),
        "confusion": [cm.tp, cm.fp, cm.tn, cm.fn],
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ds = round_tripped_dataset(work)
        runs = {f"{name}/{order}": run_digests(ds, name, order, work) for name, order in RUNS}
    doc = {"spec": asdict(SPEC), "host": host_fingerprint(), "runs": runs}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
