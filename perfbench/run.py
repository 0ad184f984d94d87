"""nfdlm benchmark: one run of one workload.

    python3 perfbench/run.py --workload {mlp_train,lstm_train,bulk_prep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is the
full result (host facts, per-repetition figures, speed samples, errors); it
is also written with the spans of a traced run under .perfbench_runs/.
End-to-end times are scaled to a reference host speed, sampled through the
run by perfbench/speed.py. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS gets one thread. nfdlm applies NFDLM_THREADS at import only where the
# BLAS variables are unset, so those are pinned as well.
THREAD_VARS = ("NFDLM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least this many times and this long; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def _accuracy(counts) -> float:
    tp, fp, tn, fn = counts
    return (tp + tn) / (tp + fp + tn + fn)


def _balanced_accuracy(counts) -> float:
    tp, fp, tn, fn = counts
    return ((tp / (tp + fn) if tp + fn else 0.0) + (tn / (tn + fp) if tn + fp else 0.0)) / 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(reps, scales, setup_times, setup_scale, peak_rss_mb) -> dict:
    """Times scaled to the reference host speed (see speed.py), medians over
    repetitions; accuracies of the last repetition's models (every
    repetition computes the same ones)."""
    confusion = reps[-1].confusion.values()
    return {
        "scaled_wall_s": statistics.median(r.wall_s * k for r, k in zip(reps, scales)),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": min(map(_accuracy, confusion), default=None),
        "balanced_accuracy": min(map(_balanced_accuracy, confusion), default=None),
    }


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def main(argv=None) -> int:
    # Workload and metric names, the metrics in the order they are reported.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not (ROOT / "src" / "nfdlm" / "__init__.py").is_file():
        print(f"perfbench: no nfdlm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 1
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(ROOT / "src"))
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = out_dir / "work"
    work.mkdir(parents=True)
    try:
        with SpeedProbe(workload.speed_kernel) as probe:
            result, attempted, failed, metrics = _measure(args, workload, work, out_dir, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reported = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in bench[reported]
        },
    }))
    return 0


def _measure(args, workload, work, out_dir, probe):
    """Set up and run the repetitions (and the traced one) under the probe.
    Returns the full result, attempted and failed counts, and the metrics."""
    from tracing import Spans, Wrappers, layer_metrics, uncalled_step_targets

    setup_times = []
    setup_started = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        started = probe.clock()
        workload.setup(args.seed, work)
        setup_times.append(probe.clock() - started)
    setup_scale = probe.scale(setup_started, time.perf_counter())

    # Repeat until another repetition would end past --seconds; a traced
    # run keeps room for its traced repetition inside the same budget.
    reps, scales = [], []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        reps.append(workload.run(Spans(probe.clock), args.seed, work))
        scales.append(probe.scale(rep_started, time.perf_counter()))
        if len(reps) == 1:
            # Later repetitions repeat the same work but grow the peak a
            # little, so reading it after them would tie the figure to how
            # many fit the budget.
            peak_rss_mb = _peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + (1 + args.trace) * reps[-1].wall_s > args.seconds:
            break
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": _host_facts(),
        "setup_s": setup_times,
        "setup_speed_scale": setup_scale,
        "reps": [
            {"wall_s": r.wall_s, "speed_scale": k, "confusion": r.confusion, "errors": r.errors}
            for r, k in zip(reps, scales)
        ],
        "speed_kernel": probe.kernel.run.__name__,
        # (seconds since set-up began, kernel seconds) for every sample
        "speed_samples": [(t - setup_started, d) for t, d in probe.samples],
        "raw_wall_s": statistics.median(r.wall_s for r in reps),
    }
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = end_to_end = _end_to_end(reps, scales, setup_times, setup_scale, peak_rss_mb)

    if args.trace:
        spans = Spans(probe.clock)
        traced_started = time.perf_counter()
        with Wrappers(spans) as wrappers:
            traced = workload.run(spans, args.seed, work)
        traced_scale = probe.scale(traced_started, time.perf_counter())
        attempted += traced.attempted
        failed += traced.failed
        result["traced_rep"] = {"wall_s": traced.wall_s, "speed_scale": traced_scale, "errors": traced.errors}
        missing = wrappers.missing | uncalled_step_targets(spans)
        result["missing_wrapper_targets"] = sorted(missing)
        metrics = layer_metrics(spans, missing)
        result["trace_flags"] = []
        coverage, floor = metrics["neuralnet.step_coverage"], workload.step_coverage_floor
        if coverage is not None and coverage < floor:
            result["trace_flags"].append(
                f"per-step spans cover {coverage:.3f} of neuralnet.train_s, "
                f"below {floor}: train does work outside the wrapped helpers"
            )
            print("perfbench: " + result["trace_flags"][0], file=sys.stderr)
        files = workload.measured_files(work)
        metrics["neuralnet.model_bytes"] = _file_bytes(files["model"])
        metrics["flow_data.ds_bytes"] = _file_bytes(files["ds"])
        tp, fp, tn, fn = (sum(c[k] for c in traced.confusion.values()) for k in range(4))
        metrics.update({"evaluate.tp": tp, "evaluate.fp": fp, "evaluate.tn": tn, "evaluate.fn": fn})
        metrics["trace.overhead_s"] = traced.wall_s * traced_scale - end_to_end["scaled_wall_s"]
        metrics["host.speed_scale"] = statistics.median(scales)
        spans.write(out_dir / "spans.json")
    result["metrics"] = metrics
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
