"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload: the untraced runs on each seed, then one traced run on
the first seed. Each metric gets its median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and spread (quartile
distance / median); the traced run's per-layer values are stored as read,
with its missing wrapper targets and flags. `reps_per_run` gives how many
repetitions each untraced run's `scaled_wall_s` is the median of, and
`raw_wall_s` summarizes the same runs' unscaled repetition seconds, so the
effect of the speed scaling (perfbench/speed.py) stays visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    detail, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(last)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs, reps, raw = [], [], []
        for seed in seeds:
            detail, result = _run(name, seed, bench["run_seconds"], 0)
            doc["host"] = detail["host"]
            runs.append(result)
            reps.append(len(detail["reps"]))
            raw.append(detail["raw_wall_s"])
            print(name, seed, json.dumps(result), file=sys.stderr, flush=True)
        traced_detail, traced = _run(name, seeds[0], bench["run_seconds"], 1)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            # repetitions each run's scaled_wall_s is the median of
            "reps_per_run": reps,
            "raw_wall_s": _summary(raw),
            "end_to_end": {
                m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench["end_to_end"]
            },
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "missing_wrapper_targets": traced_detail["missing_wrapper_targets"],
            "trace_flags": traced_detail["trace_flags"],
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
