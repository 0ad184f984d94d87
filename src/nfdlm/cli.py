"""Command-line interface.

Subcommands: ingest, synth, select, train, evaluate, compare.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from .errors import DataError, NumericError
from .evaluate import confusion, metrics
from .experiment import (
    PRESET_NAMES,
    compare,
    load_report,
    preset,
    run_experiment,
    save_report,
)
from .feature_select import correlation_filter, mi_rank_select
from .flow_data import (
    atomic_write_text,
    CATEGORICAL,
    drop_columns,
    generate_synthetic_flows,
    LABEL_COLUMN,
    load_dataset,
    PARSE_CHUNK_ROWS,
    parse_flow_csv,
    POSITIVE_LABEL,
    save_dataset,
    SynthesisSpec,
    write_flow_csv,
)
from .neuralnet import load_model, predict


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nfdlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a flow CSV into a cached dataset file",
                       description="Parse a flow CSV into a cached dataset file of its numeric "
                       "columns. Categorical columns are dropped; the summary line names them.")
    p.add_argument("--input", required=True, help="CSV file with a header row; a regular file, "
                   f"not a pipe, when a column turns categorical after row {PARSE_CHUNK_ROWS}")
    p.add_argument("--label-column", default=LABEL_COLUMN)
    p.add_argument("--positive", default=POSITIVE_LABEL, help="label value mapped to attack (1)")
    p.add_argument(
        "--drop",
        default=None,
        help="comma-separated columns to drop; defaults to pkSeqID,stime,ltime "
        "where present; pass an empty string to drop nothing",
    )
    p.add_argument("--out", required=True, help="dataset file to write")

    p = sub.add_parser("synth", help="generate a synthetic flow CSV")
    p.add_argument("--attack", type=int, required=True)
    p.add_argument("--benign", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--dupes", type=int, default=0, help="planted near-duplicate column pairs")
    p.add_argument("--separation", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV file to write")

    p = sub.add_parser("select", help="run a feature selector and write its report")
    p.add_argument("--data", required=True, help="dataset file from ingest")
    p.add_argument("--method", required=True, choices=["correlation", "mi"])
    p.add_argument("--threshold", type=float, default=0.65)
    p.add_argument("--top-k", type=int, default=11)
    p.add_argument("--out", required=True, help="selection report JSON")

    p = sub.add_parser("train", help="run a preset pipeline end to end")
    p.add_argument("--data", required=True, help="dataset file from ingest")
    p.add_argument("--preset", required=True, choices=list(PRESET_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--split", type=float, default=0.2, help="held-out test fraction")
    p.add_argument("--smote-k", type=int, default=5)
    p.add_argument(
        "--smote-before-split",
        action="store_true",
        help="resample before splitting (the literal, leak-prone order)",
    )
    p.add_argument("--model-out", required=True, help="model JSON to write")
    p.add_argument("--report-out", required=True, help="experiment report JSON to write")

    p = sub.add_parser("evaluate", help="score a saved model against a dataset")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--data", required=True, help="labeled dataset file")
    p.add_argument("--report-out", required=True, help="metrics JSON to write")

    p = sub.add_parser("compare", help="tabulate experiment reports")
    p.add_argument("--reports", required=True, help="comma-separated report JSON paths")
    p.add_argument("--out", required=True, help="markdown table to write")
    p.add_argument("--json-out", default=None, help="optional JSON table to write")
    return parser


def _peak_rss_mb() -> float:
    """This process's peak resident set size; Linux reports it in KiB, macOS in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _cmd_ingest(args) -> None:
    started = time.perf_counter()
    ds = parse_flow_csv(args.input, args.label_column, args.positive)
    parse_seconds = time.perf_counter() - started
    drop = None if args.drop is None else [name for name in args.drop.split(",") if name]
    categorical = [c.name for c in ds.columns if c.kind == CATEGORICAL]
    ds = drop_columns(ds, drop, drop_string_columns=True)
    save_dataset(ds, args.out)
    dropped = f" (dropped categorical {', '.join(categorical)})" if categorical else ""
    print(
        f"ingested {ds.row_count} rows, {len(ds.feature_names)} numeric features{dropped}, "
        f"{int(ds.labels.sum())} attack / {int((ds.labels == 0).sum())} benign -> {args.out} "
        f"(parsed in {parse_seconds:.2f} s, {ds.row_count / parse_seconds:.0f} rows/s, "
        f"peak RSS {_peak_rss_mb():.1f} MB)"
    )


def _cmd_synth(args) -> None:
    spec = SynthesisSpec(
        attack_count=args.attack,
        benign_count=args.benign,
        feature_count=args.features,
        planted_duplicate_pairs=args.dupes,
        class_separation=args.separation,
        seed=args.seed,
    )
    ds = generate_synthetic_flows(spec)
    write_flow_csv(ds, args.out)
    print(f"wrote {ds.row_count} synthetic flows ({args.features} features) -> {args.out}")


def _cmd_select(args) -> None:
    ds = load_dataset(args.data)
    if args.method == "correlation":
        selection = correlation_filter(ds, args.threshold)
    else:
        selection = mi_rank_select(ds, args.top_k)
    atomic_write_text(args.out, json.dumps(selection.to_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"{selection.method}: kept {len(selection.kept)} of "
        f"{len(selection.kept) + len(selection.dropped)} features -> {args.out}"
    )


def _cmd_train(args) -> None:
    cfg = preset(
        args.preset,
        seed=args.seed,
        split_fraction=args.split,
        smote_k=args.smote_k,
        smote_before_split=args.smote_before_split,
    )
    # No name here holds the dataset, so on Python 3.11+ (where a call's
    # arguments move into the callee's frame) run_experiment can free it
    # after the split. On 3.10 the caller's stack keeps it until the return.
    report = run_experiment(cfg, load_dataset(args.data), source=str(args.data),
                            model_path=args.model_out)
    save_report(report, args.report_out)
    print(
        f"{cfg.name}: test accuracy {report.metrics.accuracy:.4f}, "
        f"{report.feature_count} features, trained in {report.phase_seconds['training']:.1f} s; "
        f"model -> {args.model_out}, report -> {args.report_out}"
    )


def _cmd_evaluate(args) -> None:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    preds = predict(model, ds)
    result = metrics(confusion(preds, ds.labels))
    doc = {
        "model_path": str(args.model),
        "data_path": str(args.data),
        "rows": ds.row_count,
        "metrics": result.to_dict(),
        "metrics_split": "supplied-dataset",
    }
    atomic_write_text(args.report_out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"accuracy {result.accuracy:.4f} on {ds.row_count} rows -> {args.report_out}")


def _cmd_compare(args) -> None:
    paths = [p for p in args.reports.split(",") if p]
    table = compare([load_report(p) for p in paths])
    atomic_write_text(args.out, table.to_markdown())
    if args.json_out:
        atomic_write_text(args.json_out, table.to_json() + "\n")
    print(f"compared {len(paths)} reports -> {args.out}")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "select": _cmd_select,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"nfdlm: numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"nfdlm: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"nfdlm: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
