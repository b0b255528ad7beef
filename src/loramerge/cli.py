"""Command-line front-end.

Subcommands: merge, delta, similarity, cost, metrics, inspect.  Diagnostics
go to stderr with a one-line ``error[<code>]:`` prefix; machine output goes
to files or stdout only, every file through :func:`container.replacing`,
and a report file before the report is printed.  Exit codes: 0 success,
1 validation error, 2 I/O error, 3 numerical error.  The cost, metrics and
similarity modules are imported by their own subcommands, so a merge loads
none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import merging
from .adapters import (
    compute_delta,
    load_adapter,
    load_as_delta,
    refactor_to_adapter,
    save_adapter,
    save_delta,
)
from .container import read_header, replacing
from .errors import FormatError, LoramergeError, ParameterError, StorageError


class _UsageError(LoramergeError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for I/O here
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="loramerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge adapters or deltas into one delta")
    p_merge.add_argument("--config", required=True, help="merge config JSON file")
    p_merge.add_argument("--density", type=float, help="override config density")
    p_merge.add_argument("--seed", type=int, help="override config seed")
    p_merge.add_argument("--weights", help="override config weights, comma-separated")
    p_merge.add_argument(
        "--refactor-rank",
        type=int,
        help="write a rank-R adapter (truncated SVD) instead of a delta",
    )
    p_merge.add_argument("--out", required=True, help="output file")
    p_merge.add_argument("inputs", nargs="+", help="adapter or delta files")

    p_delta = sub.add_parser("delta", help="compute the delta of one adapter")
    p_delta.add_argument("--out", required=True, help="output delta file")
    p_delta.add_argument("adapter", help="adapter file")

    p_sim = sub.add_parser("similarity", help="pairwise cosine similarity matrix")
    p_sim.add_argument("--csv", required=True, help="output CSV file")
    p_sim.add_argument("--per-layer", action="store_true", help="mean of per-layer cosines")
    p_sim.add_argument("deltas", nargs="+", help="delta (or adapter) files")

    p_cost = sub.add_parser("cost", help="retrain-all vs merge time/cost comparison")
    p_cost.add_argument("--scenario", required=True, help="scenario JSON file")
    p_cost.add_argument("--mode", choices=["initial", "update"], help="restrict to one row")
    p_cost.add_argument("--json", dest="json_out", help="also write the report as JSON")

    p_metrics = sub.add_parser("metrics", help="evaluate task outputs from a JSONL file")
    p_metrics.add_argument(
        "--task",
        required=True,
        choices=["sentiment", "reasoning", "summarization", "extraction"],
    )
    p_metrics.add_argument("--in", dest="input", required=True, help="JSONL input file")
    p_metrics.add_argument("--json", dest="json_out", help="also write the report as JSON")

    p_inspect = sub.add_parser("inspect", help="print a container file's header")
    p_inspect.add_argument("file", help="container file")

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _read_jsonl(path: str) -> list[dict]:
    records = []
    for number, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{number}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{number}: record must be a JSON object")
        records.append(record)
    return records


def _write_text(path: str, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def _cmd_merge(args: argparse.Namespace) -> int:
    config = merging.MergeConfig.from_json_dict(_read_json(args.config))
    overrides: dict = {}
    if args.density is not None:
        overrides["density"] = args.density
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.weights is not None:
        try:
            overrides["weights"] = tuple(float(w) for w in args.weights.split(","))
        except ValueError as exc:
            raise ParameterError(f"bad --weights value: {args.weights!r}") from exc
    if overrides:
        config = dataclasses.replace(config, **overrides)

    # the inputs' headers are read now and their layers as the output is
    # written, one layer at a time (lazy_merge)
    deltas = [load_as_delta(path) for path in args.inputs]
    merged = merging.lazy_merge(deltas, config)
    if args.refactor_rank is not None:
        save_adapter(refactor_to_adapter(merged, args.refactor_rank), args.out)
    else:
        save_delta(merged, args.out)
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    save_delta(compute_delta(load_adapter(args.adapter)), args.out)
    return 0


def _cmd_similarity(args: argparse.Namespace) -> int:
    from .similarity import similarity_matrix

    deltas = [load_as_delta(path) for path in args.deltas]
    matrix = similarity_matrix(deltas, per_layer=args.per_layer)
    _write_text(args.csv, matrix.to_csv())
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from . import costing

    scenario = costing.scenario_from_json_dict(_read_json(args.scenario))
    initial = update = None
    if args.mode in (None, "initial"):
        initial = costing.initial_setup(scenario)
    if args.mode == "update" or (args.mode is None and scenario.update is not None):
        update = costing.update_language(scenario)
    table = costing.render_table(initial, update)
    if args.json_out:  # first, so a failed write prints no report
        doc = {}
        if initial is not None:
            doc["initial"] = initial.to_json_dict()
        if update is not None:
            doc["update"] = update.to_json_dict()
        _write_text(args.json_out, json.dumps(doc, indent=2) + "\n")
    sys.stdout.write(table)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from . import metrics

    report = metrics.evaluate_task(args.task, _read_jsonl(args.input))
    text = json.dumps(report, indent=2) + "\n"
    if args.json_out:  # first, so a failed write prints no report
        _write_text(args.json_out, text)
    sys.stdout.write(text)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    header = read_header(args.file)
    sys.stdout.write(json.dumps(header, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


_COMMANDS = {
    "merge": _cmd_merge,
    "delta": _cmd_delta,
    "similarity": _cmd_similarity,
    "cost": _cmd_cost,
    "metrics": _cmd_metrics,
    "inspect": _cmd_inspect,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except LoramergeError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
