"""Command-line entry point: load / query / bench / gensynth.

Exit codes: 0 success, 2 I/O or data-file problem, 3 statement parse error,
4 execution error, 5 every benchmarked run timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    WorkloadSpec,
    load_session,
    render_result,
    run_analyze,
    run_workload,
    write_report,
    write_result_files,
)
from .errors import (
    AmbiguousLevel,
    AnalyzeSyntaxError,
    ConstraintViolation,
    CubeLensError,
    InvalidSpec,
    ParseError,
    SchemaMismatch,
    UnknownLevel,
    UnknownMember,
    UnknownMemberLabel,
)
from .selector import DEFAULT_COVERAGE_THRESHOLD, DEFAULT_IMBALANCE_THRESHOLD, SelectorConfig
from .synth import SynthSpec, generate

DATA_DIR_ENV = "CUBELENS_DATA_DIR"

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_EXEC = 4
EXIT_TIMEOUT_ALL = 5

_DATA_ERRORS = (ParseError, SchemaMismatch, UnknownMemberLabel, InvalidSpec)
_STATEMENT_ERRORS = (AnalyzeSyntaxError, ConstraintViolation, UnknownLevel,
                     AmbiguousLevel, UnknownMember)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--data-dir", help=f"directory containing schema.json (default ${DATA_DIR_ENV})")
    p.add_argument("--dims", nargs="*", default=None,
                   help="member CSVs, positional or NAME=PATH (overrides the schema file)")
    p.add_argument("--facts", help="fact CSV path (overrides the schema file)")
    p.add_argument("--delimiter", default=",", help="CSV delimiter (default comma)")


def _add_selector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coverage-threshold", type=float, default=DEFAULT_COVERAGE_THRESHOLD)
    p.add_argument("--imbalance-threshold", type=float, default=DEFAULT_IMBALANCE_THRESHOLD)
    p.add_argument("--no-selector", action="store_true",
                   help="disable the auto selector (falls back to mid)")


def _schema_path(args) -> Path:
    if args.schema:
        return Path(args.schema)
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise SystemExit(f"error: give --schema, --data-dir or ${DATA_DIR_ENV}")
    return Path(data_dir) / "schema.json"


def _load(args):
    return load_session(_schema_path(args), args.dims, args.facts, delimiter=args.delimiter)


def _selector_config(args) -> SelectorConfig:
    return SelectorConfig(
        coverage_threshold=args.coverage_threshold,
        imbalance_threshold=args.imbalance_threshold,
        enabled=not args.no_selector,
    )


def cmd_load(args) -> int:
    cube, banner = _load(args)
    print(banner)
    return EXIT_OK


def cmd_query(args) -> int:
    cube, _ = _load(args)
    if args.query_file:
        text = Path(args.query_file).read_text(encoding="utf-8")
    else:
        text = args.query
    try:
        result = run_analyze(cube, text, strategy=args.strategy,
                             selector_config=_selector_config(args))
    except _STATEMENT_ERRORS as exc:
        if isinstance(exc, AnalyzeSyntaxError):
            print(str(exc), file=sys.stderr)
        else:
            print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.output:
        written = write_result_files(cube, result, args.output)
        print("\n".join(str(p) for p in written))
        t = result.timing
        print(f"strategy={result.strategy_used} total_ns={t.total_ns}")
    else:
        sys.stdout.write(render_result(cube, result))
    return EXIT_OK


def cmd_bench(args) -> int:
    cube, _ = _load(args)
    spec = WorkloadSpec.load(args.workload)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    rows = run_workload(cube, spec, strategies=strategies,
                        selector_config=_selector_config(args),
                        timeout_s=args.timeout_s)
    write_report(rows, args.report)
    print(f"{len(rows)} rows -> {args.report}")
    if rows and all(r["timed_out"] for r in rows):
        return EXIT_TIMEOUT_ALL
    return EXIT_OK


def cmd_gensynth(args) -> int:
    raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    spec = SynthSpec.from_dict(raw)
    manifest = generate(spec, args.out, seed=args.seed)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelens",
        description="Multidimensional cube engine with the ANALYZE operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="load a dataset and print its shape")
    _add_data_args(p)
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("query", help="run one ANALYZE statement")
    _add_data_args(p)
    p.add_argument("--query", "-q", help="ANALYZE statement text")
    p.add_argument("--query-file", help="file containing the statement")
    p.add_argument("--strategy", choices=["auto", "min", "mid", "max"], default="auto")
    p.add_argument("--output", "-o", help="file prefix; writes <prefix>_<role>.csv per facilitator")
    _add_selector_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="run a workload and write a timing report")
    _add_data_args(p)
    p.add_argument("--workload", required=True, help="workload JSON")
    p.add_argument("--report", required=True, help="output CSV path")
    p.add_argument("--strategies", default="min,mid,max")
    p.add_argument("--timeout-s", type=float, default=None,
                   help="per-query budget (default from the workload file, 300s)")
    _add_selector_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gensynth", help="generate a deterministic synthetic dataset")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gensynth)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "query" and not (args.query or args.query_file):
        parser.error("query needs --query or --query-file")
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CubeLensError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return EXIT_EXEC


if __name__ == "__main__":
    sys.exit(main())
