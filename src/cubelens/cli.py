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
    UnknownDimension,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
    UnknownMemberLabel,
)
from .hierarchy import decoding, read_json
from .mqo import STRATEGIES
from .selector import (
    DEFAULT_COVERAGE_THRESHOLD,
    DEFAULT_IMBALANCE_THRESHOLD,
    RULES,
    SelectorConfig,
)
from .synth import SynthSpec, generate

DATA_DIR_ENV = "CUBELENS_DATA_DIR"

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_EXEC = 4
EXIT_TIMEOUT_ALL = 5

STRATEGY_NAMES = ("auto",) + STRATEGIES

_DATA_ERRORS = (ParseError, SchemaMismatch, UnknownMemberLabel, InvalidSpec)
_STATEMENT_ERRORS = (AnalyzeSyntaxError, ConstraintViolation, UnknownLevel,
                     AmbiguousLevel, UnknownMember, UnknownDimension, UnknownMeasure)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--data-dir", help=f"directory containing schema.json (default ${DATA_DIR_ENV})")
    p.add_argument("--dims", nargs="*", default=None,
                   help="member CSVs, positional or NAME=PATH (overrides the schema file)")
    p.add_argument("--facts", help="fact CSV path (overrides the schema file)")
    p.add_argument("--delimiter", default=",", help="CSV delimiter (default comma)")


def _add_selector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--selector", choices=RULES, default="cost",
                   help="auto's rule: the cheapest predicted plan (cost, default) "
                        "or the paper's coverage/imbalance thresholds (paper)")
    p.add_argument("--coverage-threshold", type=float, default=DEFAULT_COVERAGE_THRESHOLD,
                   help="paper rule only")
    p.add_argument("--imbalance-threshold", type=float, default=DEFAULT_IMBALANCE_THRESHOLD,
                   help="paper rule only")


def _strategy_list(text: str) -> list[str]:
    """The comma-separated names of --strategies: at least one, each one of
    STRATEGY_NAMES."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no strategy named")
    unknown = [name for name in names if name not in STRATEGY_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {', '.join(map(repr, unknown))} "
            f"(choose from {', '.join(STRATEGY_NAMES)})")
    return names


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
        rule=args.selector,
    )


def cmd_load(args) -> int:
    cube, banner = _load(args)
    print(banner)
    return EXIT_OK


def cmd_query(args) -> int:
    cube, _ = _load(args)
    if args.query_file:
        with decoding(args.query_file):
            text = Path(args.query_file).read_text(encoding="utf-8")
    else:
        text = args.query
    result = run_analyze(cube, text, strategy=args.strategy,
                         selector_config=_selector_config(args))
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
    rows = run_workload(cube, spec, strategies=args.strategies,
                        selector_config=_selector_config(args),
                        timeout_s=args.timeout_s)
    write_report(rows, args.report)
    print(f"{len(rows)} rows -> {args.report}")
    if rows and all(r["timed_out"] for r in rows):
        return EXIT_TIMEOUT_ALL
    return EXIT_OK


def cmd_gensynth(args) -> int:
    spec = SynthSpec.from_dict(read_json(args.spec))
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
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="auto")
    p.add_argument("--output", "-o", help="file prefix; writes <prefix>_<role>.csv per facilitator")
    _add_selector_args(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="run a workload and write a timing report")
    _add_data_args(p)
    p.add_argument("--workload", required=True, help="workload JSON")
    p.add_argument("--report", required=True, help="output CSV path")
    p.add_argument("--strategies", type=_strategy_list, default=",".join(STRATEGIES),
                   help="comma-separated, from: " + ", ".join(STRATEGY_NAMES))
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _STATEMENT_ERRORS as exc:
        print(exc if isinstance(exc, AnalyzeSyntaxError) else f"parse error: {exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except CubeLensError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return EXIT_EXEC


if __name__ == "__main__":
    sys.exit(main())
