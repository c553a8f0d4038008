"""Run ANALYZE requests end to end: parse, derive, select, execute, render.

The four-stage timing breakdown mirrors how the operator spends its time:
parsing the text, constructing the facilitator queries (plus the strategy
selection when it is automatic), executing the facilitator queries, and
deriving facilitators from a merged result (post-processing).  total_ns is
the sum of the four stages.  Timings come from the monotonic clock.

The workload runner measures each query x strategy x repetition after a
configurable number of warmup runs (warmups also fill the cube's region
counts and ancestor tables, so repetitions compare hot paths).  A per-query timeout marks runs that exceeded their budget;
execution is not preempted mid-scan, so the budget is checked against the
measured wall time and a timed-out strategy is not retried for the
remaining repetitions.  Each report row names the
strategy that ran and the selector's predicted time for it, next to the
measured stages.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analyze import AnalyzeQuery, AnalyzeResult, ROLES, build_facilitators, from_statement
from .cube import DetailedCube, load_cube
from .errors import ParseError
from .hierarchy import coded_column, formatted_column, read_json, write_columns
from .mqo import STRATEGIES, build_plan, run_strategy
from .parser import parse
from .query import CellSet, cell_sets_equal
from .selector import SelectorConfig, choose_plan, estimate_plans, estimate_stats, route_roles


@dataclass
class TimingBreakdown:
    parse_ns: int = 0
    construct_ns: int = 0
    facilitator_exec_ns: int = 0
    postprocess_ns: int = 0

    @property
    def total_ns(self) -> int:
        return self.parse_ns + self.construct_ns + self.facilitator_exec_ns + self.postprocess_ns


def run_analyze(
    cube: DetailedCube,
    request,
    strategy: str = "auto",
    selector_config: Optional[SelectorConfig] = None,
) -> AnalyzeResult:
    """Drive one ANALYZE request.  ``request`` is statement text or an
    already-bound AnalyzeQuery.  strategy 'auto' runs the plan the selector
    picks (selector.choose_plan); 'min'/'mid'/'max' force a strategy, whose
    plan alone is built."""
    timing = TimingBreakdown()

    t0 = time.perf_counter_ns()
    if isinstance(request, str):
        stmt = parse(request, cube.schema)
        aq = from_statement(stmt, cube)
    else:
        aq = request
    timing.parse_ns = time.perf_counter_ns() - t0

    t1 = time.perf_counter_ns()
    fs = build_facilitators(aq)
    choice = stats = None
    if strategy == "auto":
        stats = estimate_stats(fs)
        choice = choose_plan(fs, stats, selector_config, route_roles(fs))
        plan = choice.plan
    else:
        plan = build_plan(strategy, fs)
    timing.construct_ns = time.perf_counter_ns() - t1

    result = run_strategy(plan)
    result.strategy_requested = strategy
    timing.facilitator_exec_ns = result.facilitator_exec_ns()
    timing.postprocess_ns = result.postprocess_ns
    result.timing = timing
    result.selector = choice
    result.stats = stats
    return result


# ---------------------------------------------------------------------------
# Result rendering
# ---------------------------------------------------------------------------

def write_cells(fh, cube: DetailedCube, cells: CellSet) -> None:
    """One facilitator result as CSV on the text stream ``fh``: the header,
    then the rows sorted lexicographically by the grouper labels."""
    groupers = cells.schema.groupers
    dicts = [cube.schema.dimension(g.dimension_name).dictionary(g) for g in groupers]
    # Labels are unique within a level, so ordering by label ranks (first
    # grouper most significant) orders by the label tuples.
    order = np.lexsort([d.label_ranks[c] for d, c in zip(dicts[::-1], cells.key_cols[::-1])])
    header = [f"{g.dimension_name}.{g.name}" for g in groupers] + [cells.schema.measure_alias]
    columns = [coded_column(d.quoted_labels, c[order]) for d, c in zip(dicts, cells.key_cols)]
    write_columns(fh, header, len(cells), columns + [formatted_column(str, cells.values[order])])


def render_result(cube: DetailedCube, result: AnalyzeResult) -> str:
    """CSV sections, one per facilitator role, plus comment headers."""
    out = io.StringIO()
    header_bits = [f"strategy={result.strategy_used}"]
    if result.selector is not None:
        header_bits.append(f"(coverage={result.selector.sibling_coverage:.2f} "
                           f"imbalance={result.selector.sibling_imbalance:.2f})")
        header_bits.append("predicted_ms " + " ".join(
            f"{name}={ms:.2f}" for name, ms in result.selector.predicted_ms.items()))
    if result.fallback_reason:
        header_bits.append(f"[fallback: {result.fallback_reason}]")
    out.write("# " + " ".join(header_bits) + "\n")
    if result.cuboids:
        out.write("# cuboids " + " ".join(
            f"{role}=[{','.join(map(repr, levels))}]"
            for role, levels in result.cuboids.items()) + "\n")
    if result.timing is not None:
        t = result.timing
        out.write(f"# timing parse={t.parse_ns} construct={t.construct_ns} "
                  f"exec={t.facilitator_exec_ns} post={t.postprocess_ns} total={t.total_ns}\n")
    for role in ROLES:
        slot = result.slots[role]
        if slot.cells is None:
            out.write(f"# facilitator: {role} (empty: {slot.reason})\n\n")
            continue
        out.write(f"# facilitator: {role}\n")
        write_cells(out, cube, slot.cells)
        out.write("\n")
    return out.getvalue()


def write_result_files(cube: DetailedCube, result: AnalyzeResult, prefix) -> list[Path]:
    """One CSV file per facilitator role: <prefix>_<role>.csv."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for role in ROLES:
        slot = result.slots[role]
        path = prefix.parent / f"{prefix.name}_{role}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if slot.cells is None:
                fh.write(f"# empty: {slot.reason}\n")
            else:
                write_cells(fh, cube, slot.cells)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class WorkloadQuery:
    label: str
    text: str
    repetitions: int = 1


@dataclass
class WorkloadSpec:
    queries: list[WorkloadQuery]
    warmups: int = 1
    timeout_s: float = 300.0

    def __post_init__(self):
        if any(q.repetitions < 1 for q in self.queries):
            raise ParseError("workload repetitions must be >= 1")
        if not math.isfinite(self.timeout_s):
            raise ParseError("workload timeout_s must be finite")

    @staticmethod
    def from_dict(raw) -> "WorkloadSpec":
        """Raises ParseError unless ``raw`` is an object whose "queries" is a
        list of objects with a "text" string, and whose counts are numbers."""
        queries = raw.get("queries", []) if isinstance(raw, dict) else None
        if not (isinstance(queries, list) and all(
                isinstance(q, dict) and isinstance(q.get("text"), str) for q in queries)):
            raise ParseError('a workload is {"queries": [{"text": <statement>, ...}, ...]}')
        try:
            return WorkloadSpec(
                [WorkloadQuery(q.get("label", f"q{i}"), q["text"], int(q.get("repetitions", 1)))
                 for i, q in enumerate(queries, start=1)],
                warmups=int(raw.get("warmups", 1)),
                timeout_s=float(raw.get("timeout_s", 300.0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"workload counts must be numbers: {exc}") from None

    @staticmethod
    def load(path) -> "WorkloadSpec":
        return WorkloadSpec.from_dict(read_json(path))


REPORT_COLUMNS = [
    "label", "strategy", "rep", "timed_out",
    "parse_ns", "construct_ns", "facilitator_exec_ns", "postprocess_ns", "total_ns",
    "exec_org_ns", "exec_sibA_ns", "exec_sibB_ns", "exec_ddA_ns", "exec_ddB_ns",
    "exec_merged_ns",
    "facts_org", "facts_sA", "facts_sB", "facts_A", "chosen_ok",
    "strategy_used", "predicted_ms",
]


def run_workload(
    cube: DetailedCube,
    spec: WorkloadSpec,
    strategies: Sequence[str] = STRATEGIES,
    selector_config: Optional[SelectorConfig] = None,
    timeout_s: Optional[float] = None,
) -> list[dict]:
    """Measure every query x strategy x repetition; returns report rows.
    ``timeout_s`` overrides the spec's budget and is checked as it is."""
    if timeout_s is not None:
        spec = replace(spec, timeout_s=timeout_s)
    budget_ns = spec.timeout_s * 1e9
    rows: list[dict] = []
    for wq in spec.queries:
        stmt = parse(wq.text, cube.schema)
        aq = from_statement(stmt, cube)
        fs = build_facilitators(aq)
        stats = estimate_stats(fs)
        predicted = {name: estimate.ms for name, estimate in estimate_plans(fs).items()}

        # Oracle result for the equivalence flag (also warms the caches).
        oracle = run_analyze(cube, aq, strategy="min")

        for strategy in strategies:
            timed_out = False
            for _ in range(spec.warmups):
                if timed_out:
                    break
                t0 = time.perf_counter_ns()
                run_analyze(cube, aq, strategy=strategy, selector_config=selector_config)
                timed_out = time.perf_counter_ns() - t0 > budget_ns
            for rep in range(1, wq.repetitions + 1):
                if timed_out:
                    rows.append(_timeout_row(wq.label, strategy, rep, stats))
                    continue
                result = run_analyze(cube, aq, strategy=strategy,
                                     selector_config=selector_config)
                elapsed = result.timing.total_ns
                timed_out = elapsed > budget_ns
                rows.append(_report_row(wq.label, strategy, rep, result, stats,
                                        oracle, timed_out, predicted))
    return rows


def _results_match(result: AnalyzeResult, oracle: AnalyzeResult) -> bool:
    for role in ROLES:
        a, b = result.slots[role].cells, oracle.slots[role].cells
        if (a is None) != (b is None):
            return False
        if a is not None and not cell_sets_equal(a, b):
            return False
    return True


def _report_row(label, strategy, rep, result, stats, oracle, timed_out, predicted) -> dict:
    t = result.timing
    row = {
        "label": label, "strategy": strategy, "rep": rep, "timed_out": timed_out,
        "parse_ns": t.parse_ns, "construct_ns": t.construct_ns,
        "facilitator_exec_ns": t.facilitator_exec_ns,
        "postprocess_ns": t.postprocess_ns, "total_ns": t.total_ns,
        "exec_merged_ns": result.merged_exec_ns,
        "facts_org": stats.facts_org, "facts_sA": stats.facts_sib_a,
        "facts_sB": stats.facts_sib_b, "facts_A": stats.facts_all,
        "chosen_ok": _results_match(result, oracle),
        "strategy_used": result.strategy_used,
        # auto names its own prediction, which prices its cuboid roles
        "predicted_ms": round((result.selector.predicted_ms if result.selector else
                               predicted)[result.strategy_used], 3),
    }
    for role in ROLES:
        row[f"exec_{role}_ns"] = result.slots[role].exec_ns
    return row


def _timeout_row(label, strategy, rep, stats) -> dict:
    row = {c: 0 for c in REPORT_COLUMNS}
    row.update({
        "label": label, "strategy": strategy, "rep": rep, "timed_out": True,
        "facts_org": stats.facts_org, "facts_sA": stats.facts_sib_a,
        "facts_sB": stats.facts_sib_b, "facts_A": stats.facts_all,
        "chosen_ok": False, "strategy_used": "",
    })
    return row


def write_report(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, 0) for c in REPORT_COLUMNS})


# ---------------------------------------------------------------------------
# Session loading
# ---------------------------------------------------------------------------

def format_count(n: int) -> str:
    if n >= 1_000_000:
        return f"{n / 1_000_000:.0f}M"
    if n >= 1_000:
        return f"{n / 1_000:.0f}K"
    return str(n)


def load_session(schema_file, dimension_files=None, fact_file=None, delimiter=","):
    """Load a cube and produce the banner text the CLI prints."""
    cube = load_cube(schema_file, dimension_files, fact_file, delimiter=delimiter)
    lines = [f"{len(cube.schema.dimensions)} dimensions, {format_count(cube.row_count)} facts"]
    for dim in cube.schema.dimensions:
        per_level = ", ".join(f"{lv.name}={lv.member_count}" for lv in dim.levels[:-1])
        lines.append(f"  {dim.name}: {per_level}")
    lines.append(f"cuboids: {len(cube.lattice)}, {cube.lattice.nbytes} bytes")
    return cube, "\n".join(lines)
