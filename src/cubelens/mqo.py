"""Three provably-equivalent execution strategies for one ANALYZE request.

A strategy is a plan, built once per request by build_plan: an optional
merged base query, the roles derived from it and the fact scans it runs.
The selector prices those scans and run_strategy(plan) runs them: the base
once, every other non-empty facilitator directly, then each derived role by
reaggregate(), the rewrite of a query over a usable base (cube_usable is
checked on every call).  Merged bases derive nothing themselves: they take
their groupers and widened atoms from the facilitator set's slot queries.

* Min-MQO has no base: the five facilitators are scanned directly (5 fact
  scans, no post-processing).
* Mid-MQO merges the original and the two drill-downs, which share a
  selection condition and therefore a fact region, into one base and scans
  the two siblings directly (3 fact scans).
* Max-MQO builds one all-encompassing base whose condition widens both
  grouper-dimension atoms to their parent values and whose groupers carry
  the drill-down, original and filter levels; all five roles derive from it
  (1 fact scan).  When a facilitator is missing (fs.missing) its plan is
  Mid-MQO's, with the reason in Plan.fallback_reason.

Deriving folds partial aggregates: sum/min/max fold with themselves, count
adds partial counts.  Folds are order-independent, so all three strategies
produce identical result sets; that equivalence is the central test of this
package.  It also holds for integer sums that leave the int64 range: a merged
base whose own cells overflow is abandoned for direct scans, so every
strategy raises SumOverflow exactly when some facilitator cell overflows.

reaggregate reads the base cells' codes at a level, and which cells lie
inside a target atom, from the base cell set, which computes each once: the
five roles of a plan share their base, their levels and most of their atoms.
Each fold is told the base's peak |cell value|, so none passes over the
partial aggregates to bound its sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from .aggregate import group_reduce
from .analyze import ROLES, AnalyzeResult, FacilitatorSet, SlotResult
from .errors import DegradedStructure, SumOverflow, UsabilityViolation
from .hierarchy import Level
from .query import (
    CellSchema,
    CellSet,
    CubeQuery,
    _atoms_equal,
    cube_usable,
    empty_cell_set,
    execute_query,
)

# ---------------------------------------------------------------------------
# Merged base queries
# ---------------------------------------------------------------------------

def _distinct_levels(levels: list[Level]) -> tuple[Level, ...]:
    """Drop repeated (dimension, depth) levels, keeping first-seen order."""
    seen: dict[tuple[str, int], Level] = {}
    for level in levels:
        seen.setdefault((level.dimension_name, level.depth), level)
    return tuple(seen.values())


def build_all_encompassing(fs: FacilitatorSet) -> CubeQuery:
    """The single query that can answer all five facilitators: both siblings'
    widened atoms, and groupers covering the drill-down levels, the original
    grouper levels and both filter levels (the siblings' groupers)."""
    if fs.missing:
        raise DegradedStructure(f"missing facilitators: {', '.join(fs.missing)}")
    aq = fs.request
    g_a, g_b = aq.groupers
    filter_a, filter_b = fs.sib_a.query.groupers[0], fs.sib_b.query.groupers[1]
    condition = fs.widened_condition
    levels = [fs.dd_a.query.groupers[0], fs.dd_b.query.groupers[1],
              g_a, g_b, filter_a, filter_b]
    # When the filter sits at the grouper level itself, the widened filter's
    # level is carried as an extra (constant-valued) grouper, mirroring the
    # merged query's published shape.
    for g, level in ((g_a, filter_a), (g_b, filter_b)):
        widened = condition.atom_for(g.dimension_name).level
        if level.depth == g.depth and not widened.is_all:
            levels.append(widened)
    return CubeQuery(aq.cube, condition, _distinct_levels(levels), aq.measure_name,
                     f"{aq.measure_alias}_all", aq.agg)


def build_org_dd_merged(fs: FacilitatorSet) -> CubeQuery:
    """The original-and-drill-down merged query: original condition, original
    groupers plus the one-level-down grouper of each drillable side."""
    aq = fs.request
    drilled = [slot.query.groupers[i] for i, slot in enumerate((fs.dd_a, fs.dd_b))
               if not slot.empty]
    return CubeQuery(aq.cube, aq.condition, _distinct_levels(drilled + list(aq.groupers)),
                     aq.measure_name, f"{aq.measure_alias}_orgdd", aq.agg)


# ---------------------------------------------------------------------------
# Answering a query from a usable base
# ---------------------------------------------------------------------------

def reaggregate(base_cells: CellSet, target: CubeQuery, base: CubeQuery) -> CellSet:
    """Filter base cells by the target atoms (re-expressed at the base levels),
    roll coordinates up to the target groupers and fold the partial
    aggregates.  Requires cube_usable(base, target)."""
    report = cube_usable(base, target)
    if not report.usable:
        raise UsabilityViolation(
            f"base query is not usable for the target: failed {report.failed}",
            failed=report.failed,
        )
    schema = CellSchema(target.groupers, target.measure_alias, target.agg)
    if len(base_cells) == 0:
        return empty_cell_set(schema, base_cells.values.dtype)

    cube_schema = base.cube.schema
    mask = None  # base cells kept by the target atoms that differ from the base's
    for dim_name, a_new in target.condition.by_dimension.items():
        if a_new.level.is_all or _atoms_equal(base.condition.atom_for(dim_name), a_new):
            continue
        hit = base_cells.atom_hits(cube_schema.dimension(dim_name), a_new)
        mask = hit if mask is None else mask & hit
    if mask is None:
        mask = slice(None)
    cols = [base_cells.codes_at(cube_schema.dimension(g.dimension_name), g)[mask]
            for g in target.groupers]
    sizes = [g.member_count for g in target.groupers]
    values = base_cells.values[mask]
    fold_op = "sum" if base.agg == "count" else base.agg  # partial counts add up
    key_cols, out = group_reduce(cols, sizes, values, fold_op, peak=base_cells.peak)
    return CellSet(schema, key_cols, out)


# ---------------------------------------------------------------------------
# Plans, the executor and the strategies
# ---------------------------------------------------------------------------

STRATEGIES = ("min", "mid", "max")


@dataclass
class Plan:
    """One strategy's plan for one request, built once by build_plan: the
    selector prices its scans and run_strategy runs them."""

    fs: FacilitatorSet
    requested: str                  # the strategy asked for
    name: str                       # the strategy that runs
    base: Optional[CubeQuery]       # the merged base query (None: Min)
    derived: tuple[str, ...]        # non-empty roles answered from the base
    scanned: tuple[str, ...]        # non-empty roles scanned directly
    scans: tuple[CubeQuery, ...]    # every fact scan in run order, the base first
    fallback_reason: Optional[str] = None  # why Max runs Mid's plan


def build_plan(name: str, fs: FacilitatorSet) -> Plan:
    """The plan of strategy ``name`` over ``fs``.  Max's base needs all five
    facilitators; without them Max runs Mid's plan and says why."""
    if name == "min":
        base, from_base = None, ()
    elif name == "mid":
        base, from_base = build_org_dd_merged(fs), ("org", "ddA", "ddB")
    elif name == "max":
        try:
            base = build_all_encompassing(fs)  # all five facilitators exist
        except DegradedStructure as exc:
            return replace(build_plan("mid", fs), requested=name, fallback_reason=str(exc))
        return Plan(fs, name, name, base, ROLES, (), (base,))
    else:
        raise ValueError(f"unknown strategy {name!r}")
    derived, scanned, scans = [], [], [] if base is None else [base]
    for role, slot in fs.slots().items():
        if not slot.empty and role in from_base:
            derived.append(role)
        elif not slot.empty:
            scanned.append(role)
            scans.append(slot.query)
    return Plan(fs, name, name, base, tuple(derived), tuple(scanned), tuple(scans))


def _timed_execute(q: CubeQuery) -> SlotResult:
    t0 = time.perf_counter_ns()
    cells = execute_query(q)
    return SlotResult(cells=cells, exec_ns=time.perf_counter_ns() - t0)


def run_strategy(plan: Plan) -> AnalyzeResult:
    """Scan the plan's base (if any) and its directly scanned roles, then
    answer each derived role from the base."""
    slots = plan.fs.slots()
    results = {role: SlotResult(reason=slot.reason) for role, slot in slots.items() if slot.empty}
    try:
        merged = _timed_execute(plan.base) if plan.base is not None else SlotResult()
    except SumOverflow as exc:
        # A base cell's sum left int64, so its partial sums cannot be folded.
        # Direct scans overflow exactly when a facilitator's own sum does,
        # which keeps the answer the same under every strategy.
        result = run_strategy(build_plan("min", plan.fs))
        result.strategy_requested = plan.requested
        result.fallback_reason = f"merged base query: {exc}"
        return result
    for role in plan.scanned:
        results[role] = _timed_execute(slots[role].query)

    t0 = time.perf_counter_ns()
    for role in plan.derived:
        results[role] = SlotResult(cells=reaggregate(merged.cells, slots[role].query, plan.base))
    post_ns = time.perf_counter_ns() - t0 if plan.derived else 0

    return AnalyzeResult(slots={role: results[role] for role in ROLES},
                         strategy_requested=plan.requested, strategy_used=plan.name,
                         store_queries=len(plan.scans), postprocess_ns=post_ns,
                         merged_exec_ns=merged.exec_ns, fallback_reason=plan.fallback_reason)


def run_min_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """Execute every derivable facilitator directly; no post-processing."""
    return run_strategy(build_plan("min", fs))


def run_mid_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """One merged original-and-drill-down query plus the two siblings."""
    return run_strategy(build_plan("mid", fs))


def run_max_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """One all-encompassing query answering all five roles (Mid's plan if fs.missing)."""
    return run_strategy(build_plan("max", fs))
