"""Three provably-equivalent execution strategies for one ANALYZE request.

A strategy is a plan: an optional merged base query plus the facilitator
roles derived from its result.  run_strategy(name, fs) runs every plan.  It
scans the base once, scans every other non-empty facilitator directly, and
answers each derived role with reaggregate(), the rewrite of a query over a
usable base (cube_usable is checked on every call).  Merged bases derive
nothing themselves: they take their groupers and widened atoms from the
facilitator set's slot queries.

* Min-MQO has no base: the five facilitators are scanned directly (5 fact
  scans, no post-processing).
* Mid-MQO merges the original and the two drill-downs, which share a
  selection condition and therefore a fact region, into one base and scans
  the two siblings directly (3 fact scans).
* Max-MQO builds one all-encompassing base whose condition widens both
  grouper-dimension atoms to their parent values and whose groupers carry
  the drill-down, original and filter levels; all five roles derive from it
  (1 fact scan).  It falls back to Mid-MQO when a facilitator is missing
  (fs.missing).

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
    condition = fs.widened_condition()
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
# The executor and the strategies
# ---------------------------------------------------------------------------

def _timed_execute(q: CubeQuery) -> SlotResult:
    t0 = time.perf_counter_ns()
    cells = execute_query(q)
    return SlotResult(cells=cells, exec_ns=time.perf_counter_ns() - t0)


def _execute_plan(fs: FacilitatorSet, base: Optional[CubeQuery],
                  derived: tuple[str, ...], strategy: str) -> AnalyzeResult:
    """Scan the base (if any) and every non-empty facilitator outside
    ``derived``, then answer each non-empty derived role from the base."""
    slots = fs.slots()
    results = {role: SlotResult(reason=slot.reason) for role, slot in slots.items() if slot.empty}
    scanned = [role for role, slot in slots.items() if not slot.empty and role not in derived]
    try:
        merged = _timed_execute(base) if base is not None else SlotResult()
    except SumOverflow as exc:
        # A base cell's sum left int64, so its partial sums cannot be folded.
        # Direct scans overflow exactly when a facilitator's own sum does,
        # which keeps the answer the same under every strategy.
        result = _execute_plan(fs, None, (), strategy)
        result.strategy_used = "min"
        result.fallback_reason = f"merged base query: {exc}"
        return result
    for role in scanned:
        results[role] = _timed_execute(slots[role].query)

    post_ns = 0
    if base is not None:
        t0 = time.perf_counter_ns()
        for role in derived:
            if not slots[role].empty:
                results[role] = SlotResult(cells=reaggregate(merged.cells, slots[role].query, base))
        post_ns = time.perf_counter_ns() - t0

    return AnalyzeResult(slots={role: results[role] for role in ROLES},
                         strategy_requested=strategy, strategy_used=strategy,
                         store_queries=len(scanned) + int(base is not None),
                         postprocess_ns=post_ns, merged_exec_ns=merged.exec_ns)


# Each plan: the builder of its merged base (None: no base) and the roles
# answered from that base.  Max's base needs all five roles; without them
# run_strategy falls back to Mid.
_PLANS = {
    "min": (None, ()),
    "mid": (build_org_dd_merged, ("org", "ddA", "ddB")),
    "max": (build_all_encompassing, ROLES),
}
STRATEGIES = tuple(_PLANS)


def run_strategy(name: str, fs: FacilitatorSet) -> AnalyzeResult:
    """Run the named strategy's plan over the facilitator set."""
    if name not in _PLANS:
        raise ValueError(f"unknown strategy {name!r}")
    build, derived = _PLANS[name]
    try:
        base = build(fs) if build is not None else None
    except DegradedStructure as exc:
        result = run_strategy("mid", fs)
        result.strategy_requested = name
        result.fallback_reason = str(exc)
        return result
    return _execute_plan(fs, base, derived, name)


def run_min_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """Execute every derivable facilitator directly; no post-processing."""
    return run_strategy("min", fs)


def run_mid_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """One merged original-and-drill-down query plus the two siblings."""
    return run_strategy("mid", fs)


def run_max_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """Single all-encompassing query answering all five roles; Mid-MQO when
    a facilitator is missing."""
    return run_strategy("max", fs)
