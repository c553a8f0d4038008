"""Three provably-equivalent execution strategies for one ANALYZE request.

A strategy is a plan, built once per request by build_plan: an optional
merged base query, the roles derived from it and the fact scans it runs.
The selector prices those scans and run_strategy(plan) runs them: the base
once, every other non-empty facilitator directly, then each derived role by
reaggregate(), the rewrite of a query over a usable base (cube_usable is
checked on every call).  One rule builds every merged base from the
non-empty facilitators a strategy merges: the original condition, widened
by each merged sibling only (fs.widened), grouped by the merged
drill-downs' levels, the original groupers and the merged siblings' filter
levels.  Merged facilitators answer the same as separate ones, so a missing
facilitator only drops out of the base.

* Min-MQO has no base: the facilitators are scanned directly (5 fact scans
  when all exist, no post-processing).
* Mid-MQO merges the original and the two drill-downs, which share a
  selection condition and therefore a fact region, into one base and scans
  the two siblings directly (3 fact scans).
* Max-MQO merges all five into one all-encompassing base (1 fact scan).

Under strategy 'auto' a plan may also answer some roles from cuboids of the
cube's lattice (Plan.cuboids, chosen by selector.route_roles): each by
reaggregate from its cuboid, with no fact scan.  The strategy then merges or
scans only the remaining roles.  Forced strategies never read a cuboid.

Deriving folds partial aggregates: sum/min/max fold with themselves, count
adds partial counts.  Folds are order-independent, so all three strategies
produce identical result sets; that equivalence is the central test of this
package.  It also holds for integer sums that leave the int64 range: a merged
base whose own cells overflow is abandoned for direct scans, so every
strategy raises SumOverflow exactly when some facilitator cell overflows.

reaggregate reads the base cells' codes at a level from the base cell set,
which rolls them up once: the five roles of a plan share their base and
their levels.  Which cells lie inside a target atom is tested on those codes
when a call needs it, so a base keeps no state per atom; the roles a plan
derives from its base pass each other the cells their shared conditions
keep (run_strategy hands every call one dict for that).
Each fold is told the base's peak |cell value|, so none passes over the
partial aggregates to bound its sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .aggregate import group_reduce
from .analyze import ROLES, AnalyzeResult, FacilitatorSet, SlotResult
from .errors import SumOverflow, UsabilityViolation
from .hierarchy import Level
from .query import (
    CellSchema,
    CellSet,
    CubeQuery,
    _atoms_equal,
    cube_usable,
    execute_query,
)

# ---------------------------------------------------------------------------
# Answering a query from a usable base
# ---------------------------------------------------------------------------

def reaggregate(base_cells: CellSet, target: CubeQuery, base: CubeQuery,
                kept_by: Optional[dict] = None) -> CellSet:
    """Filter base cells by the target atoms (re-expressed at the base levels),
    roll coordinates up to the target groupers and fold the partial
    aggregates.  Requires cube_usable(base, target).  ``kept_by``, when
    given, maps each target condition seen over these base cells to the
    cells it keeps, and fills as it goes: the roles a plan derives from one
    base share conditions (the original and the drill-downs share one)."""
    report = cube_usable(base, target)
    if not report.usable:
        raise UsabilityViolation(
            "base query is not usable for the target: "
            + "; ".join(f"({cid}) {why}" for cid, why in report.failures),
            failed=report.failed,
        )
    schema = CellSchema(target.groupers, target.measure_alias, target.agg)
    cube_schema = base.cube.schema
    condition = target.condition
    if kept_by is not None and condition in kept_by:
        kept = kept_by[condition]
    else:
        base_atoms = base.condition.by_dimension
        # base cells kept by the target atoms that differ from the base's
        # (their ids: kept cells are few, so three gathers by id beat three
        # masks), None for all of them
        mask = base_cells.inside(cube_schema, [
            a_new for dim_name, a_new in condition.by_dimension.items()
            if not _atoms_equal(base_atoms.get(dim_name), a_new)])
        kept = None if mask is None else np.flatnonzero(mask)
        if kept_by is not None:
            kept_by[condition] = kept
    cols = [base_cells.codes_at(cube_schema, g) for g in target.groupers]
    values = base_cells.values
    if kept is not None:
        cols = [col[kept] for col in cols]
        values = values[kept]
    fold_op = "sum" if base.agg == "count" else base.agg  # partial counts add up
    key_cols, out = group_reduce(cols, [g.member_count for g in target.groupers], values,
                                 fold_op, peak=base_cells.peak)
    return CellSet(schema, key_cols, out)


# ---------------------------------------------------------------------------
# Plans, the executor and the strategies
# ---------------------------------------------------------------------------

# The roles each strategy derives from its merged base, and the base's alias
# suffix: Min merges nothing, Mid the roles sharing the original's region,
# Max all five.
_MERGES = {"min": ((), ""), "mid": (("org", "ddA", "ddB"), "orgdd"), "max": (ROLES, "all")}
STRATEGIES = tuple(_MERGES)


@dataclass
class Plan:
    """One strategy's plan for one request, built once by build_plan: the
    selector prices its scans and run_strategy runs them."""

    fs: FacilitatorSet
    name: str                       # the strategy
    base: Optional[CubeQuery]       # the merged base query (None: Min)
    derived: tuple[str, ...]        # non-empty roles answered from the base
    scanned: tuple[str, ...]        # non-empty roles scanned directly
    scans: tuple[CubeQuery, ...]    # every fact scan in run order, the base first
    cuboids: dict = field(default_factory=dict)  # role -> lattice.Route it is answered from


def _distinct_levels(levels: list[Level]) -> tuple[Level, ...]:
    """Drop repeated (dimension, depth) levels, keeping first-seen order."""
    seen: dict[tuple[str, int], Level] = {}
    for level in levels:
        seen.setdefault((level.dimension_name, level.depth), level)
    return tuple(seen.values())


def _merged_base(fs: FacilitatorSet, roles: tuple[str, ...], suffix: str) -> CubeQuery:
    """The one query the non-empty facilitators ``roles`` derive from: the
    original condition, widened by each merged sibling, grouped by each
    merged drill-down's level, the original groupers and each merged
    sibling's filter level."""
    aq = fs.request
    slots = fs.slots()
    siblings = [(g, slots[role].query.groupers[i])
                for i, (g, role) in enumerate(zip(aq.groupers, ("sibA", "sibB"))) if role in roles]
    condition = fs.widened(roles) if siblings else aq.condition
    levels = [slots[role].query.groupers[i]
              for i, role in enumerate(("ddA", "ddB")) if role in roles]
    levels += [*aq.groupers, *(level for _, level in siblings)]
    # When the filter sits at the grouper level itself, the widened filter's
    # level is carried as an extra (constant-valued) grouper, mirroring the
    # merged query's published shape.
    for g, level in siblings:
        widened = condition.atom_for(g.dimension_name).level
        if level.depth == g.depth and not widened.is_all:
            levels.append(widened)
    return CubeQuery(aq.cube, condition, _distinct_levels(levels), aq.measure_name,
                     f"{aq.measure_alias}_{suffix}", aq.agg)


def build_plan(name: str, fs: FacilitatorSet, cuboids: Optional[dict] = None) -> Plan:
    """The plan of strategy ``name`` over ``fs``: the roles in ``cuboids``
    (role -> lattice.Route) are answered from their cuboid, the other
    non-empty roles it merges derive from one base, the rest are scanned."""
    if name not in _MERGES:
        raise ValueError(f"unknown strategy {name!r}")
    merges, suffix = _MERGES[name]
    cuboids = dict(cuboids or {})
    slots = fs.slots()
    present = [role for role in ROLES if not slots[role].empty and role not in cuboids]
    derived = tuple(role for role in present if role in merges)
    scanned = tuple(role for role in present if role not in merges)
    base = _merged_base(fs, derived, suffix) if derived else None
    scans = ((base,) if base is not None else ()) + tuple(slots[role].query for role in scanned)
    return Plan(fs, name, base, derived, scanned, scans, cuboids)


def _timed(answer, *args) -> SlotResult:
    t0 = time.perf_counter_ns()
    cells = answer(*args)
    return SlotResult(cells=cells, exec_ns=time.perf_counter_ns() - t0)


def run_strategy(plan: Plan) -> AnalyzeResult:
    """Answer the plan's cuboid roles from their cuboids, scan its base (if
    any) and its directly scanned roles, then answer each derived role from
    the base."""
    slots = plan.fs.slots()
    results = {role: SlotResult(reason=slot.reason) for role, slot in slots.items() if slot.empty}
    for role, route in plan.cuboids.items():
        results[role] = _timed(reaggregate, route.cells, slots[role].query, route.query)
    try:
        merged = _timed(execute_query, plan.base) if plan.base is not None else SlotResult()
    except SumOverflow as exc:
        # A base cell's sum left int64, so its partial sums cannot be folded.
        # Direct scans overflow exactly when a facilitator's own sum does,
        # which keeps the answer the same under every strategy.
        result = run_strategy(build_plan("min", plan.fs, plan.cuboids))
        result.strategy_requested = plan.name
        result.fallback_reason = f"merged base query: {exc}"
        return result
    for role in plan.scanned:
        results[role] = _timed(execute_query, slots[role].query)

    t0 = time.perf_counter_ns()
    kept_by: dict = {}
    for role in plan.derived:
        results[role] = SlotResult(cells=reaggregate(merged.cells, slots[role].query, plan.base,
                                                     kept_by))
    post_ns = time.perf_counter_ns() - t0 if plan.derived else 0

    return AnalyzeResult(slots={role: results[role] for role in ROLES},
                         strategy_requested=plan.name, strategy_used=plan.name,
                         store_queries=len(plan.scans), postprocess_ns=post_ns,
                         merged_exec_ns=merged.exec_ns,
                         cuboids={role: route.query.groupers
                                  for role, route in plan.cuboids.items()})
