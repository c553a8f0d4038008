"""Three provably-equivalent execution strategies for one ANALYZE request.

A strategy is a plan: an optional merged base query plus the facilitator
roles derived from its result.  One executor runs every plan.  It scans the
base once, scans every other non-empty facilitator directly, and answers each
derived role with reaggregate(), the rewrite of a query over a usable base
(cube_usable is checked on every call).

* Min-MQO has no base: the five facilitators are scanned directly (5 fact
  scans, no post-processing).
* Mid-MQO merges the original and the two drill-downs, which share a
  selection condition and therefore a fact region, into one base and scans
  the two siblings directly (3 fact scans).
* Max-MQO builds one all-encompassing base whose condition widens both
  grouper-dimension atoms to their parent values and whose groupers carry
  the drill-down, original and filter levels; all five roles derive from it
  (1 fact scan).  It falls back to Mid-MQO when that structure is missing.

Deriving folds partial aggregates: sum/min/max fold with themselves, count
adds partial counts.  Folds are order-independent, so all three strategies
produce identical result sets; that equivalence is the central test of this
package.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .aggregate import group_reduce
from .analyze import ROLES, AnalyzeQuery, AnalyzeResult, FacilitatorSet, SlotResult, sibling_atom
from .errors import DegradedStructure, UsabilityViolation
from .hierarchy import Level
from .query import (
    CellSchema,
    CellSet,
    CubeQuery,
    _atoms_equal,
    _lift_values,
    cube_usable,
    empty_cell_set,
    execute_query,
)

STRATEGIES = ("min", "mid", "max")


# ---------------------------------------------------------------------------
# Merged base queries
# ---------------------------------------------------------------------------

def _distinct_levels(levels: list[Level]) -> tuple[Level, ...]:
    """Drop repeated (dimension, depth) levels, keeping first-seen order."""
    seen: dict[tuple[str, int], Level] = {}
    for level in levels:
        seen.setdefault((level.dimension_name, level.depth), level)
    return tuple(seen.values())


def build_all_encompassing(aq: AnalyzeQuery) -> CubeQuery:
    """The single query that can answer all five facilitators: sibling-style
    widened atoms, and groupers covering the drill-down levels, the original
    grouper levels and both filter levels."""
    atom_a, atom_b = aq.atom_alpha, aq.atom_beta
    if atom_a is None or atom_b is None:
        raise DegradedStructure("both grouper dimensions need a filter atom")
    if atom_a.level.is_all or atom_b.level.is_all:
        raise DegradedStructure("a filter at ALL has no parent to widen to")
    g_a, g_b = aq.groupers
    if g_a.depth == 0 or g_b.depth == 0:
        raise DegradedStructure("a grouper at the most detailed level cannot drill down")

    schema = aq.cube.schema
    star_a = sibling_atom(aq, "alpha")
    star_b = sibling_atom(aq, "beta")
    condition = (aq.condition
                 .replacing(atom_a.dimension_name, star_a)
                 .replacing(atom_b.dimension_name, star_b))

    levels = [
        schema.dimension(g_a.dimension_name).child_level(g_a),
        schema.dimension(g_b.dimension_name).child_level(g_b),
        g_a, g_b, atom_a.level, atom_b.level,
    ]
    # When the filter sits at the grouper level itself, the widened filter's
    # level is carried as an extra (constant-valued) grouper, mirroring the
    # merged query's published shape.
    if atom_a.level.depth == g_a.depth and not star_a.level.is_all:
        levels.append(star_a.level)
    if atom_b.level.depth == g_b.depth and not star_b.level.is_all:
        levels.append(star_b.level)
    return CubeQuery(aq.cube, condition, _distinct_levels(levels), aq.measure_name,
                     f"{aq.measure_alias}_all", aq.agg)


def build_org_dd_merged(aq: AnalyzeQuery) -> CubeQuery:
    """The original-and-drill-down merged query: original condition, original
    groupers plus the one-level-down grouper of each drillable side."""
    schema = aq.cube.schema
    drilled = [schema.dimension(g.dimension_name).child_level(g)
               for g in aq.groupers if g.depth > 0]
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
    col_index: dict[str, int] = {}
    for i, g in enumerate(base.groupers):
        best = col_index.get(g.dimension_name)
        if best is None or g.depth < base.groupers[best].depth:
            col_index[g.dimension_name] = i

    mask = np.ones(len(base_cells), dtype=bool)
    dims = {a.dimension_name for a in base.condition} | {a.dimension_name for a in target.condition}
    for dim_name in sorted(dims):
        a_base = base.condition.atom_for(dim_name)
        a_new = target.condition.atom_for(dim_name)
        if _atoms_equal(a_base, a_new) or a_new is None:
            continue
        dim = cube_schema.dimension(dim_name)
        idx = col_index[dim_name]
        allowed = _lift_values(dim, a_new.level, a_new.values, base.groupers[idx].depth)
        mask &= np.isin(base_cells.key_cols[idx], allowed)

    cols, sizes = [], []
    for g in target.groupers:
        idx = col_index[g.dimension_name]
        src = base.groupers[idx]
        col = base_cells.key_cols[idx][mask]
        if src.depth != g.depth:
            dim = cube_schema.dimension(g.dimension_name)
            col = dim.anc_array(src.depth, g.depth)[col]
        cols.append(col)
        sizes.append(g.member_count)
    values = base_cells.values[mask]
    fold_op = "sum" if base.agg == "count" else base.agg  # partial counts add up
    key_cols, out = group_reduce(cols, sizes, values, fold_op)
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
    merged = _timed_execute(base) if base is not None else SlotResult()
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


def run_min_mqo(fs: FacilitatorSet) -> AnalyzeResult:
    """Execute every derivable facilitator directly; no post-processing."""
    return _execute_plan(fs, None, (), "min")


def run_mid_mqo(aq: AnalyzeQuery, fs: FacilitatorSet) -> AnalyzeResult:
    """One merged original-and-drill-down query plus the two siblings."""
    return _execute_plan(fs, build_org_dd_merged(aq), ("org", "ddA", "ddB"), "mid")


def run_max_mqo(aq: AnalyzeQuery, fs: FacilitatorSet) -> AnalyzeResult:
    """Single all-encompassing query answering all five roles.  Falls back to
    Mid-MQO when the required structure is missing."""
    try:
        base = build_all_encompassing(aq)
    except DegradedStructure as exc:
        result = run_mid_mqo(aq, fs)
        result.strategy_requested = "max"
        result.fallback_reason = str(exc)
        return result
    return _execute_plan(fs, base, ROLES, "max")


def run_strategy(name: str, aq: AnalyzeQuery, fs: FacilitatorSet) -> AnalyzeResult:
    if name == "min":
        return run_min_mqo(fs)
    if name == "mid":
        return run_mid_mqo(aq, fs)
    if name == "max":
        return run_max_mqo(aq, fs)
    raise ValueError(f"unknown strategy {name!r}")
