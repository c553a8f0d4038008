"""Single cube queries: representation, execution, usability.

A cube query is the 4-tuple (detailed cube, selection condition, grouper
schema, aggregation).  Execution follows the three-step semantics: isolate
the qualifying detailed rows, map each row's coordinates to ancestors at the
grouper levels, then fold the measure per same-coordinate group.  Selection
atoms are evaluated by rolling coordinate columns up to the atom's own level,
which selects exactly the rows the atom's detailed proxy would (the proxy
equivalence is property-tested).

The usability predicate decides when one query's result can be filtered and
re-rolled into another's (mqo.reaggregate performs that rewrite).  It treats
an absent atom as the trivial ALL filter.

execute_query is pure over immutable inputs; concurrent query runs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aggregate import AGG_FUNCTIONS, group_reduce
from .cube import DetailedCube
from .errors import (
    InvalidQuery,
    LevelOrderViolation,
    UnknownMember,
)
from .hierarchy import Dimension, Level


@dataclass(frozen=True)
class SelectionAtom:
    """Atomic filter: level IN values (single-value atoms are the common case)."""

    level: Level
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidQuery(f"atom on {self.level!r} has an empty value set")
        normalized = tuple(sorted({int(v) for v in self.values}))
        object.__setattr__(self, "values", normalized)
        for v in normalized:
            if not 0 <= v < self.level.member_count:
                raise UnknownMember(f"code {v} out of range at {self.level!r}")

    @property
    def dimension_name(self) -> str:
        return self.level.dimension_name

    def is_single(self) -> bool:
        return len(self.values) == 1


class SelectionCondition:
    """Conjunction of atoms, at most one per dimension."""

    def __init__(self, atoms: Iterable[SelectionAtom] = ()):
        self.atoms = tuple(atoms)
        seen = set()
        for atom in self.atoms:
            if atom.dimension_name in seen:
                raise InvalidQuery(
                    f"two atoms on dimension {atom.dimension_name}; one allowed"
                )
            seen.add(atom.dimension_name)

    def atom_for(self, dim_name: str) -> SelectionAtom | None:
        for atom in self.atoms:
            if atom.dimension_name == dim_name:
                return atom
        return None

    def replacing(self, dim_name: str, new_atom: SelectionAtom | None) -> "SelectionCondition":
        kept = [a for a in self.atoms if a.dimension_name != dim_name]
        if new_atom is not None:
            kept.append(new_atom)
        return SelectionCondition(kept)

    def mask_atoms(self) -> list[tuple[Level, tuple[int, ...]]]:
        return [(a.level, a.values) for a in self.atoms]

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)


@dataclass(frozen=True)
class CellSchema:
    groupers: tuple[Level, ...]
    measure_alias: str
    agg: str


class CellSet:
    """Query result: unique coordinate tuples at the grouper levels mapped to
    one aggregate value each.  Stored columnar; no iteration order promised."""

    def __init__(self, schema: CellSchema, key_cols: Sequence[np.ndarray], values: np.ndarray):
        self.schema = schema
        self.key_cols = [np.asarray(c, dtype=np.int64) for c in key_cols]
        self.values = np.asarray(values)
        self._dict = None

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        if self._dict is None:
            py = (float if self.values.dtype.kind == "f" else int)
            self._dict = {
                coords: py(v)
                for coords, v in zip(zip(*(c.tolist() for c in self.key_cols)), self.values.tolist())
            } if len(self) else {}
        return self._dict

    def items(self):
        return self.as_dict().items()

    def get(self, coords, default=None):
        return self.as_dict().get(tuple(coords), default)


def empty_cell_set(schema: CellSchema, value_dtype=np.int64) -> CellSet:
    return CellSet(schema, [np.empty(0, np.int64) for _ in schema.groupers],
                   np.empty(0, value_dtype))


@dataclass
class CubeQuery:
    """<detailed cube, selection condition, groupers, agg(measure)> with a
    result-column alias.  User queries carry two groupers; internal merged
    queries may carry up to six."""

    cube: DetailedCube
    condition: SelectionCondition
    groupers: tuple[Level, ...]
    measure_name: str
    measure_alias: str
    agg: str

    def validate(self) -> None:
        if not 2 <= len(self.groupers) <= 6:
            raise InvalidQuery(f"expected 2..6 groupers, got {len(self.groupers)}")
        pairs = {(g.dimension_name, g.depth) for g in self.groupers}
        if len(pairs) != len(self.groupers):
            raise InvalidQuery("duplicate (dimension, level) grouper")
        if self.agg not in AGG_FUNCTIONS:
            raise InvalidQuery(f"aggregate {self.agg!r} is not distributive")
        self.cube.schema.measure(self.measure_name)  # raises UnknownMeasure
        for atom in self.condition:
            dim = self.cube.schema.dimension(atom.dimension_name)
            for g in self.groupers:
                if g.dimension_name != atom.dimension_name or g.depth <= atom.level.depth:
                    continue
                # An atom below its grouper is only legal when it is the
                # detailed proxy of a rollable filter, i.e. its value set is
                # a union of complete grouper-level subtrees.
                values = np.asarray(atom.values, dtype=np.int64)
                up = np.unique(dim.anc_array(atom.level.depth, g.depth)[values])
                lists = dim.desc_lists(g.depth, atom.level.depth)
                covered = sum(len(lists[int(u)]) for u in up)
                if covered != len(values):
                    raise InvalidQuery(
                        f"filter on {atom.level!r} is below the grouper {g!r} and does "
                        f"not cover complete {g.name} subtrees (not rollable)"
                    )

    def grouper_dims(self) -> set[str]:
        return {g.dimension_name for g in self.groupers}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _lift_values(dim: Dimension, from_level: Level, values: Sequence[int], to_depth: int) -> np.ndarray:
    """Union of the descendant sets of ``values`` at ``to_depth`` (sorted)."""
    lists = dim.desc_lists(from_level.depth, to_depth)
    picked = [lists[v] for v in values]
    if len(picked) == 1:
        return picked[0]
    return np.unique(np.concatenate(picked))


def detailed_proxy(dim: Dimension, atom: SelectionAtom) -> SelectionAtom:
    """The atom re-expressed at level 0 of its dimension: the union of the
    values' descendant sets.  Selects exactly the same detailed subspace."""
    if atom.level.depth == 0:
        return atom
    codes = _lift_values(dim, atom.level, atom.values, 0)
    return SelectionAtom(dim.detailed_level, tuple(codes.tolist()))


def grouper_domain(dim: Dimension, atom: SelectionAtom, grouper_level: Level) -> np.ndarray:
    """Grouper-level codes producible under the atom (sorted array)."""
    g = dim.level(grouper_level)
    if g.depth > atom.level.depth:
        raise LevelOrderViolation(
            f"grouper level {g!r} is above the atom level {atom.level!r}"
        )
    return _lift_values(dim, atom.level, atom.values, g.depth)


def execute_query(q: CubeQuery) -> CellSet:
    """Run the query: filter, roll coordinates to the grouper levels, fold."""
    q.validate()
    cube = q.cube
    mask = cube.condition_mask(q.condition.mask_atoms())
    cube.exec_stats.fact_scans += 1
    rows = np.flatnonzero(mask)

    schema = CellSchema(q.groupers, q.measure_alias, q.agg)
    if len(rows) == 0:
        dtype = np.int64 if q.agg == "count" else cube.measure_columns[q.measure_name].dtype
        return empty_cell_set(schema, dtype)

    cols = [cube.rolled_column(g.dimension_name, g.depth, rows) for g in q.groupers]
    sizes = [g.member_count for g in q.groupers]
    values = None if q.agg == "count" else cube.measure_columns[q.measure_name][rows]
    key_cols, out = group_reduce(cols, sizes, values, q.agg)
    return CellSet(schema, key_cols, out)


# ---------------------------------------------------------------------------
# Cube usability (base query reusable to answer a new query)
# ---------------------------------------------------------------------------

CONDITION_IDS = ("i", "ii", "iii", "iv", "v", "vi")


@dataclass(frozen=True)
class UsabilityReport:
    usable: bool
    conditions: tuple[tuple[str, bool, str], ...]

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(cid for cid, ok, _ in self.conditions if not ok)

    def __bool__(self) -> bool:
        return self.usable


def _atoms_equal(a: SelectionAtom | None, b: SelectionAtom | None) -> bool:
    if a is None or b is None:
        return a is b or (a is None and b is None)
    return a.level == b.level and a.values == b.values


def _finest_grouper(q: CubeQuery, dim_name: str) -> Level | None:
    levels = [g for g in q.groupers if g.dimension_name == dim_name]
    return min(levels, key=lambda lv: lv.depth) if levels else None


def _check_filter_order(q: CubeQuery) -> str | None:
    for atom in q.condition:
        for g in q.groupers:
            if g.dimension_name == atom.dimension_name and g.depth > atom.level.depth:
                return f"{g!r} grouped above its filter level {atom.level!r}"
    return None


def cube_usable(q_base: CubeQuery, q_new: CubeQuery):
    """Six-condition checklist deciding whether q_base's result can be
    filtered and reaggregated into q_new's.  Returns a per-condition report
    with ids (i)-(vi)."""
    checks: list[tuple[str, bool, str]] = []

    same_cube = q_base.cube is q_new.cube
    checks.append(("i", same_cube, "same detailed cube" if same_cube else "different detailed cubes"))

    problems = []
    if not q_new.grouper_dims() <= q_base.grouper_dims():
        extra = sorted(q_new.grouper_dims() - q_base.grouper_dims())
        problems.append(f"dimensions {extra} absent from the base schema")
    base_measure = q_base.cube.schema.measure(q_base.measure_name).name
    new_measure = q_new.cube.schema.measure(q_new.measure_name).name
    if base_measure != new_measure:
        problems.append(f"measures differ ({base_measure} vs {new_measure})")
    if q_base.agg != q_new.agg:
        problems.append(f"aggregates differ ({q_base.agg} vs {q_new.agg})")
    if q_base.agg not in AGG_FUNCTIONS or q_new.agg not in AGG_FUNCTIONS:
        problems.append("aggregate is not distributive")
    checks.append(("ii", not problems, "; ".join(problems) or "same schema dimensions, measure and distributive aggregate"))

    # One conjunctive atom per dimension is enforced by SelectionCondition.
    checks.append(("iii", True, "one atom per dimension (absent atoms are trivial ALL atoms)"))

    order_problem = _check_filter_order(q_base) or _check_filter_order(q_new)
    checks.append(("iv", order_problem is None,
                   order_problem or "filters at or above grouper levels in both queries"))

    v_problems = []
    for g in q_new.groupers:
        base_level = _finest_grouper(q_base, g.dimension_name)
        if base_level is None:
            continue  # already reported under (ii)
        if base_level.depth > g.depth:
            v_problems.append(f"{g!r} is below the base grouper {base_level!r}")
    checks.append(("v", not v_problems,
                   "; ".join(v_problems) or "new schema levels at or above the base levels"))

    vi_problems = []
    if same_cube:
        schema = q_base.cube.schema
        dims = {a.dimension_name for a in q_base.condition} | {a.dimension_name for a in q_new.condition}
        for dim_name in sorted(dims):
            a_base = q_base.condition.atom_for(dim_name)
            a_new = q_new.condition.atom_for(dim_name)
            if _atoms_equal(a_base, a_new):
                continue  # identical restriction: nothing to re-apply
            dim = schema.dimension(dim_name)
            base_level = _finest_grouper(q_base, dim_name) or dim.all_level
            new_level = a_new.level if a_new is not None else dim.all_level
            if base_level.depth > new_level.depth:
                vi_problems.append(
                    f"atom on {dim_name} at {new_level!r} is not expressible at the base "
                    f"schema level {base_level!r}"
                )
                continue
            if a_base is None:
                continue  # base unconstrained: grouper domain is the full level
            lifted = (_lift_values(dim, a_new.level, a_new.values, base_level.depth)
                      if a_new is not None else
                      np.arange(base_level.member_count, dtype=np.int64))
            gdom = _lift_values(dim, a_base.level, a_base.values, base_level.depth)
            if not np.isin(lifted, gdom, assume_unique=True).all():
                vi_problems.append(
                    f"atom on {dim_name} selects values outside the base grouper domain"
                )
    checks.append(("vi", not vi_problems,
                   "; ".join(vi_problems) or "new atoms re-expressed at the base levels stay within the base grouper domains"))

    return UsabilityReport(all(ok for _, ok, _ in checks), tuple(checks))


def cell_sets_equal(a: CellSet, b: CellSet, rel_tol: float = 1e-9,
                    check_schema: bool = True) -> bool:
    """Exact coordinate match; values exact for integers, within ``rel_tol``
    relative for floats."""
    if check_schema:
        sig = lambda cs: ([(g.dimension_name, g.depth) for g in cs.schema.groupers], cs.schema.agg)
        if sig(a) != sig(b):
            return False
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    order_a = np.lexsort(tuple(reversed(a.key_cols)))
    order_b = np.lexsort(tuple(reversed(b.key_cols)))
    for ca, cb in zip(a.key_cols, b.key_cols):
        if not np.array_equal(ca[order_a], cb[order_b]):
            return False
    va, vb = a.values[order_a], b.values[order_b]
    if va.dtype.kind == "f" or vb.dtype.kind == "f":
        return bool(np.allclose(va, vb, rtol=rel_tol, atol=rel_tol))
    return bool(np.array_equal(va, vb))
