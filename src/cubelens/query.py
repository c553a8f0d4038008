"""Single cube queries: representation, execution, usability.

A cube query is the 4-tuple (detailed cube, selection condition, grouper
schema, aggregation).  Execution follows the three-step semantics: isolate
the qualifying detailed rows, map each row's coordinates to ancestors at the
grouper levels, then fold the measure per same-coordinate group.  The
qualifying rows come from DetailedCube.condition_rows, in ascending order:
a condition whose smallest atom is narrow reads that atom's slice of the
cube's hierarchy-ordered row index and filters it by the other atoms, so a
small region costs work in proportion to its size; any other condition
ANDs one fresh bitset per atom.  Either way an atom is a compare on the
cube's column of member codes at its level (DetailedCube.level_codes), and
selects the rows whose detailed member rolls up into its values, exactly
the rows its detailed proxy would (the proxy equivalence is
property-tested).

Every coarser grouper of a dimension is a function of its finest one, so a
scan groups rows on the finest requested level of each dimension only; the
other grouper columns are mapped up from the unique finest codes of the
result.  The scan builds one packed int64 group key directly: each
dimension's coordinates are gathered through a per-member table holding the
ancestor code times that dimension's stride in the key
(DetailedCube.rolled_column), and the gathers add up in place.  The selected
rows are scanned in chunks of SCAN_CHUNK, each gathered and folded by
group_reduce while its arrays are still in cache, and the chunks' cells are
merged (aggregate.fold_chunks).  Sums are bounded by the measure's recorded
peak |value| times the row count, so no pass looks for the bound; an integer
sum that may leave the exact float range is folded whole, so that only a
total beyond int64 raises SumOverflow.  The unique keys are unpacked by
floor division.  Key spaces past 2**62 hand group_reduce the unscaled
columns, which it lexsorts.  Scan cost stays proportional to the selected
rows.

The usability predicate decides when one query's result can be filtered and
re-rolled into another's (mqo.reaggregate performs that rewrite, and checks
it on every call).  It treats an absent atom as the trivial ALL filter.  Both
test atom membership through ancestor maps (atom_contains), not set lookups;
the predicate settles a single-valued atom under a coarser base atom by one
ancestor lookup.  The facts of one query that every check reads (its finest
grouper per dimension, whether it groups above a filter) are set when the
query is built.

execute_query is pure over immutable inputs; concurrent query runs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .aggregate import (
    AGG_FUNCTIONS,
    EXACT_FLOAT_SUM,
    fold_chunks,
    group_reduce,
    key_layout,
    unpack,
)
from .cube import DetailedCube
from .errors import InvalidQuery, UnknownMember
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
        self.by_dimension: dict[str, SelectionAtom] = {}
        for atom in self.atoms:
            if atom.dimension_name in self.by_dimension:
                raise InvalidQuery(
                    f"two atoms on dimension {atom.dimension_name}; one allowed"
                )
            self.by_dimension[atom.dimension_name] = atom

    def atom_for(self, dim_name: str) -> SelectionAtom | None:
        return self.by_dimension.get(dim_name)

    def replacing(self, dim_name: str, new_atom: SelectionAtom | None) -> "SelectionCondition":
        kept = [a for a in self.atoms if a.dimension_name != dim_name]
        if new_atom is not None:
            kept.append(new_atom)
        return SelectionCondition(kept)

    def mask_atoms(self) -> list[tuple[Level, tuple[int, ...]]]:
        return [(a.level, a.values) for a in self.atoms]

    @cached_property
    def atom_set(self) -> frozenset[SelectionAtom]:
        """The atoms in any order: the key of this region's row count."""
        return frozenset(self.atoms)

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
    one aggregate value each.  Stored columnar; no iteration order promised.
    ``peak`` bounds |value| over the cells when the producer knows a bound
    (a fact scan does), else it is None.

    A cell set answering several queries (a merged base) reads its codes at a
    level once: they are cached, and fill idempotently."""

    def __init__(self, schema: CellSchema, key_cols: Sequence[np.ndarray], values: np.ndarray,
                 peak: int | float | None = None):
        self.schema = schema
        self.key_cols = [np.asarray(c, dtype=np.int64) for c in key_cols]
        self.values = np.asarray(values)
        self.peak = peak
        self._codes: dict[tuple[str, int], np.ndarray] = {
            (g.dimension_name, g.depth): col for g, col in zip(schema.groupers, self.key_cols)}

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, schema: CellSchema, values: np.ndarray, peak) -> "CellSet":
        """Another aggregate over the same cells: it shares their key
        columns, and the codes read from them."""
        other = CellSet(schema, self.key_cols, values, peak)
        other._codes = self._codes
        return other

    def codes_at(self, dim: Dimension, level: Level) -> np.ndarray:
        """The cells' codes at ``level``: the key column grouped at that
        level, else the finest key column on its dimension, rolled up."""
        key = (level.dimension_name, level.depth)
        codes = self._codes.get(key)
        if codes is None:
            groupers = self.schema.groupers
            i = finest_groupers(groupers)[level.dimension_name]
            codes = self._codes.setdefault(
                key, dim.anc_array(groupers[i].depth, level.depth)[self.key_cols[i]])
        return codes

    def atom_hits(self, dim: Dimension, atom: SelectionAtom) -> np.ndarray:
        """Whether each cell lies inside ``atom`` (tested at the atom's level)."""
        return atom_contains(dim, atom, atom.level.depth, self.codes_at(dim, atom.level))

    def inside(self, schema, atoms) -> np.ndarray | None:
        """Whether each cell lies inside every one of ``atoms`` (atoms at
        ALL are skipped); None when no atom restricts the cells."""
        mask = None
        for atom in atoms:
            if atom.level.is_all:
                continue
            hit = self.atom_hits(schema.dimension(atom.dimension_name), atom)
            mask = hit if mask is None else mask & hit
        return mask


def empty_cell_set(schema: CellSchema, value_dtype=np.int64) -> CellSet:
    return CellSet(schema, [np.empty(0, np.int64) for _ in schema.groupers],
                   np.empty(0, value_dtype))


@dataclass(frozen=True)
class CubeQuery:
    """<detailed cube, selection condition, groupers, agg(measure)> with a
    result-column alias.  User queries carry two groupers; internal merged
    queries may carry up to six.  Immutable, so facts derived from it alone
    are cached on it (a merged base is checked against five targets)."""

    cube: DetailedCube
    condition: SelectionCondition
    groupers: tuple[Level, ...]
    measure_name: str
    measure_alias: str
    agg: str

    def __post_init__(self):
        # Facts every usability check reads, set once (the dataclass is frozen).
        finest = finest_groupers(self.groupers)
        object.__setattr__(self, "finest", finest)  # per grouper dimension, its finest position
        object.__setattr__(self, "finest_levels",  # and that finest grouper
                           {dim_name: self.groupers[i] for dim_name, i in finest.items()})
        object.__setattr__(self, "filter_order_problem", self._filter_order_problem())

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

    @cached_property
    def measure(self) -> str:
        """The measure's name as the schema declares it."""
        return self.cube.schema.measure(self.measure_name).name

    @cached_property
    def value_peak(self) -> int | float:
        """A bound on |value| of the rows a scan folds: the measure's peak,
        or 1 for a count (which adds ones)."""
        return 1 if self.agg == "count" else self.cube.measure_peaks[self.measure_name]

    @cached_property
    def scan_layout(self):
        """The strides and space of a scan's packed key, which groups on the
        finest grouper of each dimension (aggregate.key_layout); None past
        2**62."""
        return key_layout([self.groupers[i].member_count for i in self.finest.values()])

    def _filter_order_problem(self) -> str | None:
        """Why some grouper sits above its dimension's filter level, if one does."""
        for g in self.groupers:
            atom = self.condition.atom_for(g.dimension_name)
            if atom is not None and g.depth > atom.level.depth:
                return f"{g!r} grouped above its filter level {atom.level!r}"
        return None


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


def finest_groupers(groupers: Sequence[Level]) -> dict[str, int]:
    """Per grouper dimension, the position of its finest (lowest) grouper."""
    index: dict[str, int] = {}
    for i, g in enumerate(groupers):
        best = index.get(g.dimension_name)
        if best is None or g.depth < groupers[best].depth:
            index[g.dimension_name] = i
    return index


def atom_contains(dim: Dimension, atom: SelectionAtom, depth: int, codes: np.ndarray) -> np.ndarray:
    """Whether each code at ``depth`` (at or below the atom's level) rolls up
    into one of the atom's values."""
    up = codes if depth == atom.level.depth else dim.anc_array(depth, atom.level.depth)[codes]
    if atom.is_single():
        return up == atom.values[0]
    table = np.zeros(atom.level.member_count, dtype=bool)
    table[list(atom.values)] = True
    return table[up]


# Selected rows per fused gather-and-fold step: the step's key, values and
# float sums stay in cache instead of streaming through memory.
SCAN_CHUNK = 1 << 16


def scan_chunks(q: CubeQuery, n: int, space: int) -> int:
    """How many equal chunks execute_query folds ``n`` selected rows of ``q``
    in, on a packed key space of ``space`` keys.  Chunks of at most
    SCAN_CHUNK rows fold apart, and their cells fold again; a chunk keeps
    over four rows per key, which the dense fold needs.  A sum that may
    leave the exact float range folds whole: only its true total may raise
    SumOverflow."""
    if q.agg == "sum" and q.value_peak * n >= EXACT_FLOAT_SUM:
        return 1
    return -(-n // max(SCAN_CHUNK, 8 * space))


def execute_query(q: CubeQuery) -> CellSet:
    """Run the query: filter, roll coordinates to the finest grouper level of
    each dimension, fold, then map the result up to the coarser groupers."""
    q.validate()
    cube = q.cube
    rows = cube.condition_rows(q.condition)
    cube.exec_stats.count_scan()

    schema = CellSchema(q.groupers, q.measure_alias, q.agg)
    if len(rows) == 0:
        dtype = np.int64 if q.agg == "count" else cube.measure_columns[q.measure_name].dtype
        return empty_cell_set(schema, dtype)

    finest = q.finest
    keys = [q.groupers[i] for i in finest.values()]
    sizes = [g.member_count for g in keys]
    peak = q.value_peak
    bound = peak * len(rows)  # bounds |sum| of any group, and of every chunk's part of it
    layout = q.scan_layout
    if layout is None:  # past 2**62: group_reduce lexsorts the plain columns
        cols = [cube.rolled_column(g.dimension_name, g.depth, rows) for g in keys]
        uniq, out = group_reduce(cols, sizes, _measure(q, rows), q.agg, peak=peak)
    else:
        strides, space = layout
        parts = [_scan_chunk(q, keys, strides, space, part, peak)
                 for part in np.array_split(rows, scan_chunks(q, len(rows), space))]
        (packed,), out = parts[0] if len(parts) == 1 else fold_chunks(parts, space, q.agg, bound)
        uniq = unpack(packed, sizes)
    by_dim = dict(zip(finest, uniq))
    key_cols = []
    for g in q.groupers:
        col, fine = by_dim[g.dimension_name], q.groupers[finest[g.dimension_name]]
        if g.depth != fine.depth:
            col = cube.schema.dimension(g.dimension_name).anc_array(fine.depth, g.depth)[col]
        key_cols.append(col)
    return CellSet(schema, key_cols, out, peak=peak if q.agg in ("min", "max") else bound)


def _measure(q: CubeQuery, rows: np.ndarray) -> np.ndarray | None:
    return None if q.agg == "count" else q.cube.measure_columns[q.measure_name][rows]


def _scan_chunk(q: CubeQuery, keys: list[Level], strides: list[int], space: int,
                rows: np.ndarray, peak):
    """Fold one chunk of selected rows on a packed key, built in place: each
    dimension's rolled codes come out of the gather already multiplied by its
    stride."""
    cube = q.cube
    key = cube.rolled_column(keys[0].dimension_name, keys[0].depth, rows, strides[0])
    for g, stride in zip(keys[1:], strides[1:]):
        key += cube.rolled_column(g.dimension_name, g.depth, rows, stride)
    return group_reduce([key], [space], _measure(q, rows), q.agg, peak=peak)


# ---------------------------------------------------------------------------
# Cube usability (base query reusable to answer a new query)
# ---------------------------------------------------------------------------

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


def cube_usable(q_base: CubeQuery, q_new: CubeQuery):
    """Six-condition checklist deciding whether q_base's result can be
    filtered and reaggregated into q_new's.  Returns a per-condition report
    with ids (i)-(vi).  It runs on every reaggregate call, so facts of one
    query alone are cached on it, and condition (vi) settles a single value
    by one ancestor lookup where that decides it."""
    same_cube = q_base.cube == q_new.cube  # a cuboid's query holds a proxy of its cube
    base_fine, new_fine = q_base.finest_levels, q_new.finest_levels

    problems = []
    if not new_fine.keys() <= base_fine.keys():
        extra = sorted(new_fine.keys() - base_fine.keys())
        problems.append(f"dimensions {extra} absent from the base schema")
    if q_base.measure != q_new.measure:
        problems.append(f"measures differ ({q_base.measure} vs {q_new.measure})")
    if q_base.agg != q_new.agg:
        problems.append(f"aggregates differ ({q_base.agg} vs {q_new.agg})")
    if q_base.agg not in AGG_FUNCTIONS or q_new.agg not in AGG_FUNCTIONS:
        problems.append("aggregate is not distributive")

    order_problem = q_base.filter_order_problem or q_new.filter_order_problem

    v_problems = []
    for g in q_new.groupers:
        base_level = base_fine.get(g.dimension_name)
        if base_level is not None and base_level.depth > g.depth:  # absent: reported under (ii)
            v_problems.append(f"{g!r} is below the base grouper {base_level!r}")

    vi_problems = _atom_problems(q_base, q_new) if same_cube else []

    return UsabilityReport(
        same_cube and not problems and order_problem is None and not v_problems
        and not vi_problems,
        (("i", same_cube, "same detailed cube" if same_cube else "different detailed cubes"),
         ("ii", not problems, "; ".join(problems)
          or "same schema dimensions, measure and distributive aggregate"),
         # One conjunctive atom per dimension is enforced by SelectionCondition.
         ("iii", True, "one atom per dimension (absent atoms are trivial ALL atoms)"),
         ("iv", order_problem is None,
          order_problem or "filters at or above grouper levels in both queries"),
         ("v", not v_problems,
          "; ".join(v_problems) or "new schema levels at or above the base levels"),
         ("vi", not vi_problems, "; ".join(vi_problems) or "new atoms re-expressed at the "
          "base levels stay within the base grouper domains")))


def _atom_problems(q_base: CubeQuery, q_new: CubeQuery) -> list[str]:
    """Condition (vi) of cube_usable: why some atom of q_new cannot be
    re-applied to q_base's cells (empty when every one can)."""
    problems = []
    schema = q_base.cube.schema
    base_fine = q_base.finest_levels
    base_atoms, new_atoms = q_base.condition.by_dimension, q_new.condition.by_dimension
    for dim_name in sorted(base_atoms.keys() | new_atoms.keys()):
        a_base, a_new = base_atoms.get(dim_name), new_atoms.get(dim_name)
        if a_base is a_new or _atoms_equal(a_base, a_new):
            continue  # identical restriction: nothing to re-apply
        dim = schema.dimension(dim_name)
        base_level = base_fine.get(dim_name) or dim.all_level
        new_level = a_new.level if a_new is not None else dim.all_level
        if base_level.depth > new_level.depth:
            problems.append(f"atom on {dim_name} at {new_level!r} is not expressible at the "
                            f"base schema level {base_level!r}")
            continue
        if a_base is None or a_base.level.is_all:
            continue  # base unconstrained: grouper domain is the full level
        if a_base.level.depth < base_level.depth:
            # The base cells carry no coordinate at the base atom's level,
            # so its restriction cannot be compared with the target's.
            problems.append(f"base atom on {dim_name} at {a_base.level!r} sits below the "
                            f"base schema level {base_level!r}")
            continue
        if (a_new is not None and len(a_new.values) == 1
                and a_base.level.depth >= new_level.depth
                and dim.anc_array(new_level.depth, a_base.level.depth).item(a_new.values[0])
                in a_base.values):
            continue  # each member under the new value rolls up to its ancestor, inside
        lifted = (_lift_values(dim, a_new.level, a_new.values, base_level.depth)
                  if a_new is not None else
                  np.arange(base_level.member_count, dtype=np.int64))
        if not atom_contains(dim, a_base, base_level.depth, lifted).all():
            problems.append(f"atom on {dim_name} selects values outside the base grouper domain")
    return problems


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
