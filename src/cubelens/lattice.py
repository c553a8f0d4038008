"""The cuboid lattice: pre-aggregated cuboids chosen and built with the cube.

A cuboid is the unfiltered aggregate of the facts at one level per
dimension, ALL included: a node of the data-cube lattice (Gray et al.,
"Data Cube", 1997).  The cuboid at level vector v answers every query whose
groupers and filter atoms sit at or above v on each dimension, through
reaggregate, the rewrite Mid and Max use over their merged bases.

Selection is the greedy of Harinarayan, Rajaraman & Ullman (SIGMOD 1996).
Every level vector is a candidate, in a cube of 2 to 6 dimensions (a
cuboid's query groups every dimension, and a query has 2 to 6 groupers),
within the bounds on the selection's work below.
A vector's size is Cardenas' estimate of the distinct keys the cube's rows
take in its key space, so no fact is read.  A vector is answered at the
size of the smallest chosen vector at or below it (the fact rows at first);
each step takes the candidate whose benefit, summed over every vector it
answers more cheaply, is largest per byte among those that still fit the
budget: half of the bytes of the fact columns.

Each chosen vector holds the count and the sum, min and max of every
measure, over one set of key columns.  It is built by reaggregate from its
smallest chosen ancestor (a finer vector), or from one pass over the facts
when no ancestor was chosen.  A sum cuboid whose cells leave int64 is dropped;
its queries scan the facts, which raise SumOverflow exactly as Min-MQO does.

Lookups follow the lattice order (HRU): an unfiltered cuboid grouping every
dimension is usable for a query exactly when it holds the query's measure
and aggregate and sits at or below its groupers and atoms, unless the query
groups above its own filter level.  A route is the smallest such cuboid
(reaggregate then checks usability once); a condition's row count is read
from the smallest count cuboid at or below its atoms.  The selector decides
whether a route is cheaper than a scan.  Everything is built in the
constructor; the cell sets' code caches fill idempotently, and which cells
lie inside an atom is computed per call, so concurrent readers are safe and
a cuboid keeps no state per atom.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import abs_peak, group_reduce, key_layout, unpack
from .errors import SumOverflow
from .mqo import reaggregate
from .query import CellSchema, CellSet, CubeQuery, SelectionCondition

# The lattice may hold this share of the bytes of the fact columns.
BUDGET_SHARE = 0.5
# Bounds on selection, so that its work stays small whatever the schema: a
# cube with more level vectors than MAX_VECTORS (six dimensions of six
# levels make 46,656) gets no cuboids; the greedy prices at most MAX_PAIRS
# (candidate, answered vector) pairs per step (the 4-dimension WIDE_SPEC has
# 33,750 in all), keeping the candidates of best first-step benefit per
# byte when there are more; and it picks at most MAX_PICKS vectors (WIDE_SPEC picks
# 121).  At most MAX_FACT_PASSES picked vectors without a picked ancestor
# are built from the facts, one pass each (WIDE_SPEC needs 21); the rest of
# them are left out.  Together these bound the build's work.
MAX_VECTORS = 1 << 16
MAX_PAIRS = 1 << 17
MAX_PICKS = 128
MAX_FACT_PASSES = 24
AGGS = ("count", "sum", "min", "max")


@dataclass(frozen=True)
class Route:
    """One cuboid as a base query: the unfiltered query of its level vector
    (one grouper per dimension) and its cells."""

    query: CubeQuery
    cells: CellSet


def estimated_cells(space: np.ndarray, rows: int) -> np.ndarray:
    """Cardenas' estimate of the distinct keys ``rows`` uniform rows take in
    key spaces of ``space`` keys."""
    space = np.asarray(space, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return space * -np.expm1(rows * np.log1p(-1.0 / space))


def select_vectors(level_counts, rows: int, cell_bytes: int,
                   budget: float) -> list[tuple[tuple[int, ...], float]]:
    """The level vectors the HRU greedy picks, in pick order, each with its
    estimated bytes.  ``level_counts`` holds each dimension's member count
    per level (detailed first, ALL last) and ``cell_bytes`` the bytes of one
    cell.  Picks nothing past MAX_VECTORS vectors; past MAX_PAIRS pairs it
    prices the candidates with the best first-step benefit per byte."""
    n_vectors = math.prod(map(len, level_counts))
    if rows == 0 or n_vectors > MAX_VECTORS:
        return []
    tops = np.array([len(c) for c in level_counts], dtype=np.int64)
    vectors = np.array(list(itertools.product(*(range(top) for top in tops))),
                       dtype=np.int64).reshape(n_vectors, len(tops))
    space = np.ones(n_vectors)
    for d, counts in enumerate(level_counts):
        space *= np.asarray(counts, dtype=np.float64)[vectors[:, d]]
    cells = estimated_cells(space, rows)
    nbytes = cells * cell_bytes
    above = np.prod(tops - vectors, axis=1)  # the vectors at or above each vector
    candidates = np.flatnonzero(nbytes <= budget)
    if above[candidates].sum() > MAX_PAIRS:
        first = above[candidates] * np.maximum(rows - cells[candidates], 0) / nbytes[candidates]
        order = candidates[np.argsort(-first, kind="stable")]
        candidates = np.sort(order[np.cumsum(above[order]) <= MAX_PAIRS])
    if not len(candidates):
        return []
    # Every (candidate, vector it answers) pair as flat index arrays, grouped
    # by candidate: the vectors at or above a candidate are a product of
    # depth ranges, expanded one dimension at a time.
    strides = np.cumprod(np.concatenate(([1], tops[:0:-1])))[::-1]
    owner = np.arange(len(candidates))
    answered = np.zeros(len(candidates), dtype=np.int64)
    for d, (top, stride) in enumerate(zip(tops, strides)):
        depth = vectors[candidates[owner], d]
        reps = top - depth
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        owner, answered = np.repeat(owner, reps), np.repeat(answered, reps)
        answered += (np.repeat(depth, reps) + np.arange(len(owner)) - starts) * stride
    bounds = np.concatenate(([0], np.cumsum(above[candidates])))
    cost = np.full(n_vectors, float(rows))  # answered from the facts at first
    own = cells[candidates]
    left, picked = float(budget), []
    open_ = np.ones(len(candidates), dtype=bool)
    while len(picked) < MAX_PICKS:
        benefit = np.bincount(owner, weights=np.maximum(cost[answered] - own[owner], 0.0),
                              minlength=len(candidates))
        score = np.where(open_ & (nbytes[candidates] <= left) & (benefit > 0),
                         benefit / nbytes[candidates], -1.0)
        best = int(np.argmax(score))
        if score[best] <= 0:
            break
        open_[best] = False
        left -= nbytes[candidates[best]]
        picked.append((tuple(int(d) for d in vectors[candidates[best]]),
                       float(nbytes[candidates[best]])))
        mine = answered[bounds[best]:bounds[best + 1]]
        cost[mine] = np.minimum(cost[mine], own[best])
    return picked


class Lattice:
    """The cuboids of one cube, chosen and built when the cube is built."""

    def __init__(self, cube):
        # Weak, so that a cube and its lattice, whose routes name the cube,
        # form no reference cycle: a dropped cube is freed at once, with its
        # level columns, not at some later full garbage collection.
        self.cube = weakref.proxy(cube)
        dims = cube.schema.dimensions
        measures = [m.name for m in cube.schema.measures]
        self._dim_index = {d.name: i for i, d in enumerate(dims)}
        self._all_depths = np.array([len(d.levels) - 1 for d in dims], dtype=np.int64)
        fact_bytes = sum(c.nbytes for c in cube.coordinates.values())
        fact_bytes += sum(c.nbytes for c in cube.measure_columns.values())
        self.budget = BUDGET_SHARE * fact_bytes
        self.cell_bytes = 8 * (len(dims) + 1 + 3 * len(measures))  # keys, count, 3 per measure
        picked = []
        if 2 <= len(dims) <= 6:  # a cuboid's query groups every dimension: 2..6 groupers
            picked = select_vectors([[lv.member_count for lv in d.levels] for d in dims],
                                    cube.row_count, self.cell_bytes, self.budget)
        self._first = (measures[0], "count")  # its cells hold the keys all aggregates share
        built: list[tuple[tuple[int, ...], dict[tuple[str, str], Route]]] = []
        roots = 0  # vectors built from the facts
        for v in sorted((v for v, _ in picked), key=sum):  # ancestors have smaller depth sums
            ancestors = sorted((routes for u, routes in built
                                if all(a <= b for a, b in zip(u, v))), key=self._size)
            if not ancestors:
                if roots == MAX_FACT_PASSES:
                    continue  # its queries read a finer cuboid or scan the facts
                roots += 1
            built.append((v, self._build(tuple(d.levels[k] for d, k in zip(dims, v)),
                                         ancestors)))
        built.sort(key=lambda u: self._size(u[1]))
        self.cuboids = [routes for _, routes in built]
        self.depths = np.array([v for v, _ in built], dtype=np.int64).reshape(len(built),
                                                                             len(dims))
        self.nbytes = sum(sum(c.nbytes for c in routes[self._first].cells.key_cols)
                          + routes[self._first].cells.values.nbytes
                          + sum(r.cells.values.nbytes for (_, agg), r in routes.items()
                                if agg != "count")
                          for routes in self.cuboids)

    def _size(self, routes) -> int:
        return len(routes[self._first].cells)

    def _build(self, levels, ancestors) -> dict[tuple[str, str], Route]:
        """The cuboids of one level vector, (measure, agg) -> Route: each
        folded from the smallest of ``ancestors`` (built finer vectors,
        smallest first) that holds it, else from the facts."""
        routes: dict[tuple[str, str], Route] = {}
        key = None  # the packed key of every fact row, once a fold needs it
        measures = [m.name for m in self.cube.schema.measures]
        for measure, agg in itertools.product(measures, AGGS):
            q = self._query(levels, measure, agg)
            schema = CellSchema(levels, q.measure_alias, agg)
            if agg == "count" and routes:  # one count serves every measure
                cells = routes[self._first].cells
                routes[measure, agg] = Route(q, cells.with_values(schema, cells.values,
                                                                  cells.peak))
                continue
            source = next((r[measure, agg] for r in ancestors if (measure, agg) in r), None)
            try:
                if source is not None:
                    cells = reaggregate(source.cells, q, source.query)
                    key_cols, values = cells.key_cols, cells.values
                else:
                    if key is None:
                        key = self._fact_key(levels)
                    (packed,), values = group_reduce(
                        [key[0]], [key[1]], None if agg == "count" else
                        self.cube.measure_columns[measure], agg, peak=q.value_peak)
                    key_cols = unpack(packed, [lv.member_count for lv in levels])
            except SumOverflow:
                continue  # a sum whose cells leave int64: its queries scan the facts
            peak = abs_peak(values)
            routes[measure, agg] = Route(q, (
                routes[self._first].cells.with_values(schema, values, peak) if routes else
                CellSet(schema, key_cols, values, peak)))
        return routes

    def __len__(self) -> int:
        return len(self.cuboids)

    def _fact_key(self, levels) -> tuple[np.ndarray, int]:
        """One pass over the facts: every row's packed key at ``levels``, and
        the key space.  A vector past 2**62 keys holds about a cell per row,
        which never fits the budget, so its key always packs."""
        strides, space = key_layout([lv.member_count for lv in levels])
        key = np.zeros(self.cube.row_count, dtype=np.int64)
        for level, stride in zip(levels, strides):
            if not level.is_all:
                key += self.cube.rolled_column(level.dimension_name, level.depth, scale=stride)
        self.cube.exec_stats.build_scans += 1
        return key, space

    def _query(self, levels, measure: str, agg: str) -> CubeQuery:
        return CubeQuery(self.cube, SelectionCondition(), levels, measure,
                         f"{measure}_{agg}", agg)

    def _smallest(self, levels, key: tuple[str, str]) -> Optional[Route]:
        """The smallest cuboid holding ``key`` (measure, aggregate) at or
        below ``levels``: on each dimension, their finest level or ALL."""
        need = self._all_depths.copy()
        for level in levels:
            i = self._dim_index[level.dimension_name]
            need[i] = min(need[i], level.depth)
        for i in np.flatnonzero((self.depths <= need).all(axis=1)):
            if key in self.cuboids[i]:
                return self.cuboids[i][key]
        return None

    def route(self, q: CubeQuery) -> Optional[Route]:
        """The smallest cuboid usable for q (see the module note), or None."""
        if q.filter_order_problem is not None:
            return None
        return self._smallest([*(atom.level for atom in q.condition), *q.groupers],
                              (q.measure, q.agg))

    def count(self, condition) -> Optional[int]:
        """The fact rows ``condition`` selects, summed from the smallest count
        cuboid at or below its atoms' levels; None when there is none."""
        route = self._smallest([atom.level for atom in condition], self._first)
        if route is None:
            return None
        mask = route.cells.inside(self.cube.schema, condition)
        return int(route.cells.values.sum() if mask is None else route.cells.values[mask].sum())
