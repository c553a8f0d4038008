"""The cuboid lattice: selection, counts read from cuboids, and `auto`
answering roles from cuboids exactly as forced Min-MQO does."""

import dataclasses
import gc
import itertools
import math
import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelens import lattice as lattice_mod, selector
from cubelens.analyze import ROLES, build_facilitators, from_statement
from cubelens.bench import load_session, render_result, run_analyze
from cubelens.cube import CubeSchema, DetailedCube, Measure
from cubelens.errors import SumOverflow
from cubelens.hierarchy import dimension_from_member_rows, dimension_from_tables
from cubelens.lattice import Lattice, estimated_cells, select_vectors
from cubelens.parser import parse
from cubelens.query import (
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    cube_usable,
)

from fixtures import (
    INT64_MAX,
    OUTSIDE_OVERFLOW_FACTS,
    OVERFLOW_QUERY,
    REFERENCE_QUERY,
    build_cube,
    check_level_codes,
    overflow_tables,
    random_analyze,
    random_tables,
    spy_bitsets,
    write_dataset,
)
from oracles import run_forced, usable_route


def _same_answer(a, b, rel_tol):
    for role in ROLES:
        ca, cb = a.slots[role].cells, b.slots[role].cells
        if (ca is None) != (cb is None):
            return False
        if ca is not None and not cell_sets_equal(ca, cb, rel_tol=rel_tol):
            return False
    return True


def _auto_or_error(cube, aq):
    try:
        return run_analyze(cube, aq)
    except SumOverflow as exc:
        return exc


def _min_or_error(fs):
    try:
        return run_forced("min", fs)
    except SumOverflow as exc:
        return exc


@pytest.fixture()
def take_every_cuboid(monkeypatch):
    """Prices every cuboid answer at zero, so auto answers each role that
    has a usable cuboid from it."""
    monkeypatch.setattr(selector, "_cuboid_ns", lambda route: 0.0)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

WIDE_LEVELS = [[2000, 200, 20, 4, 1], [730, 24, 8, 2, 1], [5000, 500, 50, 5, 1], [40, 8, 2, 1]]


def test_selection_is_deterministic_and_within_budget():
    rng = random.Random(401)
    for _ in range(30):
        tables = random_tables(rng, max_facts=2000)
        a, b = build_cube(tables), build_cube(tables)
        assert a.lattice.depths.tolist() == b.lattice.depths.tolist()
        assert a.lattice.nbytes == b.lattice.nbytes
        # every vector of a 2-4 dimension cube is a candidate
        picked = select_vectors([[lv.member_count for lv in d.levels]
                                 for d in a.schema.dimensions],
                                a.row_count, a.lattice.cell_bytes, a.lattice.budget)
        assert sorted(v for v, _ in picked) == sorted(map(tuple, a.lattice.depths.tolist()))
        assert sum(nbytes for _, nbytes in picked) <= a.lattice.budget
    for rows, budget in ((1_000_000, 24e6), (100_000, 2.4e6), (5_000, 1e5)):
        picked = select_vectors(WIDE_LEVELS, rows, 88, budget)
        assert picked == select_vectors(WIDE_LEVELS, rows, 88, budget)
        assert picked and sum(nbytes for _, nbytes in picked) <= budget
        assert len(set(v for v, _ in picked)) == len(picked)


def _reference_greedy(level_counts, rows, cell_bytes, budget):
    """HRU's greedy as a loop over level vectors, for comparison."""
    vectors = list(itertools.product(*(range(len(c)) for c in level_counts)))
    cells = {v: estimated_cells([math.prod(c[k] for c, k in zip(level_counts, v))], rows)[0]
             for v in vectors}
    above = {v: [u for u in vectors if all(a <= b for a, b in zip(v, u))] for v in vectors}
    cost = {v: float(rows) for v in vectors}
    left, picked = budget, []
    while len(picked) < lattice_mod.MAX_PICKS:
        best, best_score = None, 0.0
        for v in vectors:
            size = cells[v] * cell_bytes
            if v in picked or size > left:
                continue
            benefit = sum(max(cost[u] - cells[v], 0.0) for u in above[v])
            if benefit > 0 and benefit / size > best_score:
                best, best_score = v, benefit / size
        if best is None:
            return picked
        picked.append(best)
        left -= cells[best] * cell_bytes
        for u in above[best]:
            cost[u] = min(cost[u], cells[best])
    return picked


def test_selection_matches_the_greedy_loop():
    rng = random.Random(457)
    for _ in range(25):
        level_counts = []
        for _ in range(rng.randint(2, 4)):
            counts = [rng.randint(50, 5000)]
            for _ in range(rng.randint(1, 3)):
                counts.append(max(2, counts[-1] // rng.randint(2, 9)))
            level_counts.append(counts + [1])
        rows, budget = rng.randint(100, 200_000), rng.uniform(1e3, 1e7)
        picked = select_vectors(level_counts, rows, 64, budget)
        assert [v for v, _ in picked] == _reference_greedy(level_counts, rows, 64, budget)


def test_selection_of_the_wide_cube_is_fast():
    best = min(_timed_select() for _ in range(3))
    assert best < 0.25, best   # about 20 ms on 2 CPUs; the bound leaves room for noise


def _timed_select():
    t0 = time.perf_counter()
    select_vectors(WIDE_LEVELS, 1_000_000, 88, 24e6)
    return time.perf_counter() - t0


def _deep_cube(n_dims, sizes, rows):
    """A cube of ``n_dims`` dimensions, each with one level per entry of
    ``sizes`` (member counts, each dividing the one before), and uniform facts."""
    rng = np.random.default_rng(n_dims)
    dims, coords = [], {}
    for d in range(n_dims):
        name = f"X{d}"
        members = [tuple(f"{name}_{i}_{code // (sizes[0] // size)}"
                         for i, size in enumerate(sizes)) for code in range(sizes[0])]
        dims.append(dimension_from_member_rows(name, [f"{name}L{i}" for i in range(len(sizes))],
                                               members))
        coords[name] = rng.integers(0, sizes[0], rows)
    schema = CubeSchema("deep", dims, [Measure("m", "integer")])
    return schema, coords, {"m": rng.integers(0, 100, rows)}


@pytest.mark.parametrize("n_dims, sizes, built", [
    (6, [1024, 256, 64, 16, 4], True),   # 46,656 level vectors
    (6, [32, 16, 8, 4, 2], True),        # 13,035 fit the budget: 2.1M pairs
    (7, [64, 16, 4], False),             # a cuboid's query would group 7 dimensions
])
def test_deep_and_wide_cubes_load_within_bounds(n_dims, sizes, built):
    schema, coords, measures = _deep_cube(n_dims, sizes, 20_000)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        cube = DetailedCube(schema, coords, measures)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 10, seconds     # about 0.5 s on 2 CPUs, traced
    assert peak < 64e6, peak          # about 7 MB
    assert (len(cube.lattice) > 0) == built
    assert len(cube.lattice) <= lattice_mod.MAX_PICKS
    assert cube.exec_stats.build_scans <= lattice_mod.MAX_FACT_PASSES
    assert cube.lattice.nbytes <= cube.lattice.budget


def check_smallest_lookups(cube, rng, most=4096) -> None:
    """Every cuboid holds every (measure, aggregate), and for every level
    vector (a random ``most`` of them when there are more)
    Lattice._position names the first cuboid in size order whose depths
    sit at or below the vector."""
    lattice = cube.lattice
    keys = {(m.name, agg) for m in cube.schema.measures for agg in lattice_mod.AGGS}
    for routes in lattice.cuboids:
        assert set(routes) == keys
    dims = cube.schema.dimensions
    shape = [len(d.levels) for d in dims]
    vectors = itertools.product(*map(range, shape))
    if math.prod(shape) > most:
        vectors = ([rng.randrange(top) for top in shape] for _ in range(most))
    for vector in vectors:
        fits = np.flatnonzero((lattice.depths <= np.array(vector)).all(axis=1))
        expect = int(fits[0]) if len(fits) else -1
        assert lattice._position([d.levels[k] for d, k in zip(dims, vector)]) == expect, vector


def check_count_lookups(cube, rng, regions=64) -> int:
    """Every count cuboid's packed cell keys strictly ascend, and for random
    regions Lattice.count equals both the sum of the cells inside the region
    of its smallest count cuboid and the popcount of the region's bitset:
    one cell of a cuboid, with or without atoms at ALL; codes no cell of a
    cuboid holds (count 0); and atoms at random levels and values, most of
    them finer or coarser than their count cuboid.  Returns how many
    regions were read as one cell of their count cuboid, and how many of
    those no cell held."""
    lattice = cube.lattice
    for _, keys in lattice._cell_keys:
        assert np.all(keys[1:] > keys[:-1])
    one_cell = absent = 0
    dims = cube.schema.dimensions
    for _ in range(regions if len(lattice) else 0):
        i = rng.randrange(len(lattice))
        cells = lattice.cuboids[i][lattice._first].cells
        kind = rng.choice(("cell", "absent", "random"))
        atoms = []
        if kind == "random":
            for dim in dims:
                if rng.random() < 0.6:
                    level = rng.choice(dim.levels)
                    atoms.append(SelectionAtom(level, rng.sample(
                        range(level.member_count), rng.randint(1, min(3, level.member_count)))))
        else:
            cell = rng.randrange(len(cells))
            codes = [int(col[cell]) for col in cells.key_cols]
            for _ in range(20 if kind == "absent" else 0):  # until no cell holds them
                codes = [rng.randrange(level.member_count) for level in cells.schema.groupers]
                if not np.logical_and.reduce([col == code for col, code
                                              in zip(cells.key_cols, codes)]).any():
                    break
            for dim, level, code in zip(dims, cells.schema.groupers, codes):
                if not level.is_all:
                    atoms.append(SelectionAtom(level, (code,)))
                elif rng.random() < 0.5:
                    atoms.append(SelectionAtom(dim.all_level, (0,)))
        condition = SelectionCondition(atoms)
        at = lattice._position([atom.level for atom in atoms])
        popcount = int(np.count_nonzero(cube.condition_mask(condition.mask_atoms())))
        count = lattice.count(condition)
        if at < 0:
            assert count is None
            continue
        counts = lattice.cuboids[at][lattice._first].cells
        mask = counts.inside(cube.schema, condition)
        inside = counts.values.sum() if mask is None else counts.values[mask].sum()
        assert count == inside == popcount, (kind, condition.mask_atoms())
        if kind != "random" and at == i:
            one_cell += 1
            absent += count == 0
    return one_cell, absent


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_schemas_load_within_bounds(seed):
    """Cubes of 1-8 dimensions of 1-7 levels each, small member counts and
    at most 2K facts build within the ceilings of the wide cubes above,
    stay within the lattice's bounds, and hold each fact's code at every
    level below ALL in a column sized by the schema alone."""
    rng = random.Random(seed)
    rows = rng.randint(0, 2000)
    dims, coords = [], {}
    for d in range(rng.randint(1, 8)):
        sizes = [rng.randint(1, 3)]
        for _ in range(rng.randint(0, 6)):
            sizes.insert(0, rng.randint(sizes[0], min(4 * sizes[0], 300)))
        name = f"X{d}"
        dims.append(dimension_from_tables(
            name, [f"{name}L{i}" for i in range(len(sizes))],
            [[f"{name}_{i}_{c}" for c in range(size)] for i, size in enumerate(sizes)],
            [[c * up // size for c in range(size)] for size, up in zip(sizes, sizes[1:])]))
        coords[name] = np.array([rng.randrange(sizes[0]) for _ in range(rows)], dtype=np.int64)
    measures = [Measure(f"m{i}", rng.choice(("integer", "decimal")))
                for i in range(rng.randint(1, 3))]
    values = {m.name: np.array([rng.randint(-50, 50) for _ in range(rows)],
                               dtype=np.int64 if m.kind == "integer" else np.float64)
              for m in measures}
    schema = CubeSchema("random", dims, measures)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        cube = DetailedCube(schema, coords, values)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 10, seconds
    assert peak < 64e6, peak
    assert len(cube.lattice) <= lattice_mod.MAX_PICKS
    assert cube.exec_stats.build_scans <= lattice_mod.MAX_FACT_PASSES
    assert cube.lattice.nbytes <= cube.lattice.budget
    check_level_codes(cube)
    check_smallest_lookups(cube, rng)
    check_count_lookups(cube, rng)


def test_selection_bounds_its_work():
    # every one of the 46,656 vectors fits the budget: 21**6 (candidate,
    # answered vector) pairs, which the greedy trims to MAX_PAIRS
    six = [[6, 5, 4, 3, 2, 1]] * 6
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        picked = select_vectors(six, 2_000_000, 80, 56e6)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 5, seconds      # about 0.2 s on 2 CPUs
    assert peak < 64e6, peak
    assert 0 < len(picked) <= lattice_mod.MAX_PICKS
    assert sum(nbytes for _, nbytes in picked) <= 56e6
    assert select_vectors([[8, 4, 2, 1]] * 9, 2_000_000, 80, 56e6) == []  # 4**9 vectors


def test_cardenas_estimate():
    assert estimated_cells([1], 5).tolist() == [1.0]
    assert estimated_cells([10], 0).tolist() == [0.0]
    big = estimated_cells([1e12], 1000)[0]
    assert 999 < big <= 1000
    assert 632 < estimated_cells([1000], 1000)[0] < 633   # 1000 * (1 - 1/e)


def test_no_cuboids_for_an_empty_cube():
    tables = random_tables(random.Random(409), max_facts=10)
    tables.fact_rows = []
    tables.fact_measures = {"m": []}
    cube = build_cube(tables)
    assert len(cube.lattice) == 0 and cube.lattice.nbytes == 0
    assert cube.exec_stats.build_scans == 0


def test_every_cuboid_holds_each_aggregate_over_shared_keys(monkeypatch):
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", 4.0)
    tables = random_tables(random.Random(419), max_facts=800)
    tables.measures.append(("p", "decimal"))
    tables.fact_measures["p"] = [v / 7 for v in tables.fact_measures["m"]]
    cube = build_cube(tables)
    assert len(cube.lattice) > 3
    from cubelens.query import CubeQuery, execute_query
    for routes in cube.lattice.cuboids:
        assert set(routes) == {(m, agg) for m in ("m", "p") for agg in lattice_mod.AGGS}
        keys = routes["m", "count"].cells.key_cols
        for (measure, agg), route in routes.items():
            assert all(a is b for a, b in zip(route.cells.key_cols, keys))
            q = CubeQuery(cube, SelectionCondition(), route.query.groupers, measure, "x", agg)
            assert cell_sets_equal(route.cells, execute_query(q), check_schema=False)


def test_a_sum_cuboid_whose_cells_overflow_is_dropped(monkeypatch):
    # a1 and a2 each hold INT64_MAX: their leaf cells fit, the g1 cell does
    # not, so every vector above A's leaf level is left out whole
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", 64.0)
    cube = build_cube(overflow_tables([("a1", "b1", INT64_MAX), ("a2", "b1", INT64_MAX),
                                       ("a3", "b2", 1)]))
    assert sorted(map(tuple, cube.lattice.depths.tolist())) == [(0, 0), (0, 1), (0, 2)]
    # a coarse vector is read from the smallest finer cuboid, which holds every key
    check_smallest_lookups(cube, random.Random(0))
    assert min(check_count_lookups(cube, random.Random(0))) > 0


# ---------------------------------------------------------------------------
# Counts read from cuboids
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.sampled_from([0.5, 4.0]))
def test_cuboid_count_equals_the_mask_popcount(seed, n_conditions, share):
    rng = random.Random(seed)
    original = lattice_mod.BUDGET_SHARE
    lattice_mod.BUDGET_SHARE = share
    try:
        cube = build_cube(random_tables(rng, max_facts=500))
    finally:
        lattice_mod.BUDGET_SHARE = original
    for _ in range(n_conditions):
        atoms = []
        for dim in cube.schema.dimensions:
            if rng.random() < 0.6:
                level = dim.levels[rng.randrange(len(dim.levels))]
                values = rng.sample(range(level.member_count),
                                    rng.randint(1, min(3, level.member_count)))
                atoms.append(SelectionAtom(level, values))
        condition = SelectionCondition(atoms)
        count = cube.lattice.count(condition)
        mask = cube.condition_mask(condition.mask_atoms())
        if count is not None:
            assert count == int(np.count_nonzero(mask)), condition.mask_atoms()
        assert cube.condition_count(condition) == int(np.count_nonzero(mask))


def test_counts_from_cuboids_build_no_bitset(monkeypatch):
    rng = random.Random(421)
    counted = 0
    built = spy_bitsets(monkeypatch)
    for _ in range(30):
        cube = build_cube(random_tables(rng, max_facts=1500))
        top = SelectionCondition([SelectionAtom(d.levels[-2], (0,))
                                  for d in cube.schema.dimensions[:2]])
        if cube.lattice.count(top) is None:
            continue
        built.clear()
        n = cube.condition_count(top)
        assert not built
        assert n == int(np.count_nonzero(cube.condition_mask(top.mask_atoms())))
        counted += 1
    assert counted >= 10


# ---------------------------------------------------------------------------
# Routes by the lattice order
# ---------------------------------------------------------------------------

def _random_target(rng, cube):
    """A CubeQuery over random levels, ALL included: atoms (several values
    at most levels) often sit below a grouper of their own dimension, and
    the measure name's case and the aggregate vary."""
    groupers, atoms = [], []
    for dim in cube.schema.dimensions:
        for level in rng.sample(dim.levels, rng.choice([0, 1, 1, 2])):
            groupers.append(level)
        if rng.random() < 0.6:
            level = rng.choice(dim.levels)
            atoms.append(SelectionAtom(level, rng.sample(range(level.member_count),
                                                         rng.randint(1, min(3, level.member_count)))))
    measure = rng.choice(["m", "M"])
    return CubeQuery(cube, SelectionCondition(atoms), tuple(groupers), measure, measure,
                     rng.choice(lattice_mod.AGGS + ("avg",)))


@pytest.mark.parametrize("share", [0.5, 8.0])
def test_route_is_the_smallest_usable_cuboid(monkeypatch, share):
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", share)
    rng = random.Random(461)
    routed = facilitators = above_filter = 0
    for _ in range(40):
        cube = build_cube(random_tables(rng, max_facts=800))
        targets = [_random_target(rng, cube) for _ in range(15)]
        for _ in range(4):
            fs = build_facilitators(random_analyze(rng, cube, atom_probability=0.6))
            slots = [slot.query for slot in fs.slots().values() if not slot.empty]
            facilitators += len(slots)
            targets += slots
        for q in targets:
            route = cube.lattice.route(q)
            assert route is usable_route(cube.lattice, q), (q.groupers, q.condition.mask_atoms())
            if route is not None:
                routed += 1
                assert cube_usable(route.query, q)
            elif q.filter_order_problem is not None and q.agg != "avg" and len(cube.lattice):
                above_filter += 1
    assert routed >= 100 and facilitators >= 400 and above_filter >= 150, \
        (routed, facilitators, above_filter)


# ---------------------------------------------------------------------------
# auto answers from cuboids exactly as Min does
# ---------------------------------------------------------------------------

def _four_dim_two_measure_tables(rng):
    while True:
        tables = random_tables(rng, max_dims=4, max_facts=1500)
        if len(tables.dims) == 4:
            break
    tables.measures.append(("p", "decimal"))
    tables.fact_measures["p"] = [v / 7 + 0.01 for v in tables.fact_measures["m"]]
    return tables


@pytest.mark.parametrize("share", [0.5, 8.0])
def test_auto_from_cuboids_equals_min(take_every_cuboid, monkeypatch, share):
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", share)
    rng = random.Random(431)
    routed = degraded = decimal = 0
    for i in range(60):
        tables = _four_dim_two_measure_tables(rng) if i % 3 == 0 else \
            random_tables(rng, max_facts=800)
        cube = build_cube(tables)
        for _ in range(5):
            aq = random_analyze(rng, cube, atom_probability=0.6)
            rel_tol = 0.0
            if "p" in cube.measure_columns and rng.random() < 0.5:
                aq = dataclasses.replace(aq, measure_name="p", measure_alias="p")
                rel_tol = 1e-9
                decimal += 1
            fs = build_facilitators(aq)
            result = run_analyze(cube, aq)
            assert _same_answer(result, run_forced("min", fs), rel_tol), (aq, result.cuboids)
            assert result.strategy_used in ("min", "mid", "max")
            routed += len(result.cuboids)
            degraded += bool(fs.missing)
    assert routed >= 50 and degraded >= 20 and decimal >= 10, (routed, degraded, decimal)


@pytest.mark.parametrize("facts", [
    OUTSIDE_OVERFLOW_FACTS,
    [("a1", "b1", INT64_MAX), ("a1", "b1", INT64_MAX), ("a2", "b2", 3)],
    [("a1", "b1", 1 << 62), ("a1", "b1", 1 << 62), ("a1", "b2", -(1 << 62)),
     ("a1", "b2", -(1 << 62)), ("a3", "b3", 5)],
], ids=["outside", "inside", "cancelling"])
@pytest.mark.parametrize("share", [0.5, 64.0])
def test_auto_from_cuboids_overflows_as_min_does(take_every_cuboid, monkeypatch, facts, share):
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", share)
    cube = build_cube(overflow_tables(facts))
    texts = [OVERFLOW_QUERY.replace("sum(m)", f"{agg}(m)") for agg in ("sum", "min", "count")]
    texts.append("ANALYZE sum(m) FROM c FOR A.Grp = 'g2' GROUP BY A.Leaf, B.Grp")
    for text in texts:
        aq = from_statement(parse(text, cube.schema), cube)
        got, expect = _auto_or_error(cube, aq), _min_or_error(build_facilitators(aq))
        if isinstance(expect, SumOverflow):
            assert isinstance(got, SumOverflow) and str(got) == str(expect), text
        else:
            assert not isinstance(got, SumOverflow), (text, got)
            assert _same_answer(got, expect, 0.0), text


def test_forced_strategies_read_no_cuboid(foodmart_cube, monkeypatch):
    def refuse(*args):
        raise AssertionError("a forced strategy read the lattice")

    monkeypatch.setattr(Lattice, "route", refuse)
    monkeypatch.setattr(Lattice, "count", refuse)
    for name, scans in (("min", 5), ("mid", 3), ("max", 1)):
        before = foodmart_cube.exec_stats.fact_scans
        result = run_analyze(foodmart_cube, REFERENCE_QUERY, strategy=name)
        assert foodmart_cube.exec_stats.fact_scans - before == scans
        assert result.cuboids == {}


# ---------------------------------------------------------------------------
# What a request and a load say about the lattice
# ---------------------------------------------------------------------------

def test_result_and_rendering_name_cuboid_roles(take_every_cuboid, monkeypatch):
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", 8.0)
    rng = random.Random(433)
    seen = 0
    for _ in range(20):
        cube = build_cube(random_tables(rng, max_facts=600))
        aq = random_analyze(rng, cube)
        result = run_analyze(cube, aq)
        fs = build_facilitators(aq)
        lines = render_result(cube, result).splitlines()
        assert lines[0].startswith(f"# strategy={result.strategy_used} (coverage=")
        if not result.cuboids:
            assert not lines[1].startswith("# cuboids")
            continue
        seen += 1
        assert result.store_queries == len(result.selector.plan.scans)
        for role, levels in result.cuboids.items():
            route = cube.lattice.route(fs.slots()[role].query)
            assert levels == route.query.groupers
            assert len(levels) == len(cube.schema.dimensions)
        assert lines[1] == "# cuboids " + " ".join(
            f"{role}=[{','.join(map(repr, levels))}]" for role, levels in result.cuboids.items())
    assert seen >= 5


def test_build_scans_count_apart_from_request_scans():
    tables = random_tables(random.Random(439), max_facts=2000)
    cube = build_cube(tables)
    assert cube.exec_stats.build_scans >= 1 and cube.exec_stats.fact_scans == 0
    fresh = DetailedCube(cube.schema, cube.coordinates, cube.measure_columns)
    assert fresh.exec_stats.build_scans == cube.exec_stats.build_scans


def test_dropped_cube_is_freed_without_a_garbage_collection(foodmart_cube):
    """The lattice holds its cube weakly, so a cube whose last reference
    goes is freed at once with its level columns and caches, as a session
    that swaps in a fresh cube expects."""
    cube = DetailedCube(foodmart_cube.schema, foodmart_cube.coordinates,
                        foodmart_cube.measure_columns)
    result = run_analyze(cube, REFERENCE_QUERY)
    for dim in cube.schema.dimensions:
        for level in dim.levels:
            cube.atom_mask(level, (0,))
    assert len(cube.lattice)
    render_result(cube, result)
    alive = weakref.ref(cube)
    gc.disable()
    try:
        del cube, result
        assert alive() is None
    finally:
        gc.enable()


def test_load_banner_ends_with_the_cuboids(tmp_path):
    tables = random_tables(random.Random(443), max_facts=2000)
    cube, banner = load_session(write_dataset(tables, tmp_path))
    assert banner.splitlines()[-1] == \
        f"cuboids: {len(cube.lattice)}, {cube.lattice.nbytes} bytes"
    assert len(cube.lattice) >= 1
