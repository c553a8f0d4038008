import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelens.cube import CubeSchema, DetailedCube, Measure
from cubelens.errors import InvalidQuery, LevelOrderViolation, UnknownMember, UsabilityViolation
from cubelens.hierarchy import dimension_from_tables
from cubelens.mqo import build_plan, reaggregate
from cubelens.analyze import build_facilitators
from cubelens.query import (
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    _USABLE,
    cell_sets_equal,
    cube_usable,
    execute_query,
)

from fixtures import REFERENCE_QUERY, build_cube, random_analyze, random_tables
from oracles import (
    cell_dict,
    cube_usable_reference,
    desc,
    detailed_proxy,
    filter_rows,
    grouper_domain,
    grouper_dims,
    naive_execute,
)


def reference_aq(foodmart_cube):
    from cubelens.analyze import from_statement
    from cubelens.parser import parse
    stmt = parse(REFERENCE_QUERY, foodmart_cube.schema)
    return from_statement(stmt, foodmart_cube)


def decode_cells(cube, cells):
    dims = [cube.schema.dimension(g.dimension_name) for g in cells.schema.groupers]
    out = {}
    for coords, value in cell_dict(cells).items():
        labels = tuple(dim.member_label(g, c)
                       for dim, g, c in zip(dims, cells.schema.groupers, coords))
        out[labels] = value
    return out


def oracle_atoms(tables, oracles, condition, cube):
    entries = []
    for atom in condition:
        dim = cube.schema.dimension(atom.dimension_name)
        labels = {dim.member_label(atom.level, v) for v in atom.values}
        entries.append((atom.dimension_name, oracles[atom.dimension_name],
                        atom.level.name, labels))
    return entries


# ---------------------------------------------------------------------------
# detailed_proxy / grouper_domain
# ---------------------------------------------------------------------------

def test_detailed_proxy_year_to_days(foodmart_cube, foodmart_oracles):
    date = foodmart_cube.schema.dimension("Date")
    y97 = date.member_code("Year", "1997")
    atom = SelectionAtom(date.level("Year"), (y97,))
    proxy = detailed_proxy(date, atom)
    assert proxy.level.depth == 0
    got = {date.member_label("Day", c) for c in proxy.values}
    assert got == set(foodmart_oracles["Date"].desc("Year", "Day", "1997"))


def test_detailed_proxy_identity_at_level_zero(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    atom = SelectionAtom(date.level("Day"), (0, 3))
    assert detailed_proxy(date, atom) is atom


def test_detailed_proxy_random_matches_desc_union():
    rng = random.Random(31)
    tables = random_tables(rng)
    cube = build_cube(tables)
    for dim in cube.schema.dimensions:
        for level in dim.levels[1:-1]:
            codes = rng.sample(range(level.member_count),
                               k=rng.randint(1, level.member_count))
            atom = SelectionAtom(level, tuple(codes))
            proxy = detailed_proxy(dim, atom)
            expect = set()
            for c in codes:
                expect.update(desc(dim, level, dim.detailed_level, c).tolist())
            assert set(proxy.values) == expect


def test_grouper_domain_year_days(foodmart_cube, foodmart_oracles):
    date = foodmart_cube.schema.dimension("Date")
    atom = SelectionAtom(date.level("Year"), (date.member_code("Year", "1997"),))
    dom = grouper_domain(date, atom, date.level("Day"))
    got = {date.member_label("Day", c) for c in dom}
    assert got == set(foodmart_oracles["Date"].desc("Year", "Day", "1997"))


def test_grouper_domain_identity_level(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    atom = SelectionAtom(date.level("Quarter"), (1, 2))
    assert grouper_domain(date, atom, date.level("Quarter")).tolist() == [1, 2]


def test_grouper_domain_rejects_higher_grouper(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    atom = SelectionAtom(date.level("Quarter"), (0,))
    with pytest.raises(LevelOrderViolation):
        grouper_domain(date, atom, date.level("Year"))


# ---------------------------------------------------------------------------
# execute_query
# ---------------------------------------------------------------------------

def test_reference_query_matches_oracle(foodmart, foodmart_cube, foodmart_oracles):
    aq = reference_aq(foodmart_cube)
    cells = execute_query(aq.original_query())
    expect = naive_execute(
        foodmart.fact_rows,
        foodmart.fact_measures["store_sales"],
        oracle_atoms(foodmart, foodmart_oracles, aq.condition, foodmart_cube),
        [("Date", foodmart_oracles["Date"], "Month"),
         ("Customer", foodmart_oracles["Customer"], "customerRegion")],
        "sum",
    )
    assert expect  # reference region is populated
    assert decode_cells(foodmart_cube, cells) == pytest.approx(expect)


def test_zero_row_result_is_empty():
    from cubelens.cube import CubeSchema, DetailedCube, Measure
    from cubelens.hierarchy import dimension_from_member_rows
    d1 = dimension_from_member_rows("A", ["Leaf", "Top"], [("a1", "T"), ("a2", "T")])
    d2 = dimension_from_member_rows("B", ["Unit", "Grp"], [("b1", "G")])
    cube = DetailedCube(
        CubeSchema("c", [d1, d2], [Measure("m", "integer")]),
        {"A": np.zeros(4, np.int64), "B": np.zeros(4, np.int64)},  # only a1 rows
        {"m": np.arange(4, dtype=np.int64)},
    )
    a2 = d1.member_code("Leaf", "a2")
    q = CubeQuery(cube, SelectionCondition([SelectionAtom(d1.level("Leaf"), (a2,))]),
                  (d1.level("Leaf"), d2.level("Unit")), "m", "m", "sum")
    assert len(execute_query(q)) == 0


def test_random_queries_match_naive_group_by():
    rng = random.Random(47)
    for _ in range(25):
        tables = random_tables(rng, max_facts=500)
        cube = build_cube(tables)
        from fixtures import build_oracles
        oracles = build_oracles(tables)
        aq = random_analyze(rng, cube)
        q = aq.original_query()
        cells = execute_query(q)
        expect = naive_execute(
            tables.fact_rows,
            tables.fact_measures["m"],
            oracle_atoms(tables, oracles, q.condition, cube),
            [(g.dimension_name, oracles[g.dimension_name], g.name) for g in q.groupers],
            q.agg,
        )
        assert decode_cells(cube, cells) == expect


@pytest.mark.parametrize("agg", ["sum", "min", "max", "count"])
def test_merged_queries_match_naive_group_by(agg):
    # merged queries carry 4-6 groupers with several levels per dimension;
    # the scan groups on the finest level of each and maps the rest up
    from fixtures import build_oracles
    rng = random.Random(71)
    shapes = set()
    for _ in range(300):
        if len(shapes) >= 8 and {4, 5, 6} <= {n for n, _ in shapes}:
            break
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        oracles = build_oracles(tables)
        aq = random_analyze(rng, cube, aggs=(agg,))
        fs = build_facilitators(aq)
        queries = [build_plan("mid", fs).base]
        if not fs.missing:
            queries.append(build_plan("max", fs).base)
        for q in queries:
            cells = execute_query(q)
            expect = naive_execute(
                tables.fact_rows,
                tables.fact_measures["m"],
                oracle_atoms(tables, oracles, q.condition, cube),
                [(g.dimension_name, oracles[g.dimension_name], g.name) for g in q.groupers],
                agg,
            )
            assert decode_cells(cube, cells) == expect
            assert [c.dtype for c in cells.key_cols] == [np.int64] * len(q.groupers)
            per_dim = max(sum(g.dimension_name == d for g in q.groupers)
                          for d in grouper_dims(q))
            shapes.add((len(q.groupers), per_dim))
    assert {4, 5, 6} <= {n for n, _ in shapes}
    assert max(k for _, k in shapes) >= 3


def test_scan_past_the_packed_key_range_matches_naive_group_by():
    """Six detailed groupers of 1,500 members span 1500**6 > 2**62 keys, so
    the scan has no packed layout and group_reduce folds the plain columns."""
    from fixtures import DatasetTables, build_oracles
    rng = random.Random(62)
    dims = {}
    for d in range(6):
        names = [f"D{d}L0", f"D{d}L1"]
        dims[f"D{d}"] = (names, [(f"D{d}_{i:04d}", f"D{d}_top{i % 3}") for i in range(1500)])
    fact_rows = [{name: rows[rng.randrange(1500)][0] for name, (_, rows) in dims.items()}
                 for _ in range(200)]
    values = [rng.randint(-50, 1000) for _ in fact_rows]
    fact_rows[1] = dict(fact_rows[0])  # one cell folds two facts
    tables = DatasetTables("wide", dims, [("m", "integer")], fact_rows, {"m": values})
    cube, oracles = build_cube(tables), build_oracles(tables)
    groupers = tuple(dim.detailed_level for dim in cube.schema.dimensions)
    for agg in ("sum", "min", "max", "count"):
        q = CubeQuery(cube, SelectionCondition([]), groupers, "m", "m", agg)
        assert q.scan_layout is None
        cells = execute_query(q)
        expect = naive_execute(fact_rows, values, [],
                               [(g.dimension_name, oracles[g.dimension_name], g.name)
                                for g in groupers], agg)
        assert len(expect) == 199
        assert decode_cells(cube, cells) == expect


def _random_scan_query(rng, cube, agg):
    """2-6 groupers (distinct levels, several per dimension allowed, depth 0
    included); on grouped dimensions an atom at or above every grouper there,
    given as is or as its multi-valued detailed proxy; on the others a box
    atom (1-3 values at any level)."""
    dims = list(cube.schema.dimensions)
    pool = [(d, depth) for d in dims for depth in range(len(d.levels) - 1)]
    picks = rng.sample(pool, min(rng.randint(2, 6), len(pool)))
    groupers = tuple(d.levels[depth] for d, depth in picks)
    atoms = []
    for d in dims:
        if rng.random() < 0.3:
            continue
        depths = [g.depth for g in groupers if g.dimension_name == d.name]
        level = d.levels[rng.randint(max(depths, default=0), len(d.levels) - 2)]
        values = rng.sample(range(level.member_count), rng.randint(1, min(3, level.member_count)))
        atom = SelectionAtom(level, tuple(values))
        if depths and level.depth > 0 and rng.random() < 0.5:
            atom = detailed_proxy(d, atom)
        atoms.append(atom)
    return CubeQuery(cube, SelectionCondition(atoms), groupers, "m", "m", agg)


@pytest.mark.parametrize("agg", ["sum", "min", "max", "count"])
def test_execute_query_matches_naive_group_by_property(agg, monkeypatch):
    # random shapes against the nested-loop oracle, folded whole, in chunks
    # (a tiny SCAN_CHUNK makes small cubes take the chunk merge), and as
    # plain columns (the path of key spaces past 2**62)
    from cubelens import query
    from fixtures import build_oracles
    merges = []
    fold_chunks, whole_chunk, key_layout = query.fold_chunks, query.SCAN_CHUNK, query.key_layout
    monkeypatch.setattr(query, "fold_chunks", lambda *a: merges.append(1) or fold_chunks(*a))
    rng = random.Random(89)
    seen = {"groupers": set(), "empty": 0, "cells": 0, "depth0": 0, "proxy": 0, "box": 0}
    for i in range(90):
        tables = random_tables(rng, max_facts=400)
        if i % 2:  # decimal measure; quarters keep every float sum exact
            tables.measures = [("m", "decimal")]
            tables.fact_measures["m"] = [v / 4 for v in tables.fact_measures["m"]]
        cube = build_cube(tables)
        oracles = build_oracles(tables)
        q = _random_scan_query(rng, cube, agg)
        expect = naive_execute(
            tables.fact_rows,
            tables.fact_measures["m"],
            oracle_atoms(tables, oracles, q.condition, cube),
            [(g.dimension_name, oracles[g.dimension_name], g.name) for g in q.groupers],
            agg,
        )
        for chunk, layout in ((whole_chunk, key_layout), (8, key_layout), (8, lambda sizes: None)):
            monkeypatch.setattr(query, "SCAN_CHUNK", chunk)
            monkeypatch.setattr(query, "key_layout", layout)
            cells = execute_query(q)
            assert decode_cells(cube, cells) == expect, (i, chunk, layout)
            assert cells.values.dtype.kind == ("i" if agg == "count" or not i % 2 else "f")
        grouped = grouper_dims(q)
        seen["groupers"].add(len(q.groupers))
        seen["empty" if not expect else "cells"] += 1
        seen["depth0"] += any(g.depth == 0 for g in q.groupers)
        seen["proxy"] += any(a.level.depth == 0 and len(a.values) > 1 and a.dimension_name in grouped
                             for a in q.condition)
        seen["box"] += any(len(a.values) > 1 and a.dimension_name not in grouped
                           for a in q.condition)
    assert seen["groupers"] == {2, 3, 4, 5, 6}
    assert min(seen["empty"], seen["cells"], seen["depth0"], seen["proxy"], seen["box"]) > 0, seen
    assert merges


@pytest.mark.parametrize("signs, overflows", [((1, 1), True), ((1, -1), False)])
def test_chunked_scan_raises_only_when_the_true_sum_overflows(monkeypatch, signs, overflows):
    # 3 * 2**61 rows of one sign, then as many of the other: each half's sum
    # leaves int64 (1.5 * 2**62 + ...), the total of (1, -1) is 0
    from cubelens import query
    from cubelens.cube import CubeSchema, DetailedCube, Measure
    from cubelens.errors import SumOverflow
    from cubelens.hierarchy import dimension_from_member_rows
    monkeypatch.setattr(query, "SCAN_CHUNK", 4)
    d1 = dimension_from_member_rows("A", ["Leaf", "Top"], [("a1", "T"), ("a2", "T")])
    d2 = dimension_from_member_rows("B", ["Unit", "Grp"], [("b1", "G")])
    n = 64
    values = np.full(n, 3 << 61, np.int64) * np.repeat(np.asarray(signs, np.int64), n // 2)
    cube = DetailedCube(CubeSchema("c", [d1, d2], [Measure("m", "integer")]),
                        {"A": np.zeros(n, np.int64), "B": np.zeros(n, np.int64)}, {"m": values})
    q = CubeQuery(cube, SelectionCondition(), (d1.level("Top"), d2.level("Grp")), "m", "m", "sum")
    if overflows:
        with pytest.raises(SumOverflow):
            execute_query(q)
    else:
        assert execute_query(q).values.tolist() == [0]


def test_proxy_equivalence_on_random_queries():
    rng = random.Random(53)
    for _ in range(15):
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        q = aq.original_query()
        baseline = execute_query(q)
        proxied_atoms = [detailed_proxy(cube.schema.dimension(a.dimension_name), a)
                         for a in q.condition]
        proxied = CubeQuery(cube, SelectionCondition(proxied_atoms), q.groupers,
                            q.measure_name, q.measure_alias, q.agg)
        assert cell_sets_equal(baseline, execute_query(proxied))


def test_distributivity_totals():
    rng = random.Random(59)
    tables = random_tables(rng, max_facts=500)
    cube = build_cube(tables)
    for agg in ("sum", "count", "min", "max"):
        aq = random_analyze(rng, cube, aggs=(agg,))
        q = aq.original_query()
        cells = execute_query(q)
        condition = {}
        for atom in q.condition:
            dim = cube.schema.dimension(atom.dimension_name)
            condition[atom.dimension_name] = detailed_proxy(dim, atom).values
        rows = np.flatnonzero(filter_rows(cube, condition))
        if len(rows) == 0:
            assert len(cells) == 0
            continue
        raw = cube.measure_columns[q.measure_name][rows]
        values = [v for _, v in cell_dict(cells).items()]
        if agg == "sum":
            assert sum(values) == raw.sum()
        elif agg == "count":
            assert sum(values) == len(rows)
        elif agg == "min":
            assert min(values) == raw.min()
        else:
            assert max(values) == raw.max()


def test_cell_coordinates_inside_grouper_domain():
    rng = random.Random(61)
    for _ in range(10):
        tables = random_tables(rng, max_facts=300)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        q = aq.original_query()
        cells = execute_query(q)
        for i, g in enumerate(q.groupers):
            atom = q.condition.atom_for(g.dimension_name)
            if atom is None:
                continue
            dim = cube.schema.dimension(g.dimension_name)
            allowed = set(grouper_domain(dim, atom, g).tolist())
            assert set(cells.key_cols[i].tolist()) <= allowed


# ---------------------------------------------------------------------------
# CubeQuery.validate
# ---------------------------------------------------------------------------

def _regrouped(base, groupers, agg=None, condition=None):
    return CubeQuery(base.cube, base.condition if condition is None else condition,
                     tuple(groupers), base.measure_name, "x", agg or base.agg)


@pytest.mark.parametrize("count", [1, 7])
def test_validate_rejects_grouper_count(foodmart_cube, count):
    base = reference_aq(foodmart_cube).original_query()
    levels = [lv for dim in foodmart_cube.schema.dimensions for lv in dim.levels
              if not lv.is_all]
    with pytest.raises(InvalidQuery, match=f"expected 2..6 groupers, got {count}"):
        _regrouped(base, levels[:count]).validate()


def test_validate_rejects_duplicate_grouper(foodmart_cube):
    base = reference_aq(foodmart_cube).original_query()
    month = base.groupers[0]
    with pytest.raises(InvalidQuery, match="duplicate"):
        _regrouped(base, (month, base.groupers[1], month)).validate()


def test_validate_rejects_non_distributive_aggregate(foodmart_cube):
    base = reference_aq(foodmart_cube).original_query()
    with pytest.raises(InvalidQuery, match="'avg' is not distributive"):
        _regrouped(base, base.groupers, agg="avg").validate()


def test_malformed_atoms_and_conditions_raise(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    month, year = date.level("Month"), date.level("Year")
    with pytest.raises(InvalidQuery, match="empty value set"):
        SelectionAtom(month, ())
    for code in (-1, month.member_count):
        with pytest.raises(UnknownMember, match=f"code {code} out of range at Date.Month"):
            SelectionAtom(month, (0, code))
    with pytest.raises(InvalidQuery, match="two atoms on dimension Date"):
        SelectionCondition([SelectionAtom(month, (0,)), SelectionAtom(year, (0,))])


def _quarter_by_month_filter(foodmart_cube, n_months):
    """The reference query grouped by Date.Quarter, its Date filter replaced
    by the first ``n_months`` months of 1997-Q3."""
    base = reference_aq(foodmart_cube).original_query()
    date = foodmart_cube.schema.dimension("Date")
    q3 = date.member_code("Quarter", "1997-Q3")
    months = desc(date, "Quarter", "Month", q3)
    assert len(months) == 3
    atom = SelectionAtom(date.level("Month"), tuple(months[:n_months].tolist()))
    return _regrouped(base, (date.level("Quarter"), base.groupers[1]),
                      condition=base.condition.replacing("Date", atom))


def test_validate_rejects_a_proxy_that_splits_a_grouper_member(foodmart_cube):
    q = _quarter_by_month_filter(foodmart_cube, 2)
    with pytest.raises(InvalidQuery, match="not rollable"):
        q.validate()
    with pytest.raises(InvalidQuery):
        execute_query(q)


def test_validate_accepts_a_rollable_proxy(foodmart_cube):
    q = _quarter_by_month_filter(foodmart_cube, 3)
    q.validate()
    by_quarter = _regrouped(q, q.groupers, condition=reference_aq(
        foodmart_cube).original_query().condition)
    cells = execute_query(q)
    assert len(cells) and cell_sets_equal(cells, execute_query(by_quarter))


# ---------------------------------------------------------------------------
# cube_usable / reaggregate
# ---------------------------------------------------------------------------

def test_usable_reflexive(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    q = aq.original_query()
    report = cube_usable(q, q)
    assert report.usable and report.failed == () and report.failures == ()
    assert report is _USABLE  # every usable pair shares one report


def test_all_encompassing_usable_for_facilitators(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    fs = build_facilitators(aq)
    merged = build_plan("max", fs).base
    for role, slot in fs.slots().items():
        report = cube_usable(merged, slot.query)
        assert report.usable, (role, report.failures)


def test_usable_fails_on_lower_grouper(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    date = foodmart_cube.schema.dimension("Date")
    base = aq.original_query()  # groups at Month
    lowered = CubeQuery(base.cube, base.condition,
                        (date.level("Day"), base.groupers[1]),
                        base.measure_name, "x", base.agg)
    report = cube_usable(base, lowered)
    assert not report.usable
    assert "v" in report.failed


def test_usable_fails_on_mismatched_agg(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    base = aq.original_query()
    other = CubeQuery(base.cube, base.condition, base.groupers,
                      base.measure_name, "x", "min")
    report = cube_usable(base, other)
    assert not report.usable
    assert "ii" in report.failed


def test_usable_fails_on_extra_atom(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    base = aq.original_query()
    prod = foodmart_cube.schema.dimension("Product")
    extra = SelectionAtom(prod.level("Brand"), (0,))
    richer = CubeQuery(base.cube, SelectionCondition(list(base.condition) + [extra]),
                       base.groupers, base.measure_name, "x", base.agg)
    report = cube_usable(base, richer)
    assert not report.usable
    assert "vi" in report.failed


def test_usable_fails_on_dropped_atom_below_base_levels(foodmart_cube):
    # the base filters Promo at Media but does not group on Promo, so its
    # cells cannot be re-filtered to the target's unrestricted Promo
    aq = reference_aq(foodmart_cube)
    base = aq.original_query()
    wider = CubeQuery(base.cube, base.condition.replacing("Promo", None),
                      base.groupers, base.measure_name, "x", base.agg)
    report = cube_usable(base, wider)
    assert not report.usable
    assert report.failed == ("vi",)
    with pytest.raises(UsabilityViolation):
        reaggregate(execute_query(base), wider, base)


def test_reaggregate_identity(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    q = aq.original_query()
    cells = execute_query(q)
    again = reaggregate(cells, q, q)
    assert cell_sets_equal(cells, again)


def test_reaggregate_drilldown_to_original(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    fs = build_facilitators(aq)
    dd_cells = execute_query(fs.dd_a.query)
    rolled = reaggregate(dd_cells, fs.org.query, fs.dd_a.query)
    assert cell_sets_equal(rolled, execute_query(fs.org.query))


def test_reaggregate_requires_usability(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    fs = build_facilitators(aq)
    report = cube_usable(fs.org.query, fs.dd_a.query)  # would need lower levels
    assert not report and report.failed == ("v",)
    with pytest.raises(UsabilityViolation) as info:
        reaggregate(execute_query(fs.org.query), fs.dd_a.query, fs.org.query)
    # the error names each failed condition with its reason
    assert info.value.failed == ("v",)
    why = dict(report.failures)["v"]
    assert "is below the base grouper" in why
    assert str(info.value) == f"base query is not usable for the target: (v) {why}"


def test_reaggregate_random_usable_pairs():
    rng = random.Random(67)
    done = 0
    while done < 40:
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        if fs.missing:
            continue
        merged = build_plan("max", fs).base
        base_cells = execute_query(merged)
        for slot in fs.slots().values():
            if slot.query is None:
                continue
            direct = execute_query(slot.query)
            rebuilt = reaggregate(base_cells, slot.query, merged)
            assert cell_sets_equal(direct, rebuilt)
            done += 1


# ---------------------------------------------------------------------------
# cube_usable against the reference checklist
# ---------------------------------------------------------------------------

def _usability_cube(rng):
    """A small cube whose parent maps are drawn freely, so some members
    have no children and some detailed members no facts."""
    dims = []
    for d in range(rng.randint(2, 3)):
        sizes = [rng.randint(1, 12)]
        for _ in range(rng.randint(1, 2)):
            sizes.append(rng.randint(1, 5))
        names = [f"D{d}L{i}" for i in range(len(sizes))]
        labels = [[f"{name}_{c}" for c in range(size)] for name, size in zip(names, sizes)]
        parents = [[rng.randrange(sizes[i + 1]) for _ in range(sizes[i])]
                   for i in range(len(sizes) - 1)]
        dims.append(dimension_from_tables(f"D{d}", names, labels, parents))
    n = rng.randint(0, 40)
    coords = {dim.name: np.array([rng.randrange(dim.detailed_level.member_count)
                                  for _ in range(n)], dtype=np.int64) for dim in dims}
    return DetailedCube(CubeSchema("u", dims, [Measure("m", "integer")]), coords,
                        {"m": np.arange(n, dtype=np.int64)})


def _random_atom(rng, level):
    return SelectionAtom(level, rng.sample(range(level.member_count),
                                           rng.randint(1, min(3, level.member_count))))


def _random_usability_query(rng, cube):
    """Groupers at any levels, ALL included; atoms of one to three values at
    any level; measure case and aggregate (distributive or not) vary."""
    groupers, atoms = [], []
    for dim in cube.schema.dimensions:
        groupers += rng.sample(dim.levels, rng.choice([0, 1, 1, 2]))
        if rng.random() < 0.6:
            atoms.append(_random_atom(rng, rng.choice(dim.levels)))
    measure = rng.choice(["m", "M"])
    return CubeQuery(cube, SelectionCondition(atoms), tuple(groupers), measure, measure,
                     rng.choice(["sum", "min", "max", "count", "avg"]))


def _narrowed_target(rng, base):
    """A query near ``base``: groupers at or above base groupers, and per
    dimension the base's atom, none, or a single value at or above the base
    grouper, often one under the base atom's values."""
    cube = base.cube
    groupers = tuple(rng.choice(cube.schema.dimension(g.dimension_name).levels[g.depth:])
                     for g in base.groupers if rng.random() < 0.8)
    atoms = []
    for dim in cube.schema.dimensions:
        a_base = base.condition.atom_for(dim.name)
        pick = rng.random()
        if pick < 0.3:
            if a_base is not None:
                atoms.append(a_base)
            continue
        if pick < 0.4:
            continue
        fine = base.finest_levels.get(dim.name, dim.all_level)
        level = rng.choice(dim.levels[fine.depth:])
        code = rng.randrange(level.member_count)
        if a_base is not None and a_base.level.depth >= level.depth and rng.random() < 0.7:
            up = dim.anc_array(level.depth, a_base.level.depth)
            under = [c for c in range(level.member_count) if up[c] in a_base.values]
            code = rng.choice(under) if under else code
        atoms.append(SelectionAtom(level, (code,)))
    return CubeQuery(cube, SelectionCondition(atoms), groupers, base.measure_name, "t",
                     base.agg if rng.random() < 0.9 else "min")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cube_usable_matches_the_reference_checklist(seed):
    """Whole reports agree: each failed condition and its reason,
    on random pairs, pairs near each other, pairs across two cubes over the
    same columns, and cuboid bases, whose queries hold a proxy of the cube."""
    rng = random.Random(seed)
    cube = _usability_cube(rng)
    twin = DetailedCube(cube.schema, cube.coordinates, cube.measure_columns)
    pairs = []
    for _ in range(12):
        base = _random_usability_query(rng, cube)
        pairs += [(base, _random_usability_query(rng, rng.choice([cube, cube, twin]))),
                  (base, _narrowed_target(rng, base))]
    for routes in cube.lattice.cuboids[:3]:
        for route in routes.values():
            pairs.append((route.query, _narrowed_target(rng, route.query)))
    for base, target in pairs:
        assert cube_usable(base, target) == cube_usable_reference(base, target), \
            (base.groupers, base.condition.mask_atoms(),
             target.groupers, target.condition.mask_atoms())
