import random

import numpy as np
import pytest

from cubelens.errors import LevelOrderViolation, UsabilityViolation
from cubelens.hierarchy import desc
from cubelens.mqo import build_all_encompassing, reaggregate
from cubelens.analyze import build_facilitators
from cubelens.query import (
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    cube_usable,
    detailed_proxy,
    execute_query,
    grouper_domain,
)

from fixtures import REFERENCE_QUERY, build_cube, random_analyze, random_tables
from oracles import naive_execute


def reference_aq(foodmart_cube):
    from cubelens.analyze import from_statement
    from cubelens.parser import parse
    stmt = parse(REFERENCE_QUERY, foodmart_cube.schema)
    return from_statement(stmt, foodmart_cube)


def decode_cells(cube, cells):
    dims = [cube.schema.dimension(g.dimension_name) for g in cells.schema.groupers]
    out = {}
    for coords, value in cells.items():
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
    from cubelens.cube import filter_rows
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
        values = [v for _, v in cells.items()]
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
# cube_usable / reaggregate
# ---------------------------------------------------------------------------

def test_usable_reflexive(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    q = aq.original_query()
    report = cube_usable(q, q)
    assert report.usable and report.failed == ()


def test_all_encompassing_usable_for_facilitators(foodmart_cube):
    aq = reference_aq(foodmart_cube)
    fs = build_facilitators(aq)
    merged = build_all_encompassing(aq)
    for role, slot in fs.slots().items():
        report = cube_usable(merged, slot.query)
        assert report.usable, (role, report.conditions)


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
    org_cells = execute_query(fs.org.query)
    with pytest.raises(UsabilityViolation):
        reaggregate(org_cells, fs.dd_a.query, fs.org.query)  # would need lower levels


def test_reaggregate_random_usable_pairs():
    rng = random.Random(67)
    done = 0
    while done < 40:
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        try:
            merged = build_all_encompassing(aq)
        except Exception:
            continue
        fs = build_facilitators(aq)
        base_cells = execute_query(merged)
        for slot in fs.slots().values():
            if slot.query is None:
                continue
            direct = execute_query(slot.query)
            rebuilt = reaggregate(base_cells, slot.query, merged)
            assert cell_sets_equal(direct, rebuilt)
            done += 1
