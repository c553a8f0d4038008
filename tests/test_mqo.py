import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelens.analyze import build_facilitators, from_statement
from cubelens.errors import DegradedStructure
from cubelens.mqo import (
    build_all_encompassing,
    build_org_dd_merged,
    run_max_mqo,
    run_mid_mqo,
    run_min_mqo,
)
from cubelens.parser import parse
from cubelens.query import SelectionAtom, SelectionCondition, cell_sets_equal
from cubelens.analyze import AnalyzeQuery

from fixtures import (
    REFERENCE_QUERY,
    WALKTHROUGH_QUERY,
    build_cube,
    random_analyze,
    random_tables,
)
from oracles import ArityMismatch, ResultMap, update_map

ROLES = ("org", "sibA", "sibB", "ddA", "ddB")


def results_equal(a, b):
    for role in ROLES:
        sa, sb = a.slots[role], b.slots[role]
        if (sa.cells is None) != (sb.cells is None):
            return False
        if sa.cells is not None and not cell_sets_equal(sa.cells, sb.cells):
            return False
    return True


@pytest.fixture()
def walkthrough_aq(walkthrough_cube):
    return from_statement(parse(WALKTHROUGH_QUERY, walkthrough_cube.schema), walkthrough_cube)


@pytest.fixture()
def reference_aq(foodmart_cube):
    return from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema), foodmart_cube)


# ---------------------------------------------------------------------------
# update_map (the reference fold oracle)
# ---------------------------------------------------------------------------

def test_update_map_sum_fold():
    h = ResultMap(2, "sum")
    update_map(h, (1, 2), 10)
    update_map(h, (1, 2), 5)
    assert h.as_dict() == {(1, 2): 15}


def test_update_map_inserts_absent_key():
    h = ResultMap(2, "sum")
    update_map(h, (0, 0), 7)
    assert h.as_dict() == {(0, 0): 7}


def test_update_map_count_folds_partial_counts():
    # partial counts of 3 and 4 rows fold to the 7 rows a naive scan counts
    h = ResultMap(1, "count")
    update_map(h, (9,), 3)
    update_map(h, (9,), 4)
    assert h.as_dict() == {(9,): 7}


def test_update_map_arity_checked():
    h = ResultMap(2, "sum")
    with pytest.raises(ArityMismatch):
        update_map(h, (1,), 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
       st.sampled_from(["sum", "min", "max", "count"]),
       st.randoms())
def test_update_map_order_independent(values, agg, rnd):
    if agg == "count":
        values = [abs(v) for v in values]  # partial counts are non-negative
    def fold(seq):
        h = ResultMap(1, agg)
        for v in seq:
            update_map(h, (0,), v)
        return h.as_dict()[(0,)]

    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert fold(values) == fold(shuffled)


# ---------------------------------------------------------------------------
# Merged-query construction goldens
# ---------------------------------------------------------------------------

def test_all_encompassing_walkthrough_shape(walkthrough_aq):
    q = build_all_encompassing(walkthrough_aq)
    atoms = {a.dimension_name: a for a in q.condition}
    geo = walkthrough_aq.cube.schema.dimension("Geo")
    date = walkthrough_aq.cube.schema.dimension("Date")
    assert atoms["Geo"].level.name == "Country"
    assert geo.member_label("Country", atoms["Geo"].values[0]) == "USA"
    assert atoms["Date"].level.name == "Year"
    assert date.member_label("Year", atoms["Date"].values[0]) == "2025"
    assert [g.name for g in q.groupers] == ["City", "Month", "State", "Quarter",
                                            "Country", "Year"]


def test_all_encompassing_reference_shape(reference_aq):
    q = build_all_encompassing(reference_aq)
    assert [g.name for g in q.groupers] == [
        "Day", "CustomerId", "Month", "customerRegion", "Quarter", "State"]
    atoms = {a.dimension_name: (a.level.name,) for a in q.condition}
    assert atoms["Date"] == ("Year",)
    assert atoms["Customer"] == ("Country",)
    assert atoms["Promo"] == ("Media",)  # the box atom is untouched


def test_org_dd_merged_walkthrough_shape(walkthrough_aq):
    q = build_org_dd_merged(walkthrough_aq)
    assert [g.name for g in q.groupers] == ["City", "Month", "State", "Quarter"]
    atoms = {a.dimension_name: a.level.name for a in q.condition}
    assert atoms == {"Geo": "State", "Date": "Quarter"}


def test_org_dd_merged_collapses_without_drilldowns(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    store = foodmart_cube.schema.dimension("Store")
    aq = AnalyzeQuery(foodmart_cube, SelectionCondition([]),
                      (date.level("Day"), store.level("StoreId")),
                      "unit_sales", "u", "sum")
    merged = build_org_dd_merged(aq)
    assert [g.name for g in merged.groupers] == ["Day", "StoreId"]


def test_all_encompassing_degraded_cases(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    # grouper at depth 0
    aq = AnalyzeQuery(
        foodmart_cube,
        SelectionCondition([SelectionAtom(date.level("Quarter"), (0,)),
                            SelectionAtom(cust.level("State"), (0,))]),
        (date.level("Day"), cust.level("customerRegion")),
        "unit_sales", "u", "sum")
    with pytest.raises(DegradedStructure):
        build_all_encompassing(aq)
    # missing atom
    aq2 = AnalyzeQuery(
        foodmart_cube,
        SelectionCondition([SelectionAtom(date.level("Quarter"), (0,))]),
        (date.level("Month"), cust.level("customerRegion")),
        "unit_sales", "u", "sum")
    with pytest.raises(DegradedStructure):
        build_all_encompassing(aq2)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def test_min_is_direct_execution(reference_aq):
    from cubelens.query import execute_query
    fs = build_facilitators(reference_aq)
    result = run_min_mqo(fs)
    assert result.postprocess_ns == 0
    assert result.store_queries == 5
    for role, slot in fs.slots().items():
        assert cell_sets_equal(result.slots[role].cells, execute_query(slot.query))


def test_degraded_slots_pass_through(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(foodmart_cube, SelectionCondition([]),
                      (date.level("Month"), cust.level("State")),
                      "unit_sales", "u", "sum")
    fs = build_facilitators(aq)
    result = run_min_mqo(fs)
    assert result.store_queries == 3
    assert result.slots["sibA"].cells is None and result.slots["sibA"].reason
    assert result.slots["sibB"].cells is None


def test_store_query_counts(reference_aq):
    cube = reference_aq.cube
    fs = build_facilitators(reference_aq)
    for runner, expected in ((run_min_mqo, 5),):
        before = cube.exec_stats.fact_scans
        runner(fs)
        assert cube.exec_stats.fact_scans - before == expected
    before = cube.exec_stats.fact_scans
    run_mid_mqo(reference_aq, fs)
    assert cube.exec_stats.fact_scans - before == 3
    before = cube.exec_stats.fact_scans
    run_max_mqo(reference_aq, fs)
    assert cube.exec_stats.fact_scans - before == 1


def test_max_falls_back_to_mid_on_degraded(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(foodmart_cube,
                      SelectionCondition([SelectionAtom(date.level("Quarter"), (0,))]),
                      (date.level("Month"), cust.level("State")),
                      "unit_sales", "u", "sum")
    fs = build_facilitators(aq)
    result = run_max_mqo(aq, fs)
    assert result.strategy_requested == "max"
    assert result.strategy_used == "mid"
    assert result.fallback_reason
    assert results_equal(result, run_min_mqo(fs))


def test_empty_all_encompassing_gives_empty_results(walkthrough_cube):
    geo = walkthrough_cube.schema.dimension("Geo")
    date = walkthrough_cube.schema.dimension("Date")
    # Portland is the only OR city; no facts get filtered out structurally,
    # so force emptiness with a year that has facts only in 2024/2025: use a
    # synthetic cube instead.
    from cubelens.cube import CubeSchema, DetailedCube, Measure
    from cubelens.hierarchy import dimension_from_member_rows
    d1 = dimension_from_member_rows("A", ["A0", "A1", "A2"],
                                    [("x", "p", "r"), ("y", "q", "s")])
    d2 = dimension_from_member_rows("B", ["B0", "B1", "B2"],
                                    [("u", "m", "n")])
    cube = DetailedCube(
        CubeSchema("c", [d1, d2], [Measure("m", "integer")]),
        {"A": np.zeros(3, np.int64), "B": np.zeros(3, np.int64)},
        {"m": np.ones(3, np.int64)},
    )
    # filter on the 'y' branch: its region is empty
    aq = AnalyzeQuery(cube,
                      SelectionCondition([
                          SelectionAtom(d1.level("A1"), (d1.member_code("A1", "q"),)),
                          SelectionAtom(d2.level("B1"), (0,))]),
                      (d1.level("A1"), d2.level("B1")),
                      "m", "m", "sum")
    fs = build_facilitators(aq)
    result = run_max_mqo(aq, fs)
    assert result.strategy_used == "max"
    assert len(result.slots["org"].cells) == 0
    assert len(result.slots["ddA"].cells) == 0
    mn = run_min_mqo(fs)
    assert results_equal(result, mn)


def test_strategies_agree_on_empty_cube():
    rng = random.Random(131)
    tables = random_tables(rng, max_dims=3, max_facts=200)
    tables.fact_rows = []
    for m, _ in tables.measures:
        tables.fact_measures[m] = []
    cube = build_cube(tables)
    aq = random_analyze(rng, cube)
    fs = build_facilitators(aq)
    rmin = run_min_mqo(fs)
    assert results_equal(rmin, run_mid_mqo(aq, fs))
    assert results_equal(rmin, run_max_mqo(aq, fs))
    assert all(s.cells is None or len(s.cells) == 0 for s in rmin.slots.values())


def test_walkthrough_equivalence_filter_at_grouper_level(walkthrough_aq):
    # sigma == gamma on both sides: the merged query carries the widened
    # filter levels as constant extra groupers
    fs = build_facilitators(walkthrough_aq)
    rmin = run_min_mqo(fs)
    assert results_equal(rmin, run_mid_mqo(walkthrough_aq, fs))
    rmax = run_max_mqo(walkthrough_aq, fs)
    assert rmax.strategy_used == "max"
    assert results_equal(rmin, rmax)


def test_org_dd_merged_reaggregates_to_each_slot():
    from cubelens.mqo import reaggregate
    from cubelens.query import execute_query
    rng = random.Random(137)
    done = 0
    while done < 10:
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        if aq.groupers[0].depth == 0 or aq.groupers[1].depth == 0:
            continue
        fs = build_facilitators(aq)
        merged = build_org_dd_merged(aq)
        base_cells = execute_query(merged)
        for slot in (fs.org, fs.dd_a, fs.dd_b):
            direct = execute_query(slot.query)
            rebuilt = reaggregate(base_cells, slot.query, merged)
            assert cell_sets_equal(direct, rebuilt)
        done += 1


def test_strategy_equivalence_random_smoke():
    rng = random.Random(79)
    checked_max = 0
    for _ in range(60):
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        rmin = run_min_mqo(fs)
        rmid = run_mid_mqo(aq, fs)
        rmax = run_max_mqo(aq, fs)
        assert results_equal(rmin, rmid)
        assert results_equal(rmin, rmax)
        if rmax.strategy_used == "max":
            checked_max += 1
    assert checked_max >= 10  # the generator produces enough full structures


def test_distribution_completeness_with_count():
    """With agg=count the map totals equal the region row counts, so every
    merged tuple landed in the right buckets."""
    rng = random.Random(83)
    from cubelens.selector import estimate_stats
    checked = 0
    while checked < 10:
        tables = random_tables(rng, max_facts=500)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube, aggs=("count",))
        fs = build_facilitators(aq)
        try:
            build_all_encompassing(aq)
        except DegradedStructure:
            continue
        stats = estimate_stats(aq)
        result = run_max_mqo(aq, fs)
        assert result.strategy_used == "max"
        totals = {role: sum(v for _, v in result.slots[role].cells.items())
                  for role in ROLES}
        assert totals["org"] == stats.facts_org
        assert totals["ddA"] == stats.facts_org
        assert totals["ddB"] == stats.facts_org
        assert totals["sibA"] == stats.facts_sib_a
        assert totals["sibB"] == stats.facts_sib_b
        checked += 1


def _distribute_by_tuple(aq, merged, cells):
    """The per-tuple distribution of the paper: walk the all-encompassing
    tuples and fold each into every role map whose satisfaction test its
    filter-level coordinates pass."""
    col = {(g.dimension_name, g.depth): i for i, g in enumerate(merged.groupers)}
    g_a, g_b = aq.groupers
    alpha, beta = aq.atom_alpha, aq.atom_beta

    def at(level):
        return col[(level.dimension_name, level.depth)]

    org_a, org_b = at(g_a), at(g_b)
    dd_a = col[(g_a.dimension_name, g_a.depth - 1)]
    dd_b = col[(g_b.dimension_name, g_b.depth - 1)]
    sig_a, sig_b = at(alpha.level), at(beta.level)
    maps = {role: ResultMap(2, aq.agg) for role in ROLES}
    for coords, value in cells.items():
        pass_a = coords[sig_a] == alpha.values[0]
        pass_b = coords[sig_b] == beta.values[0]
        if pass_a and pass_b:
            update_map(maps["org"], (coords[org_a], coords[org_b]), value)
            update_map(maps["ddA"], (coords[dd_a], coords[org_b]), value)
            update_map(maps["ddB"], (coords[org_a], coords[dd_b]), value)
        if pass_b:
            update_map(maps["sibA"], (coords[sig_a], coords[org_b]), value)
        if pass_a:
            update_map(maps["sibB"], (coords[org_a], coords[sig_b]), value)
    return maps


@pytest.mark.parametrize("agg", ["sum", "min", "max", "count"])
def test_max_matches_per_tuple_distribution_oracle(agg):
    from cubelens.query import execute_query
    rng = random.Random(89)
    checked = 0
    while checked < 20:
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube, aggs=(agg,))
        try:
            merged = build_all_encompassing(aq)
        except DegradedStructure:
            continue
        maps = _distribute_by_tuple(aq, merged, execute_query(merged))
        result = run_max_mqo(aq, build_facilitators(aq))
        assert result.strategy_used == "max"
        for role in ROLES:
            assert result.slots[role].cells.as_dict() == maps[role].as_dict(), role
        checked += 1
