import random

import pytest
from hypothesis import given, settings, strategies as st

from cubelens.errors import (
    LevelOrderViolation,
    NoParentLevel,
    ParseError,
    UnknownLevel,
    UnknownMember,
)
from cubelens.hierarchy import (
    anc,
    dimension_from_member_rows,
    dimension_from_tables,
    validate_hierarchy,
)

from fixtures import build_cube, random_tables
from oracles import HierarchyOracle, desc, siblings_under_parent


def date_dim(foodmart):
    return build_cube(foodmart).schema.dimension("Date")


def test_anc_quarter_to_year(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    q3 = date.member_code("Quarter", "1997-Q3")
    assert date.member_label("Year", anc(date, "Quarter", "Year", q3)) == "1997"


def test_anc_identity_same_level(foodmart_cube):
    cust = foodmart_cube.schema.dimension("Customer")
    ca = cust.member_code("State", "CA")
    assert anc(cust, "State", "State", ca) == ca


def test_anc_to_all_is_single_root(foodmart_cube):
    cust = foodmart_cube.schema.dimension("Customer")
    for label in ("CA-North", "OR-Metro", "BC-Lower"):
        code = cust.member_code("customerRegion", label)
        assert anc(cust, "customerRegion", "ALL", code) == 0
    assert cust.member_label("ALL", 0) == "All"


def test_desc_quarter_days_match_oracle(foodmart_cube, foodmart_oracles):
    date = foodmart_cube.schema.dimension("Date")
    oracle = foodmart_oracles["Date"]
    q3 = date.member_code("Quarter", "1997-Q3")
    got = {date.member_label("Day", c) for c in desc(date, "Quarter", "Day", q3)}
    assert got == set(oracle.desc("Quarter", "Day", "1997-Q3"))
    assert got  # non-empty by construction


def test_desc_identity(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    m = date.member_code("Month", "1997-07")
    assert desc(date, "Month", "Month", m).tolist() == [m]


def test_desc_two_level_toy():
    dim = dimension_from_member_rows("T", ["Leaf", "Root"],
                                     [("a1", "A"), ("a2", "A")])
    root = dim.member_code("Root", "A")
    leaves = {dim.member_label("Leaf", c) for c in desc(dim, "Root", "Leaf", root)}
    assert leaves == {"a1", "a2"}


def test_siblings_quarters_of_1997(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    q3 = date.member_code("Quarter", "1997-Q3")
    got = {date.member_label("Quarter", c)
           for c in siblings_under_parent(date, "Quarter", q3)}
    assert got == {"1997-Q1", "1997-Q2", "1997-Q3", "1997-Q4"}


def test_siblings_single_child():
    dim = dimension_from_member_rows("T", ["Leaf", "Root"], [("only", "R")])
    only = dim.member_code("Leaf", "only")
    assert siblings_under_parent(dim, "Leaf", only).tolist() == [only]


def test_siblings_random_hierarchy_matches_bruteforce():
    rng = random.Random(7)
    tables = random_tables(rng)
    cube = build_cube(tables)
    for name, (level_names, rows) in tables.dims.items():
        dim = cube.schema.dimension(name)
        oracle = HierarchyOracle(level_names, rows)
        for level_name in level_names:
            level = dim.level(level_name)
            for code in range(level.member_count):
                label = dim.member_label(level, code)
                got = {dim.member_label(level, c)
                       for c in siblings_under_parent(dim, level, code)}
                assert got == set(oracle.siblings(level_name, label))


def test_anc_desc_exhaustive_against_oracle():
    rng = random.Random(13)
    tables = random_tables(rng)
    cube = build_cube(tables)
    for name, (level_names, rows) in tables.dims.items():
        dim = cube.schema.dimension(name)
        oracle = HierarchyOracle(level_names, rows)
        all_names = level_names + ["ALL"]
        for lo_i, lo_name in enumerate(all_names):
            for hi_name in all_names[lo_i:]:
                lo = dim.level(lo_name)
                for code in range(lo.member_count):
                    label = dim.member_label(lo, code)
                    got = dim.member_label(hi_name, anc(dim, lo_name, hi_name, code))
                    assert got == oracle.anc(lo_name, hi_name, label)
                hi = dim.level(hi_name)
                for code in range(hi.member_count):
                    label = dim.member_label(hi, code)
                    got = {dim.member_label(lo_name, c)
                           for c in desc(dim, hi_name, lo_name, code)}
                    assert got == set(oracle.desc(hi_name, lo_name, label))


def test_validate_foodmart_clean(foodmart_cube):
    for dim in foodmart_cube.schema.dimensions:
        assert validate_hierarchy(dim) == []


def test_validate_non_total_map():
    dim = dimension_from_tables("T", ["Leaf", "Root"],
                                [["a", "b", "c"], ["R"]],
                                [[0, 0]])  # one child entry missing
    problems = validate_hierarchy(dim)
    assert any("non-total ancestor map" in p for p in problems)


def test_validate_duplicate_label():
    dim = dimension_from_tables("T", ["Leaf", "Root"],
                                [["a", "a"], ["R"]],
                                [[0, 0]])
    problems = validate_hierarchy(dim)
    assert any("dictionary not bijective" in p for p in problems)


def test_member_rows_conflicting_path_rejected():
    with pytest.raises(ParseError):
        dimension_from_member_rows("T", ["Leaf", "Mid", "Root"],
                                   [("x", "m1", "R"), ("y", "m1", "S")])


def test_navigation_errors(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    with pytest.raises(UnknownLevel):
        anc(date, "Nope", "Year", 0)
    with pytest.raises(UnknownMember):
        anc(date, "Quarter", "Year", 9999)
    with pytest.raises(LevelOrderViolation):
        anc(date, "Year", "Day", 0)
    with pytest.raises(LevelOrderViolation):
        desc(date, "Day", "Year", 0)
    with pytest.raises(NoParentLevel):
        siblings_under_parent(date, "ALL", 0)


# ---------------------------------------------------------------------------
# Property tests over random hierarchies
# ---------------------------------------------------------------------------

@st.composite
def small_dimension(draw):
    depth = draw(st.integers(min_value=2, max_value=4))
    sizes = [draw(st.integers(min_value=1, max_value=10))]
    for _ in range(depth - 1):
        sizes.append(draw(st.integers(min_value=1, max_value=max(1, sizes[-1]))))
    labels = [[f"L{d}_{i}" for i in range(sizes[d])] for d in range(depth)]
    parents = [
        [draw(st.integers(min_value=0, max_value=sizes[d + 1] - 1)) for _ in range(sizes[d])]
        for d in range(depth - 1)
    ]
    return dimension_from_tables("H", [f"Lv{d}" for d in range(depth)], labels, parents)


@settings(max_examples=60, deadline=None)
@given(small_dimension(), st.data())
def test_ancestor_composition(dim, data):
    n = len(dim.levels)
    d1 = data.draw(st.integers(0, n - 1))
    d2 = data.draw(st.integers(d1, n - 1))
    d3 = data.draw(st.integers(d2, n - 1))
    l1, l2, l3 = dim.levels[d1], dim.levels[d2], dim.levels[d3]
    for m in range(l1.member_count):
        step = anc(dim, l2, l3, anc(dim, l1, l2, m))
        assert step == anc(dim, l1, l3, m)


@settings(max_examples=60, deadline=None)
@given(small_dimension(), st.data())
def test_roundtrip_containment(dim, data):
    n = len(dim.levels)
    lo_d = data.draw(st.integers(0, n - 1))
    hi_d = data.draw(st.integers(lo_d, n - 1))
    lo, hi = dim.levels[lo_d], dim.levels[hi_d]
    for m in range(lo.member_count):
        up = anc(dim, lo, hi, m)
        assert m in desc(dim, hi, lo, up)


@settings(max_examples=60, deadline=None)
@given(small_dimension(), st.data())
def test_desc_partitions_lower_domain(dim, data):
    n = len(dim.levels)
    lo_d = data.draw(st.integers(0, n - 1))
    hi_d = data.draw(st.integers(lo_d, n - 1))
    lo, hi = dim.levels[lo_d], dim.levels[hi_d]
    seen = []
    for m in range(hi.member_count):
        image = desc(dim, hi, lo, m).tolist()
        assert len(set(image)) == len(image)
        seen.extend(image)
    assert sorted(seen) == list(range(lo.member_count))
