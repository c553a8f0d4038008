import random

import pytest

from cubelens.analyze import (
    AnalyzeQuery,
    REASON_FILTER_AT_ALL,
    REASON_MOST_DETAILED,
    REASON_NO_FILTER_ATOM,
    build_facilitators,
    derive_drilldown,
    derive_sibling,
    from_statement,
)
from cubelens.errors import (
    AlreadyMostDetailed,
    ConstraintViolation,
    NoFilterAtom,
)
from cubelens.mqo import reaggregate
from cubelens.parser import parse
from cubelens.query import (
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    execute_query,
)

from fixtures import (
    REFERENCE_QUERY,
    WALKTHROUGH_QUERY,
    build_cube,
    random_analyze,
    random_tables,
)
from oracles import cell_dict


@pytest.fixture()
def reference(foodmart_cube):
    return from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema), foodmart_cube)


def atom_summary(query, dim_name):
    atom = query.condition.atom_for(dim_name)
    if atom is None:
        return None
    cube_dim = query.cube.schema.dimension(dim_name)
    labels = tuple(cube_dim.member_label(atom.level, v) for v in atom.values)
    return (atom.level.name, labels)


def grouper_names(query):
    return [g.name for g in query.groupers]


# ---------------------------------------------------------------------------
# Worked-example goldens
# ---------------------------------------------------------------------------

def test_reference_sibling_date(reference):
    q = derive_sibling(reference, "alpha")
    assert atom_summary(q, "Date") == ("Year", ("1997",))
    assert atom_summary(q, "Customer") == ("State", ("CA",))
    assert atom_summary(q, "Promo") == ("Media", ("Daily Paper",))
    assert grouper_names(q) == ["Quarter", "customerRegion"]


def test_reference_sibling_customer(reference):
    q = derive_sibling(reference, "beta")
    assert atom_summary(q, "Customer") == ("Country", ("USA",))
    assert atom_summary(q, "Date") == ("Quarter", ("1997-Q3",))
    assert grouper_names(q) == ["Month", "State"]


def test_reference_drilldown_date(reference):
    q = derive_drilldown(reference, "alpha")
    assert grouper_names(q) == ["Day", "customerRegion"]
    assert atom_summary(q, "Date") == ("Quarter", ("1997-Q3",))


def test_reference_drilldown_customer(reference):
    q = derive_drilldown(reference, "beta")
    assert grouper_names(q) == ["Month", "CustomerId"]


def test_walkthrough_siblings(walkthrough_cube):
    aq = from_statement(parse(WALKTHROUGH_QUERY, walkthrough_cube.schema), walkthrough_cube)
    sib_a = derive_sibling(aq, "alpha")   # alpha grouper = state
    sib_b = derive_sibling(aq, "beta")
    assert atom_summary(sib_a, "Geo") == ("Country", ("USA",))
    assert atom_summary(sib_b, "Date") == ("Year", ("2025",))
    assert grouper_names(sib_a) == ["State", "Quarter"]
    assert grouper_names(sib_b) == ["State", "Quarter"]


def test_build_facilitators_reference(reference):
    fs = build_facilitators(reference)
    assert not any(slot.empty for slot in fs.slots().values())
    assert grouper_names(fs.org.query) == ["Month", "customerRegion"]
    assert grouper_names(fs.sib_a.query) == ["Quarter", "customerRegion"]
    assert grouper_names(fs.sib_b.query) == ["Month", "State"]
    assert grouper_names(fs.dd_a.query) == ["Day", "customerRegion"]
    assert grouper_names(fs.dd_b.query) == ["Month", "CustomerId"]


# ---------------------------------------------------------------------------
# Structural diffs and degradations
# ---------------------------------------------------------------------------

def test_sibling_changes_exactly_one_atom_and_grouper(reference):
    q = derive_sibling(reference, "alpha")
    base = reference.original_query()
    changed_atoms = 0
    for dim in ("Date", "Customer", "Promo", "Product", "Store"):
        if atom_summary(q, dim) != atom_summary(base, dim):
            changed_atoms += 1
    assert changed_atoms == 1
    diffs = [i for i in range(2) if q.groupers[i] != base.groupers[i]]
    assert diffs == [0]


def test_drilldown_changes_exactly_one_grouper_no_atoms(reference):
    q = derive_drilldown(reference, "beta")
    base = reference.original_query()
    for dim in ("Date", "Customer", "Promo", "Product", "Store"):
        assert atom_summary(q, dim) == atom_summary(base, dim)
    diffs = [i for i in range(2) if q.groupers[i] != base.groupers[i]]
    assert diffs == [1]


def test_missing_atoms_degrade_sibling_slots(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(foodmart_cube, SelectionCondition([]),
                      (date.level("Month"), cust.level("State")),
                      "unit_sales", "u", "sum")
    fs = build_facilitators(aq)
    assert fs.sib_a.empty and fs.sib_a.reason == REASON_NO_FILTER_ATOM
    assert fs.sib_b.empty and fs.sib_b.reason == REASON_NO_FILTER_ATOM
    assert not fs.dd_a.empty and not fs.dd_b.empty
    with pytest.raises(NoFilterAtom):
        derive_sibling(aq, "alpha")


def test_filter_at_all_degrades_sibling(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(
        foodmart_cube,
        SelectionCondition([SelectionAtom(date.level("ALL"), (0,))]),
        (date.level("Month"), cust.level("State")),
        "unit_sales", "u", "sum")
    fs = build_facilitators(aq)
    assert fs.sib_a.empty and fs.sib_a.reason == REASON_FILTER_AT_ALL


def test_detailed_grouper_degrades_drilldown(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(
        foodmart_cube,
        SelectionCondition([SelectionAtom(date.level("Quarter"), (0,))]),
        (date.level("Day"), cust.level("State")),
        "unit_sales", "u", "sum")
    fs = build_facilitators(aq)
    assert fs.dd_a.empty and fs.dd_a.reason == REASON_MOST_DETAILED
    assert not fs.dd_b.empty
    with pytest.raises(AlreadyMostDetailed):
        derive_drilldown(aq, "alpha")


def test_boundary_drilldown_depth_one(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(
        foodmart_cube,
        SelectionCondition([]),
        (date.level("Month"), cust.level("customerRegion")),
        "unit_sales", "u", "sum")
    q = derive_drilldown(aq, "alpha")
    assert q.groupers[0].depth == 0 and q.groupers[0].name == "Day"


def test_analyze_rejects_multi_valued_atom(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    with pytest.raises(ConstraintViolation):
        AnalyzeQuery(
            foodmart_cube,
            SelectionCondition([SelectionAtom(date.level("Quarter"), (0, 1))]),
            (date.level("Month"), cust.level("State")),
            "unit_sales", "u", "sum")


def test_analyze_rejects_same_dimension_groupers(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    with pytest.raises(ConstraintViolation):
        AnalyzeQuery(foodmart_cube, SelectionCondition([]),
                     (date.level("Month"), date.level("Quarter")),
                     "unit_sales", "u", "sum")


# ---------------------------------------------------------------------------
# Semantic properties
# ---------------------------------------------------------------------------

def test_drilldown_reaggregates_to_original(reference):
    fs = build_facilitators(reference)
    for slot in (fs.dd_a, fs.dd_b):
        rolled = reaggregate(execute_query(slot.query), fs.org.query, slot.query)
        assert cell_sets_equal(rolled, execute_query(fs.org.query))


def test_sibling_contains_original_context(reference, foodmart_oracles):
    """The sibling's slice at the original filter value equals the original
    result rolled up to the sibling's grouper levels: the original value is
    contextualized among its peers."""
    fs = build_facilitators(reference)
    date_oracle = foodmart_oracles["Date"]
    date = reference.cube.schema.dimension("Date")
    cust = reference.cube.schema.dimension("Customer")

    rolled = {}
    for (month, region), value in cell_dict(execute_query(fs.org.query)).items():
        quarter = date_oracle.anc("Month", "Quarter", date.member_label("Month", month))
        key = (quarter, cust.member_label("customerRegion", region))
        rolled[key] = rolled.get(key, 0.0) + value

    sib_cells = execute_query(fs.sib_a.query)
    sliced = {}
    for (quarter, region), value in cell_dict(sib_cells).items():
        q_label = date.member_label("Quarter", quarter)
        if q_label == "1997-Q3":
            sliced[(q_label, cust.member_label("customerRegion", region))] = value

    assert sliced and sliced == pytest.approx(rolled)


def test_random_facilitators_structurally_sound():
    rng = random.Random(71)
    for _ in range(30):
        tables = random_tables(rng, max_facts=200)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        for slot in fs.slots().values():
            if slot.query is None:
                assert slot.reason
                continue
            slot.query.validate()
            assert slot.query.measure_alias.endswith(slot.role)
