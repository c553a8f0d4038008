import random

import numpy as np
import pytest

from cubelens.analyze import AnalyzeQuery, build_facilitators, from_statement
from cubelens.parser import parse
from cubelens.query import SelectionCondition
from cubelens.selector import (
    CostStats,
    SelectorConfig,
    choose_strategy,
    estimate_stats,
)

from fixtures import REFERENCE_QUERY, build_cube, random_analyze, random_tables
from oracles import naive_filter


def stats_for(coverage_big, imbalance_small):
    """CostStats landing in the requested threshold quadrant."""
    facts_all = 1000
    union = 600 if coverage_big else 200  # 0.60 vs 0.20 coverage
    if imbalance_small:
        a, b = 500, 400     # imbalance 0.20
    else:
        a, b = 500, 100     # imbalance 0.80
    return CostStats(facts_org=50, facts_sib_a=a, facts_sib_b=b,
                     facts_all=facts_all, sibling_union=union, row_count=2000)


@pytest.mark.parametrize("coverage_big,imbalance_small,expected", [
    (True, True, "max"),
    (True, False, "mid"),
    (False, True, "mid"),
    (False, False, "mid"),
])
def test_threshold_quadrants(coverage_big, imbalance_small, expected):
    choice = choose_strategy(stats_for(coverage_big, imbalance_small))
    assert choice.chosen == expected


def test_thresholds_are_configurable():
    stats = stats_for(True, True)  # coverage 0.60, imbalance 0.20
    tight = SelectorConfig(coverage_threshold=0.7)
    assert choose_strategy(stats, tight).chosen == "mid"
    loose = SelectorConfig(coverage_threshold=0.1, imbalance_threshold=0.9)
    assert choose_strategy(stats_for(False, False), loose).chosen == "max"


def test_selector_disabled_yields_mid():
    choice = choose_strategy(stats_for(True, True), SelectorConfig(enabled=False))
    assert choice.chosen == "mid"
    assert "disabled" in choice.reason


def test_degenerate_stats_yield_mid():
    stats = CostStats(0, 0, 0, 0, 0, 100)
    choice = choose_strategy(stats)
    assert choice.chosen == "mid"
    assert "degenerate" in choice.reason


def test_degraded_structure_yields_mid():
    stats = CostStats(10, 10, 10, 40, 20, 100, degraded=("sibA",))
    assert choose_strategy(stats).chosen == "mid"


def test_symmetric_siblings_zero_imbalance():
    stats = CostStats(facts_org=10, facts_sib_a=300, facts_sib_b=300,
                      facts_all=500, sibling_union=450, row_count=1000)
    choice = choose_strategy(stats)
    assert choice.sibling_imbalance == 0.0


def test_choice_is_deterministic():
    stats = stats_for(True, True)
    first = choose_strategy(stats)
    assert all(choose_strategy(stats).chosen == first.chosen for _ in range(5))


# ---------------------------------------------------------------------------
# estimate_stats
# ---------------------------------------------------------------------------

def test_stats_reference_query(foodmart, foodmart_cube, foodmart_oracles):
    aq = from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema), foodmart_cube)
    stats = estimate_stats(build_facilitators(aq))

    def count(atom_spec):
        return len(naive_filter(foodmart.fact_rows, atom_spec))

    d, c = foodmart_oracles["Date"], foodmart_oracles["Customer"]
    p = foodmart_oracles["Promo"]
    base = [("Promo", p, "Media", {"Daily Paper"})]
    org = count(base + [("Date", d, "Quarter", {"1997-Q3"}), ("Customer", c, "State", {"CA"})])
    sib_a = count(base + [("Date", d, "Year", {"1997"}), ("Customer", c, "State", {"CA"})])
    sib_b = count(base + [("Date", d, "Quarter", {"1997-Q3"}), ("Customer", c, "Country", {"USA"})])
    q_all = count(base + [("Date", d, "Year", {"1997"}), ("Customer", c, "Country", {"USA"})])
    assert (stats.facts_org, stats.facts_sib_a, stats.facts_sib_b, stats.facts_all) == \
        (org, sib_a, sib_b, q_all)
    assert stats.complete


def test_stats_unfiltered_query_touches_everything(foodmart_cube):
    date = foodmart_cube.schema.dimension("Date")
    cust = foodmart_cube.schema.dimension("Customer")
    aq = AnalyzeQuery(foodmart_cube, SelectionCondition([]),
                      (date.level("Month"), cust.level("State")),
                      "unit_sales", "u", "sum")
    stats = estimate_stats(build_facilitators(aq))
    n = foodmart_cube.row_count
    assert (stats.facts_org, stats.facts_sib_a, stats.facts_sib_b, stats.facts_all) == \
        (n, n, n, n)
    assert set(stats.degraded) == {"sibA", "sibB", "all"}


def test_stats_containment_on_random_queries():
    rng = random.Random(89)
    for _ in range(60):
        tables = random_tables(rng, max_facts=400)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        s = estimate_stats(fs)
        assert s.facts_org <= s.facts_sib_a
        assert s.facts_org <= s.facts_sib_b
        assert max(s.facts_sib_a, s.facts_sib_b) <= s.sibling_union <= s.facts_all
        assert s.facts_all <= s.row_count
        # estimate_stats counts the union without a union mask: pin it to one
        # (a missing sibling's region is the original's)
        regions = [fs.org if slot.empty else slot for slot in (fs.sib_a, fs.sib_b)]
        mask_a, mask_b = [cube.condition_mask(r.query.condition.mask_atoms()) for r in regions]
        assert s.sibling_union == np.count_nonzero(mask_a | mask_b)


def test_stats_random_against_naive_scan():
    rng = random.Random(97)
    from fixtures import build_oracles
    for _ in range(15):
        tables = random_tables(rng, max_facts=300)
        cube = build_cube(tables)
        oracles = build_oracles(tables)
        aq = random_analyze(rng, cube)
        stats = estimate_stats(build_facilitators(aq))
        atoms = []
        for atom in aq.condition:
            dim = cube.schema.dimension(atom.dimension_name)
            labels = {dim.member_label(atom.level, v) for v in atom.values}
            atoms.append((atom.dimension_name, oracles[atom.dimension_name],
                          atom.level.name, labels))
        assert stats.facts_org == len(naive_filter(tables.fact_rows, atoms))


def test_coverage_and_imbalance_ranges():
    rng = random.Random(101)
    for _ in range(40):
        tables = random_tables(rng, max_facts=300)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        choice = choose_strategy(estimate_stats(build_facilitators(aq)))
        assert 0.0 <= choice.sibling_coverage <= 1.0
        assert 0.0 <= choice.sibling_imbalance <= 1.0
        assert choice.chosen in ("mid", "max")


def test_cached_regions_are_counted_without_a_popcount(monkeypatch):
    # each condition's popcount is stored with its bitset: estimating a
    # request again counts nothing, and the stored counts are the bitsets'
    rng = random.Random(167)
    cube = build_cube(random_tables(rng, max_facts=500))
    fs = build_facilitators(random_analyze(rng, cube))
    first = estimate_stats(fs)
    calls = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda *a, **k: calls.append(1) or count_nonzero(*a, **k))
    assert estimate_stats(fs) == first
    assert calls == []
    for key, (mask, count) in cube._condition_mask_cache.items():
        assert count == count_nonzero(mask), key
