import random

import numpy as np
import pytest

from cubelens import aggregate, lattice as lattice_mod, mqo, query
from cubelens.analyze import AnalyzeQuery, build_facilitators, from_statement
from cubelens.bench import run_analyze
from cubelens.cube import CubeSchema, DetailedCube, Measure
from cubelens.hierarchy import dimension_from_member_rows
from cubelens.parser import parse
from cubelens.query import SelectionCondition
from cubelens.selector import (
    CostStats,
    SelectorConfig,
    choose_plan,
    choose_strategy,
    estimate_plans,
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


def test_each_region_count_is_its_bitset_popcount():
    # the four counts of CostStats, degraded requests included (a missing
    # sibling's region is the original's, and the all-encompassing region
    # is widened by the siblings that exist)
    rng = random.Random(167)
    degraded = 0
    for _ in range(60):
        cube = build_cube(random_tables(rng, max_facts=500))
        fs = build_facilitators(random_analyze(rng, cube, atom_probability=0.6))
        stats = estimate_stats(fs)
        regions = [fs.org.query.condition,
                   *(fs.org.query.condition if slot.empty else slot.query.condition
                     for slot in (fs.sib_a, fs.sib_b)),
                   fs.widened_condition]
        popcounts = [int(np.count_nonzero(cube.condition_mask(region.mask_atoms())))
                     for region in regions]
        assert [stats.facts_org, stats.facts_sib_a, stats.facts_sib_b,
                stats.facts_all] == popcounts
        degraded += fs.sib_a.empty or fs.sib_b.empty
    assert degraded >= 10


def test_an_auto_request_counts_each_region_once(monkeypatch):
    # the cube keeps no counts, so a request counts only its distinct
    # regions: the original, each sibling that exists and, with both, the
    # all-encompassing one; pricing a scan counts nothing
    counted = []
    count = DetailedCube.condition_count
    monkeypatch.setattr(DetailedCube, "condition_count",
                        lambda self, condition: counted.append(condition) or count(self, condition))
    rng = random.Random(173)
    for _ in range(40):
        cube = build_cube(random_tables(rng, max_facts=500))
        aq = random_analyze(rng, cube, atom_probability=0.6)
        counted.clear()
        run_analyze(cube, aq)
        fs = build_facilitators(aq)
        siblings = (not fs.sib_a.empty) + (not fs.sib_b.empty)
        assert len(counted) == 1 + siblings + (siblings == 2) <= 4


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------

def wide_cube(seed, facts=40_000):
    """Two dimensions whose level-0 cross product (4.8M keys) passes the
    dense fold's key-space limit, over random facts."""
    gen = np.random.default_rng(seed)
    dims = []
    for name, sizes in (("D0", (3000, 120, 8)), ("D1", (1600, 80, 5))):
        levels = [f"{name}L{i}" for i in range(len(sizes))]
        # equal blocks of leaves under each member of every level
        paths = [np.arange(sizes[0]) * size // sizes[0] for size in sizes]
        rows = [tuple(f"{name}_{levels[d]}_{int(paths[d][c])}" for d in range(len(sizes)))
                for c in range(sizes[0])]
        dims.append(dimension_from_member_rows(name, levels, rows))
    coords = {d.name: gen.integers(0, d.detailed_level.member_count, facts) for d in dims}
    schema = CubeSchema("wide", dims, [Measure("m", "integer")])
    return DetailedCube(schema, coords, {"m": gen.integers(-50, 1000, facts)})


@pytest.fixture()
def scans(monkeypatch):
    """Each fact scan the plan executor runs, with the (rows, path) of every
    group_reduce fold it makes: dense, sort or lexsort."""
    record, taken = [], []
    execute, group_reduce = mqo.execute_query, query.group_reduce
    dense, lexsort = aggregate._dense_reduce, np.lexsort

    def spy_execute(q):
        record.append((q, []))
        return execute(q)

    def spy_group_reduce(cols, sizes, values, op, **kwargs):
        taken.clear()
        out = group_reduce(cols, sizes, values, op, **kwargs)
        record[-1][1].append((len(cols[0]), taken[0] if taken else "sort"))
        return out

    def spy_dense(*args):
        taken.append("dense")
        return dense(*args)

    def spy_lexsort(*args, **kwargs):
        taken.append("lexsort")
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(mqo, "execute_query", spy_execute)
    monkeypatch.setattr(query, "group_reduce", spy_group_reduce)
    monkeypatch.setattr(aggregate, "_dense_reduce", spy_dense)
    monkeypatch.setattr(np, "lexsort", spy_lexsort)
    return record


@pytest.mark.parametrize("chunk", [query.SCAN_CHUNK, 1024])
def test_predicted_fold_paths_are_the_paths_taken(monkeypatch, scans, chunk):
    # a small chunk splits the larger dense scans into several folds
    monkeypatch.setattr(query, "SCAN_CHUNK", chunk)
    rng = random.Random(211)
    cube = wide_cube(chunk)
    seen_paths, seen_chunks, level0 = set(), set(), 0
    for _ in range(40):
        fs = build_facilitators(random_analyze(rng, cube))
        level0 += any(g.depth == 0 for slot in fs.slots().values() if not slot.empty
                      for g in slot.query.groupers)
        plans = estimate_plans(fs, estimate_stats(fs))
        for name, plan in plans.items():
            scans.clear()
            result = mqo.run_strategy(plan.plan)
            assert result.strategy_used == name
            assert len(scans) == len(plan.scans), name
            for (q, folds), predicted in zip(scans, plan.scans):
                assert q.groupers == predicted.query.groupers
                assert [path for _, path in folds] == [predicted.path] * predicted.chunks, \
                    (name, q.groupers, predicted)
                assert sum(rows for rows, _ in folds) == predicted.rows
                seen_paths.add(predicted.path)
                seen_chunks.add(predicted.chunks)
    assert {"dense", "sort"} <= seen_paths
    assert level0 >= 10
    if chunk < query.SCAN_CHUNK:
        assert max(seen_chunks) > 1


def test_priced_rows_are_the_rows_scanned(monkeypatch, scans):
    # random subsets of the roles that have a usable cuboid are answered
    # from it, so that merged bases widen by one sibling as well as by both
    # or none; degraded requests included
    monkeypatch.setattr(lattice_mod, "BUDGET_SHARE", 4.0)
    rng = random.Random(229)
    one_sibling = degraded = 0
    while one_sibling < 40 or degraded < 10:
        cube = build_cube(random_tables(rng, max_facts=400))
        fs = build_facilitators(random_analyze(rng, cube, atom_probability=0.6))
        routes = {role: cube.lattice.route(slot.query)
                  for role, slot in fs.slots().items() if not slot.empty}
        cuboids = {role: route for role, route in routes.items()
                   if route is not None and rng.random() < 0.5}
        for plan in estimate_plans(fs, estimate_stats(fs), cuboids).values():
            scans.clear()
            mqo.run_strategy(plan.plan)
            assert len(scans) == len(plan.scans)
            for (q, folds), predicted in zip(scans, plan.scans):
                assert q is predicted.query
                assert sum(rows for rows, _ in folds) == predicted.rows, plan.plan.derived
            one_sibling += plan.plan.base is not None and len(
                {"sibA", "sibB"} & set(plan.plan.derived)) == 1
        degraded += fs.sib_a.empty or fs.sib_b.empty


def test_degraded_requests_get_three_candidates():
    rng = random.Random(223)
    degraded = complete = 0
    while degraded < 20 or complete < 20:
        cube = build_cube(random_tables(rng, max_facts=300))
        fs = build_facilitators(random_analyze(rng, cube, atom_probability=0.6))
        stats = estimate_stats(fs)
        choice = choose_plan(fs, stats)
        assert set(choice.predicted_ms) == {"min", "mid", "max"}
        assert choice.chosen in choice.predicted_ms
        assert choice.predicted_ms[choice.chosen] == min(choice.predicted_ms.values())
        degraded += bool(fs.missing)
        complete += not fs.missing


def test_paper_rule_reproduces_choose_strategy():
    rng = random.Random(227)
    for _ in range(80):
        cube = build_cube(random_tables(rng, max_facts=300))
        fs = build_facilitators(random_analyze(rng, cube))
        stats = estimate_stats(fs)
        config = SelectorConfig(coverage_threshold=rng.random(),
                                imbalance_threshold=rng.random(), rule="paper")
        paper = choose_strategy(stats, config)
        choice = choose_plan(fs, stats, config)
        assert (choice.chosen, choice.sibling_coverage, choice.sibling_imbalance,
                choice.reason) == (paper.chosen, paper.sibling_coverage,
                                   paper.sibling_imbalance, paper.reason)


def test_cost_reason_names_winner_and_runner_up(foodmart_cube):
    fs = build_facilitators(from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema),
                                           foodmart_cube))
    choice = choose_plan(fs, estimate_stats(fs))
    ranked = sorted(choice.predicted_ms, key=choice.predicted_ms.get)
    assert choice.chosen == ranked[0]
    assert choice.reason == (f"predicted {ranked[0]} {choice.predicted_ms[ranked[0]]:.2f} ms < "
                             f"{ranked[1]} {choice.predicted_ms[ranked[1]]:.2f} ms")


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        SelectorConfig(rule="fastest")
