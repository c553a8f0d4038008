"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full suite builds a
2,000,000-fact synthetic cube for the performance-trend criteria; expect a
few minutes of wall time.
"""

import hashlib
import itertools
import math
import random
import sys

import pytest

from cubelens.analyze import build_facilitators, from_statement
from cubelens.bench import WorkloadSpec, render_result, run_analyze, run_workload
from cubelens.cube import DetailedCube, load_cube
from cubelens.hierarchy import anc
from cubelens.mqo import build_plan
from cubelens.parser import parse
from cubelens.query import (
    CubeQuery,
    SelectionAtom,
    SelectionCondition,
    cell_sets_equal,
    cube_usable,
)
from cubelens.selector import CostStats, choose_plan, choose_strategy, estimate_stats
from cubelens.synth import SynthSpec, generate

from fixtures import (
    REFERENCE_QUERY,
    WALKTHROUGH_QUERY,
    build_cube,
    random_analyze,
    random_tables,
    spy_bitsets,
)
from oracles import (
    HierarchyOracle,
    desc,
    detailed_proxy,
    grouper_domain,
    run_forced,
    siblings_under_parent,
    spearman_rho,
)

ROLES = ("org", "sibA", "sibB", "ddA", "ddB")
AGGS = ("sum", "min", "max", "count")


def report_pass(criterion, detail):
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


def results_equal_exact(a, b):
    for role in ROLES:
        sa, sb = a.slots[role], b.slots[role]
        if (sa.cells is None) != (sb.cells is None):
            return False
        if sa.cells is not None and not cell_sets_equal(sa.cells, sb.cells, rel_tol=0.0):
            return False
    return True


# ---------------------------------------------------------------------------
# Criterion 1: the three strategies agree exactly on >= 1000 random requests
# ---------------------------------------------------------------------------

def test_criterion_1_strategy_equivalence():
    rng = random.Random(20260101)
    total = 0
    agg_seen = {a: 0 for a in AGGS}
    while total < 1000:
        tables = random_tables(rng, max_dims=4, max_facts=2000)
        cube = build_cube(tables)
        for _ in range(10):
            agg = AGGS[total % 4]
            aq = random_analyze(rng, cube, aggs=(agg,))
            fs = build_facilitators(aq)
            rmin = run_forced("min", fs)
            rmid = run_forced("mid", fs)
            rmax = run_forced("max", fs)
            assert results_equal_exact(rmin, rmid), f"mid diverged on {aq}"
            assert results_equal_exact(rmin, rmax), f"max diverged on {aq}"
            agg_seen[agg] += 1
            total += 1
    assert all(count >= 200 for count in agg_seen.values())
    report_pass(1, f"{total} randomized requests, exact equality, aggs {agg_seen}")


# ---------------------------------------------------------------------------
# Criterion 2: worked-example goldens
# ---------------------------------------------------------------------------

def test_criterion_2_worked_examples(foodmart_cube, walkthrough_cube):
    aq = from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema), foodmart_cube)
    fs = build_facilitators(aq)

    def levels(q):
        return [g.name for g in q.groupers]

    def atom(q, dim):
        a = q.condition.atom_for(dim)
        d = foodmart_cube.schema.dimension(dim)
        return (a.level.name, d.member_label(a.level, a.values[0]))

    assert levels(fs.org.query) == ["Month", "customerRegion"]
    assert atom(fs.sib_a.query, "Date") == ("Year", "1997")
    assert levels(fs.sib_a.query) == ["Quarter", "customerRegion"]
    assert atom(fs.sib_b.query, "Customer") == ("Country", "USA")
    assert levels(fs.sib_b.query) == ["Month", "State"]
    assert levels(fs.dd_a.query) == ["Day", "customerRegion"]
    assert levels(fs.dd_b.query) == ["Month", "CustomerId"]
    # the box atom stays put in all five
    for slot in fs.slots().values():
        assert atom(slot.query, "Promo") == ("Media", "Daily Paper")

    w_aq = from_statement(parse(WALKTHROUGH_QUERY, walkthrough_cube.schema), walkthrough_cube)
    merged = build_plan("max", build_facilitators(w_aq)).base
    w_atoms = {a.dimension_name: (a.level.name,
                                  walkthrough_cube.schema.dimension(a.dimension_name)
                                  .member_label(a.level, a.values[0]))
               for a in merged.condition}
    assert w_atoms["Geo"] == ("Country", "USA")
    assert w_atoms["Date"] == ("Year", "2025")
    assert [g.name for g in merged.groupers] == [
        "City", "Month", "State", "Quarter", "Country", "Year"]

    mid = build_plan("mid", build_facilitators(w_aq)).base
    m_atoms = {a.dimension_name: (a.level.name,
                                  walkthrough_cube.schema.dimension(a.dimension_name)
                                  .member_label(a.level, a.values[0]))
               for a in mid.condition}
    assert m_atoms["Geo"] == ("State", "CA")
    assert m_atoms["Date"] == ("Quarter", "2025-Q4")
    assert [g.name for g in mid.groupers] == ["City", "Month", "State", "Quarter"]
    report_pass(2, "reference facilitators and walkthrough merged queries match the published shapes")


# ---------------------------------------------------------------------------
# Criterion 3: cube-usability predicate over random and violated pairs
# ---------------------------------------------------------------------------

def test_criterion_3_usability_predicate():
    rng = random.Random(20260103)
    positives = 0
    violations = {"v": 0, "ii": 0, "vi": 0}
    while positives < 500 or min(violations.values()) < 30:
        tables = random_tables(rng, max_dims=4, max_facts=50)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        if fs.missing:
            continue
        merged = build_plan("max", fs).base
        base = merged
        for slot in fs.slots().values():
            report = cube_usable(base, slot.query)
            assert report.usable, (slot.role, report.conditions)
            positives += 1

        target = fs.org.query
        # (v) a grouper strictly below the base's finest level on that dimension
        for side in (0, 1):
            dim = cube.schema.dimension(base.groupers[side].dimension_name)
            base_finest = min((g for g in base.groupers
                               if g.dimension_name == dim.name), key=lambda g: g.depth)
            if base_finest.depth == 0:
                continue
            groupers = list(target.groupers)
            groupers[side] = dim.levels[base_finest.depth - 1]
            lowered = CubeQuery(cube, target.condition, tuple(groupers),
                                target.measure_name, "x", target.agg)
            report = cube_usable(base, lowered)
            assert not report.usable and "v" in report.failed
            violations["v"] += 1
            break
        # (ii) mismatched aggregate
        other_agg = "min" if target.agg != "min" else "max"
        report = cube_usable(base, CubeQuery(cube, target.condition, target.groupers,
                                             target.measure_name, "x", other_agg))
        assert not report.usable and "ii" in report.failed
        violations["ii"] += 1
        # (vi) an extra atom on a dimension the base cannot re-filter
        grouper_dims = {g.dimension_name for g in base.groupers}
        spare = [d for d in cube.schema.dimensions
                 if d.name not in grouper_dims and target.condition.atom_for(d.name) is None]
        if spare:
            extra_dim = spare[0]
            extra = SelectionAtom(extra_dim.levels[0], (0,))
            richer = CubeQuery(cube, SelectionCondition(list(target.condition) + [extra]),
                               target.groupers, target.measure_name, "x", target.agg)
            report = cube_usable(base, richer)
            assert not report.usable and "vi" in report.failed
            violations["vi"] += 1
    report_pass(3, f"{positives} usable pairs, violations flagged {violations}")


# ---------------------------------------------------------------------------
# Criterion 4: store-access accounting (5 / 3 / 1 fact scans)
# ---------------------------------------------------------------------------

def test_criterion_4_store_access_counts(foodmart_cube):
    aq = from_statement(parse(REFERENCE_QUERY, foodmart_cube.schema), foodmart_cube)
    fs = build_facilitators(aq)
    observed = {}
    for name in ("min", "mid", "max"):
        before = foodmart_cube.exec_stats.fact_scans
        result = run_forced(name, fs)
        observed[name] = foodmart_cube.exec_stats.fact_scans - before
        assert result.store_queries == observed[name]
    assert observed == {"min": 5, "mid": 3, "max": 1}

    rng = random.Random(20260104)
    checked = 0
    while checked < 25:
        tables = random_tables(rng, max_facts=200)
        cube = build_cube(tables)
        aq = random_analyze(rng, cube)
        fs = build_facilitators(aq)
        if fs.missing:
            continue
        for name, expected in (("min", 5), ("mid", 3), ("max", 1)):
            before = cube.exec_stats.fact_scans
            run_forced(name, fs)
            assert cube.exec_stats.fact_scans - before == expected, name
        checked += 1
    report_pass(4, f"foodmart reference + {checked} random non-degraded queries scan 5/3/1")


# ---------------------------------------------------------------------------
# Criterion 5: selector rule quadrants and CostStats containment
# ---------------------------------------------------------------------------

def test_criterion_5_selector_rule():
    def stats(coverage, imbalance):
        facts_all = 10000
        hi = 4000
        lo = int(round(hi * (1.0 - imbalance)))
        return CostStats(facts_org=100, facts_sib_a=hi, facts_sib_b=lo,
                         facts_all=facts_all,
                         sibling_union=int(round(coverage * facts_all)),
                         row_count=20000)

    quadrants = {
        (0.60, 0.20): "max",
        (0.60, 0.70): "mid",
        (0.20, 0.20): "mid",
        (0.20, 0.70): "mid",
    }
    for (coverage, imbalance), expected in quadrants.items():
        choice = choose_strategy(stats(coverage, imbalance))
        assert choice.chosen == expected, (coverage, imbalance, choice)
    # coverage exactly at the threshold is not "more than 40%"
    assert choose_strategy(stats(0.40, 0.20)).chosen == "mid"

    rng = random.Random(20260105)
    checked = 0
    while checked < 1000:
        tables = random_tables(rng, max_dims=4, max_facts=600)
        cube = build_cube(tables)
        for _ in range(10):
            aq = random_analyze(rng, cube)
            s = estimate_stats(build_facilitators(aq))
            assert s.facts_org <= s.facts_sib_a <= s.facts_all
            assert s.facts_org <= s.facts_sib_b <= s.facts_all
            assert max(s.facts_sib_a, s.facts_sib_b) <= s.sibling_union <= s.facts_all
            assert s.facts_all <= s.row_count
            checked += 1
    report_pass(5, f"threshold quadrants exact; containment held on {checked} random queries")


# ---------------------------------------------------------------------------
# Criteria 6 and 7: desk-scale performance trends on a 2M-fact cube
# ---------------------------------------------------------------------------

SWEEP_SPEC = {
    "name": "sweep",
    "facts": 2_000_000,
    "seed": 424242,
    "dimensions": [
        {"name": "D1", "level_sizes": [3000, 400, 40, 20, 3], "skews": [1.0, 1.35, 2.0, 25.0]},
        {"name": "D2", "level_sizes": [1200, 200, 30, 20, 3], "skews": [1.0, 1.4, 2.0, 25.0]},
    ],
    "measures": [{"name": "amount", "kind": "integer", "low": 1, "high": 1000}],
}
SWEEP_TARGETS = [0.010, 0.018, 0.032, 0.058, 0.105, 0.19, 0.30, 0.45, 0.65, 0.90]


def _sweep_queries(cube):
    """Ten queries whose original-region share sweeps roughly 1% -> 90%,
    built by picking filter values with the right descendant mass."""
    def candidates(dim):
        out = []
        n0 = dim.detailed_level.member_count
        for depth in (2, 3, 4):
            lists = dim.desc_lists(depth, 0)
            level = dim.levels[depth]
            ranked = sorted(range(level.member_count),
                            key=lambda c: -len(lists[c]))[:8]
            out += [(depth, c, len(lists[c]) / n0) for c in ranked if lists[c].size]
        return out

    d1, d2 = cube.schema.dimensions
    c1, c2 = candidates(d1), candidates(d2)
    chosen, used, used_products = [], set(), []
    for t in SWEEP_TARGETS:
        best = None
        for a, b in itertools.product(c1, c2):
            if (a[:2], b[:2]) in used:
                continue
            p = a[2] * b[2]
            err = abs(math.log(p) - math.log(t))
            if any(abs(math.log(p) - math.log(q)) < 0.15 for q in used_products):
                err += 10.0  # keep the sweep points spread apart
            if best is None or err < best[0]:
                best = (err, a, b)
        _, a, b = best
        used.add((a[:2], b[:2]))
        used_products.append(a[2] * b[2])
        chosen.append((a, b))

    queries = []
    for a, b in chosen:
        la, lb = d1.levels[a[0]], d2.levels[b[0]]
        va, vb = d1.member_label(la, a[1]), d2.member_label(lb, b[1])
        text = (f"ANALYZE sum(amount) FROM sweep "
                f"FOR {d1.name}.{la.name} = '{va}' AND {d2.name}.{lb.name} = '{vb}' "
                f"GROUP BY {d1.name}.{la.name}, {d2.name}.{lb.name}")
        stats = estimate_stats(build_facilitators(from_statement(parse(text, cube.schema), cube)))
        queries.append((stats.facts_org, stats.facts_all, text))
    queries.sort(key=lambda q: q[0])
    return queries


@pytest.fixture(scope="module")
def sweep_bench(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("sweep")
    generate(SynthSpec.from_dict(SWEEP_SPEC), data_dir)
    cube = load_cube(data_dir / "schema.json")
    queries = _sweep_queries(cube)
    spec = WorkloadSpec.from_dict({
        "warmups": 1,
        "timeout_s": 300,
        "queries": [{"label": f"q{i + 1}", "text": text, "repetitions": 3}
                    for i, (_, _, text) in enumerate(queries)],
    })
    rows = run_workload(cube, spec, strategies=("min", "mid", "max"))
    return cube, queries, rows


# The sha256 of each strategy's renders of the ten sweep statements, in
# sweep order, with the "# timing" line left out: the output bytes a change
# to the scan path must keep.
SWEEP_RENDER_SHA256 = {
    "auto": "d968d075b3bd948180bfe1a85cdf492328941891a8c21aa9557279044bd149a3",
    "min": "4c632750a236a793bcf8edbae98701b0f2c13d721c02f4f0df6abec0af0ea188",
    "mid": "ce831c77bc29bccc09864dbfebb54a55a2c28df07d0bf87dd7a10741784b0cdb",
    "max": "088103a8cda4eeb34f8a749c3b3ec7832f4727d3e8fbf085706ee632288a41eb",
}


def test_sweep_renders_keep_their_bytes(sweep_bench):
    cube, queries, _ = sweep_bench
    digests = {}
    for strategy in SWEEP_RENDER_SHA256:
        digest = hashlib.sha256()
        for _, _, text in queries:
            lines = render_result(cube, run_analyze(cube, text, strategy)).splitlines(True)
            digest.update("".join(ln for ln in lines if not ln.startswith("# timing ")).encode())
        digests[strategy] = digest.hexdigest()
    assert digests == SWEEP_RENDER_SHA256


def _best_times(rows):
    best = {}
    for r in rows:
        assert not r["timed_out"], r
        key = (r["label"], r["strategy"])
        best[key] = min(best.get(key, 1 << 62), r["total_ns"])
    return best


def test_criterion_6_performance_trend(sweep_bench):
    cube, queries, rows = sweep_bench
    n = cube.row_count
    shares = [q[0] / n for q in queries]
    assert all(a < b for a, b in zip(shares, shares[1:]))  # strict sweep
    assert shares[0] <= 0.02 and shares[-1] >= 0.85

    best = _best_times(rows)
    labels = [f"q{i + 1}" for i in range(10)]
    facts_a = [q[1] for q in queries]
    max_times = [best[(label, "max")] for label in labels]
    rho = spearman_rho(facts_a, max_times)
    assert rho > 0.8, f"spearman {rho:.3f}"

    wins = sum(1 for label in labels if best[(label, "mid")] <= best[(label, "min")])
    assert wins >= 8, f"mid beat min on only {wins}/10"
    report_pass(6, f"org share {shares[0]:.1%}->{shares[-1]:.1%}, "
                   f"spearman(facts_A, max time)={rho:.3f}, mid<=min on {wins}/10")


def test_criterion_7_breakdown_dominance(sweep_bench):
    _, _, rows = sweep_bench
    for r in rows:
        total = r["total_ns"]
        parts = (r["parse_ns"] + r["construct_ns"] + r["facilitator_exec_ns"]
                 + r["postprocess_ns"])
        assert abs(parts - total) <= 0.01 * total

    # judge each query x strategy on its least-noisy (fastest) repetition
    representative = {}
    for r in rows:
        key = (r["label"], r["strategy"])
        if key not in representative or r["total_ns"] < representative[key]["total_ns"]:
            representative[key] = r
    worst = 1.0
    for (label, strategy), r in representative.items():
        ratio = r["facilitator_exec_ns"] / r["total_ns"]
        worst = min(worst, ratio)
        assert ratio >= 0.90, (label, strategy, ratio)
    report_pass(7, f"facilitator execution >= 90% of total for all "
                   f"{len(representative)} query/strategy pairs (worst {worst:.1%})")


def test_cost_pick_near_fastest_plan(sweep_bench):
    # the selector's pick, judged on the forced-plan timings already taken
    cube, queries, rows = sweep_bench
    best = _best_times(rows)
    scans = cube.exec_stats.fact_scans
    near = []
    for i, (_, _, text) in enumerate(queries):
        label = f"q{i + 1}"
        fs = build_facilitators(from_statement(parse(text, cube.schema), cube))
        pick = choose_plan(fs, estimate_stats(fs)).chosen
        fastest = min(best[(label, s)] for s in ("min", "mid", "max"))
        near.append(best[(label, pick)] <= 1.25 * fastest)
    assert cube.exec_stats.fact_scans == scans  # choosing scanned nothing
    assert sum(near) >= 9, near
    print(f"\nACCEPTANCE cost pick: PASS (within 1.25x of the fastest plan on {sum(near)}/10)")


def test_auto_answers_the_sweep_from_the_lattice(sweep_bench, monkeypatch):
    # a fresh cube over the same columns, with a new lattice
    cube, queries, _ = sweep_bench
    fresh = DetailedCube(cube.schema, cube.coordinates, cube.measure_columns)
    built = spy_bitsets(monkeypatch)
    for _, _, text in queries:
        result = run_analyze(fresh, text)
        assert set(result.cuboids) == set(ROLES) and result.store_queries == 0
        assert result.selector.reason == "every role from cuboids: no plan scans, so they tie"
        oracle = run_forced("min", build_facilitators(from_statement(parse(text, cube.schema),
                                                                     cube)))
        assert results_equal_exact(result, oracle)
    assert fresh.exec_stats.fact_scans == 0
    assert not any(c is fresh for c in built)
    print(f"\nACCEPTANCE lattice: PASS (ten sweep statements from {len(fresh.lattice)} cuboids, "
          f"{fresh.lattice.nbytes / 1e6:.1f} MB, 0 fact scans, 0 bitsets)")


def test_hot_sweep_request_checks_usability_once_per_role(sweep_bench, monkeypatch):
    # a role answered from a cuboid is checked by reaggregate alone: the
    # route itself follows the lattice order
    cube, queries, _ = sweep_bench
    calls = []

    def spy(base, target):
        calls.append(target)
        return cube_usable(base, target)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("cubelens") and \
                getattr(module, "cube_usable", None) is cube_usable:
            monkeypatch.setattr(module, "cube_usable", spy)
    for _, _, text in queries:
        run_analyze(cube, text)  # warm: masks, counts and atom hits cached
        calls.clear()
        result = run_analyze(cube, text)
        assert set(result.cuboids) == set(ROLES)
        assert len(calls) == 5, (text, len(calls))


# ---------------------------------------------------------------------------
# Criterion 8: primitive operations vs exhaustive brute force
# ---------------------------------------------------------------------------

def _random_three_level_rows(rng, n0):
    n1 = max(2, n0 // rng.randint(3, 8))
    n2 = max(2, n1 // rng.randint(2, 5))
    parents0 = [rng.randrange(n1) for _ in range(n0)]
    parents1 = [rng.randrange(n2) for _ in range(n1)]
    rows = [(f"a{i:04d}", f"b{parents0[i]:04d}", f"c{parents1[parents0[i]]:04d}")
            for i in range(n0)]
    return ["Leaf", "Mid", "Top"], rows


def test_criterion_8_primitive_oracles():
    rng = random.Random(20260108)
    from cubelens.hierarchy import dimension_from_member_rows
    sizes = [1000, 400, 120]
    checked = 0
    for n0 in sizes:
        level_names, rows = _random_three_level_rows(rng, n0)
        dim = dimension_from_member_rows("H", level_names, rows)
        oracle = HierarchyOracle(level_names, rows)
        all_levels = level_names + ["ALL"]
        for lo_i, lo_name in enumerate(all_levels):
            lo = dim.level(lo_name)
            for hi_name in all_levels[lo_i:]:
                hi = dim.level(hi_name)
                for code in range(lo.member_count):
                    label = dim.member_label(lo, code)
                    got = dim.member_label(hi, anc(dim, lo, hi, code))
                    assert got == oracle.anc(lo_name, hi_name, label)
                    checked += 1
                for code in range(hi.member_count):
                    label = dim.member_label(hi, code)
                    got = sorted(dim.member_label(lo, c)
                                 for c in desc(dim, hi, lo, code))
                    assert got == sorted(oracle.desc(hi_name, lo_name, label))
                    checked += 1
        for level_name in level_names:
            level = dim.level(level_name)
            for code in range(level.member_count):
                label = dim.member_label(level, code)
                got = sorted(dim.member_label(level, c)
                             for c in siblings_under_parent(dim, level, code))
                assert got == sorted(oracle.siblings(level_name, label))
                checked += 1
        # detailed_proxy and grouper_domain on every member of every level
        for depth, level_name in enumerate(level_names):
            level = dim.level(level_name)
            for code in range(level.member_count):
                label = dim.member_label(level, code)
                atom = SelectionAtom(level, (code,))
                proxy = detailed_proxy(dim, atom)
                expect = sorted(oracle.desc(level_name, level_names[0], label))
                assert sorted(dim.member_label(level_names[0], c)
                              for c in proxy.values) == expect
                checked += 1
                for g_depth in range(depth + 1):
                    g_level = dim.levels[g_depth]
                    dom = grouper_domain(dim, atom, g_level)
                    expect = sorted(oracle.desc(level_name, g_level.name, label))
                    assert sorted(dim.member_label(g_level, c) for c in dom) == expect
                    checked += 1
    report_pass(8, f"{checked} exhaustive brute-force comparisons across {len(sizes)} hierarchies")
