import csv
import io
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from cubelens import mqo
from cubelens.analyze import ROLES, build_facilitators
from cubelens.bench import (
    WorkloadSpec,
    format_count,
    render_result,
    run_analyze,
    run_workload,
    write_report,
    write_result_files,
)
from cubelens.cube import load_cube
from cubelens.query import cell_sets_equal
from cubelens.selector import SelectorConfig

from cubelens.synth import SynthSpec, generate

import oracles
from fixtures import REFERENCE_QUERY, WALKTHROUGH_QUERY, build_cube, random_analyze, random_tables

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import SWEEP_SPEC, _sweep_texts, scaled  # noqa: E402


def test_timing_breakdown_sums(foodmart_cube):
    result = run_analyze(foodmart_cube, REFERENCE_QUERY, strategy="mid")
    t = result.timing
    for part in (t.parse_ns, t.construct_ns, t.facilitator_exec_ns, t.postprocess_ns):
        assert part >= 0
    assert t.total_ns == t.parse_ns + t.construct_ns + t.facilitator_exec_ns + t.postprocess_ns


def test_min_has_no_postprocess(foodmart_cube):
    result = run_analyze(foodmart_cube, REFERENCE_QUERY, strategy="min")
    assert result.timing.postprocess_ns == 0


def test_auto_uses_selector(walkthrough_cube):
    result = run_analyze(walkthrough_cube, WALKTHROUGH_QUERY, strategy="auto")
    assert result.selector is not None
    assert result.strategy_used == result.selector.chosen
    assert result.stats is not None


def test_auto_with_forced_thresholds(walkthrough_cube):
    force_max = SelectorConfig(coverage_threshold=0.0, imbalance_threshold=1.0, rule="paper")
    result = run_analyze(walkthrough_cube, WALKTHROUGH_QUERY, strategy="auto",
                         selector_config=force_max)
    assert result.selector.chosen == "max"
    assert result.strategy_used == "max"


def sections(text):
    """A rendered result without its comment header: the five facilitator
    sections."""
    return text[text.index("# facilitator: "):]


def test_rendered_rows_sorted(foodmart_cube):
    result = run_analyze(foodmart_cube, REFERENCE_QUERY, strategy="min")
    org = sections(render_result(foodmart_cube, result)).split("\n\n")[0]
    header, *rows = csv.reader(io.StringIO(org.split("\n", 1)[1]))
    assert header[-1] == "SumSales_org" and len(rows) > 1
    assert rows == sorted(rows, key=lambda r: r[:-1])


def _relabelled(rng, tables):
    """The same dataset with random labels, so label order differs from code
    order at every level.  Labels hold commas, quotes, newlines and
    non-ASCII text, and one member of D0's top level is the empty label."""
    names = {}

    def fresh(label):
        if label not in names:
            names[label] = ("x" + "".join(rng.choice('ab,"\né€') for _ in range(6))
                            + f"#{len(names)}")
        return names[label]

    tables.dims = {name: (levels, [tuple(fresh(x) for x in row) for row in rows])
                   for name, (levels, rows) in tables.dims.items()}
    tables.fact_rows = [{d: fresh(x) for d, x in row.items()} for row in tables.fact_rows]
    levels, rows = tables.dims["D0"]
    empty = rows[0][-1]
    tables.dims["D0"] = (levels, [row[:-1] + ("" if row[-1] == empty else row[-1],)
                                  for row in rows])
    return tables


def test_render_matches_reference_renderer(tmp_path):
    rng = random.Random(163)
    checked = set()
    for i in range(40):
        tables = _relabelled(rng, random_tables(rng, max_facts=300))
        if i % 2:
            tables.measures = [("m", "decimal")]
            tables.fact_measures["m"] = [v / 7 for v in tables.fact_measures["m"]]
        cube = build_cube(tables)
        result = run_analyze(cube, random_analyze(rng, cube), strategy="max")
        expect = []
        for role in ROLES:
            cells = result.slots[role].cells
            if cells is None:
                expect.append((f"# facilitator: {role} (empty: {result.slots[role].reason})\n\n",
                               f"# empty: {result.slots[role].reason}\n"))
                continue
            text = oracles.cells_csv(cube, cells)
            expect.append((f"# facilitator: {role}\n{text}\n", text))
            labels = {cube.schema.dimension(g.dimension_name).member_label(g, code)
                      for g, col in zip(cells.schema.groupers, cells.key_cols)
                      for code in col.tolist()}
            checked.add((len(cells) > 1, i % 2, "" in labels, any('"' in x for x in labels)))
        assert sections(render_result(cube, result)) == "".join(s for s, _ in expect)
        files = write_result_files(cube, result, tmp_path / f"r{i}" / "out")
        assert [f.read_bytes() for f in files] == [t.encode() for _, t in expect]
    assert {c[:2] for c in checked} == {(True, 0), (True, 1), (False, 0), (False, 1)}
    assert any(c[2] for c in checked) and any(c[3] for c in checked)


def test_render_sections_order(foodmart_cube):
    out = render_result(foodmart_cube, run_analyze(foodmart_cube, REFERENCE_QUERY, strategy="min"))
    positions = [out.index(f"# facilitator: {role}")
                 for role in ("org", "sibA", "sibB", "ddA", "ddB")]
    assert positions == sorted(positions)
    assert out.startswith("# strategy=min")


def test_result_files_identical_across_strategies(foodmart_cube, tmp_path):
    contents = {}
    for strategy in ("min", "mid", "max"):
        prefix = tmp_path / strategy / "out"
        files = write_result_files(
            foodmart_cube,
            run_analyze(foodmart_cube, REFERENCE_QUERY, strategy=strategy),
            prefix,
        )
        contents[strategy] = {f.name: f.read_bytes() for f in files}
    assert contents["min"] == contents["mid"] == contents["max"]


def test_workload_matrix_shape(foodmart_cube):
    spec = WorkloadSpec.from_dict({
        "warmups": 1,
        "queries": [
            {"label": "ref", "text": REFERENCE_QUERY, "repetitions": 3},
            {"label": "ref2", "text": REFERENCE_QUERY, "repetitions": 3},
        ],
    })
    rows = run_workload(foodmart_cube, spec)
    assert len(rows) == 2 * 3 * 3  # queries x strategies x repetitions
    assert all(row["chosen_ok"] for row in rows)
    assert {row["strategy"] for row in rows} == {"min", "mid", "max"}


def test_workload_rows_deterministic_in_shape(foodmart_cube):
    spec = WorkloadSpec.from_dict({
        "queries": [{"label": "ref", "text": REFERENCE_QUERY, "repetitions": 2}]})
    a = run_workload(foodmart_cube, spec, strategies=("mid",))
    b = run_workload(foodmart_cube, spec, strategies=("mid",))
    keys = ("label", "strategy", "rep", "timed_out", "facts_org", "facts_sA",
            "facts_sB", "facts_A", "chosen_ok")
    assert [{k: r[k] for k in keys} for r in a] == [{k: r[k] for k in keys} for r in b]


def test_workload_timeout_rows(foodmart_cube):
    spec = WorkloadSpec.from_dict({
        "warmups": 1, "timeout_s": 0.0,
        "queries": [{"label": "ref", "text": REFERENCE_QUERY, "repetitions": 2}]})
    rows = run_workload(foodmart_cube, spec, strategies=("max",))
    assert len(rows) == 2
    assert all(row["timed_out"] for row in rows)


def test_report_written(foodmart_cube, tmp_path):
    spec = WorkloadSpec.from_dict({
        "queries": [{"label": "ref", "text": REFERENCE_QUERY}]})
    rows = run_workload(foodmart_cube, spec, strategies=("min", "mid"))
    path = tmp_path / "report.csv"
    write_report(rows, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[0].startswith("label,strategy,rep,timed_out,parse_ns")


def test_report_names_the_strategy_run_and_its_prediction(foodmart_cube, tmp_path):
    spec = WorkloadSpec.from_dict({
        "queries": [{"label": "ref", "text": REFERENCE_QUERY}]})
    rows = run_workload(foodmart_cube, spec, strategies=("auto", "min", "mid", "max"))
    auto = run_analyze(foodmart_cube, REFERENCE_QUERY)
    for row in rows:
        used = auto.strategy_used if row["strategy"] == "auto" else row["strategy"]
        assert row["strategy_used"] == used
        assert row["predicted_ms"] == round(auto.selector.predicted_ms[used], 3) > 0
    path = tmp_path / "report.csv"
    write_report(rows, path)
    assert path.read_text().splitlines()[0].endswith(",chosen_ok,strategy_used,predicted_ms")


def test_auto_header_appends_predicted_costs(foodmart_cube):
    result = run_analyze(foodmart_cube, REFERENCE_QUERY)
    first = render_result(foodmart_cube, result).splitlines()[0]
    predicted = " ".join(f"{name}={ms:.2f}" for name, ms in result.selector.predicted_ms.items())
    assert first.startswith(f"# strategy={result.strategy_used} (coverage=")
    assert first.endswith(f") predicted_ms {predicted}")
    assert set(result.selector.predicted_ms) == {"min", "mid", "max"}


@pytest.mark.parametrize("n,text", [
    (0, "0"), (999, "999"), (1_000, "1K"), (1_499, "1K"), (999_499, "999K"),
    (999_500, "1M"), (999_999, "1M"), (1_000_000, "1M"), (2_000_000, "2M"),
    (999_499_999, "999M"), (999_500_000, "1G"), (999_999_999, "1G"), (10**9, "1G"),
    (10**12, "1000G"),
])
def test_format_count_chooses_the_unit_after_rounding(n, text):
    assert format_count(n) == text


def test_bad_workload_rejected(tmp_path):
    from cubelens.errors import ParseError
    bad = tmp_path / "w.json"
    for text in ('{"queries": [{"text": "x", "repetitions": 0}]}',
                 '{"queries": [{"text": "x"}], "warmups": -5}'):
        bad.write_text(text)
        with pytest.raises(ParseError):
            WorkloadSpec.load(bad)


def test_concurrent_readers_match_serial():
    """Four threads run the same requests on one fresh cube, racing to fill
    its region-count, ancestor-map, descendant, label-rank and quoted-label
    caches, while reading rows through both the row index and bitsets;
    every result and its rendered text equal the serial ones, and no fact
    scan goes uncounted."""
    tables = random_tables(random.Random(151), max_facts=2000)
    strategies = ("auto", "min", "mid", "max")

    def requests_on(cube):
        rng = random.Random(157)  # the same 20 requests on every cube
        return [random_analyze(rng, cube) for _ in range(20)]

    def answers(cube, order_seed):
        requests = requests_on(cube)
        jobs = [(i, s) for i in range(len(requests)) for s in strategies]
        random.Random(order_seed).shuffle(jobs)
        out = {}
        for i, s in jobs:
            result = run_analyze(cube, requests[i], strategy=s)
            out[i, s] = result, sections(render_result(cube, result))
        return out

    serial_cube = build_cube(tables)
    serial = answers(serial_cube, 0)
    shared = build_cube(tables)
    on_index = {shared.index_slice(slot.query.condition) is not None
                for request in requests_on(shared)
                for slot in build_facilitators(request).slots().values() if not slot.empty}
    assert on_index == {True, False}  # both row-selection paths race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(answers, shared, seed) for seed in range(1, 5)]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for results in threaded:
        assert results.keys() == serial.keys()
        for key, (result, rendered) in results.items():
            expect, expect_rendered = serial[key]
            assert rendered == expect_rendered, key
            assert result.strategy_used == expect.strategy_used, key
            for role in ROLES:
                a, b = result.slots[role].cells, expect.slots[role].cells
                assert (a is None) == (b is None), (key, role)
                assert a is None or cell_sets_equal(a, b), (key, role)
    assert shared.exec_stats.fact_scans == 4 * serial_cube.exec_stats.fact_scans


def test_concurrent_readers_of_the_sweep_cube_match_serial(tmp_path):
    """The README's claim that concurrent readers are safe, on a 50K-fact
    cut of the reference sweep cube: four threads run the ten sweep
    statements under auto, min, mid and max on one freshly loaded cube, each
    in its own order, with a short switch interval.  Every result equals
    the serial one exactly, and the shared cube counts four times the
    serial fact scans."""
    generate(SynthSpec.from_dict(scaled(SWEEP_SPEC, 50_000)), tmp_path)
    serial_cube = load_cube(tmp_path / "schema.json")
    jobs = [(text, strategy) for text in _sweep_texts(serial_cube.schema)
            for strategy in ("auto", "min", "mid", "max")]
    serial = {job: run_analyze(serial_cube, *job) for job in jobs}
    assert serial_cube.exec_stats.fact_scans > 0
    shared = load_cube(tmp_path / "schema.json")

    def answers(order_seed):
        order = random.Random(order_seed).sample(jobs, len(jobs))
        return {job: run_analyze(shared, *job) for job in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(answers, seed) for seed in range(4)]
            threaded = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for results in threaded:
        assert results.keys() == serial.keys()
        for job, result in results.items():
            expect = serial[job]
            assert (result.strategy_used, result.cuboids) == (expect.strategy_used,
                                                               expect.cuboids), job
            for role in ROLES:
                a, b = result.slots[role].cells, expect.slots[role].cells
                assert (a is None) == (b is None), (job, role)
                assert a is None or cell_sets_equal(a, b, rel_tol=0.0), (job, role)
    assert shared.exec_stats.fact_scans == 4 * serial_cube.exec_stats.fact_scans


# ---------------------------------------------------------------------------
# One plan per request
# ---------------------------------------------------------------------------

@pytest.fixture()
def bases_built(monkeypatch):
    """Counts the merged base queries built, by the strategy they serve:
    every CubeQuery the mqo module constructs is a merged base."""
    built = Counter()
    real = mqo.CubeQuery

    def spy(*args, **kwargs):
        q = real(*args, **kwargs)
        built["max" if q.measure_alias.endswith("_all") else "mid"] += 1
        return q

    monkeypatch.setattr(mqo, "CubeQuery", spy)
    return built


def _random_requests(seed, n):
    """``n`` random requests over small random cubes, some of them degraded
    (a missing sibling or drill-down)."""
    rng = random.Random(seed)
    for _ in range(n):
        cube = build_cube(random_tables(rng, max_facts=300))
        yield cube, random_analyze(rng, cube, atom_probability=0.6)


@pytest.mark.parametrize("rule", ["cost", "paper"])
def test_auto_builds_each_merged_base_at_most_once(bases_built, rule):
    degraded = 0
    for cube, aq in _random_requests(241, 40):
        bases_built.clear()
        result = run_analyze(cube, aq, selector_config=SelectorConfig(rule=rule))
        assert max(bases_built.values(), default=0) <= 1, (result.strategy_used, bases_built)
        degraded += bool(result.stats.degraded)
    assert degraded >= 5


def test_forced_strategy_builds_only_its_own_plan(bases_built):
    for cube, aq in _random_requests(251, 20):
        for strategy in mqo.STRATEGIES:
            bases_built.clear()
            result = run_analyze(cube, aq, strategy=strategy)
            assert dict(bases_built) == ({} if strategy == "min" else
                                         {result.strategy_used: 1}), strategy


def test_auto_runs_the_plan_it_chose():
    degraded = 0
    for cube, aq in _random_requests(257, 60):
        before = cube.exec_stats.fact_scans
        result = run_analyze(cube, aq)
        plan = result.selector.plan
        assert result.strategy_used == plan.name == result.selector.chosen
        assert result.store_queries == len(plan.scans) == cube.exec_stats.fact_scans - before
        assert set(result.selector.predicted_ms) == set(mqo.STRATEGIES)
        degraded += bool(plan.fs.missing)
    assert degraded >= 5
