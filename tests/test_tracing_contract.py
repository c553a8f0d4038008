"""The benchmark's tracer names the group_reduce path from the kernel's own
limits (perfbench/tracing.py reads them); this pins that it names the path
the kernel really takes, so renaming or retuning a limit cannot silently
turn traced runs into request failures or wrong path counts.  A traced run
over a tiny cube pins the rest of the tracer's contract: every hooked name
exists, each scan's folds see exactly its selected rows, and rollup and fold
time are booked."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from cubelens import aggregate, bench, query  # noqa: E402
from fixtures import REFERENCE_QUERY, build_cube, foodmart_tables  # noqa: E402
from perfbench.tracing import Tracer, group_reduce_path, layer_metrics  # noqa: E402

SIZES = [(4, 3), (300, 200), (1000, 1000), (5000, 5000), (1 << 40, 1 << 40)]


@pytest.fixture()
def taken(monkeypatch):
    """Records the path of each group_reduce call: dense, lexsort or sort."""
    paths = []
    dense, lexsort = aggregate._dense_reduce, np.lexsort

    def spy_dense(*args):
        paths.append("dense")
        return dense(*args)

    def spy_lexsort(*args, **kwargs):
        paths.append("lexsort")
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(aggregate, "_dense_reduce", spy_dense)
    monkeypatch.setattr(np, "lexsort", spy_lexsort)
    return paths


@pytest.mark.parametrize("rows", [0, 10, 5_000, 600_000])
@pytest.mark.parametrize("sizes", SIZES)
def test_tracer_names_the_path_group_reduce_takes(taken, rows, sizes):
    gen = np.random.default_rng(rows + len(sizes))
    cols = [gen.integers(0, min(s, 4096), rows) for s in sizes]
    values = gen.integers(-1000, 1000, rows)
    for op in aggregate.AGG_FUNCTIONS:
        taken.clear()
        aggregate.group_reduce(cols, list(sizes), values, op)
        actual = taken[0] if taken else ("empty" if rows == 0 else "sort")
        assert group_reduce_path(cols, sizes, values, op) == actual, (rows, sizes, op)


def test_min_max_fold_densely_above_500k_rows(taken):
    gen = np.random.default_rng(5)
    cols = [gen.integers(0, 300, 600_000), gen.integers(0, 200, 600_000)]
    for op in ("min", "max"):
        taken.clear()
        aggregate.group_reduce(cols, [300, 200], gen.integers(0, 9, 600_000), op)
        assert taken == ["dense"]


def test_grid_covers_every_path():
    named = set()
    for rows in (10, 600_000):
        for sizes in SIZES:
            cols = [np.zeros(rows, np.int64) for _ in sizes]
            named.add(group_reduce_path(cols, sizes, cols[0], "min"))
    assert named == {"dense", "sort", "lexsort"}


@pytest.mark.parametrize("chunk", [query.SCAN_CHUNK, 16])
def test_traced_requests_keep_the_tracer_contract(monkeypatch, chunk):
    # a tiny chunk splits each scan into several folds, as large cubes do
    monkeypatch.setattr(query, "SCAN_CHUNK", chunk)
    cube = build_cube(foodmart_tables(n_facts=2000))
    tracer = Tracer()
    tracer.install()
    try:
        for i, strategy in enumerate(("auto", "min", "mid", "max")):
            tracer.request = f"r{i}"
            result = bench.run_analyze(cube, REFERENCE_QUERY, strategy=strategy)
            bench.render_result(cube, result)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = layer_metrics(tracer, [f"r{i}" for i in range(4)])
    assert metrics["query.scans"] > 0
    assert metrics["aggregate.rows_in"] == metrics["query.rows_selected"] > 0
    assert metrics["query.rollup_ms"] > 0
    assert metrics["aggregate.group_reduce_ms"] > 0
    names = [span[1] for span in tracer.spans]
    folds, scans = names.count("aggregate.group_reduce"), names.count("query.execute_query")
    assert folds > scans if chunk == 16 else folds == scans
