"""Self-test of the benchmark on tiny cubes.

    python3 -m pytest -q perfbench/tests

Checks that every metric BENCHMARK.json declares, and every metric the
per-layer run defines, prints with its unit, and that a corrupted result is
counted as failed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cubelens import bench  # noqa: E402
from cubelens.cube import load_cube  # noqa: E402
from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS, zipf_counts  # noqa: E402

TINY = dict(facts=20_000, seconds=0.05, min_requests=40)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path, workload, trace, seed=3, min_requests=TINY["min_requests"]):
    return harness.run(workload, seed, TINY["seconds"], trace, facts=TINY["facts"],
                       min_requests=min_requests, out_dir=tmp_path)


def _printed(out) -> dict:
    """name -> unit of every metric line the command prints."""
    lines = harness.report_lines(out)
    assert json.loads(lines[-1]) == out["result"]
    printed = {}
    for line in lines[1:-1]:
        name, value_unit = line.split(" = ")
        printed[name] = value_unit.split(" ")[1]
    return printed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_print_with_units(tmp_path, workload):
    # explore-cold runs into a second epoch (a fresh cube after 6 blocks).
    min_requests = 7 * 36 if workload == "explore-cold" else TINY["min_requests"]
    out = _run(tmp_path, workload, trace=False, min_requests=min_requests)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= min_requests
    printed = _printed(out)
    for metric in DECLARED["end_to_end"]:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert printed["failed_frac"] == "frac"


def test_per_layer_metrics_print_with_units_and_spans_are_written(tmp_path):
    out = _run(tmp_path, "explore-cold", trace=True)
    printed = _printed(out)
    for metric in DECLARED["per_layer"]:
        assert printed[metric["name"]] == metric["unit"]
    assert set(out["result"]["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert metrics["cube.mask_ms"] > 0 and metrics["cube.mask_first_seen"] > 0
    assert metrics["query.scans"] >= 1
    spans = (tmp_path / "spans-explore-cold-seed3.jsonl").read_text().splitlines()
    header, first = json.loads(spans[0]), json.loads(spans[1])
    assert header["spec_hash"] and header["seed"] == 3
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "request"}
    assert "missing_hooks" not in out["env"]


def test_corrupted_result_counts_as_failed(tmp_path, monkeypatch):
    real = bench.run_analyze

    def corrupted(cube, request, strategy="auto", selector_config=None):
        result = real(cube, request, strategy, selector_config)
        if strategy == "auto":
            cells = result.slots["org"].cells
            cells.values = cells.values + 1
        return result

    monkeypatch.setattr(bench, "run_analyze", corrupted)
    out = _run(tmp_path, "session-hot", trace=False)
    result = out["result"]
    assert result["failed"] == result["attempted"] > 0
    assert out["env"]["failed_frac"] == 1.0
    assert result["correct"] is False


def test_zipf_schedule_sends_every_entry_and_favours_low_ranks():
    counts = zipf_counts(80, 200, 1.1)
    assert counts.sum() == 200 and counts.min() == 1
    assert list(counts) == sorted(counts, reverse=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_streams_repeat_for_a_seed(tmp_path, workload):
    spec = {**WORKLOADS[workload].spec, "facts": 2_000}
    harness.generate_data(spec, tmp_path / "d")
    cube = load_cube(tmp_path / "d" / "schema.json")

    def first_block(seed):
        return next(WORKLOADS[workload].blocks(cube.schema, np.random.default_rng(seed)))

    assert first_block(5) == first_block(5) != first_block(6)
