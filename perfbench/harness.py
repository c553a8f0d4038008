"""Closed-loop ANALYZE benchmark: one process, one client, no threads.

A run sets the workload's cube up from its spec (``cubelens gensynth`` in a
child process, then ``load_cube``), then sends the seeded request stream:
each request is ``bench.run_analyze(cube, text)`` followed by
``bench.render_result``, and the next request starts only when the previous
one has rendered.  After each request is timed, its five facilitator results
are compared with forced Min-MQO outside the timed section.

``--trace 0`` reports the end-to-end metrics with nothing patched.
``--trace 1`` traces every request through ``tracing.Tracer``, reports the
per-layer metrics, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cubelens import bench, cube as cube_mod
from cubelens.analyze import ROLES
from cubelens.query import cell_sets_equal

from . import tracing
from .workloads import WORKLOADS, scaled, spec_hash

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_REQUESTS = 200        # >= 10 samples beyond the 95th percentile
REGRET_REQUESTS = 10      # distinct requests re-run under each forced strategy
REGRET_REPEATS = 3
DEADLINE_S = 150.0        # a run ends its timed phase by then, whatever its count

# failed_frac is 0 when all is well, so it is printed in the summary and
# carried by the result's "failed"/"attempted" counts, not as a bounded metric.
END_TO_END_UNITS = {
    "request_p50_ms": "ms", "request_p95_ms": "ms", "requests_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "synth.generate_s": "s", "cube.load_s": "s", "hierarchy.read_members_s": "s",
    "cube.load_rows_per_s": "rows/s",
    "parser.parse_ms": "ms", "analyze.derive_ms": "ms",
    "cube.mask_ms": "ms", "cube.mask_calls": "count/req", "cube.mask_first_seen": "count/req",
    "cube.mask_hit_frac": "frac", "cube.mask_bytes": "B/req",
    "selector.estimate_ms": "ms", "selector.max_frac": "frac",
    "selector.regret_p50": "ratio", "selector.regret_max": "ratio",
    "selector.slower_picks": "count",
    "query.select_rollup_ms": "ms", "query.rollup_ms": "ms",
    "query.scans": "count/req", "query.rows_selected": "count/req",
    "aggregate.group_reduce_ms": "ms", "aggregate.rows_in": "count/req",
    "aggregate.cells_out": "count/req", "aggregate.path_dense": "count/req",
    "aggregate.path_sort": "count/req", "aggregate.path_lexsort": "count/req",
    "mqo.distribute_ms": "ms", "mqo.fallbacks": "count/req",
    "bench.render_ms": "ms", "bench.cells_rendered": "count/req",
    "trace.overhead_frac": "frac",
}


def environment(workload, spec: dict, seed: int) -> dict:
    return {
        "workload": workload.name, "seed": seed, "spec_hash": spec_hash(spec),
        "facts": spec["facts"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- set-up --------------------------------------------------------------------

def generate_data(spec: dict, data_dir: Path) -> None:
    """``cubelens gensynth`` in a child process, so its peak memory stays
    out of this process's high-water mark."""
    data_dir.mkdir(parents=True, exist_ok=True)
    spec_file = data_dir.parent / (data_dir.name + "-spec.json")
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "cubelens.cli", "gensynth",
                    "--spec", str(spec_file), "--out", str(data_dir)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)


def set_up(spec: dict, data_dir: Path, tracer=None):
    """Spec to a cube ready for its first request; returns (cube, seconds)."""
    t0 = time.perf_counter()
    if tracer is None:
        generate_data(spec, data_dir)
    else:
        tracer.span("synth.generate", generate_data, spec, data_dir)
    cube = cube_mod.load_cube(data_dir / "schema.json")   # spans itself when patched
    return cube, time.perf_counter() - t0


# -- correctness ---------------------------------------------------------------

def results_match(result, oracle) -> bool:
    """All five slots equal: exact for integer measures, ``cell_sets_equal``'s
    default tolerance for decimal ones."""
    for role in ROLES:
        a, b = result.slots[role].cells, oracle.slots[role].cells
        if (a is None) != (b is None):
            return False
        if a is not None and not cell_sets_equal(a, b):
            return False
    return True


class Checker:
    """Compares each timed result with forced Min-MQO, run after the timing."""

    def __init__(self, keep_all: bool):
        self.keep_all = keep_all
        self.oracles: dict = {}
        self.failed = 0

    def new_block(self, cube, block: list[str]) -> None:
        self.cube = cube
        if not self.keep_all:
            self.oracles.clear()
        self._left = {}
        for text in block:
            self._left[text] = self._left.get(text, 0) + 1

    def check(self, text: str, result) -> None:
        self._left[text] -= 1
        oracle = self.oracles.get(text)
        if oracle is None:
            try:
                oracle = bench.run_analyze(self.cube, text, strategy="min")
            except Exception as exc:   # no reference answer: the request counts as failed
                print(f"oracle failed: {type(exc).__name__}: {exc}: {text}", file=sys.stderr)
                self.failed += 1
                return
            if self.keep_all or self._left[text] > 0:
                self.oracles[text] = oracle
        if not results_match(result, oracle):
            self.failed += 1


# -- the timed loop ------------------------------------------------------------

def request(cube, text: str):
    """One request as a ``cubelens query`` user waits for it: run, then render."""
    result = bench.run_analyze(cube, text)
    bench.render_result(cube, result)
    return result


def fresh_cube(cube):
    """A new cube over the same columns: same data, empty mask caches."""
    return cube_mod.DetailedCube(cube.schema, cube.coordinates, cube.measure_columns)


def timed_phase(session: dict, blocks, checker: Checker, seconds: float, min_requests: int,
                epoch_blocks: int | None, deadline: float, tracer=None) -> dict:
    """Send whole blocks until ``seconds`` of request time and ``min_requests``
    requests are done.  ``session["cube"]`` is replaced by a fresh cube at
    each epoch boundary.  With a tracer every request is traced; the checks
    run unpatched either way."""
    lat: list[float] = []
    busy = 0.0
    attempted = errors = 0
    rss_at_min = None
    for b in itertools.count():
        if (busy >= seconds and attempted >= min_requests) or time.perf_counter() >= deadline:
            break
        if epoch_blocks and b and b % epoch_blocks == 0:
            session["cube"] = fresh_cube(session["cube"])
        cube = session["cube"]
        block = next(blocks)
        checker.new_block(cube, block)
        for text in block:
            if time.perf_counter() >= deadline:
                break
            rid = f"r{attempted}"
            attempted += 1
            if tracer is not None:
                tracer.install()
                tracer.request = rid
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.span("bench.request", request, cube, text)
                else:
                    result = request(cube, text)
            except Exception as exc:   # a failed request is counted, not fatal
                print(f"request failed: {type(exc).__name__}: {exc}: {text}", file=sys.stderr)
                errors += 1
                continue
            finally:
                dt = time.perf_counter() - t0
                busy += dt
                if tracer is not None:
                    tracer.request = None
                    tracer.uninstall()
            lat.append(dt)
            if tracer is not None and result.selector is not None:
                tracer.counts[rid]["chosen_max"] = float(result.selector.chosen == "max")
            checker.check(text, result)
            del result
            if attempted == min_requests:
                rss_at_min = peak_rss_mb()
        del cube
    return {"lat": lat, "busy": busy, "attempted": attempted, "errors": errors,
            "rss": rss_at_min if rss_at_min is not None else peak_rss_mb()}


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if values else 0.0


# -- selector regret -------------------------------------------------------------

def selector_regret(cube, texts: list[str]) -> dict:
    """Re-run each distinct request hot under forced min, mid and max.  A pick
    is slower only when its gap to the best strategy exceeds the request's own
    run-to-run spread (the wider min-max range of the two strategies)."""
    ratios, slower = [], 0
    for text in texts:
        chosen = bench.run_analyze(cube, text).strategy_used
        times = {}
        for strategy in ("min", "mid", "max"):
            bench.run_analyze(cube, text, strategy=strategy)        # hot
            reps = []
            for _ in range(REGRET_REPEATS):
                t0 = time.perf_counter()
                res = bench.run_analyze(cube, text, strategy=strategy)
                reps.append(time.perf_counter() - t0)
                if strategy == "max":
                    chosen_by_max = res.strategy_used
            times[strategy] = reps
        if chosen_by_max != "max":
            times["max"] = times["mid"]                               # Max fell back
        best = min(times, key=lambda s: statistics.median(times[s]))
        med = {s: statistics.median(v) for s, v in times.items()}
        ratios.append(med[chosen] / med[best])
        spread = max(max(times[chosen]) - min(times[chosen]),
                     max(times[best]) - min(times[best]))
        if med[chosen] - med[best] > spread:
            slower += 1
    return {"selector.regret_p50": statistics.median(ratios) if ratios else 1.0,
            "selector.regret_max": max(ratios, default=1.0),
            "selector.slower_picks": float(slower)}


def trace_overhead(cube, texts: list[str], tracer) -> float:
    """Median latency of hot requests traced over the same requests untraced,
    minus 1; the two modes alternate request by request."""
    plain, traced = [], []
    for _ in range(REGRET_REPEATS):
        for text in texts:
            t0 = time.perf_counter()
            request(cube, text)
            plain.append(time.perf_counter() - t0)
            tracer.install()
            tracer.request = "overhead"
            t0 = time.perf_counter()
            tracer.span("bench.request", request, cube, text)
            traced.append(time.perf_counter() - t0)
            tracer.request = None
            tracer.uninstall()
    return statistics.median(traced) / statistics.median(plain) - 1.0


# -- a whole run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, facts: int | None = None,
        min_requests: int = MIN_REQUESTS, out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the result object the command prints."""
    start = time.perf_counter()
    workload = WORKLOADS[name]
    spec = scaled(workload.spec, facts)
    env = environment(workload, spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = out_dir / f"data-{name}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        if trace:
            tracer.install()
            cube, setup_s = set_up(spec, data_dir, tracer)
            tracer.uninstall()
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                cube = None
                gc.collect()
                cube, took = set_up(spec, data_dir)
                setups.append(took)
            setup_s = statistics.median(setups)
            env["setup_runs_s"] = [round(t, 3) for t in setups]
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        (out_dir / f"{data_dir.name}-spec.json").unlink(missing_ok=True)

    rng = np.random.default_rng(seed)
    checker = Checker(keep_all=workload.repeats)
    warm = workload.warm(cube.schema)
    if trace:
        tracer.install()
        tracer.request = "warm"
    for text in warm:
        request(cube, text)
    if trace:
        tracer.request = None
        tracer.uninstall()
    gc.collect()

    blocks = workload.blocks(cube.schema, rng)
    session = {"cube": cube}
    del cube
    phase = timed_phase(session, blocks, checker, seconds, min_requests, workload.epoch_blocks,
                        deadline=start + DEADLINE_S, tracer=tracer)
    cube = session.pop("cube")
    attempted = phase["attempted"]
    failed = phase["errors"] + checker.failed
    failed_frac = failed / attempted if attempted else 1.0

    if not trace:
        lat = phase["lat"]
        metrics = {
            "request_p50_ms": percentile_ms(lat, 50),
            "request_p95_ms": percentile_ms(lat, 95),
            "requests_per_s": len(lat) / phase["busy"] if phase["busy"] else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": phase["rss"],
        }
        units = END_TO_END_UNITS
    else:
        ids = [f"r{i}" for i in range(attempted)]
        metrics = tracing.layer_metrics(tracer, ids)
        metrics.update(tracing.setup_metrics(tracer))
        metrics["cube.load_rows_per_s"] = cube.row_count / metrics["cube.load_s"]
        # Hot re-runs use the first distinct statements of the stream; the
        # timed phase has already sent them.
        distinct = list(dict.fromkeys(warm or next(workload.blocks(
            cube.schema, np.random.default_rng(seed)))))[:REGRET_REQUESTS]
        metrics.update(selector_regret(cube, distinct))
        metrics["trace.overhead_frac"] = trace_overhead(cube, distinct, tracer)
        span_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file, {**env, "traced_requests": len(phase["lat"])})
        env["span_file"] = os.path.relpath(span_file, ROOT)
        if tracer.missing:
            env["missing_hooks"] = tracer.missing
        units = PER_LAYER_UNITS

    env.update({"attempted": attempted, "failed": failed, "failed_frac": failed_frac,
                "timed_requests": len(phase["lat"]),
                "timed_s": round(phase["busy"], 3), "run_s": round(time.perf_counter() - start, 3)})
    return {
        "env": env,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()
                        if k in metrics},
        },
    }


def report_lines(out: dict) -> list[str]:
    """What the command prints: the environment stamp, every metric with its
    unit, failed_frac, and last the result object as one JSON line."""
    env, result = out["env"], out["result"]
    lines = ["# " + json.dumps(env, sort_keys=True)]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines.append(f"failed_frac = {env['failed_frac']:.6g} frac")
    lines.append(json.dumps(result))
    return lines
