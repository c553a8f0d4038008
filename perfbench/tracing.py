"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the cubelens modules (module
attributes and ``DetailedCube`` methods) with wrappers that record a span:
name, start, end, parent span and request id.  Spans stay in memory and are
written out when the run ends.  ``uninstall`` puts the originals back, so an
untraced phase runs the program exactly as shipped.

Layers are named after modules.  ``layer_metrics`` turns the spans of the
traced requests into per-request self times and counts.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

import numpy as np

from cubelens import aggregate, bench, cube, mqo, query

MASK_SPANS = ("cube.condition_mask", "cube.atom_mask")

# (owner, attribute, span name).  Owners are looked up where the caller
# resolves the name, so patching them intercepts the real call sites.
HOOKS = [
    (bench, "parse", "parser.parse"),
    (bench, "from_statement", "analyze.from_statement"),
    (bench, "build_facilitators", "analyze.build_facilitators"),
    (bench, "estimate_stats", "selector.estimate_stats"),
    (bench, "run_strategy", "mqo.run_strategy"),
    (bench, "render_result", "bench.render_result"),
    (mqo, "execute_query", "query.execute_query"),
    (mqo, "group_reduce", "mqo.group_reduce"),
    (query, "group_reduce", "aggregate.group_reduce"),
    (cube.DetailedCube, "condition_mask", "cube.condition_mask"),
    (cube.DetailedCube, "atom_mask", "cube.atom_mask"),
    (cube.DetailedCube, "rolled_column", "cube.rolled_column"),
    (cube, "load_cube", "cube.load_cube"),
    (cube, "read_members_csv", "hierarchy.read_members_csv"),
]


def group_reduce_path(cols, sizes, values, op) -> str:
    """The path ``aggregate.group_reduce`` takes, from the kernel's own limits."""
    n = len(cols[0]) if cols else 0
    if n == 0:
        return "empty"
    space = 1
    for s in sizes:
        space *= max(int(s), 1)
        if space > aggregate._PACK_LIMIT:
            return "lexsort"
    if (space <= aggregate._DENSE_SPACE_LIMIT and space <= max(4 * n, 1 << 16)
            and (op in ("sum", "count") or n <= aggregate._DENSE_AT_ROW_LIMIT)):
        return "dense"
    return "sort"


class Tracer:
    def __init__(self):
        self.spans: list = []        # (id, name, start_ns, end_ns, parent_id, request_id)
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # request -> counter -> n
        self.request = None
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self._saved: list = []
        self._seen_conditions: set = set()   # condition keys seen by _seen_cube
        self._seen_cube = lambda: None

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span and return its result."""
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append((sid, name))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, self.request)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.request][key] += n

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in HOOKS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][1] if tracer._stack else None
            out = tracer.span(name, fn, *args, **kwargs)
            if after is not None and tracer.request is not None:
                after(tracer, parent, args, out)
            return out

        return wrapper

    # -- output ----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                                     "parent": s[4], "request": s[5]}) + "\n")


# -- counters taken after a wrapped call returns ------------------------------

def _after_condition_mask(tracer, parent, args, mask):
    self_, atoms = args[0], args[1]
    if tracer._seen_cube() is not self_:     # a fresh cube starts with empty caches
        tracer._seen_cube = weakref.ref(self_)
        tracer._seen_conditions.clear()
    key = tuple(sorted((lv.dimension_name, lv.depth, tuple(codes)) for lv, codes in atoms))
    tracer.count("mask_calls")
    if key not in tracer._seen_conditions:
        tracer._seen_conditions.add(key)
        tracer.count("mask_first_seen")
        tracer.count("mask_bytes", self_.row_count)
    if parent == "query.execute_query":
        tracer.count("rows_selected", int(np.count_nonzero(mask)))


def _after_execute_query(tracer, parent, args, cells):
    tracer.count("scans")


def _after_scan_group_reduce(tracer, parent, args, out):
    cols, sizes, values, op = args
    tracer.count("rows_in", len(cols[0]) if cols else 0)
    tracer.count("cells_out", len(out[1]))
    tracer.count("path_" + group_reduce_path(cols, sizes, values, op))


def _after_run_strategy(tracer, parent, args, result):
    if result.fallback_reason:
        tracer.count("fallbacks")


def _after_render(tracer, parent, args, text):
    result = args[1]
    tracer.count("cells_rendered",
                 sum(len(s.cells) for s in result.slots.values() if s.cells is not None))


_AFTER = {
    "cube.condition_mask": _after_condition_mask,
    "query.execute_query": _after_execute_query,
    "aggregate.group_reduce": _after_scan_group_reduce,
    "mqo.run_strategy": _after_run_strategy,
    "bench.render_result": _after_render,
}


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer, requests: list) -> dict:
    """Per-request means over ``requests`` (request ids) of the layer self
    times (ms) and counters."""
    wanted = set(requests)
    n = max(len(wanted), 1)
    spans = [s for s in tracer.spans if s is not None and s[5] in wanted]
    by_id = {s[0]: s for s in spans}
    child_ns: dict = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s[4] in by_id:
            child_ns[s[4]][s[1]] += s[3] - s[2]

    ms = dict.fromkeys(("cube.mask_ms", "parser.parse_ms", "analyze.derive_ms",
                        "selector.estimate_ms", "query.select_rollup_ms", "query.rollup_ms",
                        "aggregate.group_reduce_ms", "mqo.distribute_ms", "bench.render_ms"), 0.0)
    for s in spans:
        sid, name, t0, t1, parent, _ = s
        dur = t1 - t0
        kids = child_ns.get(sid, {})
        parent_name = by_id[parent][1] if parent in by_id else None
        if name in MASK_SPANS and parent_name not in MASK_SPANS:
            ms["cube.mask_ms"] += dur
        elif name == "parser.parse":
            ms["parser.parse_ms"] += dur - sum(kids.values())
        elif name in ("analyze.from_statement", "analyze.build_facilitators"):
            ms["analyze.derive_ms"] += dur - sum(kids.values())
        elif name == "selector.estimate_stats":
            ms["selector.estimate_ms"] += dur - sum(kids.values())
        elif name == "query.execute_query":
            ms["query.select_rollup_ms"] += dur - sum(v for k, v in kids.items()
                                                      if k != "cube.rolled_column")
            ms["query.rollup_ms"] += kids.get("cube.rolled_column", 0)
        elif name == "aggregate.group_reduce":
            ms["aggregate.group_reduce_ms"] += dur
        elif name == "mqo.group_reduce":
            ms["mqo.distribute_ms"] += dur
        elif name == "bench.render_result":
            ms["bench.render_ms"] += dur

    out = {k: v / 1e6 / n for k, v in ms.items()}
    totals = defaultdict(float)
    for rid in wanted:
        for key, v in tracer.counts.get(rid, {}).items():
            totals[key] += v
    calls = totals["mask_calls"]
    out.update({
        "cube.mask_calls": calls / n,
        "cube.mask_first_seen": totals["mask_first_seen"] / n,
        "cube.mask_hit_frac": (1.0 - totals["mask_first_seen"] / calls) if calls else 0.0,
        "cube.mask_bytes": totals["mask_bytes"] / n,
        "query.scans": totals["scans"] / n,
        "query.rows_selected": totals["rows_selected"] / n,
        "aggregate.rows_in": totals["rows_in"] / n,
        "aggregate.cells_out": totals["cells_out"] / n,
        "aggregate.path_dense": totals["path_dense"] / n,
        "aggregate.path_sort": totals["path_sort"] / n,
        "aggregate.path_lexsort": totals["path_lexsort"] / n,
        "mqo.fallbacks": totals["fallbacks"] / n,
        "selector.max_frac": totals["chosen_max"] / n,
        "bench.cells_rendered": totals["cells_rendered"] / n,
    })
    return out


def setup_metrics(tracer: Tracer) -> dict:
    """Set-up layer times from the spans recorded outside any request."""
    load = sum(s[3] - s[2] for s in tracer.spans if s and s[1] == "cube.load_cube") / 1e9
    members = sum(s[3] - s[2] for s in tracer.spans
                  if s and s[1] == "hierarchy.read_members_csv") / 1e9
    synth = sum(s[3] - s[2] for s in tracer.spans if s and s[1] == "synth.generate") / 1e9
    return {"synth.generate_s": synth, "cube.load_s": load,
            "hierarchy.read_members_s": members}
