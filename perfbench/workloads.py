"""Workload definitions: the synthetic cube each workload loads and the
seeded stream of ANALYZE statements it sends.

A stream is an endless sequence of blocks.  Every block of one workload has
the same make-up (the same mix of grouper levels, filter levels and
aggregates), and only the members it names change with the seed, so any
number of whole blocks is a fair sample of the workload.  The harness stops
a timed phase only at a block boundary.

A workload with ``epoch_blocks`` runs its stream in epochs: each epoch starts
on a fresh ``DetailedCube`` over the same columns, so the mask caches start
empty again and memory stays bounded however long the run is.

* ``session-hot``: the frozen 2M-fact reference cube and the ten sweep
  statements of the acceptance suite, cycled after one untimed warm pass.
  Every condition mask is cached, so the time goes to scanning: row
  selection, rollup, the ``group_reduce`` fold and distribution.
* ``explore-cold``: the same cube, with no filter pair repeated within an
  epoch.  Requests miss the condition-mask cache, min/max take the
  ``ufunc.at`` and sort fold paths, and fine drill-downs render up to ~90K
  cells.
* ``wide-mixed``: a 4-dimension 1M-fact cube with an integer and a decimal
  measure.  Each block is a fresh pool of 80 statements with box atoms on
  non-grouper dimensions (a fifth of them degraded: a level-0 grouper or an
  unfiltered grouper dimension), sent in a Zipf (s=1.1) schedule, so a block
  mixes cold first touches with hot repeats.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

# The reference cube of the acceptance sweep: 2M facts, seed 424242.
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

# The ten statements the acceptance suite picks on SWEEP_SPEC, frozen here so
# the workload does not depend on test code.  Original-region shares run from
# 1% to 92% and both selector outcomes occur.
SWEEP_STATEMENTS = [
    ("D1L2", "D1_D1L2_00006", "D2L3", "D2_D2L3_00001"),
    ("D1L3", "D1_D1L3_00001", "D2L2", "D2_D2L2_00004"),
    ("D1L2", "D1_D1L2_00007", "D2L4", "D2_D2L4_00000"),
    ("D1L3", "D1_D1L3_00001", "D2L3", "D2_D2L3_00001"),
    ("D1L2", "D1_D1L2_00003", "D2L4", "D2_D2L4_00000"),
    ("D1L2", "D1_D1L2_00001", "D2L4", "D2_D2L4_00000"),
    ("D1L3", "D1_D1L3_00001", "D2L4", "D2_D2L4_00000"),
    ("D1L4", "D1_D1L4_00000", "D2L2", "D2_D2L2_00000"),
    ("D1L3", "D1_D1L3_00000", "D2L4", "D2_D2L4_00000"),
    ("D1L4", "D1_D1L4_00000", "D2L4", "D2_D2L4_00000"),
]

WIDE_SPEC = {
    "name": "wide",
    "facts": 1_000_000,
    "seed": 20240611,
    "dimensions": [
        {"name": "Geo", "level_sizes": [2000, 200, 20, 4], "skew": 1.3},
        {"name": "Date", "level_sizes": [730, 24, 8, 2]},
        {"name": "Prod", "level_sizes": [5000, 500, 50, 5], "skew": 1.2},
        {"name": "Chan", "level_sizes": [40, 8, 2]},
    ],
    "measures": [
        {"name": "amount", "kind": "integer", "low": 1, "high": 1000},
        {"name": "price", "kind": "decimal", "low": 0.5, "high": 500},
    ],
}

AGGS = ("sum", "min", "max", "count")
COLD_CELL_CAP = 120_000   # rendered cells of one explore-cold request, upper bound
WIDE_CELL_CAP = 60_000
WIDE_POOL = 80
WIDE_BLOCK = 200
ZIPF_S = 1.1


@dataclass
class Workload:
    name: str
    spec: dict
    # Untimed statements run once before the timed phase.
    warm: Callable[["object"], list[str]]
    # Endless stream of statement blocks, built from the cube schema and a
    # seeded generator.
    blocks: Callable[["object", np.random.Generator], Iterator[list[str]]]
    # True when every block repeats the same statements, so one oracle
    # result per statement serves the whole run.
    repeats: bool
    # Blocks per epoch (None: one epoch).  Every new filter pair caches about
    # 6 MB of masks on the 2M-fact cube; a 216-request epoch stays near 1.3 GB.
    epoch_blocks: int | None = None


def spec_hash(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def scaled(spec: dict, facts: int | None) -> dict:
    """The spec with another fact count (used by the self-test)."""
    return spec if facts is None else {**spec, "facts": int(facts)}


def statement(schema, agg: str, measure: str, groupers, atoms) -> str:
    """ANALYZE text; ``groupers`` are (dim, depth), ``atoms`` (dim, depth, code)."""
    def ref(dim, depth):
        return f"{dim.name}.{dim.levels[depth].name}"
    where = " AND ".join(f"{ref(d, depth)} = '{d.member_label(d.levels[depth], code)}'"
                         for d, depth, code in atoms)
    group = ", ".join(ref(d, depth) for d, depth in groupers)
    return (f"ANALYZE {agg}({measure}) FROM {schema.cube_name} "
            f"FOR {where} GROUP BY {group}")


def _under(dim, depth_from: int, depth_to: int) -> np.ndarray:
    """Per member at ``depth_from``: how many members at ``depth_to`` lie under it."""
    if depth_from == depth_to:
        return np.ones(dim.levels[depth_from].member_count, dtype=np.int64)
    return np.bincount(dim.anc_array(depth_to, depth_from),
                       minlength=dim.levels[depth_from].member_count)


class _Side:
    """One grouper dimension of a request: grouper depth, optional filter."""

    def __init__(self, dim, g: int, f: int | None, code: int | None):
        self.dim, self.g, self.f, self.code = dim, g, f, code
        top = len(dim.levels) - 1            # the ALL level
        if f is None:
            self.org = dim.levels[g].member_count
            self.dd = dim.levels[g - 1].member_count if g else 0
            self.sib = 0
        else:
            self.org = int(_under(dim, f, g)[code])
            self.dd = int(_under(dim, f, g - 1)[code]) if g else 0
            parent = int(dim.anc_array(f, f + 1)[code])
            self.sib = int(_under(dim, f + 1, f)[parent]) if f + 1 < top else \
                dim.levels[f].member_count

    def atom(self):
        return None if self.f is None else (self.dim, self.f, self.code)


def _cells(a: _Side, b: _Side) -> int:
    """Upper bound on the cells the five facilitators render."""
    return a.org * b.org + a.dd * b.org + a.org * b.dd + a.sib * b.org + a.org * b.sib


def _filtered_side(dim, rng, g: int) -> _Side:
    """A grouper at depth ``g`` filtered on a random member at or above it."""
    f = int(rng.integers(g, len(dim.levels) - 1))
    return _Side(dim, g, f, int(rng.integers(dim.levels[f].member_count)))


# -- session-hot -------------------------------------------------------------

def _sweep_texts(schema) -> list[str]:
    return [f"ANALYZE sum(amount) FROM {schema.cube_name} "
            f"FOR D1.{la} = '{va}' AND D2.{lb} = '{vb}' GROUP BY D1.{la}, D2.{lb}"
            for la, va, lb, vb in SWEEP_STATEMENTS]


def _session_blocks(schema, rng):
    texts = _sweep_texts(schema)
    while True:
        yield [texts[i] for i in rng.permutation(len(texts))]


# -- explore-cold ------------------------------------------------------------

class _Cycle:
    """Members of one level handed out in rounds: the members are split by
    mass (detailed members beneath) into up to eight strata, and every round
    takes one member from each stratum, alternating big and small strata.
    The seed only orders the members inside a stratum, so the k-th pick of a
    cycle has about the same mass whatever the seed."""

    def __init__(self, dim, depth: int, rng):
        by_mass = np.argsort(-_under(dim, depth, 0), kind="stable")
        strata = [rng.permutation(c) for c in np.array_split(by_mass, min(8, len(by_mass)))]
        # big, small, next big, next small, ...
        self.strata = [strata[i // 2] if i % 2 == 0 else strata[-1 - i // 2]
                       for i in range(len(strata))]
        self.taken = 0
        self.size = len(by_mass)

    def next(self) -> int:
        stratum = self.strata[self.taken % len(self.strata)]
        pick = stratum[(self.taken // len(self.strata)) % len(stratum)]
        self.taken += 1
        return int(pick)


# Filter levels above the grouper levels, one pair per aggregate slot; the
# pairing rotates by one slot per block, so each block holds every
# (grouper levels, filter offsets) shape once.
COLD_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
COLD_EPOCH_BLOCKS = 6


def _cold_blocks(schema, rng):
    """Blocks of 36 statements: grouper levels A, B in 1..3, filters 0 or 1
    level above them, aggregates sum/min/max/count.  Each shape draws its
    members from its own ``_Cycle`` per side.

    No filter pair repeats within an epoch while the level pair has unused
    ones.  Both dimensions have only two level-4 members, so in the fifth and
    sixth blocks the one shape filtering both at level 4 reuses a pair."""
    dims = schema.dimensions[:2]
    cycles: dict = {}

    def cycle(shape, side, depth):
        key = (shape, side, depth)
        if key not in cycles:
            cycles[key] = _Cycle(dims[side], depth, rng)
        return cycles[key]

    for b in itertools.count():
        if b % COLD_EPOCH_BLOCKS == 0:
            used: set = set()
        block = []
        for ga in (1, 2, 3):
            for gb in (1, 2, 3):
                for j, agg in enumerate(AGGS):
                    ka, kb = COLD_OFFSETS[(j + b) % len(COLD_OFFSETS)]
                    fa = min(ga + ka, len(dims[0].levels) - 2)
                    fb = min(gb + kb, len(dims[1].levels) - 2)
                    shape = (ga, gb, ka, kb)
                    a, b_ = _cold_pair(dims, used, (ga, fa, cycle(shape, 0, fa)),
                                       (gb, fb, cycle(shape, 1, fb)))
                    block.append(statement(schema, agg, "amount",
                                           [(dims[0], ga), (dims[1], gb)], [a.atom(), b_.atom()]))
        yield [block[i] for i in rng.permutation(len(block))]


def _cold_pair(dims, used, side_a, side_b):
    """The next unused filter pair within the cell cap (the next pair at all
    once the level pair is used up)."""
    (ga, fa, ca), (gb, fb, cb) = side_a, side_b
    first = None
    for _ in range(ca.size):
        a = _Side(dims[0], ga, fa, ca.next())
        for _ in range(cb.size):
            b = _Side(dims[1], gb, fb, cb.next())
            if _cells(a, b) > COLD_CELL_CAP:
                continue
            first = first or (a, b)
            if (fa, a.code, fb, b.code) not in used:
                used.add((fa, a.code, fb, b.code))
                return a, b
    return first


# -- wide-mixed --------------------------------------------------------------

def _wide_entry(schema, rng, degraded: bool) -> str:
    dims = schema.dimensions
    measures = [m.name for m in schema.measures]
    while True:
        ia, ib = sorted(rng.choice(len(dims), 2, replace=False))
        da, db = dims[ia], dims[ib]
        sides = []
        for d in (da, db):
            top = len(d.levels) - 1
            sides.append(_filtered_side(d, rng, int(rng.integers(1, top))))
        if degraded:
            k = int(rng.integers(2))
            d, s = (da, db)[k], sides[k]
            if rng.integers(2):      # level-0 grouper: no drill-down on this side
                f = int(rng.integers(0, len(d.levels) - 1))
                sides[k] = _Side(d, 0, f, int(rng.integers(d.levels[f].member_count)))
            else:                    # no filter: no sibling on this side
                sides[k] = _Side(d, s.g, None, None)
        if _cells(*sides) > WIDE_CELL_CAP:
            continue
        others = [d for i, d in enumerate(dims) if i not in (ia, ib)]
        boxes = []
        for d in rng.permutation(len(others))[:int(rng.integers(1, len(others) + 1))]:
            d = others[d]
            depth = int(rng.integers(0, len(d.levels) - 1))
            boxes.append((d, depth, int(rng.integers(d.levels[depth].member_count))))
        atoms = [s.atom() for s in sides if s.f is not None] + boxes
        return statement(schema, AGGS[int(rng.integers(len(AGGS)))],
                         measures[int(rng.integers(len(measures)))],
                         [(da, sides[0].g), (db, sides[1].g)], atoms)


def zipf_counts(pool: int, total: int, s: float) -> np.ndarray:
    """Sends per pool rank: one each, the rest split by weight 1/rank**s
    (largest remainder), so every block holds exactly ``total`` requests."""
    w = 1.0 / np.arange(1, pool + 1) ** s
    share = (total - pool) * w / w.sum()
    counts = np.floor(share).astype(np.int64)
    rest = total - pool - int(counts.sum())
    counts[np.argsort(counts - share)[:rest]] += 1
    return counts + 1


def _wide_blocks(schema, rng):
    """Each block: a fresh pool of 80 statements, every fifth rank degraded,
    sent by a Zipf schedule of 200 requests in random order."""
    counts = zipf_counts(WIDE_POOL, WIDE_BLOCK, ZIPF_S)
    while True:
        pool = [_wide_entry(schema, rng, degraded=(rank % 5 == 4)) for rank in range(WIDE_POOL)]
        sends = np.repeat(np.arange(WIDE_POOL), counts)
        yield [pool[i] for i in rng.permutation(sends)]


WORKLOADS = {
    "session-hot": Workload("session-hot", SWEEP_SPEC, _sweep_texts, _session_blocks, True),
    "explore-cold": Workload("explore-cold", SWEEP_SPEC, lambda schema: [], _cold_blocks, False,
                             epoch_blocks=COLD_EPOCH_BLOCKS),
    "wide-mixed": Workload("wide-mixed", WIDE_SPEC, lambda schema: [], _wide_blocks, False,
                           epoch_blocks=3),
}
