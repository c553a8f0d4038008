import random

import numpy as np
import pytest

from cubelens.aggregate import _pack, group_reduce
from cubelens.errors import SumOverflow


def dict_oracle(cols, values, op):
    groups = {}
    for i in range(len(cols[0])):
        key = tuple(int(c[i]) for c in cols)
        groups.setdefault(key, []).append(values[i] if values is not None else 1)
    out = {}
    for key, vals in groups.items():
        out[key] = {"sum": sum, "min": min, "max": max, "count": len}[op](vals)
    return out


def as_dict(key_cols, out_values):
    return {tuple(int(c[i]) for c in key_cols): out_values[i]
            for i in range(len(out_values))}


@pytest.mark.parametrize("op", ["sum", "min", "max", "count"])
@pytest.mark.parametrize("sizes", [
    (4, 3),                    # dense path
    (1 << 20, 1 << 20),        # packable, sort path (space too big for dense)
    (1 << 40, 1 << 40, 16),    # unpackable, lexsort path
])
def test_group_reduce_matches_dict_oracle(op, sizes):
    rng = random.Random(hash((op, sizes)) & 0xFFFF)
    n = 500
    cols = [np.asarray([rng.randrange(min(s, 7)) for _ in range(n)], dtype=np.int64)
            for s in sizes]
    values = np.asarray([rng.randint(-100, 100) for _ in range(n)], dtype=np.int64)
    key_cols, out = group_reduce(cols, list(sizes), values, op)
    assert as_dict(key_cols, out) == dict_oracle(cols, values, op)


def test_group_reduce_empty_input():
    cols = [np.empty(0, np.int64), np.empty(0, np.int64)]
    key_cols, out = group_reduce(cols, [4, 4], np.empty(0, np.int64), "sum")
    assert len(out) == 0 and all(len(c) == 0 for c in key_cols)


def test_group_reduce_huge_integers_exact():
    # sums beyond float64's 2**53 integer range must stay exact
    big = 1 << 60
    cols = [np.zeros(4, np.int64), np.asarray([0, 0, 1, 1], np.int64)]
    values = np.asarray([big, 3, big, 5], dtype=np.int64)
    key_cols, out = group_reduce(cols, [1, 2], values, "sum")
    got = as_dict(key_cols, out)
    assert got == {(0, 0): big + 3, (0, 1): big + 5}
    assert out.dtype == np.int64


def test_group_reduce_float_sums():
    cols = [np.asarray([0, 0, 1], np.int64)]
    values = np.asarray([0.5, 0.25, 2.0])
    key_cols, out = group_reduce(cols, [2], values, "sum")
    assert as_dict(key_cols, out) == {(0,): 0.75, (1,): 2.0}


@pytest.mark.parametrize("op,expected", [("min", -7), ("max", 9)])
def test_group_reduce_min_max_signs(op, expected):
    cols = [np.zeros(4, np.int64)]
    values = np.asarray([3, -7, 9, 0], dtype=np.int64)
    _, out = group_reduce(cols, [1], values, op)
    assert out.tolist() == [expected]


def test_group_reduce_dense_and_sort_paths_agree():
    rng = random.Random(99)
    n = 2000
    cols = [np.asarray([rng.randrange(8) for _ in range(n)], dtype=np.int64),
            np.asarray([rng.randrange(8) for _ in range(n)], dtype=np.int64)]
    values = np.asarray([rng.randint(-50, 50) for _ in range(n)], dtype=np.int64)
    for op in ("sum", "min", "max", "count"):
        dense_cols, dense_out = group_reduce(cols, [8, 8], values, op)
        # inflate the declared sizes so the packed space exceeds the dense gate
        sort_cols, sort_out = group_reduce(cols, [1 << 22, 1 << 22], values, op)
        assert as_dict(dense_cols, dense_out) == as_dict(sort_cols, sort_out)

    # min/max above 500K rows, integer and float measures
    gen = np.random.default_rng(99)
    n = 600_000
    cols = [gen.integers(0, 300, n), gen.integers(0, 200, n)]
    for values in (gen.integers(-10**6, 10**6, n), gen.normal(size=n)):
        for op in ("min", "max"):
            dense_cols, dense_out = group_reduce(cols, [300, 200], values, op)
            sort_cols, sort_out = group_reduce(cols, [1 << 22, 1 << 22], values, op)
            dense_order = np.lexsort(dense_cols[::-1])
            sort_order = np.lexsort(sort_cols[::-1])
            for d, s in zip(dense_cols, sort_cols):
                assert np.array_equal(d[dense_order], s[sort_order])
            assert np.array_equal(dense_out[dense_order], sort_out[sort_order])


INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)
PATH_SIZES = [(1, 1), (1 << 22, 1 << 22), (1 << 40, 1 << 40)]  # dense, sort, lexsort
OVERFLOWING = [[INT64_MAX, INT64_MAX], [INT64_MIN, -1], [1 << 62, 1 << 62, 1, -1]]
AT_EDGES = [
    ([INT64_MAX, INT64_MAX, INT64_MIN, INT64_MIN + 2], 0),
    ([INT64_MIN, 5], INT64_MIN + 5),
    ([1 << 62, (1 << 62) - 1], INT64_MAX),
    ([INT64_MIN], INT64_MIN),
]


@pytest.mark.parametrize("sizes", PATH_SIZES)
@pytest.mark.parametrize("rows", OVERFLOWING)
def test_group_reduce_sum_overflow_raises(sizes, rows):
    # the true sum leaves int64; it used to wrap (two rows of 2**63-1 gave -2)
    cols = [np.zeros(len(rows), np.int64), np.zeros(len(rows), np.int64)]
    with pytest.raises(SumOverflow):
        group_reduce(cols, list(sizes), np.asarray(rows, dtype=np.int64), "sum")


@pytest.mark.parametrize("sizes", PATH_SIZES)
@pytest.mark.parametrize("rows,expected", AT_EDGES)
def test_group_reduce_sum_at_int64_edges_exact(sizes, rows, expected):
    cols = [np.zeros(len(rows), np.int64), np.zeros(len(rows), np.int64)]
    _, out = group_reduce(cols, list(sizes), np.asarray(rows, dtype=np.int64), "sum")
    assert out.tolist() == [expected]


@pytest.mark.parametrize("sizes", PATH_SIZES)
def test_group_reduce_sum_with_stated_peak(sizes):
    # a caller's peak |value| replaces the pass that finds it, on every path
    for rows, expected in AT_EDGES + [(rows, None) for rows in OVERFLOWING]:
        cols = [np.zeros(len(rows), np.int64), np.zeros(len(rows), np.int64)]
        values = np.asarray(rows, dtype=np.int64)
        peak = max(abs(r) for r in rows)
        if expected is None:
            with pytest.raises(SumOverflow):
                group_reduce(cols, list(sizes), values, "sum", peak=peak)
        else:
            assert group_reduce(cols, list(sizes), values, "sum", peak=peak)[1].tolist() == [expected]


def test_single_packed_key_column_is_read_not_copied():
    key = np.arange(12, dtype=np.int64)
    assert _pack([key], [12])[0] is key
    (uniq,), out = group_reduce([key], [12], None, "count")
    assert uniq.tolist() == key.tolist() and out.tolist() == [1] * 12


def test_group_reduce_overflow_is_per_group():
    # one group overflows, the other stays in range: the call still raises
    cols = [np.asarray([0, 0, 1, 1], np.int64)]
    values = np.asarray([INT64_MAX, 1, 7, 8], dtype=np.int64)
    with pytest.raises(SumOverflow):
        group_reduce(cols, [2], values, "sum")
    _, out = group_reduce(cols, [2], np.asarray([INT64_MAX, 0, 7, 8], np.int64), "sum")
    assert out.tolist() == [INT64_MAX, 15]


def test_group_reduce_rejects_unknown_op():
    with pytest.raises(ValueError):
        group_reduce([np.zeros(1, np.int64)], [1], np.zeros(1, np.int64), "avg")
