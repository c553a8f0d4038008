"""Vectorized group-by/fold kernel shared by query execution and the MQO
post-processing stage.

Keys are one int64 column per grouper.  When the cross product of the key
domains fits in 2**62 the columns are packed row-major into a single key
(``key_layout`` gives the strides, ``unpack`` splits a key again); a caller
that packs its own key passes it as the only column with the whole key space
as its size, and that column is read, never copied.  Small key spaces use
dense accumulation buffers instead of sorting, for every aggregate and at any
row count (``ufunc.at`` folds min/max in a few milliseconds where an argsort
of the same rows takes hundreds); larger packed spaces sort, and key spaces
past 2**62 lexsort the columns.  ``fold_path`` names the path a fold takes,
for the kernel and for the selector's cost model.  ``fold_chunks`` merges
the results of group_reduce over consecutive chunks of one row set, which
lets a scan fold each chunk while its arrays are still in cache.

Integer aggregates are computed exactly (int64 accumulation, or float64 sums
whose magnitudes stay below 2**52, which are exact for integers).  An integer
sum whose true value leaves the int64 range raises SumOverflow instead of
wrapping.  Whether the float sum is exact is decided from ``peak``, a bound on
|value| the caller already knows (a measure's peak is recorded when the cube
is built), times the row count; only a caller without one pays a pass over
the values to find it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import SumOverflow

AGG_FUNCTIONS = ("sum", "min", "max", "count")

_PACK_LIMIT = 1 << 62
_DENSE_SPACE_LIMIT = 1 << 22
# Unused here: min/max fold densely at every row count.  perfbench's
# tracing.group_reduce_path still reads it, so it stays above any length.
_DENSE_AT_ROW_LIMIT = 1 << 63
EXACT_FLOAT_SUM = float(1 << 52)


def key_layout(sizes: Sequence[int]):
    """Row-major strides packing one code per key domain into an int64 key,
    and the key space; None when the space passes 2**62."""
    strides = []
    space = 1
    for s in reversed(sizes):
        strides.append(space)
        space *= max(int(s), 1)
        if space > _PACK_LIMIT:
            return None
    strides.reverse()
    return strides, space


def _pack(cols: Sequence[np.ndarray], sizes: Sequence[int]):
    """Pack key columns into one int64 key, or None when it would overflow.
    A single column is the key itself and is not copied."""
    space = math.prod(map(int, sizes))  # key_layout's space; with rows to fold, no size is 0
    if space > _PACK_LIMIT:
        return None, None
    keys = np.asarray(cols[0], dtype=np.int64)
    for col, size in zip(cols[1:], sizes[1:]):
        keys = keys * int(size)  # a fresh array: the first column stays as it is
        keys += col
    return keys, space


def unpack(keys: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Split packed keys back into one code column per key domain.  The keys
    are non-negative, so each digit is the key less its floor quotient times
    the domain size: numpy's int64 divmod takes several times longer."""
    out = [keys] * len(sizes)
    for i in range(len(sizes) - 1, 0, -1):
        size = max(int(sizes[i]), 1)
        high = out[0] // size
        out[i] = out[0] - high * size
        out[0] = high
    return out


def abs_peak(values: np.ndarray) -> int | float:
    """The largest |value| (0 for no values), as a Python number so that
    -2**63 does not wrap."""
    if not len(values):
        return 0
    return max(abs(values.max().item()), abs(values.min().item()))


def _check_int64_sums(values: np.ndarray, fold) -> None:
    """Raise SumOverflow when a group's true sum leaves the int64 range.

    ``fold`` sums an int64 column per group, as the caller's sum does.  Each
    value splits exactly into hi * 2**32 + lo with 0 <= lo < 2**32; neither
    half's group sum can wrap below 2**31 rows, and once the carry of the low
    half is added, the true sum fits iff the high half lies in [-2**31, 2**31).
    """
    hi = fold(values >> 32)
    hi += fold(values & 0xFFFFFFFF) >> 32
    if len(hi) and (hi.min() < -(1 << 31) or hi.max() >= (1 << 31)):
        raise SumOverflow("an integer sum leaves the int64 range")


def _sum_exact(keys, values, minlength, bound, uniq):
    """The sums of the keys ``uniq``, exact for int64 inputs; ``bound`` on
    the sum of |values| decides whether float64 sums are exact."""
    if values.dtype.kind == "f":
        return np.bincount(keys, weights=values, minlength=minlength)[uniq]
    if bound < EXACT_FLOAT_SUM:  # float64 sums of integers stay exact
        sums = np.bincount(keys, weights=values, minlength=minlength)  # weighs in float64
        return sums[uniq].astype(np.int64)

    def add_at(col):
        acc = np.zeros(minlength, dtype=np.int64)
        np.add.at(acc, keys, col)
        return acc

    _check_int64_sums(values, add_at)
    return add_at(values)[uniq]


def fold_path(n: int, space: int | None) -> str:
    """The path group_reduce folds ``n`` > 0 rows on, whatever the aggregate:
    'dense' or 'sort' for a packed key space of ``space`` keys, 'lexsort'
    when the space passes 2**62 (None)."""
    if space is None:
        return "lexsort"
    if space <= _DENSE_SPACE_LIMIT and space <= max(4 * n, 1 << 16):  # amortized buffer passes
        return "dense"
    return "sort"


def group_reduce(
    cols: Sequence[np.ndarray],
    sizes: Sequence[int],
    values: np.ndarray | None,
    op: str,
    *,
    peak: int | float | None = None,
):
    """Group rows by the key columns and fold ``values`` with ``op``.

    Returns (unique key columns, folded values); groups appear only for keys
    present in the input.  ``values`` is ignored for op == 'count'.  ``peak``
    bounds |value| over ``values``; when None, an integer sum finds it with a
    pass over the values.
    """
    if op not in AGG_FUNCTIONS:
        raise ValueError(f"unsupported aggregate {op!r}")
    n = len(cols[0]) if cols else 0
    if n == 0:
        empty_vals = np.empty(0, dtype=np.int64 if op == "count" else
                              (values.dtype if values is not None else np.int64))
        return [np.empty(0, dtype=np.int64) for _ in cols], empty_vals

    bound = None  # bounds the sum of |value|, and so every partial sum
    if op == "sum" and values.dtype.kind != "f":
        bound = (abs_peak(values) if peak is None else peak) * n
    keys, space = _pack(cols, sizes)
    path = fold_path(n, space)
    if path == "dense":
        return _dense_reduce(keys, space, sizes, values, op, bound)
    if path == "sort":
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        bounds = np.flatnonzero(new_group)
        uniq_cols = unpack(sorted_keys[bounds], sizes)
    else:
        order = np.lexsort(tuple(reversed([np.asarray(c) for c in cols])))
        new_group = np.zeros(n, dtype=bool)
        new_group[0] = True
        for col in cols:
            sc = col[order]
            new_group[1:] |= sc[1:] != sc[:-1]
        bounds = np.flatnonzero(new_group)
        uniq_cols = [col[order][bounds] for col in cols]
    vals = _reduce_sorted(values, order, bounds, n, op, bound)
    return uniq_cols, vals


def fold_chunks(parts, space: int, op: str, bound):
    """Merge the results of ``group_reduce`` over consecutive chunks of one
    row set, each keyed by a single packed column in a space of ``space``
    keys (small: every chunk's cells are folded densely again).  Partial
    counts add up; ``bound`` bounds the sum of |value| over the whole row
    set."""
    keys = np.concatenate([cols[0] for cols, _ in parts])
    values = np.concatenate([vals for _, vals in parts])
    return _dense_reduce(keys, space, [space], values, "sum" if op == "count" else op, bound)


def _reduce_sorted(values, order, bounds, n, op, bound):
    if op == "count":
        return np.diff(np.append(bounds, n)).astype(np.int64)
    sorted_vals = values[order]
    if op == "sum":
        if sorted_vals.dtype.kind != "f" and bound >= EXACT_FLOAT_SUM:
            _check_int64_sums(sorted_vals, lambda col: np.add.reduceat(col, bounds))
        return np.add.reduceat(sorted_vals, bounds)
    if op == "min":
        return np.minimum.reduceat(sorted_vals, bounds)
    return np.maximum.reduceat(sorted_vals, bounds)


def _dense_reduce(keys, space, sizes, values, op, bound):
    if op == "count":
        acc = np.bincount(keys, minlength=space)
        uniq = acc.nonzero()[0]
        return unpack(uniq, sizes), acc[uniq].astype(np.int64, copy=False)
    touched = np.zeros(space, dtype=bool)
    touched[keys] = True
    uniq = touched.nonzero()[0]
    if op == "sum":
        return unpack(uniq, sizes), _sum_exact(keys, values, space, bound, uniq)
    if values.dtype.kind == "f":
        sentinel = np.inf if op == "min" else -np.inf
        acc = np.full(space, sentinel, dtype=values.dtype)
    else:
        info = np.iinfo(values.dtype)
        acc = np.full(space, info.max if op == "min" else info.min, dtype=values.dtype)
    (np.minimum if op == "min" else np.maximum).at(acc, keys, values)
    return unpack(uniq, sizes), acc[uniq]
