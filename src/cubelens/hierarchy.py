"""Hierarchical dimension model: levels, member dictionaries, ancestor maps.

A dimension is a totally ordered chain of levels running from the most
detailed level (depth 0) up to the single-member ALL level.  Members are
dictionary-encoded per level as dense integer codes, so ancestor lookup is an
array index.  No descendant set is ever listed: a code lies under a member
exactly when its ancestor at the member's level is that member, so every
membership test (a filter atom on fact rows, on result cells, or on a whole
level) is one ancestor gather and a compare (Dimension.rolls_into).  Labels
appear only at the I/O boundary; everything engine-internal speaks codes.
Every label-coded CSV the program writes goes through write_columns, a
column at a time, with each level's labels quoted once.

Every Dimension is built by dimension_from_tables, which checks its member
tables and raises ParseError on the first fault, so a dimension either is
built valid (anc a total function from each level to every coarser one) or
not at all, and nothing checks it again.  Dimensions are immutable after
construction.  The ancestor-map cache fills idempotently (same key always
maps to the same value), which makes concurrent readers safe without locking.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LevelOrderViolation,
    NoParentLevel,
    ParseError,
    UnknownLevel,
    UnknownMember,
)

ALL_LEVEL_NAME = "ALL"
ALL_MEMBER_LABEL = "All"
WRITE_CHUNK_ROWS = 65_536  # rows formatted and written at once


@dataclass(frozen=True)
class Level:
    """One stratum of a dimension. depth 0 is the most detailed, max is ALL."""

    dimension_name: str
    name: str
    depth: int
    member_count: int

    @property
    def is_all(self) -> bool:
        return self.name == ALL_LEVEL_NAME

    def __repr__(self):
        return f"{self.dimension_name}.{self.name}"


class MemberDictionary:
    """Bijective label<->code mapping for one level: a label given twice
    raises ParseError naming the dimension and the level."""

    def __init__(self, level: Level, labels: Sequence[str]):
        self.level = level
        self.labels = tuple(labels)
        self._code_by_label = {label: code for code, label in enumerate(self.labels)}
        if len(self._code_by_label) != len(self.labels):
            repeated = next(label for code, label in enumerate(self.labels)
                            if self._code_by_label[label] != code)
            raise ParseError(f"dimension {level.dimension_name} level {level.name}: "
                             f"label {repeated!r} appears twice")

    def __len__(self) -> int:
        return len(self.labels)

    def code_for(self, label: str) -> int:
        try:
            return self._code_by_label[label]
        except KeyError:
            raise UnknownMember(
                f"no member {label!r} at {self.level!r}"
            ) from None

    def label_for(self, code: int) -> str:
        if not 0 <= code < len(self.labels):
            raise UnknownMember(f"code {code} out of range at {self.level!r}")
        return self.labels[code]

    @cached_property
    def quoted_labels(self) -> np.ndarray:
        """The labels as CSV fields, gathered by code when writing."""
        return quote_labels(self.labels)

    @cached_property
    def label_ranks(self) -> np.ndarray:
        """Each code's position in the sorted order of the labels, so that
        sorting codes by rank sorts them by label."""
        ranks = np.empty(len(self.labels), dtype=np.int64)
        ranks[sorted(range(len(self.labels)), key=self.labels.__getitem__)] = np.arange(len(ranks))
        return ranks


class Dimension:
    """A named chain of levels with dictionaries and the parent maps:
    ``parent_of[d]`` maps each code at depth d to its parent's code."""

    def __init__(
        self,
        name: str,
        levels: Sequence[Level],
        dictionaries: Sequence[MemberDictionary],
        parent_of: Sequence[np.ndarray],
    ):
        self.name = name
        self.levels = tuple(levels)
        self.dictionaries = tuple(dictionaries)
        self.parent_of = tuple(np.asarray(p, dtype=np.int64) for p in parent_of)
        self._level_by_name = {lv.name.lower(): lv for lv in self.levels}
        self._anc_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- lookup ---------------------------------------------------------

    @property
    def detailed_level(self) -> Level:
        return self.levels[0]

    @property
    def all_level(self) -> Level:
        return self.levels[-1]

    def level(self, ref) -> Level:
        """Resolve a Level object or a (case-insensitive) level name."""
        if isinstance(ref, Level):
            if ref.dimension_name != self.name:
                raise UnknownLevel(f"{ref!r} does not belong to dimension {self.name}")
            return ref
        lv = self._level_by_name.get(str(ref).lower())
        if lv is None:
            raise UnknownLevel(f"dimension {self.name} has no level named {ref!r}")
        return lv

    def parent_level(self, ref) -> Level:
        lv = self.level(ref)
        if lv.depth + 1 >= len(self.levels):
            raise NoParentLevel(f"{lv!r} is the ALL level and has no parent")
        return self.levels[lv.depth + 1]

    def child_level(self, ref) -> Level:
        lv = self.level(ref)
        if lv.depth == 0:
            raise LevelOrderViolation(f"{lv!r} is already the most detailed level")
        return self.levels[lv.depth - 1]

    def dictionary(self, ref) -> MemberDictionary:
        return self.dictionaries[self.level(ref).depth]

    def member_code(self, ref, label: str) -> int:
        return self.dictionary(ref).code_for(label)

    def member_label(self, ref, code: int) -> str:
        return self.dictionary(ref).label_for(code)

    # -- navigation -----------------------------------------------------

    def anc_array(self, from_depth: int, to_depth: int) -> np.ndarray:
        """Composed parent map: code at from_depth -> ancestor code at to_depth."""
        if from_depth > to_depth:
            raise LevelOrderViolation(
                f"cannot map depth {from_depth} down to {to_depth} in {self.name}"
            )
        key = (from_depth, to_depth)
        cached = self._anc_cache.get(key)
        if cached is None:
            arr = np.arange(len(self.dictionaries[from_depth]), dtype=np.int64)
            for d in range(from_depth, to_depth):
                arr = self.parent_of[d][arr]
            cached = self._anc_cache.setdefault(key, arr)
        return cached

    def rolls_into(self, level: Level, values: Sequence[int], depth: int,
                   codes: np.ndarray) -> np.ndarray:
        """Whether each code at ``depth`` (at or below ``level``) rolls up
        into one of ``values`` at ``level``: a compare for one value (a plain
        int keeps the codes' dtype), else a lookup in a table over the level."""
        up = codes if depth == level.depth else self.anc_array(depth, level.depth)[codes]
        if len(values) == 1:
            return up == values[0]
        table = np.zeros(level.member_count, dtype=bool)
        table[list(values)] = True
        return table[up]

    def _check_code(self, level: Level, code: int) -> int:
        code = int(code)
        if not 0 <= code < level.member_count:
            raise UnknownMember(f"code {code} out of range at {level!r}")
        return code


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def anc(dim: Dimension, from_level, to_level, member: int) -> int:
    """Unique ancestor of ``member`` when climbing from ``from_level`` to
    ``to_level``.  Identity when both levels coincide."""
    lo = dim.level(from_level)
    hi = dim.level(to_level)
    if lo.depth > hi.depth:
        raise LevelOrderViolation(
            f"anc goes from detailed to coarse, got {lo!r} -> {hi!r}"
        )
    code = dim._check_code(lo, member)
    return int(dim.anc_array(lo.depth, hi.depth)[code])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def dimension_from_tables(
    name: str,
    level_names: Sequence[str],
    labels_per_level: Sequence[Sequence[str]],
    parents: Sequence[Iterable[int]],
) -> Dimension:
    """Build a dimension from explicit member tables (ALL is synthesized).

    ``level_names``/``labels_per_level`` cover the non-ALL levels from most
    detailed to coarsest; ``parents[d]`` maps level-d codes to level-d+1
    codes.  The tables are checked here, the only place a Dimension is
    built: one label list per level and one parent map per level but the
    coarsest, at least one level, no label twice within a level, and one
    integer parent code per member, each a code of the parent level.  The
    first fault raises ParseError naming the dimension and the level.  The
    rest holds by construction: contiguous depths, ALL on top with one
    member, and every member rolling up to that one root.
    """
    if not level_names:
        raise ParseError(f"dimension {name} declares no levels below {ALL_LEVEL_NAME}")
    if len(labels_per_level) != len(level_names) or len(parents) != len(level_names) - 1:
        raise ParseError(
            f"dimension {name}: levels {', '.join(level_names)} need {len(level_names)} label "
            f"lists and {len(level_names) - 1} parent maps, got {len(labels_per_level)} "
            f"and {len(parents)}"
        )
    levels = [
        Level(name, lvl_name, depth, len(labels))
        for depth, (lvl_name, labels) in enumerate(zip(level_names, labels_per_level))
    ]
    levels.append(Level(name, ALL_LEVEL_NAME, len(levels), 1))
    dictionaries = [
        MemberDictionary(lv, labels) for lv, labels in zip(levels, labels_per_level)
    ]
    dictionaries.append(MemberDictionary(levels[-1], [ALL_MEMBER_LABEL]))
    parent_arrays = []
    for child, parent, codes in zip(levels, levels[1:], parents):
        codes = np.asarray(list(codes))
        where = f"dimension {name} level {child.name}"
        if codes.size and codes.dtype.kind not in "iu":  # int64 would truncate 0.5 to 0
            raise ParseError(f"{where}: parent codes must be integers, got {codes.dtype}")
        codes = codes.astype(np.int64)
        if len(codes) != child.member_count:
            raise ParseError(f"{where}: {child.member_count} members but "
                             f"{len(codes)} parent codes")
        bad = codes[(codes < 0) | (codes >= parent.member_count)]
        if bad.size:
            raise ParseError(f"{where}: parent code {bad[0]} is not one of the "
                             f"{parent.member_count} members of {parent.name}")
        parent_arrays.append(codes)
    parent_arrays.append(np.zeros(levels[-2].member_count, dtype=np.int64))
    return Dimension(name, levels, dictionaries, parent_arrays)


def dimension_from_member_rows(
    name: str,
    level_names: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> Dimension:
    """Build a dimension from ancestor-path rows, one per detailed member.

    Each row lists one label per non-ALL level, detailed first, and may end
    with an explicit ``All``.  Codes are assigned in order of first
    appearance, and each code takes its parent from the row it first
    appears in.  Conflicting ancestor paths for the same member are
    rejected.
    """
    names = [n for n in level_names if n != ALL_LEVEL_NAME]
    n_levels = len(names)
    codes: list[dict[str, int]] = [{} for _ in range(n_levels)]
    labels: list[list[str]] = [[] for _ in range(n_levels)]
    parents: list[list[int]] = [[] for _ in range(n_levels - 1)]

    def intern(depth: int, label: str) -> int:
        code = codes[depth].get(label)
        if code is None:
            code = len(labels[depth])
            codes[depth][label] = code
            labels[depth].append(label)
        return code

    for lineno, row in enumerate(rows, start=1):
        row = [v.strip() for v in row]
        if len(row) == n_levels + 1 and row[-1] == ALL_MEMBER_LABEL:
            row = row[:-1]  # tolerate an explicit ALL column
        if len(row) != n_levels:
            raise ParseError(
                f"dimension {name} row {lineno}: expected {n_levels} columns, got {len(row)}"
            )
        path = [intern(d, label) for d, label in enumerate(row)]
        for d in range(n_levels - 1):
            if path[d] == len(parents[d]):  # interned in this row
                parents[d].append(path[d + 1])
            elif parents[d][path[d]] != path[d + 1]:
                raise ParseError(
                    f"dimension {name} row {lineno}: conflicting ancestor path for "
                    f"{labels[d][path[d]]!r} at level {names[d]}"
                )
    return dimension_from_tables(name, names, labels, parents)


def read_members_csv(
    name: str,
    level_names: Sequence[str],
    path,
    delimiter: str = ",",
) -> Dimension:
    """Load a dimension from its member CSV (header row = level names)."""
    expected = [n for n in level_names if n != ALL_LEVEL_NAME]
    with decoding(path), open(path, newline="", encoding="utf-8-sig") as fh:  # BOM dropped
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty member file for dimension {name}")
            header = [h.strip() for h in header]
            if len(header) == len(expected) + 1 and header[-1].lower() == ALL_LEVEL_NAME.lower():
                header = header[:-1]
            if [h.lower() for h in header] != [n.lower() for n in expected]:
                raise ParseError(f"{path}: header {header} does not match levels {expected} "
                                 f"of dimension {name}")
            return dimension_from_member_rows(name, expected, reader)
        except csv.Error as exc:  # a field over csv's size limit
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


@contextmanager
def decoding(path):
    """Reads of ``path`` inside this block that meet bytes which are not
    UTF-8 raise ParseError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_json(path):
    """The JSON value in the file ``path``, a leading byte order mark
    dropped; ParseError naming the file unless it is UTF-8 JSON."""
    try:
        with decoding(path):
            return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _csv_echo():
    """A csv.writer whose writerow returns the row's line.  Its terminator
    is CRLF so that a field holding a CR is quoted as well as one holding an
    LF (csv quotes only the terminator's characters), or csv.reader would
    split it; each caller ends its line with a bare LF."""
    return csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")


def quote_labels(labels) -> np.ndarray:
    """Each label as a field of a CSV row, as an object array to gather by
    code.  The field does not depend on its row, except that an empty label
    alone in a row would be quoted."""
    echo = _csv_echo()
    return np.asarray([echo.writerow((label, ""))[:-3] for label in labels], dtype=object)


def coded_column(quoted: np.ndarray, codes: np.ndarray):
    """Labels given by code: a chunk of rows is a gather of the quoted labels."""
    return lambda start, stop: quoted[codes[start:stop]].tolist()


def formatted_column(fmt, values: np.ndarray):
    """Numbers, each chunk formatted by one map."""
    return lambda start, stop: list(map(fmt, values[start:stop].tolist()))


def write_columns(fh, header: Sequence[str], rows: int, columns) -> None:
    """Write a header and ``rows`` rows to the text stream ``fh``,
    WRITE_CHUNK_ROWS at a time: each column gives a chunk's fields as text,
    and a row is their ",".join, as csv.writer would write it."""
    fh.write(_csv_echo().writerow(header)[:-2] + "\n")
    for start in range(0, rows, WRITE_CHUNK_ROWS):
        fields = [column(start, start + WRITE_CHUNK_ROWS) for column in columns]
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
