"""Hierarchical dimension model: levels, member dictionaries, ancestor maps.

A dimension is a totally ordered chain of levels running from the most
detailed level (depth 0) up to the single-member ALL level.  Members are
dictionary-encoded per level as dense integer codes, so ancestor lookup is an
array index and descendant expansion is a cached, pre-grouped code list.
Labels appear only at the I/O boundary; everything engine-internal speaks
codes.  Every label-coded CSV the program writes goes through write_columns,
a column at a time, with each level's labels quoted once.

Dimensions are immutable after construction.  The ancestor/descendant caches
fill idempotently (same key always maps to the same value), which makes
concurrent readers safe without locking.
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
    """Bijective label<->code mapping for one level."""

    def __init__(self, level: Level, labels: Sequence[str]):
        self.level = level
        self.labels = tuple(labels)
        self._code_by_label = {label: code for code, label in enumerate(self.labels)}

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


class HierarchyMap:
    """Per adjacent level pair, the child-code -> parent-code array."""

    def __init__(self, dimension_name: str, parent_of: Sequence[np.ndarray]):
        self.dimension_name = dimension_name
        self.parent_of = tuple(np.asarray(p, dtype=np.int64) for p in parent_of)


class Dimension:
    """A named chain of levels with dictionaries and the parent maps."""

    def __init__(
        self,
        name: str,
        levels: Sequence[Level],
        dictionaries: Sequence[MemberDictionary],
        hierarchy: HierarchyMap,
    ):
        self.name = name
        self.levels = tuple(levels)
        self.dictionaries = tuple(dictionaries)
        self.hierarchy = hierarchy
        self._level_by_name = {lv.name.lower(): lv for lv in self.levels}
        self._anc_cache: dict[tuple[int, int], np.ndarray] = {}
        self._desc_cache: dict[tuple[int, int], list[np.ndarray]] = {}

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
                arr = self.hierarchy.parent_of[d][arr]
            cached = self._anc_cache.setdefault(key, arr)
        return cached

    def desc_lists(self, from_depth: int, to_depth: int) -> list[np.ndarray]:
        """For each member at from_depth, the sorted codes of its descendants
        at to_depth.  Lazily materialized and cached."""
        if to_depth > from_depth:
            raise LevelOrderViolation(
                f"cannot expand depth {from_depth} up to {to_depth} in {self.name}"
            )
        key = (from_depth, to_depth)
        cached = self._desc_cache.get(key)
        if cached is None:
            up = self.anc_array(to_depth, from_depth)
            n_high = len(self.dictionaries[from_depth])
            order = np.argsort(up, kind="stable")  # stable keeps codes sorted
            counts = np.bincount(up, minlength=n_high)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            cached = self._desc_cache.setdefault(
                key,
                [order[bounds[m]:bounds[m + 1]] for m in range(n_high)],
            )
        return cached

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


def validate_hierarchy(dim: Dimension) -> list[str]:
    """Check the structural invariants; returns violations (empty = valid)."""
    violations: list[str] = []
    for i, lv in enumerate(dim.levels):
        if lv.depth != i:
            violations.append(f"level depths not contiguous at {lv!r}")
    top = dim.levels[-1]
    if top.name != ALL_LEVEL_NAME:
        violations.append(f"topmost level is {top.name!r}, expected {ALL_LEVEL_NAME}")
    if top.member_count != 1:
        violations.append("ALL level must have exactly one member")

    for lv, dictionary in zip(dim.levels, dim.dictionaries):
        if len(dictionary) != lv.member_count:
            violations.append(f"dictionary size mismatch at {lv!r}")
        if len(set(dictionary.labels)) != len(dictionary.labels):
            violations.append(f"dictionary not bijective at {lv!r}")

    if len(dim.hierarchy.parent_of) != len(dim.levels) - 1:
        violations.append("non-total ancestor map: wrong number of parent arrays")
    else:
        for d, parents in enumerate(dim.hierarchy.parent_of):
            child, parent = dim.levels[d], dim.levels[d + 1]
            if len(parents) != child.member_count:
                violations.append(f"non-total ancestor map between {child!r} and {parent!r}")
                continue
            if len(parents) and (parents.min() < 0 or parents.max() >= parent.member_count):
                violations.append(f"parent code out of range between {child!r} and {parent!r}")

    if not violations and dim.detailed_level.member_count:
        roots = np.unique(dim.anc_array(0, len(dim.levels) - 1))
        if roots.size != 1 or roots[0] != 0:
            violations.append("hierarchy does not map every member to the single ALL root")
    return violations


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
    codes.  The structure is built permissively: run validate_hierarchy to
    check invariants.
    """
    levels = [
        Level(name, lvl_name, depth, len(labels))
        for depth, (lvl_name, labels) in enumerate(zip(level_names, labels_per_level))
    ]
    levels.append(Level(name, ALL_LEVEL_NAME, len(levels), 1))
    dictionaries = [
        MemberDictionary(lv, labels) for lv, labels in zip(levels, labels_per_level)
    ]
    dictionaries.append(MemberDictionary(levels[-1], [ALL_MEMBER_LABEL]))
    parent_arrays = [np.asarray(list(p), dtype=np.int64) for p in parents]
    top_count = len(labels_per_level[-1]) if labels_per_level else 0
    parent_arrays.append(np.zeros(top_count, dtype=np.int64))
    return Dimension(name, levels, dictionaries, HierarchyMap(name, parent_arrays))


def dimension_from_member_rows(
    name: str,
    level_names: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> Dimension:
    """Build a dimension from ancestor-path rows, one per detailed member.

    Each row lists one label per non-ALL level, detailed first.  Codes are
    assigned in order of first appearance.  Conflicting ancestor paths for
    the same member are rejected.
    """
    names = [n for n in level_names if n != ALL_LEVEL_NAME]
    n_levels = len(names)
    if n_levels == 0:
        raise ParseError(f"dimension {name} declares no levels below {ALL_LEVEL_NAME}")

    codes: list[dict[str, int]] = [{} for _ in range(n_levels)]
    labels: list[list[str]] = [[] for _ in range(n_levels)]
    parent_links: list[dict[int, int]] = [{} for _ in range(n_levels - 1)]

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
            known = parent_links[d].get(path[d])
            if known is None:
                parent_links[d][path[d]] = path[d + 1]
            elif known != path[d + 1]:
                raise ParseError(
                    f"dimension {name} row {lineno}: conflicting ancestor path for "
                    f"{labels[d][path[d]]!r} at level {names[d]}"
                )

    parents = []
    for d in range(n_levels - 1):
        arr = np.full(len(labels[d]), -1, dtype=np.int64)
        for child, parent in parent_links[d].items():
            arr[child] = parent
        if (arr < 0).any():
            missing = labels[d][int(np.flatnonzero(arr < 0)[0])]
            raise ParseError(
                f"dimension {name}: member {missing!r} at level {names[d]} has no parent"
            )
        parents.append(arr)
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
