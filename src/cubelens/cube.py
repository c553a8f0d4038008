"""Columnar detailed-cube store and star-schema CSV ingestion.

The detailed cube keeps one dictionary-encoded coordinate column per
dimension (at that dimension's most detailed level) plus one numeric column
per measure.  Measures whose inputs all parse as int64 integers are stored
as int64 so aggregate comparisons can be exact; anything else is float64.
An integer-declared value outside int64, and NaN or infinity in any decimal
measure, is a ParseError naming file and line.

The fact CSV is read in chunks of whole lines.  A plain chunk (no quotes, no
CRs, the header's field count on every line) is decoded a column at a time;
any other chunk is read record by record with csv.reader, and that row loop
is the only place load errors are worded, each with the physical line its
record starts on.  A leading UTF-8 byte order mark is ignored in every file;
bytes that are not UTF-8, and a field over csv's size limit, are ParseErrors.

Row selection (condition_rows) takes one of two paths, chosen by
index_slice from the size of the condition's smallest atom alone.  The cube
keeps a row index (RowIndex): per dimension, the row ids sorted by the
hierarchy path of each fact's detailed member, coarsest level first, so
that every member at every level owns one contiguous slice.  A condition
whose smallest atom's slice holds at most INDEX_SHARE of the rows reads that
slice (the union of its values' slices), keeps the rows whose members the
other atoms hold, tested at those rows only, and sorts them: work in
proportion to the region, not to the cube.  Every other condition takes
the bitset path: one boolean array over 0..row_count-1 per atom, ANDed.
Both paths test an atom the same way, on level_codes: per dimension and
per level below ALL, each fact's member code at that level (a projection
index, after O'Neil & Quass, SIGMOD 1997).  The detailed level's column is
the coordinate column; each coarser one is as narrow as its member count
allows, gathered once when the cube is built.  An atom test is
Dimension.rolls_into on the column at the atom's own level (a compare, or a
table lookup for several values), so no bitset is kept, and the columns'
size is fixed by the schema and the row count.  Both paths give the same
ascending row ids.

A condition's row count (condition_count) is taken afresh on each call: a
sum of slice sizes for a single atom, else read from a count cuboid of the
cube's lattice (lattice.Lattice, built with the cube) when one can express
its atoms, else the length of its index rows on the index path, else the
popcount of its bitset.

Scans roll up through the same columns: ``rolled_column`` gathers the
selected rows of a level's column and multiplies them by a scale (the
dimension's stride in a packed group key), so a scan's rollup reads one
narrow column and keeps no table.  Each measure's peak |value| is recorded
once, when the cube is built, so a scan bounds its sums without a pass over
them.

The cube, its level columns, its row index and its lattice are immutable
after load, but for the exec_stats counters; the cube keeps no state per
request, so concurrent readers are fine.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from array import array
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Mapping, Sequence

import csv

import numpy as np

from .aggregate import abs_peak
from .errors import (
    ParseError,
    SchemaMismatch,
    UnknownDimension,
    UnknownLevel,
    UnknownMeasure,
    UnknownMemberLabel,
    AmbiguousLevel,
)
from .hierarchy import (
    ALL_LEVEL_NAME,
    Dimension,
    Level,
    decoding,
    read_json,
    read_members_csv,
)

MEASURE_KINDS = ("integer", "decimal")
FACT_CHUNK_CHARS = 1 << 17  # the fact loader reads whole lines in chunks of about this size
# A condition whose smallest atom selects at most this share of the rows is
# read through the row index; wider ones through bitsets.  Both are exact,
# so the share decides cost only: sorting a slice costs more per row than a
# pass over a bitset, and a narrow slice has few rows.
INDEX_SHARE = 1 / 16
EXCERPT_CHARS = 40  # of a fact field quoted in a load error
_INTEGER_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")  # what int() reads, once stripped


@dataclass(frozen=True)
class Measure:
    name: str
    kind: str  # 'integer' | 'decimal'


class CubeSchema:
    """Named cube: ordered dimensions plus ordered measures."""

    def __init__(self, cube_name: str, dimensions: Sequence[Dimension], measures: Sequence[Measure]):
        _check_distinct(f"cube {cube_name}", "dimension", [d.name for d in dimensions])
        _check_distinct(f"cube {cube_name}", "measure", [m.name for m in measures])
        self.cube_name = cube_name
        self.dimensions = tuple(dimensions)
        self.measures = tuple(measures)
        self._dim_by_name = {d.name.lower(): d for d in self.dimensions}
        self._dim_by_exact_name = {d.name: d for d in self.dimensions}  # the common lookup
        self._measure_by_name = {m.name.lower(): m for m in self.measures}

    def dimension(self, name: str) -> Dimension:
        dim = self._dim_by_exact_name.get(name)
        if dim is None:
            dim = self._dim_by_name.get(name.lower())
            if dim is None:
                raise UnknownDimension(f"cube {self.cube_name} has no dimension {name!r}")
        return dim

    def measure(self, name: str) -> Measure:
        m = self._measure_by_name.get(name.lower())
        if m is None:
            raise UnknownMeasure(f"cube {self.cube_name} has no measure {name!r}")
        return m

    def resolve_level(self, ref: str) -> Level:
        """Resolve 'Dim.Level' or a bare level name (must be unambiguous)."""
        if "." in ref:
            dim_name, _, level_name = ref.partition(".")
            return self.dimension(dim_name).level(level_name)
        hits = []
        for dim in self.dimensions:
            try:
                hits.append(dim.level(ref))
            except UnknownLevel:
                pass
        if not hits:
            raise UnknownLevel(f"no level named {ref!r} in cube {self.cube_name}")
        if len(hits) > 1:
            dims = ", ".join(lv.dimension_name for lv in hits)
            raise AmbiguousLevel(f"level {ref!r} is ambiguous across dimensions: {dims}")
        return hits[0]


@dataclass
class ExecStats:
    """Instrumentation: how many fact-scan query executions have run.
    Concurrent scans count under a lock, so no increment is lost.  The
    passes over the facts that built the cuboid lattice count apart."""

    fact_scans: int = 0
    build_scans: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def count_scan(self) -> None:
        with self._lock:
            self.fact_scans += 1


def _parse_int(text: str) -> int:
    """int(text), also past Python's limit on the digits of a string it
    converts (4,300 by default): a longer integer literal is read through
    Decimal, so that it is reported as too large, not as malformed, and a
    zero-padded value in range still loads.  ValueError for anything else."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER_LITERAL.fullmatch(text) is None:
            raise
        return int(Decimal(text))


def _excerpt(field: str) -> str:
    """A field as an error message shows it: quoted, cut after
    EXCERPT_CHARS characters."""
    if len(field) <= EXCERPT_CHARS:
        return repr(field)
    return f"{field[:EXCERPT_CHARS]!r}... ({len(field)} characters)"


def _check_distinct(where: str, what: str, names: Sequence[str]) -> None:
    """Raise SchemaMismatch when two of ``names`` differ only in case: names
    resolve case-insensitively."""
    seen: dict[str, str] = {}
    for name in names:
        if name.lower() in seen:
            raise SchemaMismatch(f"{where}: duplicate {what} {seen[name.lower()]!r} and {name!r}")
        seen[name.lower()] = name


class RowIndex:
    """One dimension's row ids in hierarchy order: ``rows`` sorts them
    stably by the path rank of each fact's detailed member, coarsest level
    first, so the facts under member m at depth d are the slice
    rows[starts[d][m]:ends[d][m]] (empty for a member without facts), each
    detailed member's run in ascending row order."""

    def __init__(self, dim: Dimension, coords: np.ndarray):
        n0 = dim.detailed_level.member_count
        # Detailed members in path order: lexsort's last key, the coarsest
        # level below ALL, is its primary one.
        order = np.lexsort([dim.anc_array(0, depth) for depth in range(len(dim.levels) - 1)])
        rank = np.empty(n0, dtype=np.min_scalar_type(max(n0 - 1, 0)))
        rank[order] = np.arange(n0)
        key = rank[coords]  # 16 bits or fewer below 65,537 members: numpy radix-sorts it
        self.rows = np.argsort(key, kind="stable")
        edges = np.zeros(n0 + 1, dtype=np.int64)  # each path position's first fact
        np.cumsum(np.bincount(key, minlength=n0), out=edges[1:])
        self.starts, self.ends = [], []
        for level in dim.levels:
            starts = np.zeros(level.member_count, dtype=np.int64)
            ends = np.zeros(level.member_count, dtype=np.int64)
            if n0:
                up = dim.anc_array(0, level.depth)[order]  # a run per member with descendants
                first = np.flatnonzero(np.concatenate(([True], up[1:] != up[:-1])))
                starts[up[first]] = edges[first]
                ends[up[first]] = edges[np.append(first[1:], n0)]
            self.starts.append(starts)
            self.ends.append(ends)

    def size(self, depth: int, codes: Sequence[int]) -> int:
        """The facts under ``codes`` at ``depth``."""
        if len(codes) == 1:
            return self.ends[depth].item(codes[0]) - self.starts[depth].item(codes[0])
        return int((self.ends[depth][list(codes)] - self.starts[depth][list(codes)]).sum())

    def slice_rows(self, depth: int, codes: Sequence[int]) -> np.ndarray:
        """The ids of the facts under ``codes`` at ``depth``, unsorted (a view
        for one code)."""
        starts, ends = self.starts[depth], self.ends[depth]
        if len(codes) == 1:
            return self.rows[starts[codes[0]]:ends[codes[0]]]
        return np.concatenate([self.rows[starts[c]:ends[c]] for c in codes])


class DetailedCube:
    """The detailed cube: coordinate codes at level 0 plus measure columns,
    and each fact's code at every level below ALL (level_codes)."""

    def __init__(
        self,
        schema: CubeSchema,
        coordinates: Mapping[str, np.ndarray],
        measures: Mapping[str, np.ndarray],
    ):
        self.schema = schema
        self.coordinates = {d.name: np.asarray(coordinates[d.name], dtype=np.int64)
                            for d in schema.dimensions}
        self.measure_columns = {m.name: np.asarray(measures[m.name]) for m in schema.measures}
        lengths = {len(c) for c in self.coordinates.values()}
        lengths |= {len(c) for c in self.measure_columns.values()}
        if len(lengths) > 1:
            raise SchemaMismatch(f"column lengths differ: {sorted(lengths)}")
        self.row_count = lengths.pop() if lengths else 0
        for dim in schema.dimensions:
            col = self.coordinates[dim.name]
            if len(col) and (col.min() < 0 or col.max() >= dim.detailed_level.member_count):
                raise SchemaMismatch(f"coordinate code out of range for dimension {dim.name}")
        self.measure_peaks = {name: abs_peak(col) for name, col in self.measure_columns.items()}
        self.exec_stats = ExecStats()
        self.row_index = {d.name: RowIndex(d, self.coordinates[d.name])
                          for d in schema.dimensions}
        from .lattice import Lattice  # lattice builds on query, which imports this module
        self.lattice = Lattice(self)
        # Per dimension, each fact's member code at every level below ALL,
        # indexed by depth: the coordinate column, then narrower columns.
        # Built after the lattice, whose fact passes gather their keys
        # through the ancestor maps, so that its transient arrays and these
        # columns never coexist: the load's peak memory stays what it was
        # without them.
        self.level_codes: dict[str, list[np.ndarray]] = {}
        for dim in schema.dimensions:
            col = self.coordinates[dim.name]
            self.level_codes[dim.name] = [col] + [
                dim.anc_array(0, level.depth).astype(np.min_scalar_type(level.member_count - 1))[col]
                for level in dim.levels[1:-1]]

    # -- scanning ---------------------------------------------------------

    def rolled_column(self, dim_name: str, depth: int, rows: np.ndarray | None = None,
                      scale: int = 1) -> np.ndarray:
        """Each fact's code at ``depth`` (of ``rows`` only, when given) times
        ``scale``, gathered from level_codes: zeros at ALL.  The result is a
        fresh int64 array the caller may modify."""
        columns = self.level_codes[self.schema.dimension(dim_name).name]
        if depth == len(columns):  # ALL has one member, code 0
            return np.zeros(self.row_count if rows is None else len(rows), dtype=np.int64)
        col = columns[depth] if rows is None else columns[depth][rows]
        col = col.astype(np.int64, copy=rows is None)  # a gather is already a copy
        if scale != 1:
            col *= scale
        return col

    # -- filtering --------------------------------------------------------

    def atom_mask(self, level: Level, codes: Sequence[int]) -> np.ndarray:
        """Fresh bitset of rows whose coordinate rolls up into ``codes`` at
        ``level``."""
        if level.is_all:
            return np.ones(self.row_count, dtype=bool)
        return self.schema.dimension(level.dimension_name).rolls_into(
            level, codes, level.depth, self.level_codes[level.dimension_name][level.depth])

    def condition_mask(self, atoms: Sequence[tuple[Level, Sequence[int]]]) -> np.ndarray:
        """Fresh bitset for a conjunction of (level, codes) atoms: the AND of
        their atom bitsets."""
        if not atoms:
            return np.ones(self.row_count, dtype=bool)
        mask = self.atom_mask(*atoms[0])
        for level, codes in atoms[1:]:
            mask &= self.atom_mask(level, codes)
        return mask

    def index_slice(self, condition) -> tuple[int, int] | None:
        """The path row selection takes for a SelectionCondition: (position,
        facts) of its smallest atom when that atom's slice of the row index
        holds at most INDEX_SHARE of the rows, so the index path reads it;
        None for the bitset path.  Decided from slice sizes alone."""
        best = None
        for i, (level, codes) in enumerate(condition.mask_atoms()):
            size = self.row_index[level.dimension_name].size(level.depth, codes)
            if best is None or size < best[1]:
                best = (i, size)
        if best is None or best[1] > INDEX_SHARE * self.row_count:
            return None
        return best

    def _index_rows(self, atoms, first: int) -> np.ndarray:
        """The rows of a condition read through the row index: the slice of
        ``atoms[first]``, kept where every other atom holds the row's
        detailed member.  Unsorted."""
        level, codes = atoms[first]
        rows = self.row_index[level.dimension_name].slice_rows(level.depth, codes)
        for i, (level, codes) in enumerate(atoms):
            if i == first or level.is_all or not len(rows):
                continue
            name = level.dimension_name
            rows = rows[self.schema.dimension(name).rolls_into(
                level, codes, level.depth, self.level_codes[name][level.depth][rows])]
        return rows

    def condition_rows(self, condition) -> np.ndarray:
        """The ascending ids of the rows a SelectionCondition selects,
        through the row index or the condition's bitset (index_slice)."""
        pick = self.index_slice(condition)
        if pick is None:
            return np.flatnonzero(self.condition_mask(condition.mask_atoms()))
        # the ids are distinct, so sorting gives flatnonzero's order exactly
        return np.sort(self._index_rows(condition.mask_atoms(), pick[0]))

    def condition_count(self, condition) -> int:
        """Rows selected by a SelectionCondition: a single atom's slice sizes,
        else a count read from the cuboid lattice, else the length of its index
        rows on the index path, else the popcount of its bitset."""
        atoms = condition.mask_atoms()
        if not atoms:
            return self.row_count
        if len(atoms) == 1:
            level, codes = atoms[0]
            return self.row_index[level.dimension_name].size(level.depth, codes)
        count = self.lattice.count(condition)
        if count is None:
            pick = self.index_slice(condition)
            count = (int(np.count_nonzero(self.condition_mask(atoms))) if pick is None
                     else len(self._index_rows(atoms, pick[0])))
        return count


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _check_fields(where: str, obj, types: dict, required: Sequence[str]) -> None:
    """Raise SchemaMismatch unless ``obj`` is a JSON object holding every
    required field, each present field of its type in ``types``.  No string
    may hold a NUL, which no file name can."""
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"{where}: expected a JSON object")
    for name, kind in types.items():
        if name not in obj:
            if name in required:
                raise SchemaMismatch(f"{where}: missing {name!r}")
        elif not isinstance(obj[name], kind):
            raise SchemaMismatch(f"{where}: {name!r} has the wrong type")
        elif isinstance(obj[name], str) and "\0" in obj[name]:
            raise SchemaMismatch(f"{where}: {name!r} holds a NUL character")


def check_schema_spec(spec, where: str) -> None:
    """The checks a schema JSON object passes before any file it names is
    read: field types, level lists ending with ALL, at least one measure,
    known measure kinds, and names that stay apart under case-insensitive
    lookup: dimensions, measures, the levels of each dimension (so ALL comes
    last only) and the fact columns (detailed levels and measures).  Raises
    SchemaMismatch."""
    _check_fields(where, spec, {"cube": str, "dimensions": list, "measures": list,
                                "facts": str}, ("cube", "dimensions", "measures"))
    for i, dspec in enumerate(spec["dimensions"], start=1):
        _check_fields(f"{where}: dimension {i}", dspec,
                      {"name": str, "levels": list, "members": str}, ("name",))
        levels = dspec.get("levels", [])
        if not all(isinstance(level, str) for level in levels):
            raise SchemaMismatch(f"{where}: dimension {i}: level names must be strings")
        if len(levels) < 2 or levels[-1] != ALL_LEVEL_NAME:
            raise SchemaMismatch(f"{where}: dimension {dspec['name']}: level list must "
                                 f"name a level and end with {ALL_LEVEL_NAME}")
        _check_distinct(f"{where}: dimension {dspec['name']}", "level", levels)
    if not spec["measures"]:
        raise SchemaMismatch(f"{where}: cube {spec['cube']} declares no measures")
    for i, mspec in enumerate(spec["measures"], start=1):
        _check_fields(f"{where}: measure {i}", mspec, {"name": str, "kind": (str, type(None))},
                      ("name",))
        kind = mspec.get("kind")
        if kind is not None and kind not in MEASURE_KINDS:
            raise SchemaMismatch(f"{where}: measure {mspec['name']}: unknown kind {kind!r}")
    measures = [m["name"] for m in spec["measures"]]
    _check_distinct(where, "dimension", [d["name"] for d in spec["dimensions"]])
    _check_distinct(where, "measure", measures)
    _check_distinct(where, "fact column", [d["levels"][0] for d in spec["dimensions"]] + measures)


def _parse_schema_json(schema_file) -> dict:
    spec = read_json(schema_file)
    check_schema_spec(spec, f"{schema_file}")
    return spec


def _resolve_dimension_files(spec: dict, schema_dir: Path, dimension_files) -> dict[str, Path]:
    """Member file per dimension: explicit NAME=PATH / positional overrides
    win over the paths declared in the schema file.  A NAME that is no
    dimension of the schema is a SchemaMismatch."""
    known = {d["name"].lower(): d["name"] for d in spec["dimensions"]}
    declared: dict[str, Path] = {}
    for dspec in spec["dimensions"]:
        if "members" in dspec:
            declared[dspec["name"].lower()] = schema_dir / dspec["members"]
    overrides = list(dimension_files or [])
    positional: list[Path] = []
    for entry in overrides:
        entry = str(entry)
        if "=" in entry:
            name, _, p = entry.partition("=")
            name = name.strip()
            if name.lower() not in known:
                raise SchemaMismatch(f"member file {p} given for unknown dimension {name!r} "
                                     f"(dimensions: {', '.join(known.values())})")
            declared[name.lower()] = Path(p)
        else:
            positional.append(Path(entry))
    if positional:
        if len(positional) != len(spec["dimensions"]):
            raise SchemaMismatch(
                f"got {len(positional)} dimension files for {len(spec['dimensions'])} dimensions"
            )
        for dspec, p in zip(spec["dimensions"], positional):
            declared[dspec["name"].lower()] = p
    missing = [d["name"] for d in spec["dimensions"] if d["name"].lower() not in declared]
    if missing:
        raise SchemaMismatch(f"no member file for dimensions: {', '.join(missing)}")
    return declared


def load_cube(
    schema_file,
    dimension_files: Sequence[str] | None = None,
    fact_file=None,
    delimiter: str = ",",
) -> DetailedCube:
    """Load schema JSON + member CSVs + fact CSV into a DetailedCube."""
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as exc:
        raise ParseError(f"bad delimiter {delimiter!r}: {exc}") from None
    spec = _parse_schema_json(schema_file)
    schema_dir = Path(schema_file).parent

    dim_files = _resolve_dimension_files(spec, schema_dir, dimension_files)
    dimensions = [read_members_csv(dspec["name"], dspec["levels"],
                                   dim_files[dspec["name"].lower()], delimiter=delimiter)
                  for dspec in spec["dimensions"]]

    measures = [(mspec["name"], mspec.get("kind")) for mspec in spec["measures"]]
    if fact_file is None:
        if "facts" not in spec:
            raise SchemaMismatch(f"{schema_file}: no fact file given or declared")
        fact_file = schema_dir / spec["facts"]
    coords, measure_cols, resolved = _read_facts(
        fact_file, dimensions, measures, delimiter=delimiter
    )
    schema = CubeSchema(spec["cube"], dimensions, resolved)
    return DetailedCube(schema, coords, measure_cols)


def _read_facts(fact_file, dimensions, measures, delimiter=","):
    with decoding(fact_file), open(fact_file, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{fact_file}: missing header row") from None
        except csv.Error as exc:  # a field over csv's size limit
            raise ParseError(f"{fact_file}:{reader.line_num}: {exc}") from None
        facts = _FactColumns(fact_file, header, dimensions, measures, delimiter)
        line = reader.line_num + 1  # the physical line the next record starts on
        while lines := fh.readlines(FACT_CHUNK_CHARS):
            line += facts.add_chunk(lines, fh, line)
    return facts.finish()


class _FactColumns:
    """The fact file's columns, filled a chunk of whole lines at a time.

    A chunk without quotes or CRs, whose every line holds exactly ``width``
    fields, is split once and decoded a column at a time: labels through the
    level dictionary, measures through the same int/float the row loop
    calls.  Any other chunk, or one whose decoding raises, goes to the row
    loop from its first line, which is the only place errors are worded.
    """

    def __init__(self, fact_file, header, dimensions, measures, delimiter):
        dim_by_l0 = {d.detailed_level.name.lower(): d for d in dimensions}  # distinct: checked
        measure_kinds = {name.lower(): kind for name, kind in measures}
        dim_cols: dict[str, int] = {}
        self.measure_cols: dict[str, int] = {}
        for idx, name in enumerate(header):
            low = name.lower()
            if low in dim_by_l0:
                dim_cols[dim_by_l0[low].name] = idx
            elif low in measure_kinds:
                self.measure_cols[low] = idx
            else:
                raise SchemaMismatch(f"{fact_file}: unexpected column {name!r}")
        missing = [d.name for d in dimensions if d.name not in dim_cols]
        missing += [name for name, _ in measures if name.lower() not in self.measure_cols]
        if missing:
            raise SchemaMismatch(f"{fact_file}: missing columns: {', '.join(missing)}")

        self.fact_file = fact_file
        self.delimiter = delimiter
        self.width = len(header)
        self.measures = measures
        self.dim_order = [(d, dim_cols[d.name]) for d in dimensions]
        self.dicts = {d.name: d.dictionaries[0]._code_by_label for d in dimensions}
        # The column path looks fields up unstripped: only labels a stripped,
        # non-empty field can equal, so any other field falls to the row loop.
        self.lookups = {name: {label: code for label, code in codes.items()
                               if label and label == label.strip()}
                        for name, codes in self.dicts.items()}
        self.coord_acc = {d.name: array("q") for d in dimensions}
        # One accumulator per measure: int64 until a value of an undeclared
        # column is no int64 integer, then float64, converted once.
        self.m_acc = {name.lower(): array("d" if kind == "decimal" else "q")
                      for name, kind in measures}
        self.declared_int = {name.lower(): kind == "integer" for name, kind in measures}

    def add_chunk(self, lines: list[str], more, first_line: int) -> int:
        """Decode the records that start in ``lines``, whose first line is
        physical line ``first_line``; a record may run on into the lines of
        ``more``.  Returns how many physical lines were consumed."""
        if self._add_columns(lines):
            return len(lines)
        reader = csv.reader(itertools.chain(lines, more), delimiter=self.delimiter)
        consumed = 0
        try:
            for row in reader:
                self._add_row(row, first_line + consumed)
                consumed = reader.line_num
                if consumed >= len(lines):
                    break
        except csv.Error as exc:  # a field over csv's size limit
            raise ParseError(f"{self.fact_file}:{first_line + consumed}: {exc}") from None
        return consumed

    def _add_columns(self, lines: list[str]) -> bool:
        """The column path: True when the chunk was decoded and appended,
        False, with nothing appended, when the row loop must decide it."""
        text = "".join(lines)
        if not text.endswith("\n"):
            text += "\n"  # the file's last line
        # Left to the row loop: csv quoting, CRs, and any line that could hold
        # a field over csv's size limit, which csv.reader rejects.
        if '"' in text or "\r" in text or max(map(len, lines)) > csv.field_size_limit():
            return False
        # Each newline becomes a field of its own, so every line holds
        # exactly ``width`` fields when the newlines sit ``stride`` apart.
        d, n, width, stride = self.delimiter, len(lines), self.width, self.width + 1
        fields = text.replace("\n", d + "\n" + d).split(d)
        end = n * stride
        if len(fields) != end + 1 or fields[width:end:stride].count("\n") != n:
            return False
        try:
            parts = [(self.coord_acc[dim.name],
                      np.fromiter(map(self.lookups[dim.name].__getitem__,
                                      fields[idx:end:stride]), np.int64, n))
                     for dim, idx in self.dim_order]
            for low, idx in self.measure_cols.items():
                acc = self.m_acc[low]
                parse, dtype = (int, np.int64) if acc.typecode == "q" else (float, np.float64)
                part = np.fromiter(map(parse, fields[idx:end:stride]), dtype, n)
                if dtype is np.float64 and not np.isfinite(part).all():
                    return False
                parts.append((acc, part))
        except (KeyError, ValueError, OverflowError):
            return False
        for acc, part in parts:
            acc.frombytes(part.tobytes())
        return True

    def _add_row(self, row: list[str], lineno: int) -> None:
        fact_file = self.fact_file
        if len(row) != self.width:
            raise ParseError(f"{fact_file}:{lineno}: expected {self.width} fields, got {len(row)}")
        for dim, idx in self.dim_order:
            label = row[idx].strip()
            if not label:
                raise ParseError(f"{fact_file}:{lineno}: empty coordinate for {dim.name}")
            try:
                self.coord_acc[dim.name].append(self.dicts[dim.name][label])
            except KeyError:
                raise UnknownMemberLabel(
                    f"{fact_file}:{lineno}: unknown member {_excerpt(label)} "
                    f"for dimension {dim.name}"
                ) from None
        for low, idx in self.measure_cols.items():
            text = row[idx].strip()
            if not text:
                raise ParseError(f"{fact_file}:{lineno}: null measure {low!r}")
            acc = self.m_acc[low]
            if acc.typecode == "q":
                try:
                    acc.append(_parse_int(text))
                    continue
                except (ValueError, OverflowError) as exc:
                    if self.declared_int[low]:
                        problem = (f"value {_excerpt(text)} is outside the int64 range"
                                   if isinstance(exc, OverflowError) else
                                   f"declared integer but got {_excerpt(text)}")
                        raise ParseError(
                            f"{fact_file}:{lineno}: measure {low!r} {problem}") from None
                    self.m_acc[low] = acc = array("d", acc.tolist())  # decimal from here on
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{fact_file}:{lineno}: measure {low!r} is not numeric: {_excerpt(text)}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{fact_file}:{lineno}: measure {low!r} is not finite: {value}")
            acc.append(value)

    def finish(self):
        """The columns, as views of the accumulators (int64 codes; int64 or
        float64 measures), and each measure with the kind its values took."""
        coords = {name: np.frombuffer(acc, dtype=np.int64) if len(acc) else np.empty(0, np.int64)
                  for name, acc in self.coord_acc.items()}
        out_measures = {}
        resolved = []
        for name, _ in self.measures:
            acc = self.m_acc[name.lower()]  # typecode "q" is int64, "d" float64
            out_measures[name] = (np.frombuffer(acc, dtype=acc.typecode) if len(acc)
                                  else np.empty(0, acc.typecode))
            resolved.append(Measure(name, "integer" if acc.typecode == "q" else "decimal"))
        return coords, out_measures, resolved
