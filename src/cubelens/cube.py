"""Columnar detailed-cube store and star-schema CSV ingestion.

The detailed cube keeps one dictionary-encoded coordinate column per
dimension (at that dimension's most detailed level) plus one numeric column
per measure.  Measures whose inputs all parse as int64 integers are stored
as int64 so aggregate comparisons can be exact; anything else is float64.
An integer-declared value outside int64, and NaN or infinity in any decimal
measure, is a ParseError naming file and line.

Filter evaluation produces row bitsets (boolean arrays over 0..row_count-1)
so the strategy selector can combine and count regions cheaply.  An atom's
bitset is a per-member table over the detailed level, gathered through the
coordinate column.  Per-atom bitsets are cached after first use: the five
facilitator queries of one request share atoms heavily.  A condition's
bitset is cached, and so is its row count, so counting a region twice is
free.  The count is read from a count cuboid of the cube's lattice
(lattice.Lattice, built with the cube) when one can express its atoms, so
counting it builds no bitset; else it is the popcount of the bitset.

Scans read coordinates through per-member tables too: ``rolled_column``
gathers the selected rows' codes through a cached int64 table holding each
detailed member's ancestor code at a level, times a scale (the dimension's
stride in a packed group key).  Each measure's peak |value| is recorded once,
when the cube is built, so a scan bounds its sums without a pass over them.

The cube is immutable after load; the caches fill idempotently, so
concurrent readers are fine.
"""

from __future__ import annotations

import json
import threading
from array import array
from dataclasses import dataclass, field
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
    read_members_csv,
    validate_hierarchy,
)

MEASURE_KINDS = ("integer", "decimal")


@dataclass(frozen=True)
class Measure:
    name: str
    kind: str  # 'integer' | 'decimal'


class CubeSchema:
    """Named cube: ordered dimensions plus ordered measures."""

    def __init__(self, cube_name: str, dimensions: Sequence[Dimension], measures: Sequence[Measure]):
        _check_distinct(f"cube {cube_name}", "dimension", [d.name for d in dimensions])
        _check_distinct(f"cube {cube_name}", "measure", [m.name for m in measures])
        if not measures:
            raise SchemaMismatch(f"cube {cube_name} declares no measures")
        self.cube_name = cube_name
        self.dimensions = tuple(dimensions)
        self.measures = tuple(measures)
        self._dim_by_name = {d.name.lower(): d for d in self.dimensions}
        self._measure_by_name = {m.name.lower(): m for m in self.measures}

    def dimension(self, name: str) -> Dimension:
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


def _check_distinct(where: str, what: str, names: Sequence[str]) -> None:
    """Raise SchemaMismatch when two of ``names`` differ only in case: names
    resolve case-insensitively."""
    seen: dict[str, str] = {}
    for name in names:
        if name.lower() in seen:
            raise SchemaMismatch(f"{where}: duplicate {what} {seen[name.lower()]!r} and {name!r}")
        seen[name.lower()] = name


def _condition_key(atoms: Sequence[tuple[Level, Sequence[int]]]) -> tuple:
    return tuple(sorted((lv.dimension_name, lv.depth, tuple(codes)) for lv, codes in atoms))


class DetailedCube:
    """The detailed cube: coordinate codes at level 0 plus measure columns."""

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
        self._atom_mask_cache: dict[tuple, np.ndarray] = {}
        self._condition_masks: dict[tuple, np.ndarray] = {}
        self._condition_counts: dict[tuple, int] = {}  # from a bitset or from a cuboid
        self._scaled_tables: dict[tuple[str, int, int], np.ndarray] = {}
        from .lattice import Lattice  # lattice builds on query, which imports this module
        self.lattice = Lattice(self)

    # -- scanning ---------------------------------------------------------

    def rolled_column(self, dim_name: str, depth: int, rows: np.ndarray | None = None,
                      scale: int = 1) -> np.ndarray:
        """Coordinate column mapped up to ``depth`` and multiplied by
        ``scale`` (optionally row-subset).  With ``rows`` the result is a
        fresh array the caller may modify."""
        dim = self.schema.dimension(dim_name)
        col = self.coordinates[dim.name]
        if rows is not None:
            col = col[rows]
        if depth == 0:  # the table would be arange * scale: multiply instead
            if scale == 1:
                return col
            return col * scale if rows is None else np.multiply(col, scale, out=col)
        key = (dim.name, depth, scale)
        table = self._scaled_tables.get(key)
        if table is None:
            table = self._scaled_tables.setdefault(key, dim.anc_array(0, depth) * scale)
        return table[col]

    # -- filtering --------------------------------------------------------

    def atom_mask(self, level: Level, codes: Sequence[int]) -> np.ndarray:
        """Bitset of rows whose coordinate rolls up into ``codes`` at ``level``."""
        key = (level.dimension_name, level.depth, tuple(codes))
        cached = self._atom_mask_cache.get(key)
        if cached is None:
            dim = self.schema.dimension(level.dimension_name)
            selected = np.isin(dim.anc_array(0, level.depth), np.asarray(key[2], dtype=np.int64))
            cached = self._atom_mask_cache.setdefault(key, selected[self.coordinates[dim.name]])
        return cached

    def condition_mask(self, atoms: Sequence[tuple[Level, Sequence[int]]]) -> np.ndarray:
        """Bitset for a conjunction of (level, codes) atoms; cached whole,
        and its popcount with the condition counts."""
        key = _condition_key(atoms)
        cached = self._condition_masks.get(key)
        if cached is None:
            mask = np.ones(self.row_count, dtype=bool)
            for level, codes in atoms:
                mask = mask & self.atom_mask(level, codes)
            self._condition_counts.setdefault(key, int(np.count_nonzero(mask)))
            cached = self._condition_masks.setdefault(key, mask)
        return cached

    def condition_count(self, condition) -> int:
        """Rows selected by a SelectionCondition, cached: a count read from
        the cuboid lattice, else the popcount of its bitset."""
        key = condition.mask_key
        count = self._condition_counts.get(key)
        if count is None:
            count = self.lattice.count(condition)
            if count is None:
                self.condition_mask(condition.mask_atoms())  # builds the mask, books its count
                return self._condition_counts[key]
            count = self._condition_counts.setdefault(key, count)
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
    read: field types, level lists ending with ALL, known measure kinds, and
    names that stay apart under case-insensitive lookup: dimensions,
    measures, the levels of each dimension (so ALL comes last only) and
    the fact columns (detailed levels and measures).  Raises SchemaMismatch."""
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
    path = Path(schema_file)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    check_schema_spec(spec, f"{path}")
    return spec


def _resolve_dimension_files(spec: dict, schema_dir: Path, dimension_files) -> dict[str, Path]:
    """Member file per dimension: explicit NAME=PATH / positional overrides
    win over the paths declared in the schema file."""
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
            declared[name.strip().lower()] = Path(p)
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
    spec = _parse_schema_json(schema_file)
    schema_dir = Path(schema_file).parent

    dim_files = _resolve_dimension_files(spec, schema_dir, dimension_files)
    dimensions = []
    for dspec in spec["dimensions"]:
        dim = read_members_csv(dspec["name"], dspec["levels"], dim_files[dspec["name"].lower()],
                               delimiter=delimiter)
        problems = validate_hierarchy(dim)
        if problems:
            raise ParseError(f"dimension {dim.name} failed validation: {'; '.join(problems)}")
        dimensions.append(dim)

    measures = [(mspec["name"], mspec.get("kind")) for mspec in spec["measures"]]

    schema = CubeSchema(spec["cube"], dimensions,
                        [Measure(name, kind or "decimal") for name, kind in measures])

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
    dim_by_l0 = {d.detailed_level.name.lower(): d for d in dimensions}  # distinct: checked
    measure_kinds = {name.lower(): kind for name, kind in measures}
    with open(fact_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{fact_file}: missing header row") from None

        dim_cols: dict[str, int] = {}
        measure_cols_idx: dict[str, int] = {}
        for idx, name in enumerate(header):
            low = name.lower()
            if low in dim_by_l0:
                dim_cols[dim_by_l0[low].name] = idx
            elif low in measure_kinds:
                measure_cols_idx[low] = idx
            else:
                raise SchemaMismatch(f"{fact_file}: unexpected column {name!r}")
        missing = [d.name for d in dimensions if d.name not in dim_cols]
        missing += [name for name, _ in measures if name.lower() not in measure_cols_idx]
        if missing:
            raise SchemaMismatch(f"{fact_file}: missing columns: {', '.join(missing)}")

        dim_order = [(d, dim_cols[d.name]) for d in dimensions]
        dicts = {d.name: d.dictionaries[0]._code_by_label for d, _ in dim_order}
        coord_acc = {d.name: array("q") for d, _ in dim_order}
        # One accumulator per measure: int64 until a value of an undeclared
        # column is no int64 integer, then float64, converted once.
        m_acc = {name.lower(): array("d" if kind == "decimal" else "q") for name, kind in measures}
        declared_int = {name.lower(): kind == "integer" for name, kind in measures}
        width = len(header)

        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(f"{fact_file}:{lineno}: expected {width} fields, got {len(row)}")
            for dim, idx in dim_order:
                label = row[idx].strip()
                if not label:
                    raise ParseError(f"{fact_file}:{lineno}: empty coordinate for {dim.name}")
                try:
                    coord_acc[dim.name].append(dicts[dim.name][label])
                except KeyError:
                    raise UnknownMemberLabel(
                        f"{fact_file}:{lineno}: unknown member {label!r} "
                        f"for dimension {dim.name}"
                    ) from None
            for low, idx in measure_cols_idx.items():
                text = row[idx].strip()
                if not text:
                    raise ParseError(f"{fact_file}:{lineno}: null measure {low!r}")
                acc = m_acc[low]
                if acc.typecode == "q":
                    try:
                        acc.append(int(text))
                        continue
                    except (ValueError, OverflowError) as exc:
                        if declared_int[low]:
                            problem = (f"value {text!r} is outside the int64 range"
                                       if isinstance(exc, OverflowError) else
                                       f"declared integer but got {text!r}")
                            raise ParseError(
                                f"{fact_file}:{lineno}: measure {low!r} {problem}") from None
                        m_acc[low] = acc = array("d", acc.tolist())  # decimal from here on
                try:
                    acc.append(float(text))
                except ValueError:
                    raise ParseError(
                        f"{fact_file}:{lineno}: measure {low!r} is not numeric: {text!r}"
                    ) from None

    coords = {name: np.frombuffer(acc, dtype=np.int64) if len(acc) else np.empty(0, np.int64)
              for name, acc in coord_acc.items()}
    out_measures = {}
    resolved = []
    for name, kind in measures:
        acc = m_acc[name.lower()]  # typecode "q" is int64, "d" float64
        col = np.frombuffer(acc, dtype=acc.typecode) if len(acc) else np.empty(0, acc.typecode)
        if acc.typecode == "q":
            resolved.append(Measure(name, "integer"))
        else:
            finite = np.isfinite(col)
            if not finite.all():
                first = int(np.argmin(finite))
                raise ParseError(f"{fact_file}:{first + 2}: measure {name.lower()!r} is not "
                                 f"finite: {float(col[first])}")
            resolved.append(Measure(name, "decimal"))
        out_measures[name] = col
    return coords, out_measures, resolved
