"""Independent brute-force oracles, and the code-level helpers only tests use.

The oracles work on labels and plain-Python dict walks, deliberately sharing
no code with the engine.  The engine's dictionary-encoded, vectorized
results are compared against these after decoding.  ResultMap/update_map is
the reference fold: merged tuples folded one at a time into per-role maps.
decode_cells is the reference renderer: one label lookup per cell, then a
sort of the label rows; cells_csv writes those rows through csv.writer.

The helpers at the end (cell_dict, desc, siblings_under_parent, filter_rows,
detailed_proxy, grouper_domain) read the engine's own encodings; the engine
does not need them, and the tests check them against the oracles.  desc
lists descendants by its own walk up the parent maps (``parent_of``), so
the references built on it share no membership code with the engine, which
never lists descendants (Dimension.rolls_into).
run_forced runs one strategy's plan, as `--strategy` does without timing.
usable_route is the definition Lattice.route answers by the lattice order,
and cube_usable_reference the usability checklist query.cube_usable must
answer exactly.

read_facts_rowwise is the reference fact loader (one csv.reader record at a
time) and generate_rowwise the reference dataset writer (csv.writer rows);
the engine's column-at-a-time loader and writer must match them exactly.
"""

import contextlib
import csv
import io
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from cubelens.errors import LevelOrderViolation, ParseError, UnknownMemberLabel
from cubelens.hierarchy import anc
from cubelens.mqo import build_plan, run_strategy
from cubelens.aggregate import AGG_FUNCTIONS
from cubelens.query import (
    SelectionAtom,
    UsabilityReport,
    _atoms_equal,
    cube_usable,
)
from cubelens.synth import _labels, _member_paths

ALL_LABEL = "All"

# Folding a running value with an incoming partial aggregate: partial counts
# are pre-aggregated cells, so they add up.
FOLDS = {"sum": operator.add, "min": min, "max": max, "count": operator.add}


class ArityMismatch(Exception):
    pass


class ResultMap:
    """Coordinate-tuple -> aggregate value map populated by update_map."""

    def __init__(self, arity, agg):
        self.arity = arity
        self.fold = FOLDS[agg]
        self.data = {}

    def __len__(self):
        return len(self.data)

    def as_dict(self):
        return dict(self.data)


def update_map(h, key, m):
    """Insert m under key, or fold it into the existing value."""
    key = tuple(key)
    if len(key) != h.arity:
        raise ArityMismatch(f"key arity {len(key)} does not match map arity {h.arity}")
    h.data[key] = h.fold(h.data[key], m) if key in h.data else m
    return h


def decode_cells(cube, cells):
    """Decoded label rows, sorted lexicographically by the grouper labels."""
    header = [f"{g.dimension_name}.{g.name}" for g in cells.schema.groupers]
    header.append(cells.schema.measure_alias)
    dims = [cube.schema.dimension(g.dimension_name) for g in cells.schema.groupers]
    rows = []
    for coords, value in cell_dict(cells).items():
        labels = [dim.member_label(g, code)
                  for dim, g, code in zip(dims, cells.schema.groupers, coords)]
        labels.append(str(value))
        rows.append(labels)
    rows.sort(key=lambda r: r[:-1])
    return header, rows


def cells_csv(cube, cells):
    """decode_cells' header and rows as csv.writer writes them."""
    header, rows = decode_cells(cube, cells)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class HierarchyOracle:
    """Label-level model of a dimension, built from ancestor-path rows."""

    def __init__(self, level_names, rows):
        self.level_names = list(level_names) + ["ALL"]
        n = len(self.level_names)
        self.members = [[] for _ in range(n)]
        seen = [set() for _ in range(n)]
        self.parent = [dict() for _ in range(n - 1)]
        for row in rows:
            full = list(row) + [ALL_LABEL]
            for d, label in enumerate(full):
                if label not in seen[d]:
                    seen[d].add(label)
                    self.members[d].append(label)
            for d in range(n - 1):
                self.parent[d][full[d]] = full[d + 1]

    def index(self, level_name):
        return self.level_names.index(level_name)

    def anc(self, from_name, to_name, label):
        d, target = self.index(from_name), self.index(to_name)
        while d < target:
            label = self.parent[d][label]
            d += 1
        return label

    def desc(self, from_name, to_name, label):
        return [m for m in self.members[self.index(to_name)]
                if self.anc(to_name, from_name, m) == label]

    def siblings(self, level_name, label):
        d = self.index(level_name)
        parent_name = self.level_names[d + 1]
        return self.desc(parent_name, level_name, self.anc(level_name, parent_name, label))


def naive_filter(fact_rows, condition):
    """Row ids matching every atom. ``condition`` is a list of
    (dim_name, oracle, level_name, allowed label set)."""
    ids = []
    for i, row in enumerate(fact_rows):
        ok = True
        for dim_name, oracle, level_name, allowed in condition:
            rolled = oracle.anc(oracle.level_names[0], level_name, row[dim_name])
            if rolled not in allowed:
                ok = False
                break
        if ok:
            ids.append(i)
    return ids


def naive_execute(fact_rows, measure_values, condition, groupers, agg):
    """Nested-loop group-by.  ``groupers`` is a list of
    (dim_name, oracle, level_name); returns {label tuple: aggregate}."""
    ids = naive_filter(fact_rows, condition)
    groups = {}
    for i in ids:
        key = tuple(
            oracle.anc(oracle.level_names[0], level_name, fact_rows[i][dim_name])
            for dim_name, oracle, level_name in groupers
        )
        groups.setdefault(key, []).append(measure_values[i])
    out = {}
    for key, vals in groups.items():
        if agg == "sum":
            out[key] = sum(vals)
        elif agg == "min":
            out[key] = min(vals)
        elif agg == "max":
            out[key] = max(vals)
        elif agg == "count":
            out[key] = len(vals)
        else:
            raise ValueError(agg)
    return out


def spearman_rho(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        rank = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                rank[order[k]] = avg
            i = j + 1
        return rank
    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Code-level helpers
# ---------------------------------------------------------------------------

def cell_dict(cells):
    """A CellSet as {coordinate tuple: Python number}."""
    if not len(cells):
        return {}
    py = float if cells.values.dtype.kind == "f" else int
    coords = zip(*(c.tolist() for c in cells.key_cols))
    return {key: py(v) for key, v in zip(coords, cells.values.tolist())}


def grouper_dims(q):
    """The dimensions a CubeQuery groups by."""
    return {g.dimension_name for g in q.groupers}


def render_statement(stmt):
    """Canonical text for a parsed AnalyzeStatement; re-parsing yields an
    identical AST."""
    def quoted(label):
        return "'" + label.replace("\\", "\\\\").replace("'", "\\'") + "'"
    parts = [f"ANALYZE {stmt.agg}({stmt.measure})"]
    if stmt.alias:
        parts.append(f"AS {stmt.alias}")
    parts.append(f"FROM {stmt.cube_name}")
    parts.append("FOR " + " AND ".join(
        f"{a.level.dimension_name}.{a.level.name} = {quoted(a.label)}" for a in stmt.atoms))
    parts.append("GROUP BY " + ", ".join(f"{g.dimension_name}.{g.name}" for g in stmt.groupers))
    if stmt.name:
        parts.append(f"AS {stmt.name}")
    return " ".join(parts)


def desc(dim, from_level, to_level, member):
    """All codes at ``to_level`` whose ancestor at ``from_level`` is
    ``member``, as a sorted int64 array.  Identity set at the same level."""
    hi, lo = dim.level(from_level), dim.level(to_level)
    if lo.depth > hi.depth:
        raise LevelOrderViolation(f"desc goes from coarse to detailed, got {hi!r} -> {lo!r}")
    member = anc(dim, hi, hi, member)  # checks the code's range
    up = np.arange(lo.member_count)
    for parents in dim.parent_of[lo.depth:hi.depth]:
        up = parents[up]
    return np.flatnonzero(up == member)


def siblings_under_parent(dim, level, member):
    """All members sharing ``member``'s parent (including member itself)."""
    lv = dim.level(level)
    parent = dim.parent_level(lv)  # raises NoParentLevel at ALL
    return desc(dim, parent, lv, anc(dim, lv, parent, member))


def filter_rows(cube, detailed_condition):
    """Rows whose level-0 coordinate is in the code set of every constrained
    dimension (bitset).  Unconstrained dimensions are unrestricted."""
    atoms = []
    for dim_name, codes in detailed_condition.items():
        dim = cube.schema.dimension(dim_name)  # raises UnknownDimension
        atoms.append((dim.detailed_level, tuple(sorted(int(c) for c in codes))))
    return cube.condition_mask(atoms)


def _descendants(dim, atom, depth):
    """Union of the descendant sets of the atom's values at ``depth`` (sorted)."""
    return np.unique(np.concatenate([desc(dim, atom.level, dim.levels[depth], v)
                                     for v in atom.values]))


def detailed_proxy(dim, atom):
    """The atom re-expressed at level 0 of its dimension: the union of the
    values' descendant sets.  Selects exactly the same detailed subspace."""
    if atom.level.depth == 0:
        return atom
    return SelectionAtom(dim.detailed_level, tuple(_descendants(dim, atom, 0).tolist()))


def grouper_domain(dim, atom, grouper_level):
    """Grouper-level codes producible under the atom (sorted array)."""
    g = dim.level(grouper_level)
    if g.depth > atom.level.depth:
        raise LevelOrderViolation(f"grouper level {g!r} is above the atom level {atom.level!r}")
    return _descendants(dim, atom, g.depth)


def run_forced(name, fs):
    """The AnalyzeResult of strategy ``name`` forced on facilitator set ``fs``."""
    return run_strategy(build_plan(name, fs))


def usable_route(lattice, q):
    """The smallest cuboid of ``lattice`` that holds q's (measure, aggregate)
    and passes cube_usable for q, or None."""
    key = (q.cube.schema.measure(q.measure_name).name, q.agg)
    for routes in lattice.cuboids:  # smallest first
        route = routes.get(key)
        if route is not None and cube_usable(route.query, q):
            return route
    return None


def cube_usable_reference(q_base, q_new):
    """The six-condition checklist as first written, without fast paths:
    query.cube_usable must return the same report, failed condition by
    failed condition and reason by reason."""
    checks: list[tuple[str, bool, str]] = []

    same_cube = q_base.cube == q_new.cube  # a cuboid's query holds a proxy of its cube
    checks.append(("i", same_cube, "different detailed cubes"))

    problems = []
    base_dims, new_dims = grouper_dims(q_base), grouper_dims(q_new)
    if not new_dims <= base_dims:
        extra = sorted(new_dims - base_dims)
        problems.append(f"dimensions {extra} absent from the base schema")
    base_measure = q_base.cube.schema.measure(q_base.measure_name).name
    new_measure = q_new.cube.schema.measure(q_new.measure_name).name
    if base_measure != new_measure:
        problems.append(f"measures differ ({base_measure} vs {new_measure})")
    if q_base.agg != q_new.agg:
        problems.append(f"aggregates differ ({q_base.agg} vs {q_new.agg})")
    if q_base.agg not in AGG_FUNCTIONS or q_new.agg not in AGG_FUNCTIONS:
        problems.append("aggregate is not distributive")
    checks.append(("ii", not problems, "; ".join(problems)))

    # (iii), one conjunctive atom per dimension, is enforced by SelectionCondition.

    order_problem = q_base.filter_order_problem or q_new.filter_order_problem
    checks.append(("iv", order_problem is None, order_problem))

    base_fine = {d: q_base.groupers[i] for d, i in q_base.finest.items()}
    v_problems = []
    for g in q_new.groupers:
        base_level = base_fine.get(g.dimension_name)
        if base_level is None:
            continue  # already reported under (ii)
        if base_level.depth > g.depth:
            v_problems.append(f"{g!r} is below the base grouper {base_level!r}")
    checks.append(("v", not v_problems, "; ".join(v_problems)))

    vi_problems = []
    if same_cube:
        schema = q_base.cube.schema
        base_atoms, new_atoms = q_base.condition.by_dimension, q_new.condition.by_dimension
        for dim_name in sorted(base_atoms.keys() | new_atoms.keys()):
            a_base, a_new = base_atoms.get(dim_name), new_atoms.get(dim_name)
            if _atoms_equal(a_base, a_new):
                continue  # identical restriction: nothing to re-apply
            dim = schema.dimension(dim_name)
            base_level = base_fine.get(dim_name) or dim.all_level
            new_level = a_new.level if a_new is not None else dim.all_level
            if base_level.depth > new_level.depth:
                vi_problems.append(
                    f"atom on {dim_name} at {new_level!r} is not expressible at the base "
                    f"schema level {base_level!r}"
                )
                continue
            if a_base is None or a_base.level.is_all:
                continue  # base unconstrained: grouper domain is the full level
            if a_base.level.depth < base_level.depth:
                # The base cells carry no coordinate at the base atom's level,
                # so its restriction cannot be compared with the target's.
                vi_problems.append(
                    f"base atom on {dim_name} at {a_base.level!r} sits below the base "
                    f"schema level {base_level!r}"
                )
                continue
            lifted = (_descendants(dim, a_new, base_level.depth) if a_new is not None
                      else range(base_level.member_count))
            if not set(lifted) <= set(_descendants(dim, a_base, base_level.depth)):
                vi_problems.append(
                    f"atom on {dim_name} selects values outside the base grouper domain"
                )
    checks.append(("vi", not vi_problems, "; ".join(vi_problems)))

    return UsabilityReport(tuple((cid, why) for cid, ok, why in checks if not ok))


# ---------------------------------------------------------------------------
# Reference CSV reader and writer
# ---------------------------------------------------------------------------

def _shown(field):
    """A field as load errors quote it: its repr, cut after 40 characters."""
    return repr(field) if len(field) <= 40 else f"{field[:40]!r}... ({len(field)} characters)"


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lifts the limit on the digits int() converts, for the reference
    loader, which runs on one thread."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def read_facts_rowwise(fact_file, dimensions, measures, delimiter=","):
    """Load a fact CSV one csv.reader record at a time, each numbered by its
    first physical line.  Returns (coordinate columns, measure columns,
    {measure: kind}) with the engine loader's dtypes, or raises the error
    the engine must raise for the first bad record.  Dimensions are checked
    in schema order, then measures in header order, as the engine does."""
    with open(fact_file, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = [h.strip().lower() for h in next(reader)]
        dim_idx = [(d, header.index(d.detailed_level.name.lower())) for d in dimensions]
        codes = {d.name: {label: code for code, label in enumerate(d.dictionaries[0].labels)}
                 for d in dimensions}
        kinds = {name.lower(): kind for name, kind in measures}
        measure_idx = [(low, header.index(low)) for low in header if low in kinds]
        coords = {d.name: [] for d in dimensions}
        values = {low: [] for low in kinds}
        is_float = {low: kind == "decimal" for low, kind in kinds.items()}
        before = reader.line_num
        for row in reader:
            line, before = before + 1, reader.line_num
            where = f"{fact_file}:{line}"
            if len(row) != len(header):
                raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
            for dim, idx in dim_idx:
                label = row[idx].strip()
                if not label:
                    raise ParseError(f"{where}: empty coordinate for {dim.name}")
                if label not in codes[dim.name]:
                    raise UnknownMemberLabel(
                        f"{where}: unknown member {_shown(label)} for dimension {dim.name}")
                coords[dim.name].append(codes[dim.name][label])
            for low, idx in measure_idx:
                text = row[idx].strip()
                if not text:
                    raise ParseError(f"{where}: null measure {low!r}")
                if not is_float[low]:
                    try:
                        with _no_int_digit_limit():
                            value = int(text)
                    except ValueError:
                        value = None
                    if value is not None and -2**63 <= value < 2**63:
                        values[low].append(value)
                        continue
                    if kinds[low] == "integer":
                        problem = (f"declared integer but got {_shown(text)}" if value is None
                                   else f"value {_shown(text)} is outside the int64 range")
                        raise ParseError(f"{where}: measure {low!r} {problem}")
                    is_float[low] = True
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(
                        f"{where}: measure {low!r} is not numeric: {_shown(text)}") from None
                if not math.isfinite(value):
                    raise ParseError(f"{where}: measure {low!r} is not finite: {value}")
                values[low].append(value)
    coord_cols = {name: np.asarray(col, dtype=np.int64) for name, col in coords.items()}
    measure_cols = {name: np.asarray([float(v) for v in values[name.lower()]]
                                     if is_float[name.lower()] else values[name.lower()],
                                     dtype=np.float64 if is_float[name.lower()] else np.int64)
                    for name, _ in measures}
    return coord_cols, measure_cols, {name: "decimal" if is_float[name.lower()] else "integer"
                                      for name, _ in measures}


def generate_rowwise(spec, out_dir, seed=None):
    """Write spec's dataset with csv.writer, one row per writerow, drawing
    the same values as synth.generate."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    detailed_labels = {}
    for dim in spec.dimensions:
        names = dim.names()
        paths = _member_paths(dim)
        level_labels = [_labels(dim, nm, size) for nm, size in zip(names, dim.level_sizes)]
        detailed_labels[dim.name] = level_labels[0]
        with open(out / f"{dim.name}_members.csv", "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for member in range(dim.level_sizes[0]):
                writer.writerow([labels[path[member]] for labels, path in zip(level_labels, paths)])
    coords = {dim.name: rng.integers(0, dim.level_sizes[0], spec.facts)
              for dim in spec.dimensions}
    values = {}
    for m in spec.measures:
        if m.kind == "integer":
            values[m.name] = [str(int(v)) for v in
                              rng.integers(int(m.low), int(m.high) + 1, spec.facts)]
        else:
            values[m.name] = [f"{v:.2f}" for v in
                              np.round(rng.uniform(m.low, m.high, spec.facts), 2)]
    with open(out / "facts.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([d.names()[0] for d in spec.dimensions] + [m.name for m in spec.measures])
        for i in range(spec.facts):
            writer.writerow([detailed_labels[d.name][coords[d.name][i]] for d in spec.dimensions]
                            + [values[m.name][i] for m in spec.measures])
    schema = {
        "cube": spec.name,
        "dimensions": [{"name": dim.name, "levels": dim.names() + ["ALL"],
                        "members": f"{dim.name}_members.csv"} for dim in spec.dimensions],
        "measures": [{"name": m.name, "kind": m.kind} for m in spec.measures],
        "facts": "facts.csv",
    }
    with open(out / "schema.json", "w", newline="\n", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
