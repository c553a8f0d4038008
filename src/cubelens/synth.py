"""Deterministic synthetic star-schema dataset generator.

Produces a schema JSON, one member CSV per dimension and a fact CSV.  Parent
assignment within a hierarchy uses contiguous blocks whose widths follow a
geometric progression (``skew`` is the ratio; 1.0 means uniform fanout), so a
workload can pick filter values with very different selectivities.  Fact
coordinates are drawn uniformly over the detailed members.  The same spec and
seed always produce byte-identical files.

CSVs are written a column at a time by hierarchy.write_columns: each level's
labels are quoted once by csv.writer, each measure column is formatted by one
map, and each chunk of rows is joined with ",".join, so the bytes are
csv.writer's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cube import check_schema_spec
from .errors import InvalidSpec, SchemaMismatch
from .hierarchy import (
    ALL_LEVEL_NAME,
    coded_column,
    formatted_column,
    quote_labels,
    write_columns,
)


@dataclass
class DimensionSpec:
    name: str
    level_sizes: list[int]  # detailed -> coarse, ALL excluded
    level_names: list[str] = field(default_factory=list)
    skew: float = 1.0
    skews: list[float] = field(default_factory=list)  # per level pair, overrides skew

    def names(self) -> list[str]:
        if self.level_names:
            if len(self.level_names) != len(self.level_sizes):
                raise InvalidSpec(f"dimension {self.name}: {len(self.level_names)} names "
                                  f"for {len(self.level_sizes)} levels")
            return list(self.level_names)
        return [f"{self.name}L{i}" for i in range(len(self.level_sizes))]

    def skew_for(self, pair_index: int) -> float:
        if self.skews:
            return self.skews[pair_index]
        return self.skew


@dataclass
class MeasureSpec:
    name: str
    kind: str = "integer"
    low: float = 1
    high: float = 1000


@dataclass
class SynthSpec:
    name: str
    facts: int
    dimensions: list[DimensionSpec]
    measures: list[MeasureSpec]
    seed: int = 0

    @staticmethod
    def from_dict(raw: dict) -> "SynthSpec":
        try:
            dims = [DimensionSpec(
                name=d["name"],
                level_sizes=[int(s) for s in d["level_sizes"]],
                level_names=list(d.get("level_names", [])),
                skew=float(d.get("skew", 1.0)),
                skews=[float(s) for s in d.get("skews", [])],
            ) for d in raw["dimensions"]]
            measures = [MeasureSpec(
                name=m["name"],
                kind=m.get("kind", "integer"),
                low=m.get("low", 1),
                high=m.get("high", 1000),
            ) for m in raw["measures"]]
            return SynthSpec(
                name=raw.get("name", "synth"),
                facts=int(raw["facts"]),
                dimensions=dims,
                measures=measures,
                seed=int(raw.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidSpec(f"bad synthetic spec: {exc}") from None

    def validate(self, seed: int | None = None) -> None:
        """Raise InvalidSpec unless generate can write this spec; ``seed``
        overrides the spec's seed."""
        if (self.seed if seed is None else seed) < 0:
            raise InvalidSpec("seed must be >= 0")
        if not 0 <= self.facts < 2**63:
            raise InvalidSpec("fact count must be >= 0 and fit int64")
        if not self.dimensions:
            raise InvalidSpec("need at least one dimension")
        if not self.measures:
            raise InvalidSpec("need at least one measure")
        for d in self.dimensions:
            if not d.level_sizes or any(s < 1 for s in d.level_sizes):
                raise InvalidSpec(f"dimension {d.name}: level sizes must be >= 1")
            if any(a < b for a, b in zip(d.level_sizes, d.level_sizes[1:])):
                raise InvalidSpec(f"dimension {d.name}: level sizes must not grow upward")
            if not all(_finite(s) and s >= 1.0 for s in (d.skew, *d.skews)):
                raise InvalidSpec(f"dimension {d.name}: skew must be finite and >= 1.0")
            if d.skews and len(d.skews) != len(d.level_sizes) - 1:
                raise InvalidSpec(f"dimension {d.name}: need {len(d.level_sizes) - 1} skews")
            # block_parents weighs a level's parents by skew**k, k < parents
            if any(math.log(d.skew_for(i)) * (n - 1) + math.log(n) > 700
                   for i, n in enumerate(d.level_sizes[1:])):
                raise InvalidSpec(f"dimension {d.name}: skew is too large for its fanout")
            d.names()
        for m in self.measures:
            if m.kind not in ("integer", "decimal"):
                raise InvalidSpec(f"measure {m.name}: unknown kind {m.kind!r}")
            if not (_finite(m.low) and _finite(m.high)):
                raise InvalidSpec(f"measure {m.name}: low and high must be finite numbers")
            if m.high < m.low:
                raise InvalidSpec(f"measure {m.name}: empty value range")
            if m.kind == "integer" and not -2**63 <= int(m.low) <= int(m.high) < 2**63:
                raise InvalidSpec(f"measure {m.name}: integer bounds must lie in int64")
            if m.kind == "decimal" and not math.isfinite(float(m.high) - float(m.low)):
                raise InvalidSpec(f"measure {m.name}: the value range is too wide")


def _finite(x) -> bool:
    """Whether ``x`` is a number (not a bool) that converts to a finite float."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def block_parents(n_children: int, n_parents: int, skew: float,
                  child_mass=None) -> np.ndarray:
    """Weighted smooth round-robin assignment of children to parents.

    Parent j receives a share proportional to skew**(k-1-j) (member 0 the
    largest) of the total child mass (per-child weights, default 1 each),
    interleaved so those shares survive composition across several hierarchy
    levels."""
    weights = np.power(float(skew), np.arange(n_parents)[::-1].astype(np.float64))
    weights /= weights.sum()
    mass = (np.ones(n_children, dtype=np.float64) if child_mass is None
            else np.asarray(child_mass, dtype=np.float64))
    assigned = np.zeros(n_parents, dtype=np.float64)
    out = np.empty(n_children, dtype=np.int64)
    cum = 0.0
    for c in range(n_children):
        cum += mass[c]
        j = int(np.argmax(weights * cum - assigned))
        out[c] = j
        assigned[j] += mass[c]
    return out


def _member_paths(dim: DimensionSpec) -> list[np.ndarray]:
    """Per level, the ancestor code of every detailed member.  Parent shares
    are tracked in units of detailed members, so a level's weight menu holds
    regardless of how skewed the levels below it are."""
    sizes = dim.level_sizes
    paths = [np.arange(sizes[0], dtype=np.int64)]
    code = paths[0]
    detail_mass = np.ones(sizes[0], dtype=np.float64)
    for depth in range(1, len(sizes)):
        parent = block_parents(sizes[depth - 1], sizes[depth],
                               dim.skew_for(depth - 1), child_mass=detail_mass)
        code = parent[code]
        paths.append(code)
        detail_mass = np.bincount(parent, weights=detail_mass, minlength=sizes[depth])
    return paths


def _labels(dim: DimensionSpec, level_name: str, count: int) -> np.ndarray:
    return np.asarray([f"{dim.name}_{level_name}_{i:05d}" for i in range(count)])


def generate(spec: SynthSpec, out_dir, seed: int | None = None) -> dict:
    """Write the dataset files; returns a manifest of what was produced.
    A spec whose schema the loader would reject raises InvalidSpec before
    any file is written."""
    spec.validate(seed)
    schema = {
        "cube": spec.name,
        "dimensions": [{"name": dim.name, "levels": dim.names() + [ALL_LEVEL_NAME],
                        "members": f"{dim.name}_members.csv"} for dim in spec.dimensions],
        "measures": [{"name": m.name, "kind": m.kind} for m in spec.measures],
        "facts": "facts.csv",
    }
    try:
        check_schema_spec(schema, "synthetic spec")
    except SchemaMismatch as exc:
        raise InvalidSpec(str(exc)) from None
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {"name": spec.name, "facts": spec.facts, "dimensions": {}, "files": []}
    detailed = {}  # each dimension's quoted detailed labels
    for dim, dspec in zip(spec.dimensions, schema["dimensions"]):
        names = dim.names()
        quoted = [quote_labels(_labels(dim, nm, size)) for nm, size in zip(names, dim.level_sizes)]
        detailed[dim.name] = quoted[0]
        member_file = dspec["members"]
        with open(out / member_file, "w", newline="\n", encoding="utf-8") as fh:
            write_columns(fh, names, dim.level_sizes[0],
                          list(map(coded_column, quoted, _member_paths(dim))))
        manifest["dimensions"][dim.name] = dim.level_sizes[0]
        manifest["files"].append(member_file)

    coords = {dim.name: rng.integers(0, dim.level_sizes[0], spec.facts)
              for dim in spec.dimensions}
    measure_values = {}
    for m in spec.measures:
        if m.kind == "integer":
            measure_values[m.name] = rng.integers(int(m.low), int(m.high) + 1, spec.facts)
        else:
            measure_values[m.name] = np.round(rng.uniform(m.low, m.high, spec.facts), 2)

    columns = [coded_column(detailed[d.name], coords[d.name]) for d in spec.dimensions]
    columns += [formatted_column(str if m.kind == "integer" else "{:.2f}".format,
                                 measure_values[m.name]) for m in spec.measures]
    with open(out / "facts.csv", "w", newline="\n", encoding="utf-8") as fh:
        write_columns(fh, [d.names()[0] for d in spec.dimensions] + [m.name for m in spec.measures],
                      spec.facts, columns)
    manifest["files"].append("facts.csv")

    with open(out / "schema.json", "w", newline="\n", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["files"].append("schema.json")
    return manifest
