"""Shared dataset builders: a mini retail star schema, the two-dimension
walkthrough cube, random cubes/queries, and a writer that turns any of them
into on-disk CSV datasets for loader/CLI tests."""

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cubelens.analyze import AnalyzeQuery
from cubelens.cube import CubeSchema, DetailedCube, Measure
from cubelens.hierarchy import dimension_from_member_rows
from cubelens.query import SelectionAtom, SelectionCondition

from oracles import HierarchyOracle


@dataclass
class DatasetTables:
    """Label-level description of a dataset, usable by both the engine
    builders and the oracles."""

    cube_name: str
    dims: dict  # name -> (level_names without ALL, ancestor-path rows)
    measures: list  # (name, kind)
    fact_rows: list = field(default_factory=list)  # dicts dim -> detailed label
    fact_measures: dict = field(default_factory=dict)  # name -> list of values


def build_cube(tables: DatasetTables) -> DetailedCube:
    dims = [dimension_from_member_rows(name, levels, rows)
            for name, (levels, rows) in tables.dims.items()]
    schema = CubeSchema(tables.cube_name, dims, [Measure(n, k) for n, k in tables.measures])
    coords = {}
    for dim in dims:
        codes = [dim.member_code(dim.detailed_level, row[dim.name])
                 for row in tables.fact_rows]
        coords[dim.name] = np.asarray(codes, dtype=np.int64)
    measure_cols = {}
    for name, kind in tables.measures:
        vals = tables.fact_measures[name]
        dtype = np.int64 if kind == "integer" else np.float64
        measure_cols[name] = np.asarray(vals, dtype=dtype)
    return DetailedCube(schema, coords, measure_cols)


def spy_bitsets(monkeypatch) -> list:
    """Record the cube of every DetailedCube.condition_mask and atom_mask
    call, the two ways a bitset is built."""
    cubes = []
    for name in ("condition_mask", "atom_mask"):
        def spy(self, *args, _original=getattr(DetailedCube, name)):
            cubes.append(self)
            return _original(self, *args)
        monkeypatch.setattr(DetailedCube, name, spy)
    return cubes


def build_oracles(tables: DatasetTables) -> dict:
    return {name: HierarchyOracle(levels, rows)
            for name, (levels, rows) in tables.dims.items()}


def write_dataset(tables: DatasetTables, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema = {"cube": tables.cube_name, "dimensions": [], "measures": [], "facts": "facts.csv"}
    for name, (levels, rows) in tables.dims.items():
        member_file = f"{name}_members.csv"
        with open(out / member_file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(levels)
            writer.writerows(rows)
        schema["dimensions"].append({"name": name, "levels": list(levels) + ["ALL"],
                                     "members": member_file})
    for mname, kind in tables.measures:
        schema["measures"].append({"name": mname, "kind": kind})
    with open(out / "facts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        l0_names = [levels[0] for levels, _ in tables.dims.values()]
        writer.writerow(l0_names + [m for m, _ in tables.measures])
        for i, row in enumerate(tables.fact_rows):
            record = [row[name] for name in tables.dims]
            record += [tables.fact_measures[m][i] for m, _ in tables.measures]
            writer.writerow(record)
    (out / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    return out / "schema.json"


# ---------------------------------------------------------------------------
# int64 sum overflow
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1
OVERFLOW_QUERY = ("ANALYZE sum(m) FROM c FOR A.Grp = 'g1' AND B.Grp = 'h1' "
                  "GROUP BY A.Grp, B.Grp")
# Max-MQO's base covers g2 x h2, which no facilitator reads, and its cell sum
# there leaves int64; every facilitator cell fits.
OUTSIDE_OVERFLOW_FACTS = [("a3", "b3", INT64_MAX), ("a3", "b3", INT64_MAX), ("a1", "b1", 5),
                          ("a2", "b2", 7), ("a3", "b1", 1), ("a1", "b3", 2)]


def overflow_tables(facts) -> DatasetTables:
    """A: a1, a2 under g1 and a3 under g2; B likewise with b/h.  ``facts`` is
    a list of (a leaf, b leaf, value)."""
    dims = {"A": (["Leaf", "Grp", "Top"], [("a1", "g1", "t"), ("a2", "g1", "t"),
                                           ("a3", "g2", "t")]),
            "B": (["Unit", "Grp", "Top"], [("b1", "h1", "u"), ("b2", "h1", "u"),
                                           ("b3", "h2", "u")])}
    # both dimensions name their middle level Grp, so statements qualify it
    return DatasetTables("c", dims, [("m", "integer")],
                         [{"A": a, "B": b} for a, b, _ in facts],
                         {"m": [v for _, _, v in facts]})


# ---------------------------------------------------------------------------
# Mini retail schema (Sales cube, 5 dimensions)
# ---------------------------------------------------------------------------

def foodmart_tables(n_facts: int = 240, seed: int = 1997) -> DatasetTables:
    date_rows = []
    for year, months in (("1997", range(1, 13)), ("1998", range(1, 4))):
        for m in months:
            quarter = f"{year}-Q{(m - 1) // 3 + 1}"
            month = f"{year}-{m:02d}"
            for dd in (5, 20):
                date_rows.append((f"{month}-{dd:02d}", month, quarter, year))

    region_map = [
        ("CA-North", "CA", "USA"),
        ("CA-South", "CA", "USA"),
        ("OR-Metro", "OR", "USA"),
        ("WA-West", "WA", "USA"),
        ("BC-Lower", "BC", "Canada"),
    ]
    customer_rows = []
    for i in range(12):
        region, state, country = region_map[i % len(region_map)]
        customer_rows.append((f"C{i + 1:02d}", region, state, country))

    media = ["Daily Paper", "Radio", "TV"]
    promo_rows = [(f"P{i + 1}", media[i % 3]) for i in range(6)]

    product_rows = [(f"Prod{i + 1}", f"Brand{i // 2 + 1}", f"Cat{i // 4 + 1}")
                    for i in range(8)]
    store_rows = [("S1", "CA-St", "USA"), ("S2", "CA-St", "USA"),
                  ("S3", "OR-St", "USA"), ("S4", "OR-St", "USA")]

    dims = {
        "Date": (["Day", "Month", "Quarter", "Year"], date_rows),
        "Customer": (["CustomerId", "customerRegion", "State", "Country"], customer_rows),
        "Promo": (["Promotion", "Media"], promo_rows),
        "Product": (["Product", "Brand", "Category"], product_rows),
        "Store": (["StoreId", "StoreState", "StoreCountry"], store_rows),
    }

    rng = random.Random(seed)
    fact_rows, sales, cost, units = [], [], [], []
    for _ in range(n_facts):
        fact_rows.append({
            "Date": rng.choice(date_rows)[0],
            "Customer": rng.choice(customer_rows)[0],
            "Promo": rng.choice(promo_rows)[0],
            "Product": rng.choice(product_rows)[0],
            "Store": rng.choice(store_rows)[0],
        })
        sales.append(float(rng.randint(1, 500)))
        cost.append(float(rng.randint(1, 200)))
        units.append(rng.randint(1, 9))
    return DatasetTables(
        cube_name="Sales",
        dims=dims,
        measures=[("store_sales", "decimal"), ("store_cost", "decimal"),
                  ("unit_sales", "integer")],
        fact_rows=fact_rows,
        fact_measures={"store_sales": sales, "store_cost": cost, "unit_sales": units},
    )


REFERENCE_QUERY = (
    "ANALYZE sum(store_sales) as SumSales FROM Sales "
    "FOR Date.Quarter = 1997-Q3 AND Customer.State = 'CA' "
    "AND Promo.Media = 'Daily Paper' "
    "GROUP BY month, customerRegion AS PaperPromoCA1997Q3"
)


# ---------------------------------------------------------------------------
# Walkthrough cube (sales over Geo x Date, filters at the grouper levels)
# ---------------------------------------------------------------------------

def walkthrough_tables(n_facts: int = 150, seed: int = 2025) -> DatasetTables:
    geo_rows = [
        ("Los Angeles", "CA", "USA"), ("San Francisco", "CA", "USA"),
        ("San Diego", "CA", "USA"), ("Las Vegas", "NV", "USA"),
        ("Reno", "NV", "USA"), ("Portland", "OR", "USA"),
    ]
    date_rows = []
    for year in ("2024", "2025"):
        for m in range(1, 13):
            date_rows.append((f"{year}-{m:02d}", f"{year}-Q{(m - 1) // 3 + 1}", year))
    dims = {
        "Geo": (["City", "State", "Country"], geo_rows),
        "Date": (["Month", "Quarter", "Year"], date_rows),
    }
    rng = random.Random(seed)
    fact_rows, sales = [], []
    for _ in range(n_facts):
        fact_rows.append({"Geo": rng.choice(geo_rows)[0], "Date": rng.choice(date_rows)[0]})
        sales.append(rng.randint(1, 100))
    return DatasetTables(
        cube_name="sales",
        dims=dims,
        measures=[("store_sales", "integer")],
        fact_rows=fact_rows,
        fact_measures={"store_sales": sales},
    )


WALKTHROUGH_QUERY = (
    "ANALYZE sum(store_sales) FROM sales "
    "FOR state = 'CA' AND quarter = '2025-Q4' GROUP BY state,quarter"
)


# ---------------------------------------------------------------------------
# Random cubes and queries
# ---------------------------------------------------------------------------

def random_tables(rng: random.Random, max_dims: int = 4, max_facts: int = 600,
                  max_detailed: int = 40) -> DatasetTables:
    n_dims = rng.randint(2, max_dims)
    dims = {}
    for d in range(n_dims):
        name = f"D{d}"
        depth = rng.randint(2, 3)  # non-ALL levels: 2 or 3
        sizes = [rng.randint(4, max_detailed)]
        for _ in range(depth - 1):
            sizes.append(max(2, sizes[-1] // rng.randint(2, 4)))
        level_names = [f"{name}L{i}" for i in range(depth)]
        parents = [
            [rng.randrange(sizes[i + 1]) for _ in range(sizes[i])]
            for i in range(depth - 1)
        ]
        rows = []
        for code in range(sizes[0]):
            path = [code]
            for i in range(depth - 1):
                path.append(parents[i][path[-1]])
            rows.append(tuple(f"{name}_{level_names[i]}_{path[i]:03d}" for i in range(depth)))
        dims[name] = (level_names, rows)

    n_facts = rng.randint(0, max_facts)
    fact_rows, values = [], []
    detailed = {name: [r[0] for r in rows] for name, (_, rows) in dims.items()}
    for _ in range(n_facts):
        fact_rows.append({name: rng.choice(detailed[name]) for name in dims})
        values.append(rng.randint(-50, 1000))
    return DatasetTables(
        cube_name="rand",
        dims=dims,
        measures=[("m", "integer")],
        fact_rows=fact_rows,
        fact_measures={"m": values},
    )


def random_analyze(rng: random.Random, cube: DetailedCube,
                   aggs=("sum", "min", "max", "count"),
                   atom_probability: float = 0.85) -> AnalyzeQuery:
    dims = list(cube.schema.dimensions)
    d_a, d_b = rng.sample(dims, 2)
    atoms = []

    def pick_grouper_and_atom(dim):
        top = len(dim.levels) - 2  # highest non-ALL depth
        g_depth = rng.randint(0, top)
        grouper = dim.levels[g_depth]
        if rng.random() < atom_probability:
            a_depth = rng.randint(g_depth, top)
            level = dim.levels[a_depth]
            code = rng.randrange(level.member_count)
            atoms.append(SelectionAtom(level, (code,)))
        return grouper

    g_a = pick_grouper_and_atom(d_a)
    g_b = pick_grouper_and_atom(d_b)
    for dim in dims:
        if dim is d_a or dim is d_b:
            continue
        if rng.random() < 0.4:
            depth = rng.randint(0, len(dim.levels) - 2)
            level = dim.levels[depth]
            atoms.append(SelectionAtom(level, (rng.randrange(level.member_count),)))
    return AnalyzeQuery(
        cube=cube,
        condition=SelectionCondition(atoms),
        groupers=(g_a, g_b),
        measure_name="m",
        measure_alias="m",
        agg=rng.choice(aggs),
        name="rand",
    )
