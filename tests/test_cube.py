import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelens import cube as cube_mod
from cubelens.analyze import ROLES
from cubelens.bench import run_analyze
from cubelens.cube import CubeSchema, DetailedCube, Measure, load_cube
from cubelens.errors import (
    ParseError,
    SchemaMismatch,
    UnknownDimension,
    UnknownMemberLabel,
)

from cubelens.hierarchy import dimension_from_member_rows, dimension_from_tables
from cubelens.query import SelectionAtom, SelectionCondition, cell_sets_equal
from cubelens.synth import SynthSpec, generate

from fixtures import (
    build_cube,
    check_level_codes,
    foodmart_tables,
    random_tables,
    spy_bitsets,
    write_dataset,
)
from oracles import desc, filter_rows, naive_filter, read_facts_rowwise

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import WORKLOADS, scaled  # noqa: E402


@pytest.fixture(scope="module")
def foodmart_on_disk(tmp_path_factory):
    tables = foodmart_tables()
    schema_path = write_dataset(tables, tmp_path_factory.mktemp("foodmart"))
    return tables, schema_path


def test_load_foodmart_shape(foodmart_on_disk):
    tables, schema_path = foodmart_on_disk
    cube = load_cube(schema_path)
    assert len(cube.schema.dimensions) == 5
    assert len(cube.schema.measures) == 3
    assert len(cube.coordinates) == 5
    assert len(cube.measure_columns) == 3
    assert cube.row_count == len(tables.fact_rows)


def test_loaded_columns_match_programmatic_build(foodmart_on_disk):
    tables, schema_path = foodmart_on_disk
    loaded = load_cube(schema_path)
    built = build_cube(tables)
    for name in loaded.coordinates:
        assert np.array_equal(loaded.coordinates[name], built.coordinates[name])
    for name in loaded.measure_columns:
        assert np.array_equal(loaded.measure_columns[name], built.measure_columns[name])


def test_ten_row_file_hand_decoded(tmp_path):
    tables = random_tables(random.Random(3), max_dims=2, max_facts=10)
    tables.fact_rows = tables.fact_rows[:10]
    for m, _ in tables.measures:
        tables.fact_measures[m] = tables.fact_measures[m][:10]
    schema_path = write_dataset(tables, tmp_path)
    cube = load_cube(schema_path)
    for name, (levels, _) in tables.dims.items():
        dim = cube.schema.dimension(name)
        decoded = [dim.member_label(levels[0], c) for c in cube.coordinates[name]]
        assert decoded == [row[name] for row in tables.fact_rows]
    assert cube.measure_columns["m"].tolist() == tables.fact_measures["m"]


def test_empty_fact_file(tmp_path):
    tables = foodmart_tables(n_facts=0)
    schema_path = write_dataset(tables, tmp_path)
    cube = load_cube(schema_path)
    assert cube.row_count == 0


def test_unknown_member_label(tmp_path):
    tables = foodmart_tables(n_facts=5)
    tables.fact_rows[2]["Customer"] = "C99"
    schema_path = write_dataset(tables, tmp_path)
    with pytest.raises(UnknownMemberLabel):
        load_cube(schema_path)


def test_null_measure_rejected(tmp_path):
    tables = foodmart_tables(n_facts=5)
    tables.fact_measures["unit_sales"][3] = ""
    schema_path = write_dataset(tables, tmp_path)
    with pytest.raises(ParseError):
        load_cube(schema_path)


def test_short_row_rejected(tmp_path):
    tables = foodmart_tables(n_facts=3)
    schema_path = write_dataset(tables, tmp_path)
    facts = schema_path.parent / "facts.csv"
    lines = facts.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1])
    facts.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_cube(schema_path)


def test_unexpected_column_rejected(tmp_path):
    tables = foodmart_tables(n_facts=3)
    schema_path = write_dataset(tables, tmp_path)
    facts = schema_path.parent / "facts.csv"
    lines = facts.read_text().splitlines()
    lines[0] += ",mystery"
    lines[1] += ",1"
    lines[2] += ",1"
    lines[3] += ",1"
    facts.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch):
        load_cube(schema_path)


def test_declared_integer_with_decimal_value(tmp_path):
    tables = foodmart_tables(n_facts=5)
    tables.fact_measures["unit_sales"][0] = "2.5"
    schema_path = write_dataset(tables, tmp_path)
    with pytest.raises(ParseError):
        load_cube(schema_path)


def test_measure_kind_inference(tmp_path):
    tables = random_tables(random.Random(5), max_dims=2, max_facts=6)
    if len(tables.fact_rows) < 2:
        tables.fact_rows = tables.fact_rows * 2 or [
            {name: rows[0][0] for name, (_, rows) in tables.dims.items()}] * 2
    tables.measures = [("m", None)]
    tables.fact_measures["m"] = ([1, 2, 3, "4.5", 5, 6] * len(tables.fact_rows))[: len(tables.fact_rows)]
    schema_path = write_dataset(tables, tmp_path)
    # undeclared kind: the loader infers decimal from the mixed values
    text = schema_path.read_text().replace('      "kind": null,\n', "")
    text = text.replace(',\n      "kind": null', "")
    schema_path.write_text(text)
    cube = load_cube(schema_path)
    assert cube.measure_columns["m"].dtype == np.float64


def test_integer_measures_stored_as_int64(foodmart_on_disk):
    _, schema_path = foodmart_on_disk
    cube = load_cube(schema_path)
    assert cube.measure_columns["unit_sales"].dtype == np.int64
    assert cube.measure_columns["store_sales"].dtype == np.float64


def test_dimension_file_overrides(foodmart_on_disk, tmp_path):
    tables, schema_path = foodmart_on_disk
    moved = tmp_path / "date_elsewhere.csv"
    moved.write_bytes((schema_path.parent / "Date_members.csv").read_bytes())
    named = load_cube(schema_path, dimension_files=[f"Date={moved}"])
    assert np.array_equal(named.coordinates["Date"],
                          load_cube(schema_path).coordinates["Date"])
    positional = load_cube(schema_path, dimension_files=[
        str(schema_path.parent / f"{n}_members.csv")
        for n in ("Date", "Customer", "Promo", "Product", "Store")])
    assert positional.row_count == len(tables.fact_rows)
    with pytest.raises(SchemaMismatch):
        load_cube(schema_path, dimension_files=[str(moved)])  # 1 file, 5 dims


def test_missing_fact_declaration(tmp_path, foodmart_on_disk):
    import json
    _, schema_path = foodmart_on_disk
    spec = json.loads(schema_path.read_text())
    del spec["facts"]
    stripped = tmp_path / "schema.json"
    stripped.write_text(json.dumps(spec))
    for name in ("Date", "Customer", "Promo", "Product", "Store"):
        (tmp_path / f"{name}_members.csv").write_bytes(
            (schema_path.parent / f"{name}_members.csv").read_bytes())
    with pytest.raises(SchemaMismatch):
        load_cube(stripped)
    cube = load_cube(stripped, fact_file=schema_path.parent / "facts.csv")
    assert cube.row_count > 0


def test_measures_differing_only_in_case_rejected(tmp_path):
    # measure lookup is case-insensitive: 'amount' would read Amount's column
    tables = random_tables(random.Random(7), max_dims=2, max_facts=20)
    tables.measures = [("amount", "integer"), ("Amount", "integer")]
    tables.fact_measures = {"amount": [1] * len(tables.fact_rows),
                            "Amount": [1000] * len(tables.fact_rows)}
    schema_path = write_dataset(tables, tmp_path)
    with pytest.raises(SchemaMismatch, match="duplicate measure 'amount' and 'Amount'"):
        load_cube(schema_path)
    dims = list(build_cube(random_tables(random.Random(7), max_dims=2)).schema.dimensions)
    with pytest.raises(SchemaMismatch, match="duplicate measure"):
        CubeSchema("c", dims, [Measure("amount", "integer"), Measure("AMOUNT", "decimal")])


def test_error_after_multiline_label_names_its_physical_line(tmp_path):
    # the quoted label spans lines 2-3, so the 5th record starts on line 7
    (tmp_path / "A.csv").write_text('Leaf,Grp\n"a\n1",g1\na2,g1\n')
    (tmp_path / "B.csv").write_text("Unit,Band\nb1,h1\n")
    (tmp_path / "facts.csv").write_text(
        'Leaf,Unit,m\n"a\n1",b1,5\na2,b1,6\na2,b1,7\na2,b1,8\na2,b1,x\n')
    (tmp_path / "schema.json").write_text(
        '{"cube": "c", "facts": "facts.csv", "measures": [{"name": "m", "kind": "integer"}], '
        '"dimensions": [{"name": "A", "levels": ["Leaf", "Grp", "ALL"], "members": "A.csv"}, '
        '{"name": "B", "levels": ["Unit", "Band", "ALL"], "members": "B.csv"}]}')
    with pytest.raises(ParseError) as err:
        load_cube(tmp_path / "schema.json")
    assert str(err.value) == \
        f"{tmp_path / 'facts.csv'}:7: measure 'm' declared integer but got 'x'"


def _same_cube(a, b):
    assert [(m.name, m.kind) for m in a.schema.measures] == \
        [(m.name, m.kind) for m in b.schema.measures]
    for name in a.coordinates:
        assert np.array_equal(a.coordinates[name], b.coordinates[name])
    for name, col in a.measure_columns.items():
        assert col.dtype == b.measure_columns[name].dtype
        assert np.array_equal(col, b.measure_columns[name])


@pytest.mark.parametrize("file_name", ["schema.json", "Date_members.csv", "facts.csv"])
def test_utf8_bom_is_accepted(tmp_path, file_name):
    # Excel's "CSV UTF-8" starts every file with a byte order mark
    schema_path = write_dataset(foodmart_tables(n_facts=40), tmp_path)
    plain = load_cube(schema_path)
    path = tmp_path / file_name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    _same_cube(load_cube(schema_path), plain)


# -- the column path against the row-at-a-time reference ---------------------

FACT_DIMS = [
    # An empty field must not decode to the member "", a padded field must
    # not decode to " a3", and a quoted "a2" is a2, not the member '"a2"'.
    dimension_from_tables("A", ["Leaf", "Grp"], [
        ["a1", "a2", "", "a b", "a,c", 'a"q', "a\nn", " a3", '"a2"'], ["g1", "g2"]],
        [[0, 0, 0, 1, 1, 1, 0, 1, 1]]),
    dimension_from_member_rows("B", ["Unit", "Band"], [("b1", "h1"), ("b2", "h1"), ("b3", "h2")]),
]
FACT_MEASURES = [("i", "integer"), ("d", "decimal"), ("u", None)]


def _field(text):
    """``text`` as csv.writer quotes it, except that " a3" stays padded."""
    return f'"{text.replace(chr(34), 2 * chr(34))}"' if any(c in text for c in ',"\n\r') else text


def _random_fact_file(rng, path):
    """A fact file of plain rows with a few hazards mixed in: padding,
    quoting, CRLF, blank lines, no final newline, a short row next to a
    long one, empty fields, odd integer spellings, values beyond int64,
    non-finite decimals, unknown labels, and an undeclared column turning
    decimal late in the file."""
    hazards = set(rng.sample([
        "pad", "quote", "crlf", "blank", "no_final_newline", "short_long", "empty",
        "spelling", "beyond_int64", "non_finite", "unknown", "turns_decimal",
        "beyond_undeclared", "odd_label"], k=rng.choice([0, 1, 1, 1, 2, 3])))
    n = rng.randint(0, 40)
    rows = []
    for _ in range(n):
        odd = ["a,c", 'a"q', "a\nn", " a3", '"a2"'] if "odd_label" in hazards else []
        a = rng.choice(["a1", "a2", "a b"] + odd)
        rows.append([a, rng.choice(["b1", "b2", "b3"]), str(rng.randint(-1000, 1000)),
                     f"{rng.uniform(-100, 100):.3f}", str(rng.randint(0, 99))])
    hit = lambda: rng.randrange(n)  # noqa: E731
    if n:
        if "pad" in hazards:
            for _ in range(3):
                row = rows[hit()]
                col = rng.randrange(5)
                row[col] = rng.choice([" ", "\t", "\xa0"]) + row[col] + " "
        if "empty" in hazards:
            rows[hit()][rng.randrange(5)] = rng.choice(["", "  "])
        if "spelling" in hazards:
            rows[hit()][rng.choice([2, 4])] = rng.choice(["1_000", "+5", "-0", "0x10", "1e3"])
        if "beyond_int64" in hazards:
            rows[hit()][2] = str(rng.choice([1 << 63, -(1 << 63) - 1, 1 << 70]))
        if "beyond_undeclared" in hazards:
            rows[hit()][4] = str(1 << 64)
        if "non_finite" in hazards:
            rows[hit()][3] = rng.choice(["nan", "inf", "-Infinity", "1e400"])
        if "unknown" in hazards:
            rows[hit()][rng.randrange(2)] = "zz"
        if "turns_decimal" in hazards:
            rows[rng.randrange(n // 2, n)][4] = "2.5"
    lines = [",".join(_field(f) for f in row) for row in rows]
    if "quote" in hazards and n:  # quote one plain field, the label most often
        i, col = hit(), rng.choice([0, 0, 0, 1, 2, 3, 4])
        if not any(c in rows[i][col] for c in ',"\n'):
            lines[i] = ",".join(f'"{f}"' if j == col else _field(f) for j, f in enumerate(rows[i]))
    if "short_long" in hazards and n >= 2:
        i = rng.randrange(n - 1)
        lines[i] = lines[i].rsplit(",", 1)[0]
        lines[i + 1] += ",7"
    ends = ["\r\n" if "crlf" in hazards and rng.random() < 0.5 else "\n" for _ in lines]
    if "blank" in hazards and n:
        ends[hit()] += "\n"
    text = "Leaf,Unit,i,d,u\n" + "".join(line + end for line, end in zip(lines, ends))
    if "no_final_newline" in hazards and text.endswith("\n"):
        text = text[:-1]
    path.write_bytes(text.encode("utf-8"))


def _load_outcome(load, path):
    try:
        return load(path, FACT_DIMS, FACT_MEASURES)
    except Exception as exc:  # the error is part of the outcome
        return type(exc), str(exc)


def test_column_path_matches_rowwise_reference(tmp_path, monkeypatch):
    decided = []
    add_columns = cube_mod._FactColumns._add_columns

    def spy(self, lines):
        decided.append(add_columns(self, lines))
        return decided[-1]

    monkeypatch.setattr(cube_mod._FactColumns, "_add_columns", spy)
    rng = random.Random(13)
    path = tmp_path / "facts.csv"
    for case in range(1000):
        _random_fact_file(rng, path)
        # chunks of one to a few rows, so chunk boundaries fall inside every hazard
        monkeypatch.setattr(cube_mod, "FACT_CHUNK_CHARS", rng.choice([1, 30, 80, 200]))
        got = _load_outcome(cube_mod._read_facts, path)
        want = _load_outcome(read_facts_rowwise, path)
        if isinstance(want[0], type):
            assert got == want, (case, path.read_bytes())
            continue
        assert isinstance(got[0], dict), (case, got)
        coords, measures, kinds = got
        assert {m.name: m.kind for m in kinds} == want[2], case
        for name, col in list(coords.items()) + list(measures.items()):
            ref = want[0].get(name, want[1].get(name))
            assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), (case, name)
    assert True in decided and False in decided  # both paths ran


def test_fact_load_memory_is_bounded(tmp_path):
    # the loader holds the columns plus one chunk: neither the whole file nor
    # a second copy of the columns
    generate(SynthSpec.from_dict({
        "name": "mem", "facts": 300_000, "seed": 5,
        "dimensions": [{"name": "A", "level_sizes": [500, 20]},
                       {"name": "B", "level_sizes": [300, 10]}],
        "measures": [{"name": "m", "kind": "integer"}],
    }), tmp_path)
    dims = [dimension_from_member_rows(name, [f"{name}L0", f"{name}L1"],
                                       _member_rows(tmp_path / f"{name}_members.csv"))
            for name in ("A", "B")]
    tracemalloc.start()
    try:
        coords, measures, _ = cube_mod._read_facts(tmp_path / "facts.csv", dims,
                                                   [("m", "integer")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(col.nbytes for col in list(coords.values()) + list(measures.values()))
    assert columns == 300_000 * 3 * 8
    assert peak < columns + (4 << 20), peak - columns


def _member_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# ---------------------------------------------------------------------------
# filter_rows
# ---------------------------------------------------------------------------

def test_filter_rows_reference_region(foodmart, foodmart_cube, foodmart_oracles):
    cube = foodmart_cube
    date = cube.schema.dimension("Date")
    cust = cube.schema.dimension("Customer")
    q3 = date.member_code("Quarter", "1997-Q3")
    ca = cust.member_code("State", "CA")
    condition = {
        "Date": desc(date, "Quarter", "Day", q3).tolist(),
        "Customer": desc(cust, "State", "CustomerId", ca).tolist(),
    }
    mask = filter_rows(cube, condition)

    oracle_ids = naive_filter(
        foodmart.fact_rows,
        [("Date", foodmart_oracles["Date"], "Quarter", {"1997-Q3"}),
         ("Customer", foodmart_oracles["Customer"], "State", {"CA"})],
    )
    assert oracle_ids  # the reference region is populated
    assert np.flatnonzero(mask).tolist() == oracle_ids


def test_filter_rows_unconstrained(foodmart_cube):
    mask = filter_rows(foodmart_cube, {})
    assert mask.all() and len(mask) == foodmart_cube.row_count


def test_filter_rows_unknown_dimension(foodmart_cube):
    with pytest.raises(UnknownDimension):
        filter_rows(foodmart_cube, {"Nope": [0]})


def test_filter_rows_random_against_scan():
    rng = random.Random(11)
    for _ in range(20):
        tables = random_tables(rng, max_dims=3, max_facts=300)
        cube = build_cube(tables)
        condition = {}
        label_condition = []
        for name, (levels, _) in tables.dims.items():
            if rng.random() < 0.6:
                dim = cube.schema.dimension(name)
                n0 = dim.detailed_level.member_count
                codes = rng.sample(range(n0), k=rng.randint(1, max(1, n0 // 3)))
                condition[name] = codes
                labels = {dim.member_label(levels[0], c) for c in codes}
                label_condition.append((name, None, levels[0], labels))
        mask = filter_rows(cube, condition)

        expect = []
        for i, row in enumerate(tables.fact_rows):
            if all(row[name] in allowed for name, _, _, allowed in label_condition):
                expect.append(i)
        assert np.flatnonzero(mask).tolist() == expect


def test_filter_rows_monotone_and_conjunctive():
    rng = random.Random(23)
    tables = random_tables(rng, max_dims=3, max_facts=400)
    cube = build_cube(tables)
    names = list(tables.dims)
    d0 = cube.schema.dimension(names[0])
    d1 = cube.schema.dimension(names[1])
    n0, n1 = d0.detailed_level.member_count, d1.detailed_level.member_count
    small = list(range(n0 // 2))
    large = list(range(n0))
    other = list(range(max(1, n1 // 3)))

    m_small = filter_rows(cube, {names[0]: small, names[1]: other})
    m_large = filter_rows(cube, {names[0]: large, names[1]: other})
    assert not (m_small & ~m_large).any()  # enlarging a set never shrinks rows

    m_conj = filter_rows(cube, {names[0]: small, names[1]: other})
    m_a = filter_rows(cube, {names[0]: small})
    m_b = filter_rows(cube, {names[1]: other})
    assert np.array_equal(m_conj, m_a & m_b)


def test_measure_peaks_recorded_at_build():
    # the peak |value| is a Python number, so -2**63 does not wrap
    from cubelens.cube import CubeSchema, DetailedCube, Measure
    from cubelens.hierarchy import dimension_from_member_rows, dimension_from_tables
    dim = dimension_from_member_rows("A", ["Leaf"], [("a1",)])
    cube = DetailedCube(
        CubeSchema("c", [dim], [Measure("i", "integer"), Measure("f", "decimal"),
                                Measure("e", "integer")]),
        {"A": np.zeros(3, np.int64)},
        {"i": np.asarray([5, -(1 << 63), 7], np.int64),
         "f": np.asarray([-2.5, 1.0, 0.5]),
         "e": np.asarray([-3, 2, 1], np.int64)},
    )
    assert cube.measure_peaks == {"i": 1 << 63, "f": 2.5, "e": 3}


@pytest.mark.parametrize("a, b, m, message", [
    ([0, 1], [0], [5, 6], "column lengths differ"),
    ([0, 1], [0, 1], [5], "column lengths differ"),
    ([0, 2], [0, 1], [5, 6], "out of range for dimension A"),
    ([0, 1], [-1, 1], [5, 6], "out of range for dimension B"),
], ids=["short-coordinates", "short-measure", "code-too-high", "negative-code"])
def test_columns_that_do_not_fit_the_schema_raise(a, b, m, message):
    dims = [dimension_from_member_rows(name, ["Leaf"], [(f"{name}1",), (f"{name}2",)])
            for name in "AB"]
    with pytest.raises(SchemaMismatch, match=message):
        DetailedCube(CubeSchema("c", dims, [Measure("m", "integer")]),
                     {"A": np.asarray(a), "B": np.asarray(b)}, {"m": np.asarray(m)})


# ---------------------------------------------------------------------------
# The row index
# ---------------------------------------------------------------------------

def _index_cube(rng, n_dims, n_facts):
    """A cube over dimensions whose parent maps are drawn freely (some
    members have no children) and whose facts leave members empty."""
    dims = []
    for d in range(n_dims):
        sizes = [rng.randint(1, 30)]
        for _ in range(rng.randint(0, 3)):
            sizes.append(rng.randint(1, max(1, sizes[-1])))
        names = [f"D{d}L{i}" for i in range(len(sizes))]
        labels = [[f"{name}_{c}" for c in range(size)] for name, size in zip(names, sizes)]
        parents = [[rng.randrange(sizes[i + 1]) for _ in range(sizes[i])]
                   for i in range(len(sizes) - 1)]
        dims.append(dimension_from_tables(f"D{d}", names, labels, parents))
    coords = {}
    for dim in dims:  # facts crowd a few members, so others stay empty
        used = rng.sample(range(dim.detailed_level.member_count),
                          rng.randint(1, dim.detailed_level.member_count))
        coords[dim.name] = np.array([rng.choice(used) for _ in range(n_facts)], dtype=np.int64)
    return DetailedCube(CubeSchema("ix", dims, [Measure("m", "integer")]), coords,
                        {"m": np.arange(n_facts, dtype=np.int64)})


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([0, 1, 40, 400]),
       st.sampled_from([0.0, 1 / 16, 1.0]))
def test_index_rows_equal_the_bitset_rows(seed, n_dims, n_facts, share):
    """Every member's slice holds exactly its atom's bitset rows; for random
    conditions (several values, any level from the detailed one to ALL),
    the index rows from any atom's slice, condition_rows on either path and
    condition_count all equal flatnonzero(condition_mask) and its popcount."""
    rng = random.Random(seed)
    cube = _index_cube(rng, n_dims, n_facts)
    for dim in cube.schema.dimensions:
        index = cube.row_index[dim.name]
        assert np.array_equal(np.sort(index.rows), np.arange(cube.row_count))
        for level in dim.levels:
            for code in range(level.member_count):
                bits = np.flatnonzero(cube.atom_mask(level, (code,)))
                assert np.array_equal(np.sort(index.slice_rows(level.depth, (code,))), bits)
                assert index.size(level.depth, (code,)) == len(bits)
    original = cube_mod.INDEX_SHARE
    cube_mod.INDEX_SHARE = share
    try:
        for _ in range(8):
            atoms = []
            for dim in cube.schema.dimensions:
                if rng.random() < 0.7:
                    level = rng.choice(dim.levels)
                    atoms.append(SelectionAtom(level, rng.sample(
                        range(level.member_count), rng.randint(1, min(3, level.member_count)))))
            condition = SelectionCondition(atoms)
            expect = np.flatnonzero(cube.condition_mask(condition.mask_atoms()))
            for first in range(len(atoms)):
                assert np.array_equal(np.sort(cube._index_rows(condition.mask_atoms(), first)),
                                      expect)
            assert np.array_equal(cube.condition_rows(condition), expect)
            fresh = DetailedCube(cube.schema, cube.coordinates, cube.measure_columns)
            assert fresh.condition_count(condition) == len(expect)
    finally:
        cube_mod.INDEX_SHARE = original


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([0, 1, 40, 400]))
def test_rolled_column_gathers_the_level_codes(seed, n_dims, n_facts):
    """At every depth of every dimension, ALL included, for no rows, random
    ascending rows and all rows (rows=None), with scale 1 and above:
    rolled_column is the rows' ancestor codes times the scale, as a fresh
    int64 array, and writing into it leaves the level columns as they were."""
    rng = random.Random(seed)
    cube = _index_cube(rng, n_dims, n_facts)
    before = {name: [col.copy() for col in cols] for name, cols in cube.level_codes.items()}
    for dim in cube.schema.dimensions:
        coords = cube.coordinates[dim.name]
        for level in dim.levels:
            for rows in (np.empty(0, np.int64),
                         np.array(sorted(rng.sample(range(n_facts), rng.randint(0, n_facts))),
                                  dtype=np.int64),
                         None):
                for scale in (1, rng.randint(2, 1 << 20)):
                    got = cube.rolled_column(dim.name, level.depth, rows, scale)
                    picked = coords if rows is None else coords[rows]
                    expect = dim.anc_array(0, level.depth)[picked] * scale
                    assert got.dtype == np.int64 and np.array_equal(got, expect)
                    assert not any(np.shares_memory(got, col)
                                   for cols in cube.level_codes.values() for col in cols)
                    got[:] = -1
    for name, cols in cube.level_codes.items():
        assert all(np.array_equal(a, b) for a, b in zip(cols, before[name]))
    check_level_codes(cube)


def _tiered_cube(facts=20_000, seed=5):
    """Two dimensions of 400 detailed members under 40 and then 20 parents,
    uniform facts: every member at level 2 or below holds at most 1/20 of
    the rows, under INDEX_SHARE."""
    gen = np.random.default_rng(seed)
    dims = [dimension_from_tables(name, [f"{name}0", f"{name}1", f"{name}2"],
                                  [[f"{name}{k}_{c}" for c in range(size)]
                                   for k, size in enumerate((400, 40, 20))],
                                  [[c // 10 for c in range(400)], [c // 2 for c in range(40)]])
            for name in ("A", "B")]
    coords = {d.name: gen.integers(0, 400, facts) for d in dims}
    return DetailedCube(CubeSchema("t", dims, [Measure("m", "integer")]), coords,
                        {"m": gen.integers(1, 1000, facts)})


def test_small_region_requests_build_no_bitset(monkeypatch):
    """A stream of distinct auto requests whose every region is small reads
    and counts rows through the row index only: no atom or condition bitset
    is built.  Half of them filter at level 0, whose regions no cuboid
    counts."""
    cube = _tiered_cube()
    built = spy_bitsets(monkeypatch)
    assert max(ix.size(2, (c,)) for ix in cube.row_index.values() for c in range(20)) \
        <= cube_mod.INDEX_SHARE * cube.row_count
    rng = random.Random(7)
    requests = []
    for i in range(24):
        agg = ("sum", "min", "max", "count")[i % 4]
        a = f"A0 = 'A0_{rng.randrange(400)}'" if i % 2 else f"A1 = 'A1_{rng.randrange(40)}'"
        requests.append(f"ANALYZE {agg}(m) FROM t FOR A.{a} AND B.B1 = 'B1_{rng.randrange(40)}' "
                        f"GROUP BY A.{a[:2]}, B.B1")
    results = [run_analyze(cube, text) for text in requests]
    assert cube.exec_stats.fact_scans > 0
    assert not built
    for text, result in zip(requests, results):
        oracle = run_analyze(cube, text, strategy="min")
        for role in ROLES:
            a, b = result.slots[role].cells, oracle.slots[role].cells
            assert (a is None) == (b is None) and (a is None or cell_sets_equal(a, b, 0.0))
    assert not built


def _held_arrays(obj) -> list[int]:
    """The ids of the arrays an object holds in its attributes, in its lists
    and dicts too, and in the lists a dict holds."""
    held = []
    for value in vars(obj).values():
        items = (value.values() if isinstance(value, dict) else
                 value if isinstance(value, list) else [value])
        for item in items:
            held += [id(a) for a in (item if isinstance(item, list) else [item])
                     if isinstance(a, np.ndarray)]
    return sorted(held)


def _held_objects(obj) -> dict:
    """Each attribute's object id, with the length of a dict or list."""
    return {name: (id(value), len(value) if isinstance(value, (dict, list)) else None)
            for name, value in vars(obj).items()}


def test_filter_state_stays_bounded_over_a_request_stream(tmp_path, monkeypatch):
    """Two blocks of distinct explore-cold requests on a scaled-down sweep
    cube, each run under auto and then under forced Min as the benchmark's
    checker does.  Only atoms holding more than INDEX_SHARE of the rows get
    a bitset, and none is kept: the cube and its lattice hold exactly the
    objects and arrays they held before, the level columns included, whose
    size the schema fixes, and no dict or list of theirs grows (the
    exec_stats counters are the one state that changes).  The lattice's cell
    sets hold the same arrays as before, once each has cached its codes at
    every level it can roll up to."""
    workload = WORKLOADS["explore-cold"]
    generate(SynthSpec.from_dict(scaled(workload.spec, 50_000)), tmp_path)
    cube = load_cube(tmp_path / "schema.json")
    routes = [route for cuboid in cube.lattice.cuboids for route in cuboid.values()]
    assert routes
    for route in routes:
        for g in route.query.groupers:
            dim = cube.schema.dimension(g.dimension_name)
            for level in dim.levels[g.depth:]:
                route.cells.codes_at(cube.schema, level)
    before = [_held_arrays(route.cells) for route in routes]
    held = _held_arrays(cube), _held_arrays(cube.lattice)
    objects = _held_objects(cube), _held_objects(cube.lattice)
    sizes = []

    def spy(self, level, codes, _original=DetailedCube.atom_mask):
        sizes.append(self.row_index[level.dimension_name].size(level.depth, codes))
        return _original(self, level, codes)
    monkeypatch.setattr(DetailedCube, "atom_mask", spy)

    blocks = workload.blocks(cube.schema, np.random.default_rng(1))
    texts = next(blocks) + next(blocks)
    assert len(set(texts)) == len(texts)
    for text in texts:
        result = run_analyze(cube, text)
        oracle = run_analyze(cube, text, strategy="min")
        for role in ROLES:
            a, b = result.slots[role].cells, oracle.slots[role].cells
            assert (a is None) == (b is None) and (a is None or cell_sets_equal(a, b, 0.0))

    assert sizes  # wide atoms took the bitset path
    assert min(sizes) > cube_mod.INDEX_SHARE * cube.row_count
    assert (_held_arrays(cube), _held_arrays(cube.lattice)) == held
    assert (_held_objects(cube), _held_objects(cube.lattice)) == objects
    check_level_codes(cube)
    assert [_held_arrays(route.cells) for route in routes] == before


def test_integer_past_the_conversion_digit_limit(tmp_path):
    """A zero-padded integer longer than int()'s digit limit loads at its
    value; a longer value is outside int64 for a declared integer, and
    turns an undeclared column decimal, where it is not finite."""
    dim = dimension_from_member_rows("A", ["Leaf"], [("a1",)])
    path = tmp_path / "facts.csv"
    path.write_text(f"Leaf,i,u\na1,{'0' * 5000}5,{'0_' * 3000}9\n")
    coords, measures, kinds = cube_mod._read_facts(path, [dim], [("i", "integer"), ("u", None)])
    assert measures["i"].tolist() == [5] and measures["u"].tolist() == [9]
    assert [m.kind for m in kinds] == ["integer", "integer"]
    path.write_text(f"Leaf,i\na1,{'9' * 5000}\n")
    with pytest.raises(ParseError, match=r"^[^\n]{,160}outside the int64 range$"):
        cube_mod._read_facts(path, [dim], [("i", "integer")])
    with pytest.raises(ParseError, match="is not finite: inf"):
        cube_mod._read_facts(path, [dim], [("i", None)])
