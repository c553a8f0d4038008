import contextlib
import csv
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelens.bench import WorkloadSpec
from cubelens.cli import main
from cubelens.errors import CubeLensError, ParseError

from fixtures import (
    OUTSIDE_OVERFLOW_FACTS,
    OVERFLOW_QUERY,
    REFERENCE_QUERY,
    foodmart_tables,
    overflow_tables,
    write_dataset,
)

SYNTH_SPEC = {
    "name": "bench",
    "facts": 5000,
    "seed": 7,
    "dimensions": [
        {"name": "D1", "level_sizes": [300, 30, 3], "skew": 3.0},
        {"name": "D2", "level_sizes": [200, 20, 2], "skew": 1.0},
    ],
    "measures": [{"name": "amount", "kind": "integer"}],
}


@pytest.fixture(scope="module")
def foodmart_dir(tmp_path_factory):
    tables = foodmart_tables()
    return write_dataset(tables, tmp_path_factory.mktemp("fm")).parent


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    assert main(["gensynth", "--spec", str(spec_path), "--out", str(out / "data")]) == 0
    return out / "data"


def test_load_banner(foodmart_dir, capsys):
    assert main(["load", "--data-dir", str(foodmart_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("5 dimensions, 240 facts")
    assert "Date:" in out


def test_load_missing_facts_exits_2(foodmart_dir, tmp_path, capsys):
    schema = json.loads((foodmart_dir / "schema.json").read_text())
    schema["facts"] = "nope.csv"
    broken = tmp_path / "schema.json"
    broken.write_text(json.dumps(schema))
    for name in ("Date", "Customer", "Promo", "Product", "Store"):
        (tmp_path / f"{name}_members.csv").write_bytes(
            (foodmart_dir / f"{name}_members.csv").read_bytes())
    assert main(["load", "--schema", str(broken)]) == 2
    assert capsys.readouterr().err


def test_query_stdout_sections(foodmart_dir, capsys):
    rc = main(["query", "--data-dir", str(foodmart_dir),
               "--query", REFERENCE_QUERY, "--strategy", "min"])
    assert rc == 0
    out = capsys.readouterr().out
    for role in ("org", "sibA", "sibB", "ddA", "ddB"):
        assert f"# facilitator: {role}" in out
    assert "SumSales_org" in out


def test_query_auto_header(foodmart_dir, capsys):
    rc = main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
               "--selector", "paper",
               "--coverage-threshold", "0.0", "--imbalance-threshold", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# strategy=max (coverage=")
    assert "imbalance=" in out.splitlines()[0]


def test_query_selector_rules(foodmart_dir, capsys):
    heads = {}
    for rule in ("cost", "paper"):
        rc = main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
                   "--selector", rule])
        assert rc == 0
        heads[rule] = capsys.readouterr().out.splitlines()[0]
        assert " predicted_ms min=" in heads[rule]
    # the thresholds steer the paper rule only
    for rule, expected in (("cost", heads["cost"].split()[1]), ("paper", "strategy=max")):
        rc = main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
                   "--selector", rule, "--coverage-threshold", "0.0",
                   "--imbalance-threshold", "1.0"])
        assert rc == 0
        assert capsys.readouterr().out.split()[1] == expected
    with pytest.raises(SystemExit):
        main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
              "--selector", "fastest"])


def test_query_output_files(foodmart_dir, tmp_path, capsys):
    prefix = tmp_path / "res"
    rc = main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
               "--strategy", "mid", "--output", str(prefix)])
    assert rc == 0
    for role in ("org", "sibA", "sibB", "ddA", "ddB"):
        path = tmp_path / f"res_{role}.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0].count(",") == 2


def test_query_from_file(foodmart_dir, tmp_path, capsys):
    qfile = tmp_path / "q.txt"
    qfile.write_text(REFERENCE_QUERY + "\n")
    rc = main(["query", "--data-dir", str(foodmart_dir), "--query-file", str(qfile),
               "--strategy", "max"])
    assert rc == 0
    assert "# strategy=max" in capsys.readouterr().out


def test_query_max_on_degraded_request_runs_max(foodmart_dir, capsys):
    # no filter atom on either grouper dimension: Max merges what exists
    text = "ANALYZE sum(store_sales) FROM Sales FOR StoreCountry = 'USA' GROUP BY month, State"
    rc = main(["query", "--data-dir", str(foodmart_dir), "--query", text,
               "--strategy", "max"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# strategy=max")
    assert "[fallback:" not in out
    assert "# facilitator: sibA (empty: no filter atom)" in out


def test_query_overflow_fallback_is_visible(tmp_path, capsys):
    # Max's base sums a cell past int64 that no facilitator reads: it runs Min
    data_dir = write_dataset(overflow_tables(OUTSIDE_OVERFLOW_FACTS), tmp_path).parent
    rc = main(["query", "--data-dir", str(data_dir), "--query", OVERFLOW_QUERY,
               "--strategy", "max"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# strategy=min")
    assert "[fallback: merged base query" in out


def test_degraded_result_files_identical_across_strategies(foodmart_dir, tmp_path, capsys):
    text = "ANALYZE sum(store_sales) FROM Sales FOR StoreCountry = 'USA' GROUP BY month, State"
    contents = {}
    for strategy in ("min", "mid", "max"):
        prefix = tmp_path / strategy / "out"
        rc = main(["query", "--data-dir", str(foodmart_dir), "--query", text,
                   "--strategy", strategy, "--output", str(prefix)])
        assert rc == 0
        contents[strategy] = {p.name: p.read_bytes()
                              for p in (tmp_path / strategy).glob("out_*.csv")}
        capsys.readouterr()
    assert contents["min"] == contents["mid"] == contents["max"]


def test_query_unknown_measure_exits_3(foodmart_dir, capsys):
    rc = main(["query", "--data-dir", str(foodmart_dir),
               "--query", "ANALYZE sum(profit) FROM Sales FOR State = 'CA' GROUP BY month, customerRegion"])
    assert rc == 3
    assert capsys.readouterr().err


# The reference statement naming a measure or a dimension the cube lacks.
UNKNOWN_NAME_STATEMENTS = [
    (REFERENCE_QUERY.replace("sum(store_sales)", "sum(bogus)"), "no measure 'bogus'"),
    (REFERENCE_QUERY.replace("Promo.Media", "Bogus.Media"), "no dimension 'Bogus'"),
    (REFERENCE_QUERY.replace("GROUP BY month", "GROUP BY Bogus.month"), "no dimension 'Bogus'"),
]
UNKNOWN_NAME_IDS = ["measure", "filter-dimension", "grouper-dimension"]


@pytest.mark.parametrize("text, message", UNKNOWN_NAME_STATEMENTS, ids=UNKNOWN_NAME_IDS)
def test_query_naming_an_unknown_name_exits_3(foodmart_dir, capsys, text, message):
    assert main(["query", "--data-dir", str(foodmart_dir), "--query", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"parse error: cube Sales has {message}" in captured.err


def test_query_parse_error_exits_3(foodmart_dir, capsys):
    rc = main(["query", "--data-dir", str(foodmart_dir), "--query", "ANALYZE bogus"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial output
    assert captured.err


def test_query_env_var_data_dir(foodmart_dir, capsys, monkeypatch):
    monkeypatch.setenv("CUBELENS_DATA_DIR", str(foodmart_dir))
    rc = main(["query", "--query", REFERENCE_QUERY, "--strategy", "min"])
    assert rc == 0


def test_unknown_dims_name_exits_2(foodmart_dir, capsys):
    """A NAME=PATH member file for a dimension the schema lacks is refused,
    not ignored in favour of the schema's own file."""
    members = foodmart_dir / "Product_members.csv"
    rc = main(["load", "--data-dir", str(foodmart_dir), "--dims", f"Prodct={members}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and "unknown dimension 'Prodct'" in captured.err
    assert main(["load", "--data-dir", str(foodmart_dir), "--dims", f" product ={members}"]) == 0


@pytest.mark.parametrize("command", [["load"], ["query", "--query", REFERENCE_QUERY]])
def test_no_data_location_is_a_usage_error(command, capsys, monkeypatch):
    monkeypatch.delenv("CUBELENS_DATA_DIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "needs --schema, --data-dir or $CUBELENS_DATA_DIR" in err


@pytest.mark.parametrize("flag", ["--coverage-threshold", "--imbalance-threshold"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "high"])
def test_non_finite_threshold_is_a_usage_error(foodmart_dir, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["query", "--data-dir", str(foodmart_dir), "--query", REFERENCE_QUERY,
              "--selector", "paper", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}:" in err


def test_gensynth_deterministic_manifest(synth_dir, capsys):
    assert (synth_dir / "schema.json").exists()
    assert main(["load", "--data-dir", str(synth_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 dimensions, 5K facts")


@pytest.mark.parametrize("edit,message", [
    (lambda s: s["dimensions"][1].update(name="d1"), "duplicate dimension 'D1' and 'd1'"),
    (lambda s: [d.update(level_names=["Leaf", "Mid", "Top"]) for d in s["dimensions"]],
     "duplicate fact column 'Leaf' and 'Leaf'"),
    (lambda s: s["dimensions"][0].update(level_names=["Amount", "Mid", "Top"]),
     "duplicate fact column 'Amount' and 'amount'"),
    (lambda s: s["dimensions"][0].update(level_names=["Leaf", "ALL", "Top"]),
     "duplicate level 'ALL' and 'ALL'"),
    (lambda s: s.update(measures=[]), "need at least one measure"),
], ids=["dimensions-by-case", "shared-detailed-level", "level-named-like-a-measure",
        "level-named-ALL", "no-measures"])
def test_gensynth_rejects_what_load_would_reject(tmp_path, capsys, edit, message):
    spec = copy.deepcopy(SYNTH_SPEC)
    edit(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gensynth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def _measure(**fields):
    return lambda s: s["measures"][0].update(fields)


@pytest.mark.parametrize("edit, argv, message", [
    (_measure(low="x"), [], "low and high must be finite numbers"),
    (_measure(high="x"), [], "low and high must be finite numbers"),
    (_measure(low=float("nan")), [], "low and high must be finite numbers"),
    (_measure(kind="decimal", high=float("inf")), [], "low and high must be finite numbers"),
    (_measure(kind="decimal", low=-1e308, high=1e308), [], "the value range is too wide"),
    (_measure(low=1e30, high=2e30), [], "integer bounds must lie in int64"),
    (_measure(low=-2**63 - 1), [], "integer bounds must lie in int64"),
    (lambda s: s.update(seed=-1), [], "seed must be >= 0"),
    (lambda s: None, ["--seed", "-1"], "seed must be >= 0"),
    (lambda s: s["dimensions"][0].update(skew=float("nan")), [], "skew must be finite"),
    (lambda s: s["dimensions"][0].update(skew=float("inf")), [], "skew must be finite"),
    (lambda s: s["dimensions"][0].update(skews=[2.0, float("inf")]), [], "skew must be finite"),
    (lambda s: s["dimensions"][0].update(skew=1e300), [], "skew is too large"),
], ids=["low-text", "high-text", "low-nan", "decimal-high-inf", "decimal-width-inf",
        "integer-beyond-int64", "integer-below-int64", "seed-negative", "seed-override-negative",
        "skew-nan", "skew-inf", "skews-inf", "skew-overflows"])
def test_gensynth_rejects_malformed_numbers(tmp_path, capsys, edit, argv, message):
    spec = copy.deepcopy(SYNTH_SPEC)
    edit(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "data"
    assert main(["gensynth", "--spec", str(spec_path), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_bench_report(foodmart_dir, tmp_path, capsys):
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps({
        "warmups": 1,
        "queries": [{"label": "ref", "text": REFERENCE_QUERY, "repetitions": 2}],
    }))
    report = tmp_path / "report.csv"
    rc = main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(workload),
               "--report", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + reps x strategies


def test_bench_all_timeout_exits_5(foodmart_dir, tmp_path):
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps({
        "warmups": 1, "timeout_s": 0.0,
        "queries": [{"label": "ref", "text": REFERENCE_QUERY}],
    }))
    report = tmp_path / "report.csv"
    rc = main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(workload),
               "--report", str(report), "--strategies", "max,mid"])
    assert rc == 5


@pytest.mark.parametrize("names, message", [("bogus", "unknown strategy 'bogus'"),
                                            ("min,bogus", "unknown strategy 'bogus'"),
                                            ("auto,Max", "unknown strategy 'Max'"),
                                            (" , ", "no strategy named")])
def test_bench_bad_strategy_list_is_a_usage_error(foodmart_dir, tmp_path, capsys, names, message):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(tmp_path / "w.json"),
              "--report", str(tmp_path / "r.csv"), "--strategies", names])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_bench_strategies_accept_auto(foodmart_dir, tmp_path, capsys):
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps({"queries": [{"label": "ref", "text": REFERENCE_QUERY}]}))
    report = tmp_path / "report.csv"
    rc = main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(workload),
               "--report", str(report), "--strategies", "auto, min"])
    assert rc == 0
    assert [row.split(",")[1] for row in report.read_text().splitlines()[1:]] == ["auto", "min"]


def test_bench_missing_workload_exits_2(foodmart_dir, tmp_path):
    rc = main(["bench", "--data-dir", str(foodmart_dir),
               "--workload", str(tmp_path / "none.json"),
               "--report", str(tmp_path / "r.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# Measure values outside what the engine can answer exactly
# ---------------------------------------------------------------------------

TINY_QUERY = ("ANALYZE sum(m) FROM c FOR A.Grp = 'g1' AND B.Band = 'h1' "
              "GROUP BY A.Grp, B.Band")


def _tiny_dataset(out_dir, values, kind):
    """Two two-level dimensions, one fact row per value at (a1, b1); ``kind``
    None leaves the measure undeclared in the schema file."""
    from fixtures import DatasetTables
    tables = DatasetTables(
        "c",
        {"A": (["Leaf", "Grp"], [("a1", "g1"), ("a2", "g1"), ("a3", "g2")]),
         "B": (["Unit", "Band"], [("b1", "h1"), ("b2", "h1"), ("b3", "h2")])},
        [("m", kind)],
        [{"A": "a1", "B": "b1"} for _ in values],
        {"m": list(values)},
    )
    schema_path = write_dataset(tables, out_dir)
    if kind is None:
        schema = json.loads(schema_path.read_text())
        del schema["measures"][0]["kind"]
        schema_path.write_text(json.dumps(schema))
    return schema_path


def test_load_integer_beyond_int64_exits_2(tmp_path, capsys):
    schema = _tiny_dataset(tmp_path, ["1", "99999999999999999999"], "integer")
    assert main(["load", "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert "facts.csv:3" in err and "int64" in err and "Traceback" not in err


def test_load_undeclared_integer_beyond_int64_is_decimal(tmp_path, capsys):
    from cubelens.cube import load_cube
    schema = _tiny_dataset(tmp_path, ["1", "99999999999999999999"], None)
    assert main(["load", "--schema", str(schema)]) == 0
    cube = load_cube(schema)
    assert cube.schema.measure("m").kind == "decimal"
    assert cube.measure_columns["m"].tolist() == [1.0, 1e20]


@pytest.mark.parametrize("switch", ["2.5", str(1 << 64)], ids=["decimal-text", "beyond-int64"])
def test_load_undeclared_column_turning_decimal_keeps_every_value(tmp_path, switch):
    from cubelens.cube import load_cube
    texts = ["-0", "7", str((1 << 53) + 1), str(-(1 << 63)), switch,
             str((1 << 53) + 1), str(1 << 70), "-0", "0.1"]
    cube = load_cube(_tiny_dataset(tmp_path, texts, None))
    col = cube.measure_columns["m"]
    assert cube.schema.measure("m").kind == "decimal" and col.dtype == np.float64
    assert col.tolist() == [float(text) for text in texts]  # -0 == 0.0 too


@pytest.mark.parametrize("kind", ["decimal", None])
@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
def test_load_non_finite_decimal_exits_2(tmp_path, capsys, kind, text):
    schema = _tiny_dataset(tmp_path, ["1.5", text, "2"], kind)
    assert main(["load", "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert "facts.csv:3" in err and "not finite" in err


@pytest.mark.parametrize("strategy", ["auto", "min", "mid", "max"])
def test_query_sum_beyond_int64_exits_4(tmp_path, capsys, strategy):
    big = str((1 << 63) - 1)
    schema = _tiny_dataset(tmp_path, [big, big], "integer")
    rc = main(["query", "--schema", str(schema), "--query", TINY_QUERY,
               "--strategy", strategy])
    assert rc == 4
    captured = capsys.readouterr()
    assert "int64" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# Malformed workload and schema files
# ---------------------------------------------------------------------------

def _bench(foodmart_dir, workload_path, report_path):
    return main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(workload_path),
                 "--report", str(report_path)])


@pytest.mark.parametrize("workload", [
    [{"text": REFERENCE_QUERY}],                                   # not an object
    {"queries": [{"label": "q"}]},                                 # a query without text
    {"queries": [{"text": REFERENCE_QUERY, "repetitions": "abc"}]},
])
def test_bench_malformed_workload_exits_2(foodmart_dir, tmp_path, capsys, workload):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    assert _bench(foodmart_dir, path, tmp_path / "r.csv") == 2
    assert "workload" in capsys.readouterr().err


def test_bench_statement_syntax_error_exits_3(foodmart_dir, tmp_path, capsys):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"queries": [{"text": "ANALYZE bogus"}]}))
    assert _bench(foodmart_dir, path, tmp_path / "r.csv") == 3
    assert capsys.readouterr().err


@pytest.mark.parametrize("text, message", UNKNOWN_NAME_STATEMENTS, ids=UNKNOWN_NAME_IDS)
def test_bench_statement_naming_an_unknown_name_exits_3(foodmart_dir, tmp_path, capsys,
                                                          text, message):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"queries": [{"text": REFERENCE_QUERY}, {"text": text}]}))
    assert _bench(foodmart_dir, path, tmp_path / "r.csv") == 3
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def data_copy(foodmart_dir, tmp_path_factory):
    """A copy of the foodmart data files, beside which edited schemas go."""
    out = tmp_path_factory.mktemp("copy")
    for src in foodmart_dir.iterdir():
        (out / src.name).write_bytes(src.read_bytes())
    return out


@pytest.mark.parametrize("edit", [
    lambda s: s.update(dimensions="x"),
    lambda s: s["dimensions"][0].pop("name"),
    lambda s: s["dimensions"][0].update(levels=5),
    lambda s: s.update(measures="amount"),
    lambda s: s.update(facts=3),
    lambda s: s["dimensions"][0].update(members="Date\0members.csv"),
], ids=["dimensions-str", "dimension-no-name", "levels-int", "measures-str", "facts-int",
        "members-nul"])
def test_load_malformed_schema_exits_2(data_copy, capsys, edit):
    schema = json.loads((data_copy / "schema.json").read_text())
    edit(schema)
    path = data_copy / "edited.json"
    path.write_text(json.dumps(schema))
    assert main(["load", "--schema", str(path)]) == 2
    assert "edited.json" in capsys.readouterr().err


KEYS = ["cube", "dimensions", "measures", "facts", "name", "levels", "members", "kind",
        "queries", "text", "label", "repetitions", "warmups", "timeout_s"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), kids,
                                    max_size=4)),
    max_leaves=10)


def _paths(value, path=()):
    """Every position inside a JSON value, as a key path."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def mutated(valid):
    """``valid`` with one position replaced by an arbitrary JSON value, or
    an arbitrary JSON value."""
    def put(path_value):
        path, value = path_value
        if not path:
            return value
        out = copy.deepcopy(valid)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return out

    return JSON | st.tuples(st.sampled_from(list(_paths(valid))), JSON).map(put)


def _quiet_main(argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_any_schema_json_exits_0_or_2(data_copy):
    valid = json.loads((data_copy / "schema.json").read_text())

    @settings(max_examples=300, deadline=None)
    @given(mutated(valid))
    def check(schema):
        path = data_copy / "fuzzed.json"
        path.write_text(json.dumps(schema))
        assert _quiet_main(["load", "--schema", str(path)]) in (0, 2)

    check()


def test_any_workload_json_exits_0_2_or_3(data_copy):
    # a well-formed workload runs its statement, which is a syntax error (3)
    valid = {"warmups": 1, "timeout_s": 5.0,
             "queries": [{"label": "q", "text": "ANALYZE bogus", "repetitions": 2}]}

    @settings(max_examples=300, deadline=None)
    @given(mutated(valid))
    def check(workload):
        path = data_copy / "workload.json"
        path.write_text(json.dumps(workload))
        try:
            spec = WorkloadSpec.from_dict(workload)
        except ParseError:
            expected = 2
        else:
            expected = 3 if spec.queries else 0
        assert _quiet_main(["bench", "--data-dir", str(data_copy), "--workload", str(path),
                            "--report", str(data_copy / "report.csv")]) == expected

    check()


# ---------------------------------------------------------------------------
# Malformed bytes, oversized fields and bad options
# ---------------------------------------------------------------------------

def _own_copy(foodmart_dir, out):
    for src in foodmart_dir.iterdir():
        (out / src.name).write_bytes(src.read_bytes())
    return out / "schema.json"


def _append(path, data: bytes):
    path.write_bytes(path.read_bytes() + data)
    return path


@pytest.mark.parametrize("target", ["schema.json", "Store_members.csv", "facts.csv",
                                    "workload", "spec", "query-file"])
def test_bytes_that_are_not_utf8_exit_2(foodmart_dir, tmp_path, capsys, target):
    schema = _own_copy(foodmart_dir, tmp_path)
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps({"queries": [{"text": REFERENCE_QUERY}]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    query = tmp_path / "q.txt"
    query.write_text(REFERENCE_QUERY)
    argv = {
        "workload": ["bench", "--schema", str(schema), "--workload", str(workload),
                     "--report", str(tmp_path / "r.csv")],
        "spec": ["gensynth", "--spec", str(spec), "--out", str(tmp_path / "gen")],
        "query-file": ["query", "--schema", str(schema), "--query-file", str(query)],
    }.get(target, ["load", "--schema", str(schema)])
    name = {"workload": workload, "spec": spec, "query-file": query}.get(target, tmp_path / target)
    _append(name, b"\xff")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{name}: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("target, line", [("Store_members.csv", 6), ("facts.csv", 242)])
def test_field_over_csv_size_limit_exits_2(foodmart_dir, tmp_path, capsys, target, line):
    schema = _own_copy(foodmart_dir, tmp_path)
    path = tmp_path / target
    assert path.read_text().count("\n") == line - 1
    _append(path, b"S9," + b" " * 200_000 + b"5\n")
    assert main(["load", "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: field larger than field limit" in err


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_bad_delimiter_exits_2_before_any_file_is_read(tmp_path, capsys, delimiter):
    missing = tmp_path / "none" / "schema.json"
    assert main(["load", "--schema", str(missing), "--delimiter", delimiter]) == 2
    assert "bad delimiter" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_carries_an_exit_code():
    """Data-file errors exit 2, statement errors 3, the rest 4; an unknown
    member label in a fact file is a data error, unlike its base class."""
    codes = {cls.__name__: cls.exit_code for cls in [CubeLensError, *_subclasses(CubeLensError)]}
    assert set(codes.values()) == {2, 3, 4}
    assert {name for name, code in codes.items() if code == 2} == {
        "ParseError", "SchemaMismatch", "UnknownMemberLabel", "InvalidSpec"}
    assert {name for name, code in codes.items() if code == 3} == {
        "AnalyzeSyntaxError", "ConstraintViolation", "UnknownLevel", "AmbiguousLevel",
        "UnknownMember", "UnknownDimension", "UnknownMeasure"}


def test_schema_without_measures_exits_2_before_any_file_is_read(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"cube": "c", "measures": [], "facts": "none/facts.csv",
                                "dimensions": [{"name": "A", "levels": ["Leaf", "ALL"],
                                                "members": "none/A.csv"}]}))
    assert main(["load", "--schema", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: cube c declares no measures\n"


def _drop_last_column(path):
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in path.read_text().splitlines()))


def _set_first_measure_kind(path, kind):
    schema = json.loads(path.read_text())
    schema["measures"][0]["kind"] = kind
    path.write_text(json.dumps(schema))


@pytest.mark.parametrize("target, edit, message", [
    ("Store_members.csv", lambda p: p.write_text(""), "empty member file for dimension Store"),
    ("facts.csv", lambda p: p.write_text(""), "missing header row"),
    ("facts.csv", _drop_last_column, "missing columns: unit_sales"),
    ("schema.json", lambda p: _set_first_measure_kind(p, "money"),
     "measure store_sales: unknown kind 'money'"),
], ids=["empty-member-file", "no-fact-header", "missing-fact-column", "unknown-measure-kind"])
def test_load_fault_exits_2_naming_the_file(foodmart_dir, tmp_path, capsys, target, edit,
                                            message):
    schema = _own_copy(foodmart_dir, tmp_path)
    edit(tmp_path / target)
    assert main(["load", "--schema", str(schema)]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / target}: {message}\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bench_non_finite_timeout_exits_2(foodmart_dir, tmp_path, capsys, value):
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps({"queries": [{"text": REFERENCE_QUERY}]}))
    rc = main(["bench", "--data-dir", str(foodmart_dir), "--workload", str(workload),
               "--report", str(tmp_path / "r.csv"), "--timeout-s", value])
    assert rc == 2
    assert "timeout_s must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


FUZZ_BYTES = [b",", b'"', b"\r", b"\n", b"\x00", b"\xff", b"\xef\xbb\xbf", b"9" * 25,
              b"7" * 131_073]  # the last is one field over csv's default size limit


def test_any_data_file_bytes_exit_0_2_3_or_4(foodmart_dir, tmp_path_factory):
    """Byte-level edits of the schema JSON, a member CSV or the fact CSV:
    load and one query end in an exit code, never a traceback."""
    work = tmp_path_factory.mktemp("bytes")
    originals = {p.name: p.read_bytes() for p in foodmart_dir.iterdir()}

    @st.composite
    def edited(draw):
        name = draw(st.sampled_from(sorted(originals)))
        data = bytearray(originals[name])
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data)))
            chunk = draw(st.sampled_from(FUZZ_BYTES))
            op = draw(st.sampled_from(["insert", "delete", "replace"]))
            if op == "insert":
                data[at:at] = chunk
            elif op == "delete":
                del data[at:at + draw(st.integers(1, 8))]
            else:
                data[at:at + len(chunk)] = chunk
        return name, bytes(data)

    @settings(max_examples=300, deadline=None)
    @given(edited())
    def check(edit):
        for name, data in originals.items():
            (work / name).write_bytes(edit[1] if name == edit[0] else data)
        schema = str(work / "schema.json")
        assert _quiet_main(["load", "--schema", schema]) in (0, 2, 3, 4)
        query = ["query", "--schema", schema, "--query", REFERENCE_QUERY]
        assert _quiet_main(query) in (0, 2, 3, 4)

    check()


def test_label_holding_a_cr_round_trips(tmp_path, capsys):
    """A member label holding a CR is quoted in the rendered result and in
    the --output files, so csv.reader reads it back as one field."""
    (tmp_path / "schema.json").write_text(json.dumps({
        "cube": "c", "facts": "facts.csv", "measures": [{"name": "m", "kind": "integer"}],
        "dimensions": [{"name": "A", "levels": ["Leaf", "Grp", "ALL"], "members": "A.csv"},
                       {"name": "B", "levels": ["Unit", "ALL"], "members": "B.csv"}]}))
    (tmp_path / "A.csv").write_text('Leaf,Grp\n"a\rb",g1\nplain,g1\n', newline="")
    (tmp_path / "B.csv").write_text("Unit\nu1\nu2\n", newline="")
    (tmp_path / "facts.csv").write_text('Leaf,Unit,m\n"a\rb",u1,5\nplain,u1,7\n', newline="")
    query = ["query", "--data-dir", str(tmp_path), "--strategy", "min", "--query",
             "ANALYZE sum(m) FROM c FOR A.Leaf = plain AND B.Unit = u1 GROUP BY A.Leaf, B.Unit"]
    assert main(query) == 0
    rendered = capsys.readouterr().out
    assert main(query + ["--output", str(tmp_path / "out" / "res")]) == 0
    section = rendered[rendered.index("# facilitator: sibA\n"):].split("\n\n")[0]
    expect = [["A.Leaf", "B.Unit", "m_sibA"], ["a\rb", "u1", "5"], ["plain", "u1", "7"]]
    assert list(csv.reader(io.StringIO(section.split("\n", 1)[1], newline=""))) == expect
    with open(tmp_path / "out" / "res_sibA.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == expect


@pytest.mark.parametrize("digits", ["7" * 5000, "-" + "7" * 30])
def test_overlong_declared_integer_exits_2_with_a_short_message(foodmart_dir, tmp_path, capsys,
                                                                digits):
    """An integer past Python's 4,300-digit conversion limit is reported as
    outside int64, as a shorter one is, and the field is not echoed whole."""
    schema = _own_copy(foodmart_dir, tmp_path)
    facts = tmp_path / "facts.csv"
    line = facts.read_text().count("\n") + 1
    _append(facts, f"1998-01-05,C04,P1,Prod4,S2,343.0,57.0,{digits}\n".encode())
    assert main(["load", "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert f"{facts}:{line}: measure 'unit_sales' value '{digits[:40]}" in err
    assert "is outside the int64 range" in err and len(err) < 300
