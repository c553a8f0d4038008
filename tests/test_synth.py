import hashlib

import numpy as np
import pytest

from cubelens import hierarchy
from cubelens.cube import load_cube
from cubelens.errors import InvalidSpec
from cubelens.hierarchy import validate_hierarchy
from cubelens.synth import SynthSpec, block_parents, generate

from oracles import generate_rowwise

SEED42_SPEC = {
    "name": "synth42",
    "facts": 10000,
    "seed": 42,
    "dimensions": [
        {"name": "D1", "level_sizes": [500, 50, 5], "skew": 2.0},
        {"name": "D2", "level_sizes": [200, 20, 4], "skew": 1.0},
    ],
    "measures": [{"name": "amount", "kind": "integer", "low": 1, "high": 100}],
}

# sha256 of the generated files for the seed-42 spec, frozen at first generation
SEED42_CHECKSUM = "0a27ff6f330489e8a03725d143bab414071625283c386b030c4699df37268b5f"


def dataset_digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_same_seed_byte_identical(tmp_path):
    spec = SynthSpec.from_dict(SEED42_SPEC)
    m1 = generate(spec, tmp_path / "a")
    m2 = generate(spec, tmp_path / "b")
    assert m1["files"] == m2["files"]
    for name in m1["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed42_checksum_frozen(tmp_path):
    spec = SynthSpec.from_dict(SEED42_SPEC)
    manifest = generate(spec, tmp_path)
    digest = dataset_digest([tmp_path / name for name in manifest["files"]])
    assert digest == SEED42_CHECKSUM


# Names holding a comma and a quote, so csv quotes labels and headers, and a
# decimal measure with negative values.
QUOTING_SPEC = {
    "name": "quoting",
    "facts": 5000,
    "seed": 9,
    "dimensions": [
        {"name": "Re,gion", "level_sizes": [60, 6, 2], "level_names": ['Ci"ty', "St,ate", "Zone"],
         "skew": 1.5},
        {"name": "Item", "level_sizes": [25, 5]},
    ],
    "measures": [{"name": "qty", "kind": "integer", "low": -50, "high": 50},
                 {"name": 'pr"ice', "kind": "decimal", "low": -3.5, "high": 999.99}],
}


@pytest.mark.parametrize("chunk_rows", [1, 333, hierarchy.WRITE_CHUNK_ROWS])
def test_writer_matches_rowwise_reference(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(hierarchy, "WRITE_CHUNK_ROWS", chunk_rows)
    spec = SynthSpec.from_dict(QUOTING_SPEC)
    manifest = generate(spec, tmp_path / "columns")
    generate_rowwise(spec, tmp_path / "rows")
    for name in manifest["files"]:
        assert (tmp_path / "columns" / name).read_bytes() == \
            (tmp_path / "rows" / name).read_bytes(), name
    facts = (tmp_path / "columns" / "facts.csv").read_bytes()
    assert facts.startswith(b'"Ci""ty",ItemL0,qty,"pr""ice"\n')
    assert b'"Re,gion_Ci""ty_000' in facts and b",-" in facts


def test_generated_dataset_loads_and_validates(tmp_path):
    spec = SynthSpec.from_dict(SEED42_SPEC)
    generate(spec, tmp_path)
    cube = load_cube(tmp_path / "schema.json")
    assert cube.row_count == 10000
    for dim in cube.schema.dimensions:
        assert validate_hierarchy(dim) == []


def test_single_member_levels(tmp_path):
    spec = SynthSpec.from_dict({
        "name": "flat", "facts": 50, "seed": 1,
        "dimensions": [{"name": "A", "level_sizes": [1, 1]},
                       {"name": "B", "level_sizes": [1, 1]}],
        "measures": [{"name": "m"}],
    })
    generate(spec, tmp_path)
    cube = load_cube(tmp_path / "schema.json")
    # every coordinate is the single member: any filter touches all facts
    assert all(len(np.unique(col)) == 1 for col in cube.coordinates.values())


def test_zero_facts(tmp_path):
    spec = SynthSpec.from_dict({
        "name": "empty", "facts": 0, "seed": 3,
        "dimensions": [{"name": "A", "level_sizes": [10, 2]}],
        "measures": [{"name": "m"}],
    })
    generate(spec, tmp_path)
    cube = load_cube(tmp_path / "schema.json")
    assert cube.row_count == 0


def test_block_parents_partition_and_skew():
    parents = block_parents(100, 4, 2.0)
    assert len(parents) == 100
    counts = np.bincount(parents, minlength=4)
    assert counts.sum() == 100
    assert counts[0] == counts.max()  # member 0 gets the largest share
    # shares follow the geometric weights within rounding
    weights = np.array([8.0, 4.0, 2.0, 1.0])
    expected = weights / weights.sum() * 100
    assert np.abs(counts - expected).max() <= 1.0


def test_block_parents_interleaves_children():
    parents = block_parents(100, 4, 2.0)
    # the first handful of children already covers several parents
    assert len(set(parents[:8].tolist())) >= 3


def test_invalid_specs_rejected(tmp_path):
    with pytest.raises(InvalidSpec):
        SynthSpec.from_dict({"dimensions": [], "measures": []})  # no fact count
    with pytest.raises(InvalidSpec):
        SynthSpec.from_dict({"facts": 1, "dimensions": [], "measures": []}).validate()
    spec = SynthSpec.from_dict({
        "name": "x", "facts": -1,
        "dimensions": [{"name": "A", "level_sizes": [2, 1]}],
        "measures": [{"name": "m"}],
    })
    with pytest.raises(InvalidSpec):
        spec.validate()
    growing = SynthSpec.from_dict({
        "name": "x", "facts": 1,
        "dimensions": [{"name": "A", "level_sizes": [2, 5]}],
        "measures": [{"name": "m"}],
    })
    with pytest.raises(InvalidSpec):
        growing.validate()
    huge = SynthSpec.from_dict({**SEED42_SPEC, "facts": 10**20})  # past int64
    with pytest.raises(InvalidSpec):
        generate(huge, tmp_path)
    assert not any(tmp_path.iterdir())  # rejected before any file is written
