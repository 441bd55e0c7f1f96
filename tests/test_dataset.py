"""Dataset archive round trips."""

import json
import math

import numpy as np
import pytest

from pocketflow.chem import Vocabulary
from pocketflow.dataset import DatasetError, load_dataset, save_dataset
from pocketflow.synthetic import toy_dataset

VOCAB = Vocabulary.default()


def test_roundtrip_exact(tmp_path):
    entries = toy_dataset(VOCAB, n_copies=4, noise=0.1, seed=1)
    path = tmp_path / "data.json"
    save_dataset(entries, VOCAB, path)
    back = load_dataset(path, VOCAB)
    assert len(back) == 4
    for a, b in zip(entries, back):
        assert a.entry_id == b.entry_id
        assert np.array_equal(a.pocket.positions, b.pocket.positions)
        assert np.array_equal(a.pocket.bfactors, b.pocket.bfactors)
        assert np.array_equal(a.ligand.positions, b.ligand.positions)
        assert a.ligand.bonds == b.ligand.bonds
        assert np.array_equal(a.ligand.elements, b.ligand.elements)


def test_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "none.json", VOCAB)


def test_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(DatasetError):
        load_dataset(path, VOCAB)


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(DatasetError):
        load_dataset(path, VOCAB)


@pytest.mark.parametrize(
    "text",
    [
        '{"format": "pocketflow-dataset", "version": 1}',
        '{"format": "pocketflow-dataset", "version": 1, "entries": {"a": 1}}',
        '{"format": "pocketflow-dataset", "version": 1, "entries": [1]}',
        '{"format": "pocketflow-dataset", "version": 1, "entries": [{"pocket": {}}]}',
        '["pocketflow-dataset", 1]',
        "3",
    ],
)
def test_malformed_archive_is_dataset_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DatasetError):
        load_dataset(path, VOCAB)


@pytest.mark.parametrize(
    "key, value",
    [
        ("order", 10**400),
        ("order", True),
        ("order", 1.5),
        ("order", 4),
        ("index", 0.0),
        ("entry_id", 7),
    ],
    ids=["order-1e400", "order-true", "order-1.5", "order-4", "index-0.0", "entry_id-int"],
)
def test_out_of_range_value_is_dataset_error(tmp_path, key, value):
    entries = toy_dataset(VOCAB, n_copies=1, seed=1)
    path = tmp_path / "data.json"
    save_dataset(entries, VOCAB, path)
    payload = json.loads(path.read_text())
    entry = payload["entries"][0]
    if key == "entry_id":
        entry["entry_id"] = value
    else:
        entry["ligand"]["bonds"][0][2 if key == "order" else 0] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match="entry"):
        load_dataset(path, VOCAB)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -5.0], ids=str)
def test_bad_bfactor_is_dataset_error(tmp_path, value):
    entries = toy_dataset(VOCAB, n_copies=1, seed=1)
    path = tmp_path / "data.json"
    save_dataset(entries, VOCAB, path)
    payload = json.loads(path.read_text())
    payload["entries"][0]["pocket"]["bfactors"][2] = value
    path.write_text(json.dumps(payload))  # written as the literals NaN, Infinity, -Infinity
    with pytest.raises(DatasetError, match="entry 'toy_000'.*B-factor"):
        load_dataset(path, VOCAB)


@pytest.mark.parametrize(
    "edit",
    [
        lambda entry: entry["pocket"]["positions"][1].__setitem__(0, math.nan),
        lambda entry: entry["ligand"]["positions"][0].pop(),
        lambda entry: entry["pocket"]["bfactors"].pop(),
    ],
    ids=["nan-position", "two-component-position", "short-bfactors"],
)
def test_bad_atom_is_dataset_error_naming_archive_and_entry(tmp_path, edit):
    entries = toy_dataset(VOCAB, n_copies=2, seed=1)
    path = tmp_path / "data.json"
    save_dataset(entries, VOCAB, path)
    payload = json.loads(path.read_text())
    edit(payload["entries"][1])
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match=rf"data\.json: entry 'toy_001': "):
        load_dataset(path, VOCAB)


def test_unsupported_version(tmp_path):
    path = tmp_path / "data.json"
    save_dataset(toy_dataset(VOCAB, n_copies=1, seed=1), VOCAB, path)
    path.write_text(path.read_text().replace('"version": 1', '"version": 2'))
    with pytest.raises(DatasetError, match="unsupported version 2"):
        load_dataset(path, VOCAB)
