"""Dataset archive round trips."""

import json

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
