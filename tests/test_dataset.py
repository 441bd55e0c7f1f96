"""Dataset archive round trips."""

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
