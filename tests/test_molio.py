"""XYZ round trips and HETATM record emission for generated molecules."""

import numpy as np
import pytest

from pocketflow.chem import Atom, Molecule, Vocabulary
from pocketflow.molio import molecule_to_records, read_xyz, write_xyz
from pocketflow.pdb import parse_pdb, serialize_pdb

VOCAB = Vocabulary.default()
C, O = VOCAB.index("C"), VOCAB.index("O")


def sample_molecule():
    atoms = [Atom(C, (0.0, 0.0, 0.0)), Atom(C, (1.5, 0.0, 0.0)), Atom(O, (2.2, 1.2, 0.0))]
    return Molecule(atoms, [(0, 1, 1), (1, 2, 1)])


class TestXyz:
    def test_layout(self):
        text = write_xyz(sample_molecule(), VOCAB, comment="three atoms")
        lines = text.splitlines()
        assert lines[0] == "3"
        assert lines[1] == "three atoms"
        assert lines[2].split() == ["C", "0.000000", "0.000000", "0.000000"]

    def test_roundtrip(self):
        mol = sample_molecule()
        back = read_xyz(write_xyz(mol, VOCAB), VOCAB)
        assert np.array_equal(back.elements, mol.elements)
        assert np.allclose(back.positions, mol.positions, atol=1e-6)
        assert back.bonds == []

    def test_bad_count_line(self):
        with pytest.raises(ValueError):
            read_xyz("abc\ncomment\n", VOCAB)

    def test_truncated(self):
        with pytest.raises(ValueError):
            read_xyz("5\ncomment\nC 0 0 0\n", VOCAB)

    @pytest.mark.parametrize("text", ["-1\n\n", "-2\nc\nC 0 0 0\n"])
    def test_negative_count(self, text):
        with pytest.raises(ValueError, match="negative XYZ atom count"):
            read_xyz(text, VOCAB)


class TestHetatmRecords:
    def test_records_roundtrip_through_pdb_layer(self):
        records = molecule_to_records(sample_molecule(), VOCAB)
        assert all(r.record_kind == "HETATM" for r in records)
        assert [r.serial for r in records] == [1, 2, 3]
        assert records[2].element == "O"
        parsed = parse_pdb(serialize_pdb(records))
        assert parsed == records

    def test_residue_metadata(self):
        records = molecule_to_records(sample_molecule(), VOCAB, residue_name="XYZ", chain="B")
        assert {r.residue_name for r in records} == {"XYZ"}
        assert {r.chain for r in records} == {"B"}
