"""Fixed-column PDB parsing/serialization and pocket/ligand splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketflow.chem import Atom, Molecule, Pocket, Vocabulary
from pocketflow.pdb import (
    ComplexEntry,
    PdbParseError,
    PdbRangeError,
    SplitError,
    StructureRecord,
    normalize_bfactors,
    parse_pdb,
    pocket_from_records,
    read_manifest,
    serialize_pdb,
    split_pocket_ligand,
)

VOCAB = Vocabulary.default()

EXAMPLE_LINE = (
    "ATOM      1  N   MET A   1      11.104  13.207   2.100  1.00 25.00"
    "           N"
)


def record(kind="ATOM", serial=1, name="C1", residue="ALA", chain="A", seq=1,
           pos=(1.0, 2.0, 3.0), occupancy=1.0, bfactor=20.0, element="C"):
    return StructureRecord(kind, serial, name, residue, chain, seq,
                           np.array(pos, dtype=float), occupancy, bfactor, element)


class TestParse:
    def test_example_line_fields(self):
        (rec,) = parse_pdb(EXAMPLE_LINE)
        assert rec.record_kind == "ATOM"
        assert rec.serial == 1
        assert rec.atom_name == "N"
        assert rec.residue_name == "MET"
        assert rec.chain == "A"
        assert rec.residue_seq == 1
        assert np.array_equal(rec.position, [11.104, 13.207, 2.100])
        assert rec.occupancy == 1.00
        assert rec.bfactor == 25.00
        assert rec.element == "N"

    def test_non_atom_lines_ignored(self):
        text = "REMARK hello\nTER\n" + EXAMPLE_LINE + "\nEND\n"
        assert len(parse_pdb(text)) == 1

    def test_bad_bfactor_column_names_line(self):
        bad = EXAMPLE_LINE[:60] + "   abc" + EXAMPLE_LINE[66:]
        with pytest.raises(PdbParseError, match="line 3"):
            parse_pdb("REMARK\nREMARK\n" + bad)

    @pytest.mark.parametrize(
        "start, text", [(60, "   nan"), (30, "     inf")], ids=["bfactor-nan", "x-inf"]
    )
    def test_non_finite_column_names_line(self, start, text):
        bad = EXAMPLE_LINE[:start] + text + EXAMPLE_LINE[start + len(text):]
        with pytest.raises(PdbParseError, match="line 2"):
            parse_pdb("REMARK\n" + bad)

    def test_records_are_values(self):
        (a,) = parse_pdb(EXAMPLE_LINE)
        (b,) = parse_pdb(EXAMPLE_LINE)
        assert a == b and hash(a) == hash(b)
        assert a.position == (11.104, 13.207, 2.1)
        assert len({a, b, record()}) == 2

    def test_truncated_coordinates(self):
        with pytest.raises(PdbParseError, match="truncated"):
            parse_pdb(EXAMPLE_LINE[:50])

    def test_first_model_only(self):
        text = (
            "MODEL        1\n" + EXAMPLE_LINE + "\nENDMDL\n"
            "MODEL        2\n" + EXAMPLE_LINE + "\nENDMDL\n"
        )
        assert len(parse_pdb(text)) == 1

    def test_element_inferred_from_name_when_blank(self):
        line = EXAMPLE_LINE[:66]  # element columns 77-78 absent entirely
        (rec,) = parse_pdb(line, VOCAB)
        assert rec.element == "N"

    def test_two_letter_element_inferred_from_name(self):
        line = "HETATM    1 CL1  LIG A   1       1.000   2.000   3.000  1.00  0.00"
        (rec,) = parse_pdb(line, VOCAB)
        assert rec.element == "Cl"
        (rec,) = parse_pdb(line)  # without a vocabulary only the first letter counts
        assert rec.element == "C"

    def test_bytes_input(self):
        (rec,) = parse_pdb(EXAMPLE_LINE.encode("ascii"))
        assert rec.serial == 1


class TestSerialize:
    def test_example_roundtrip_byte_identity(self):
        records = parse_pdb(EXAMPLE_LINE)
        assert serialize_pdb(records) == EXAMPLE_LINE + "\n"

    def test_empty_list(self):
        assert serialize_pdb([]) == ""

    def test_coordinate_out_of_range(self):
        with pytest.raises(PdbRangeError):
            serialize_pdb([record(pos=(123456.789, 0, 0))])

    def test_four_character_name_fills_columns_13_to_16(self):
        line = serialize_pdb([record(name="CA12")])
        assert line[12:16] == "CA12"
        assert parse_pdb(line)[0].atom_name == "CA12"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"occupancy": 1000.0}, "occupancy/B-factor"),
            ({"bfactor": -100.0}, "occupancy/B-factor"),
            ({"serial": 100000}, "serial 100000"),
            ({"seq": 10000}, "residue number 10000"),
            ({"seq": -1000}, "residue number -1000"),
            ({"kind": "HETATMS"}, "record_kind 'HETATMS' does not fit in 6"),
            ({"name": "CA123"}, "atom_name 'CA123' does not fit in 4"),
            ({"residue": "LIGAND"}, "residue_name 'LIGAND' does not fit in 3"),
            ({"chain": "AB"}, "chain 'AB' does not fit in 1"),
            ({"element": "Cl1"}, "element 'Cl1' does not fit in 2"),
        ],
        ids=[
            "occupancy", "bfactor", "serial", "residue_seq_high", "residue_seq_low",
            "record_kind", "atom_name", "residue_name", "chain", "element",
        ],
    )
    def test_column_out_of_range(self, fields, message):
        with pytest.raises(PdbRangeError, match=message):
            serialize_pdb([record(**fields)])

    def test_parse_serialize_identity_on_records(self):
        rng = np.random.default_rng(101)
        records = []
        for i in range(100):
            kind = "ATOM" if i % 2 == 0 else "HETATM"
            sym = VOCAB.symbols[int(rng.integers(0, len(VOCAB)))]
            records.append(
                record(
                    kind=kind,
                    serial=i + 1,
                    name=f"{sym}{i % 9 + 1}"[:4],
                    residue="LIG" if kind == "HETATM" else "GLY",
                    chain="AB"[i % 2],
                    seq=int(rng.integers(1, 999)),
                    pos=tuple(np.round(rng.uniform(-99, 999, 3), 3)),
                    occupancy=round(float(rng.uniform(0, 1)), 2),
                    bfactor=round(float(rng.uniform(0, 99)), 2),
                    element=sym,
                )
            )
        text = serialize_pdb(records)
        parsed = parse_pdb(text)
        assert len(parsed) == len(records)
        for a, b in zip(records, parsed):
            assert a == b
        assert serialize_pdb(parsed) == text  # byte identity both ways


@settings(max_examples=60, deadline=None)
@given(
    serial=st.integers(1, 99999),
    seq=st.integers(1, 9999),
    x=st.decimals(min_value=-999, max_value=9999, places=3).map(float),
    occ=st.decimals(min_value=0, max_value=99, places=2).map(float),
    b=st.decimals(min_value=0, max_value=99, places=2).map(float),
)
def test_roundtrip_property(serial, seq, x, occ, b):
    rec = record(serial=serial, seq=seq, pos=(x, 0.0, -x / 2 if x < 2000 else 0.0),
                 occupancy=occ, bfactor=b)
    rec = StructureRecord(
        rec.record_kind, rec.serial, rec.atom_name, rec.residue_name, rec.chain,
        rec.residue_seq, np.round(rec.position, 3), rec.occupancy, rec.bfactor,
        rec.element,
    )
    (back,) = parse_pdb(serialize_pdb([rec]))
    assert back == rec


def synthetic_complex_text():
    records = [
        record(kind="ATOM", serial=1, name="C1", residue="ALA", seq=1,
               pos=(4.0, 0.0, 0.0), element="C"),
        record(kind="ATOM", serial=2, name="N1", residue="ALA", seq=1,
               pos=(12.0, 0.0, 0.0), bfactor=30.0, element="N"),
        record(kind="HETATM", serial=3, name="O1", residue="LIG", seq=2,
               pos=(0.0, 0.0, 0.0), element="O"),
    ]
    return serialize_pdb(records)


class TestSplit:
    def test_cutoff_filters_pocket(self):
        records = parse_pdb(synthetic_complex_text())
        entry = split_pocket_ligand(records, "LIG", VOCAB, cutoff=10.0)
        assert len(entry.ligand) == 1
        assert len(entry.pocket) == 1
        assert entry.pocket.atoms[0].position[0] == 4.0

    def test_wider_cutoff_keeps_both(self):
        records = parse_pdb(synthetic_complex_text())
        entry = split_pocket_ligand(records, "LIG", VOCAB, cutoff=15.0)
        assert len(entry.pocket) == 2

    def test_missing_residue(self):
        records = parse_pdb(synthetic_complex_text())
        with pytest.raises(SplitError):
            split_pocket_ligand(records, "XYZ", VOCAB)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0])
    def test_non_positive_cutoff_rejected(self, cutoff):
        records = parse_pdb(synthetic_complex_text())
        with pytest.raises(ValueError, match="cutoff must be positive"):
            split_pocket_ligand(records, "LIG", VOCAB, cutoff=cutoff)

    def test_empty_pocket_at_tiny_cutoff(self):
        records = parse_pdb(synthetic_complex_text())
        with pytest.raises(SplitError):
            split_pocket_ligand(records, "LIG", VOCAB, cutoff=1.0)

    def test_water_never_ligand(self):
        records = parse_pdb(synthetic_complex_text())
        hoh = record(kind="HETATM", serial=9, name="O", residue="HOH", seq=5,
                     pos=(1.0, 1.0, 1.0), element="O")
        with pytest.raises(SplitError):
            split_pocket_ligand(records + [hoh], "HOH", VOCAB)

    def test_record_order_irrelevant(self):
        records = parse_pdb(synthetic_complex_text())
        a = split_pocket_ligand(records, "LIG", VOCAB, cutoff=15.0)
        b = split_pocket_ligand(records[::-1], "LIG", VOCAB, cutoff=15.0)
        pos_a = {tuple(atom.position) for atom in a.pocket.atoms}
        pos_b = {tuple(atom.position) for atom in b.pocket.atoms}
        assert pos_a == pos_b

    def test_altloc_first_conformer_kept(self):
        base = parse_pdb(synthetic_complex_text())
        dup = record(kind="ATOM", serial=4, name="C1", residue="ALA", seq=1,
                     pos=(4.5, 0.0, 0.0), element="C")  # same atom name, residue
        entry = split_pocket_ligand(base + [dup], "LIG", VOCAB, cutoff=10.0)
        assert len(entry.pocket) == 1
        assert entry.pocket.atoms[0].position[0] == 4.0

    def test_pocket_from_records(self):
        pocket = pocket_from_records(parse_pdb(synthetic_complex_text()), VOCAB)
        assert len(pocket) == 2
        assert pocket.bfactors[1] == 30.0


class TestNormalizeBfactors:
    def test_minmax(self):
        pocket = Pocket([Atom(0, (0, 0, 0))] * 3, np.array([10.0, 20.0, 30.0]))
        assert np.allclose(normalize_bfactors(pocket), [0.0, 0.5, 1.0], atol=0)

    def test_degenerate_range(self):
        pocket = Pocket([Atom(0, (0, 0, 0))] * 3, np.array([7.0, 7.0, 7.0]))
        assert np.array_equal(normalize_bfactors(pocket), [0.5, 0.5, 0.5])

    def test_negative_bfactor(self):
        pocket = Pocket([Atom(0, (0, 0, 0))] * 2, np.array([-1.0, 5.0]))
        with pytest.raises(ValueError):
            normalize_bfactors(pocket)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=20))
    def test_weights_in_unit_interval(self, bfactors):
        pocket = Pocket([Atom(0, (0, 0, 0))] * len(bfactors), np.array(bfactors))
        w = normalize_bfactors(pocket)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


class TestManifest:
    def test_read(self, tmp_path):
        pdb = tmp_path / "c1.pdb"
        pdb.write_text(synthetic_complex_text())
        manifest = tmp_path / "index.tsv"
        manifest.write_text(f"entry1\tc1.pdb\tLIG\nentry2\t{pdb}\tLIG\n")
        entries = read_manifest(manifest)
        assert [e.entry_id for e in entries] == ["entry1", "entry2"]
        assert entries[0].path == tmp_path / "c1.pdb"
        assert entries[1].path == pdb

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        manifest = tmp_path / "index.tsv"
        manifest.write_text("# id\tpath\tresidue\n\n   \nentry1\tc1.pdb\tLIG\n#entry2\tc2.pdb\tLIG\n")
        assert [e.entry_id for e in read_manifest(manifest)] == ["entry1"]

    def test_bad_field_count(self, tmp_path):
        manifest = tmp_path / "index.tsv"
        manifest.write_text("only_one_field\n")
        with pytest.raises(ValueError):
            read_manifest(manifest)

    def test_complex_entry_requires_nonempty(self):
        with pytest.raises(ValueError):
            ComplexEntry(
                pocket=Pocket([Atom(0, (0, 0, 0))], np.array([1.0])),
                ligand=Molecule([], []),
                entry_id="x",
            )
