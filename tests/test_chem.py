"""Element table, bond inference, valence accounting, validity checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketflow.chem import (
    Atom,
    ClashError,
    Molecule,
    Pocket,
    ValidityReport,
    Vocabulary,
    VocabularyError,
    check_validity,
    infer_bonds,
    open_valence,
    used_valence,
)

VOCAB = Vocabulary.default()
C, H, O, N = VOCAB.index("C"), VOCAB.index("H"), VOCAB.index("O"), VOCAB.index("N")


def methane():
    # tetrahedral H at 1.09 A from the central carbon
    r = 1.09 / np.sqrt(3.0)
    corners = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    atoms = [Atom(C, (0, 0, 0))] + [Atom(H, np.array(c) * r) for c in corners]
    return Molecule(atoms, infer_bonds(atoms, VOCAB))


def carbon_with_five_h():
    # trigonal bipyramid keeps all H-H distances out of the H-H bond window
    atoms = [Atom(C, (0, 0, 0)), Atom(H, (0, 0, 1.09)), Atom(H, (0, 0, -1.09))]
    for k in range(3):
        angle = 2 * np.pi * k / 3
        atoms.append(Atom(H, (1.09 * np.cos(angle), 1.09 * np.sin(angle), 0)))
    return Molecule(atoms, infer_bonds(atoms, VOCAB))


class TestVocabulary:
    @pytest.mark.parametrize(
        "symbol,valence", [("C", 4), ("O", 2), ("H", 1), ("N", 3)]
    )
    def test_max_valence_table(self, symbol, valence):
        assert VOCAB[VOCAB.index(symbol)].max_valence == valence

    def test_unknown_symbol(self):
        with pytest.raises(VocabularyError):
            VOCAB.index("Xx")

    def test_index_out_of_range(self):
        with pytest.raises(VocabularyError):
            VOCAB[99]

    def test_from_file(self, tmp_path):
        table = tmp_path / "elements.txt"
        table.write_text("# custom table\nH 0.31 1\nC 0.77 4\nO 0.66 2\n")
        vocab = Vocabulary.from_file(table)
        assert vocab.symbols == ("H", "C", "O")
        assert vocab[1].covalent_radius == 0.77

    def test_from_file_unknown_symbol(self, tmp_path):
        table = tmp_path / "elements.txt"
        table.write_text("Qq 1.0 2\n")
        with pytest.raises(VocabularyError):
            Vocabulary.from_file(table)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("O abc 2", "could not convert"),
            ("O 0.66 two", "invalid literal"),
            ("O -0.66 2", "covalent radius must be positive"),
            ("O 0.66 0", "max valence must be >= 1"),
        ],
        ids=["radius-text", "valence-text", "radius-negative", "valence-zero"],
    )
    def test_from_file_bad_number_names_file_and_line(self, tmp_path, line, message):
        table = tmp_path / "elements.txt"
        table.write_text(f"# custom table\nC 0.77 4\n{line}\n")
        with pytest.raises(ValueError, match=rf"elements\.txt:3: .*{message}"):
            Vocabulary.from_file(table)

    def test_from_file_duplicate_symbol_names_file_and_both_lines(self, tmp_path):
        table = tmp_path / "elements.txt"
        table.write_text("C 0.77 4\n# again\nO 0.66 2\nC 0.76 4\n")
        with pytest.raises(
            ValueError, match=r"elements\.txt:4: duplicate element symbol 'C' \(first on line 1\)"
        ):
            Vocabulary.from_file(table)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments-only"])
    def test_from_file_without_entries_names_file(self, tmp_path, text):
        table = tmp_path / "elements.txt"
        table.write_text(text)
        with pytest.raises(ValueError, match=r"elements\.txt: no element entries"):
            Vocabulary.from_file(table)

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_from_file_non_finite_radius_names_file_and_line(self, tmp_path, radius):
        table = tmp_path / "elements.txt"
        table.write_text(f"O 0.66 2\nC {radius} 4\n")
        with pytest.raises(ValueError, match=r"elements\.txt:2: C: covalent radius .* finite"):
            Vocabulary.from_file(table)


class TestInferBonds:
    def test_cc_single_bond(self):
        # C-C window from r_C = 0.77: [0.4*1.54, 1.54+0.45] = [0.616, 1.99]
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (1.54, 0, 0))]
        assert infer_bonds(atoms, VOCAB) == [(0, 1, 1)]

    def test_ch_bond(self):
        # upper bound r_C + r_H + 0.45 = 1.53
        atoms = [Atom(C, (0, 0, 0)), Atom(H, (1.09, 0, 0))]
        assert infer_bonds(atoms, VOCAB) == [(0, 1, 1)]

    def test_distant_pair_unbonded(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (5.0, 0, 0))]
        assert infer_bonds(atoms, VOCAB) == []

    @pytest.mark.parametrize("d,expected", [(0.617, 1), (1.99, 1), (1.995, 0)])
    def test_cc_window_edges(self, d, expected):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (d, 0, 0))]
        assert len(infer_bonds(atoms, VOCAB)) == expected

    def test_clash_raises_with_pair(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (0.5, 0, 0))]
        with pytest.raises(ClashError) as err:
            infer_bonds(atoms, VOCAB)
        assert err.value.pair == (0, 1)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            infer_bonds([], VOCAB)

    def test_permutation_symmetric(self):
        rng = np.random.default_rng(5)
        atoms = [Atom(C, p) for p in rng.uniform(0, 4, size=(5, 3))]
        try:
            reference = {(i, j) for i, j, _ in infer_bonds(atoms, VOCAB)}
        except ClashError:
            pytest.skip("random geometry clashed")
        perm = rng.permutation(5)
        permuted = [atoms[p] for p in perm]
        back = {int(np.where(perm == k)[0][0]): k for k in range(5)}
        bonds = {
            tuple(sorted((back[i], back[j])))
            for i, j, _ in infer_bonds(permuted, VOCAB)
        }
        assert bonds == {tuple(sorted(b)) for b in reference}


class TestOpenValence:
    def test_isolated_carbon(self):
        mol = Molecule([Atom(C, (0, 0, 0))], [])
        assert open_valence(mol, 0, VOCAB) == 4

    def test_methane_carbon_saturated(self):
        assert open_valence(methane(), 0, VOCAB) == 0

    def test_overbonded_carbon_negative(self):
        assert open_valence(carbon_with_five_h(), 0, VOCAB) == -1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            open_valence(methane(), 9, VOCAB)


class TestMoleculeInvariants:
    def test_arrays_are_stacked_once_and_read_only(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(O, (1.2, 0, 0))]
        for holder in (Molecule(atoms, []), Pocket(atoms, np.ones(2))):
            assert np.array_equal(holder.positions, [[0, 0, 0], [1.2, 0, 0]])
            assert holder.elements.tolist() == [C, O]
            assert holder.positions is holder.positions
            with pytest.raises(ValueError):
                holder.positions[0, 0] = 1.0
            with pytest.raises(ValueError):
                holder.elements[0] = O
        assert Molecule().positions.shape == (0, 3)

    @pytest.mark.parametrize("bad", [-5.0, np.nan, np.inf, -np.inf])
    def test_pocket_rejects_bad_bfactor(self, bad):
        """A B-factor is finite and non-negative: a NaN would make every
        gated conditioner NaN, and a negative one has no physical meaning."""
        atoms = [Atom(C, (0, 0, 0)), Atom(O, (1.2, 0, 0))]
        with pytest.raises(ValueError, match="B-factor"):
            Pocket(atoms, [10.0, bad])

    def test_rejects_self_bond(self):
        with pytest.raises(ValueError):
            Molecule([Atom(C, (0, 0, 0))], [(0, 0, 1)])

    def test_rejects_duplicate_bond(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (1.5, 0, 0))]
        with pytest.raises(ValueError):
            Molecule(atoms, [(0, 1, 1), (0, 1, 1)])

    def test_rejects_unordered_bond(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (1.5, 0, 0))]
        with pytest.raises(ValueError):
            Molecule(atoms, [(1, 0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Molecule([Atom(C, (0, 0, 0))], [(0, 3, 1)])

    def test_rejects_nonfinite_position(self):
        with pytest.raises(ValueError):
            Atom(C, (np.nan, 0, 0))


class TestCheckValidity:
    def test_methane_valid(self):
        report = check_validity(methane(), VOCAB)
        assert report.valid and report.violations == ()

    def test_five_h_carbon_invalid_at_atom_zero(self):
        report = check_validity(carbon_with_five_h(), VOCAB)
        assert not report.valid
        assert any(idx == 0 for idx, _ in report.violations)

    def test_empty_molecule(self):
        report = check_validity(Molecule([], []), VOCAB)
        assert not report.valid
        assert "empty" in report.violations[0][1]

    def test_disconnected_invalid(self):
        atoms = [Atom(C, (0, 0, 0)), Atom(C, (5, 0, 0))]
        report = check_validity(Molecule(atoms, []), VOCAB)
        assert not report.valid
        assert any("disconnected" in reason for _, reason in report.violations)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            ValidityReport(valid=True, violations=((0, "bad"),))


# -- brute-force oracle ----------------------------------------------------


def oracle_valid(mol: Molecule, vocab: Vocabulary) -> bool:
    """Explicit per-atom/per-pair reimplementation of the validity rules."""
    n = len(mol.atoms)
    if n == 0:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(mol.atoms[i].position - mol.atoms[j].position))
            ri = vocab[mol.atoms[i].element].covalent_radius
            rj = vocab[mol.atoms[j].element].covalent_radius
            if d < 0.4 * (ri + rj):
                return False
    for i in range(n):
        used = 0
        for a, b, order in mol.bonds:
            if i in (a, b):
                used += order
        if used > vocab[mol.atoms[i].element].max_valence:
            return False
    # connectivity by repeated neighbor expansion
    reached = {0}
    changed = True
    while changed:
        changed = False
        for a, b, _ in mol.bonds:
            if a in reached and b not in reached:
                reached.add(b)
                changed = True
            if b in reached and a not in reached:
                reached.add(a)
                changed = True
    return len(reached) == n


def test_validity_matches_bruteforce_oracle():
    rng = np.random.default_rng(12345)
    agree = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        atoms = [
            Atom(int(rng.integers(0, len(VOCAB))), rng.uniform(0, 4.0, size=3))
            for _ in range(n)
        ]
        try:
            bonds = infer_bonds(atoms, VOCAB)
        except ClashError:
            bonds = []
        mol = Molecule(atoms, bonds)
        assert check_validity(mol, VOCAB).valid == oracle_valid(mol, VOCAB)
        agree += 1
    assert agree == 1000


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_open_valence_consistent_with_used(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    atoms = [
        Atom(int(rng.integers(0, len(VOCAB))), rng.uniform(0, 5.0, size=3))
        for _ in range(n)
    ]
    try:
        mol = Molecule(atoms, infer_bonds(atoms, VOCAB))
    except ClashError:
        return
    for i in range(n):
        cap = VOCAB[mol.atoms[i].element].max_valence
        assert open_valence(mol, i, VOCAB) == cap - used_valence(mol, i)
