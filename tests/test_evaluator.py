"""Contact counting, affinity estimates, Kd conversion, and report assembly."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketflow.chem import Atom, Molecule, Pocket, Vocabulary, VocabularyError
from pocketflow.evaluator import (
    AffinityModel,
    AffinityRangeError,
    ContactCounts,
    count_contacts,
    dg_to_kd,
    evaluate_set,
    is_polar,
    predict_dg,
    report_json,
    report_tsv,
)

VOCAB = Vocabulary.default()
C, N, O, H = VOCAB.index("C"), VOCAB.index("N"), VOCAB.index("O"), VOCAB.index("H")
MODEL = AffinityModel()


def pocket_of(*atoms):
    return Pocket(list(atoms), np.full(len(atoms), 10.0))


def ligand_of(*atoms, bonds=()):
    return Molecule(list(atoms), list(bonds))


class TestContacts:
    def test_polar_pair_within_cutoff(self):
        counts = count_contacts(
            pocket_of(Atom(N, (0, 0, 0))), ligand_of(Atom(O, (3.0, 0, 0))), VOCAB
        )
        assert counts == ContactCounts(1, 0, 0)

    def test_pair_beyond_cutoff(self):
        counts = count_contacts(
            pocket_of(Atom(N, (0, 0, 0))), ligand_of(Atom(O, (6.0, 0, 0))), VOCAB
        )
        assert counts.total == 0

    def test_apolar_pair(self):
        counts = count_contacts(
            pocket_of(Atom(C, (0, 0, 0))), ligand_of(Atom(C, (4.0, 0, 0))), VOCAB
        )
        assert counts == ContactCounts(0, 0, 1)

    def test_mixed_pair(self):
        counts = count_contacts(
            pocket_of(Atom(N, (0, 0, 0))), ligand_of(Atom(C, (4.0, 0, 0))), VOCAB
        )
        assert counts == ContactCounts(0, 1, 0)

    def test_role_swap_preserves_classes(self):
        pocket_atoms = [Atom(N, (0, 0, 0)), Atom(C, (1.5, 0, 0))]
        ligand_atoms = [Atom(O, (3.0, 0, 0)), Atom(C, (2.0, 2.0, 0))]
        a = count_contacts(pocket_of(*pocket_atoms), ligand_of(*ligand_atoms), VOCAB)
        b = count_contacts(pocket_of(*ligand_atoms), ligand_of(*pocket_atoms), VOCAB)
        assert a == b

    @pytest.mark.parametrize("element", [-1, len(VOCAB)])
    def test_element_outside_vocabulary_rejected(self, element):
        """Polarity is read from one array over the vocabulary, so an index
        outside it must fail rather than wrap or read another element."""
        pocket, ligand = pocket_of(Atom(element, (0, 0, 0))), ligand_of(Atom(C, (3.0, 0, 0)))
        with pytest.raises(VocabularyError):
            count_contacts(pocket, ligand, VOCAB)

    def test_polarity_classification(self):
        assert all(is_polar(s) for s in ("N", "O", "S", "P"))
        assert not any(is_polar(s) for s in ("C", "H", "F", "Cl", "Br", "I"))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ContactCounts(-1, 0, 0)


class TestPredictDg:
    def test_zero_contacts_gives_intercept(self):
        assert predict_dg(ContactCounts(0, 0, 0), MODEL) == MODEL.intercept

    def test_linear_formula(self):
        model = AffinityModel(
            weight_polar_polar=-0.1,
            weight_polar_apolar=-0.05,
            weight_apolar_apolar=-0.02,
            intercept=-1.0,
        )
        assert predict_dg(ContactCounts(10, 4, 20), model) == pytest.approx(-2.6)

    def test_doubling_counts_doubles_excess(self):
        c1 = ContactCounts(3, 5, 7)
        c2 = ContactCounts(6, 10, 14)
        excess1 = predict_dg(c1, MODEL) - MODEL.intercept
        excess2 = predict_dg(c2, MODEL) - MODEL.intercept
        assert excess2 == pytest.approx(2 * excess1)

    def test_more_contacts_never_weaker(self):
        base = predict_dg(ContactCounts(1, 1, 1), MODEL)
        more = predict_dg(ContactCounts(2, 2, 2), MODEL)
        assert more <= base


class TestDgToKd:
    def test_zero_dg_unit_kd(self):
        kd, pkd = dg_to_kd(0.0, MODEL)
        assert kd == 1.0 and pkd == 0.0

    def test_reference_point(self):
        # exp(dG / RT) with RT = 1.9872e-3 * 298.15 kcal/mol
        kd, pkd = dg_to_kd(-9.533, MODEL)
        rt = 1.9872e-3 * 298.15
        assert kd == pytest.approx(math.exp(-9.533 / rt), rel=1e-12)
        assert kd == pytest.approx(1.03e-7, rel=5e-3)
        assert pkd == pytest.approx(6.99, abs=5e-3)

    def test_roundtrip_exact(self):
        for dg in (-12.0, -5.5, 0.0, 2.25):
            kd, _ = dg_to_kd(dg, MODEL)
            back = MODEL.gas_constant * MODEL.temperature * math.log(kd)
            assert back == pytest.approx(dg, rel=1e-12, abs=1e-15)

    def test_overflow_guard(self):
        with pytest.raises(AffinityRangeError):
            dg_to_kd(-1e6, MODEL)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    )
    def test_strictly_monotone(self, dg1, dg2):
        if abs(dg1 - dg2) < 1e-9:  # below exp()'s float resolution
            return
        lo, hi = sorted((dg1, dg2))
        kd_lo, pkd_lo = dg_to_kd(lo, MODEL)
        kd_hi, pkd_hi = dg_to_kd(hi, MODEL)
        assert kd_lo < kd_hi and pkd_lo > pkd_hi


def reference_complex():
    pocket = pocket_of(Atom(N, (0, 0, 0)), Atom(C, (2.0, 0, 0)))
    reference = ligand_of(
        Atom(C, (4.0, 0, 0)), Atom(O, (5.2, 0.8, 0)), bonds=[(0, 1, 1)]
    )
    return pocket, reference


def five_h_carbon():
    atoms = [Atom(C, (0, 0, 0)), Atom(H, (0, 0, 1.09)), Atom(H, (0, 0, -1.09))]
    for k in range(3):
        angle = 2 * math.pi * k / 3
        atoms.append(Atom(H, (1.09 * math.cos(angle), 1.09 * math.sin(angle), 0)))
    return Molecule(atoms, [])


class TestEvaluateSet:
    def test_reference_scores_perfectly(self):
        pocket, reference = reference_complex()
        report = evaluate_set([reference], pocket, MODEL, VOCAB, reference=reference)
        assert report.validity_fraction == 1.0
        assert report.scores[0].rmsd == 0.0
        assert report.scores[0].valid

    def test_invalid_entry_lowers_fraction(self):
        pocket, reference = reference_complex()
        report = evaluate_set(
            [reference, five_h_carbon()], pocket, MODEL, VOCAB, reference=reference
        )
        assert report.validity_fraction == 0.5
        assert not report.scores[1].valid
        assert report.scores[1].rmsd is None  # atom counts differ

    def test_aggregate_matches_independent_resummation(self):
        pocket, reference = reference_complex()
        shifted = ligand_of(
            Atom(C, (4.3, 0.4, 0)), Atom(O, (5.5, 1.2, 0)), bonds=[(0, 1, 1)]
        )
        report = evaluate_set(
            [reference, shifted, five_h_carbon()], pocket, MODEL, VOCAB, reference=reference
        )
        n_valid = sum(1 for s in report.scores if s.valid)
        assert report.validity_fraction == n_valid / 3
        expected_mean = sum(s.pkd for s in report.scores if s.valid) / n_valid
        assert report.mean_pkd_valid == pytest.approx(expected_mean, rel=1e-15)

    def test_mean_is_summed_in_index_order(self, monkeypatch):
        """The mean pKd is the left-to-right sum, whatever ``sum`` rounds
        like: a compensated builtin ``sum`` (Python 3.12 on) must not change it."""
        pocket = pocket_of(*[Atom(C, (0, 0, float(z))) for z in range(0, 40, 4)])
        molecules = [
            ligand_of(
                Atom(C, (0.3 * k, 4.0 + 0.7 * k, 0.1 * k)),
                Atom(O, (1.2 + 0.3 * k, 4.0, 0)),
                bonds=[(0, 1, 1)],
            )
            for k in range(8)
        ]
        monkeypatch.setattr("pocketflow.evaluator.sum", math.fsum, raising=False)
        report = evaluate_set(molecules, pocket, MODEL, VOCAB)
        pkds = [s.pkd for s in report.scores if s.valid]
        total = 0.0
        for value in pkds:
            total += value
        assert len(pkds) >= 3
        assert math.fsum(pkds) != total  # the case tells the two sums apart
        assert report.mean_pkd_valid == total / len(pkds)

    def test_no_molecules_rejected(self):
        pocket, _ = reference_complex()
        with pytest.raises(ValueError):
            evaluate_set([], pocket, MODEL, VOCAB)

    @pytest.mark.parametrize("ids", [["only"], ["a", "b", "c"]])
    def test_ids_must_match_molecules(self, ids):
        """One id per molecule: a short list would score only the molecules
        it names, and report their validity as the whole set's."""
        pocket, reference = reference_complex()
        with pytest.raises(ValueError, match="ids for 2 molecules"):
            evaluate_set([reference, five_h_carbon()], pocket, MODEL, VOCAB, ids=ids)

    def test_empty_molecule_scores_the_intercept(self):
        pocket, reference = reference_complex()
        report = evaluate_set([Molecule([], [])], pocket, MODEL, VOCAB, reference=reference)
        (score,) = report.scores
        assert (score.n_atoms, score.valid, score.rmsd) == (0, False, None)
        assert score.dg == MODEL.intercept
        assert report.validity_fraction == 0.0 and report.mean_pkd_valid is None

    def test_bonds_inferred_when_absent(self):
        pocket, reference = reference_complex()
        bare = ligand_of(Atom(C, (4.0, 0, 0)), Atom(O, (5.2, 0.8, 0)))
        report = evaluate_set([bare], pocket, MODEL, VOCAB)
        assert report.scores[0].valid


class TestReports:
    def report(self):
        pocket, reference = reference_complex()
        return evaluate_set(
            [reference, five_h_carbon()], pocket, MODEL, VOCAB, reference=reference
        )

    def test_tsv_shape(self):
        text = report_tsv(self.report())
        lines = text.splitlines()
        assert lines[0].startswith("# id")
        assert len(lines) == 4  # header, two molecules, aggregate footer
        assert lines[-1].startswith("# aggregate")
        fields = lines[1].split("\t")
        assert fields[0] == "mol_000" and fields[2] == "1"

    def test_json_variant(self):
        payload = json.loads(report_json(self.report()))
        assert payload["aggregate"]["validity_fraction"] == 0.5
        assert len(payload["molecules"]) == 2
        assert payload["molecules"][1]["valid"] is False
