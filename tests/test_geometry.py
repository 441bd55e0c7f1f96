"""Distances, RBF expansion, RMSD, rigid transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketflow.chem import Atom, Molecule, Vocabulary
from pocketflow.geometry import (
    RbfBank,
    RigidTransform,
    TransformError,
    apply_rigid,
    distance_matrix,
    rbf_expand,
    rmsd,
)

VOCAB = Vocabulary.default()
C = VOCAB.index("C")


def mol(*positions):
    return Molecule([Atom(C, p) for p in positions], [])


def pairwise_distance(a, b):
    return distance_matrix(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0]


class TestPairwiseDistance:
    def test_three_four_five(self):
        assert pairwise_distance((0, 0, 0), (3, 4, 0)) == 5.0

    def test_identical_points(self):
        assert pairwise_distance((1, 2, 3), (1, 2, 3)) == 0.0

    def test_unit_diagonal(self):
        assert pairwise_distance((1, 1, 1), (2, 2, 2)) == pytest.approx(
            1.7320508075688772, abs=1e-12
        )


class TestDistanceMatrix:
    @pytest.mark.parametrize("n, m", [(0, 0), (0, 4), (5, 0), (1, 1), (3, 3), (17, 40), (120, 90)])
    def test_bit_equal_to_broadcast_formula(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        for scale in (1e-3, 1.0, 30.0, 1e4):
            a = rng.standard_normal((n, 3)) * scale
            b = rng.standard_normal((m, 3)) * scale + rng.uniform(-scale, scale)
            diff = a[:, None, :] - b[None, :, :]
            expected = np.sqrt((diff**2).sum(axis=-1))
            got = distance_matrix(a, b)
            assert got.shape == (n, m)
            assert np.array_equal(got, expected)


class TestRbfExpand:
    BANK = RbfBank(np.array([0.0, 1.0, 2.0, 4.0]), width=0.5)

    def test_at_center_is_one(self):
        feats = rbf_expand(2.0, self.BANK)
        assert feats[2] == 1.0

    def test_one_sigma_away(self):
        feats = rbf_expand(1.0 + 0.5, self.BANK)
        assert feats[1] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_three_sigma_away(self):
        feats = rbf_expand(1.0 + 1.5, self.BANK)
        assert feats[1] == pytest.approx(0.011108996538242306, abs=1e-12)

    def test_all_components_in_unit_interval(self):
        feats = rbf_expand(np.linspace(0, 10, 50), self.BANK)
        assert np.all(feats > 0) and np.all(feats <= 1)

    def test_default_bank_spacing(self):
        bank = RbfBank.default()
        assert len(bank) == 16
        assert bank.width == pytest.approx(8.0 / 15.0)

    def test_invariant_under_joint_rigid_motion(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-4, 4, size=(2, 3))
        base = rbf_expand(np.linalg.norm(a - b), self.BANK)
        for k in range(20):
            t = RigidTransform.random(np.random.default_rng(k))
            a2, b2 = apply_rigid(t, np.stack([a, b]))
            moved = rbf_expand(np.linalg.norm(a2 - b2), self.BANK)
            assert np.max(np.abs(moved - base)) < 1e-12

    def test_bank_validation(self):
        with pytest.raises(ValueError):
            RbfBank(np.array([1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            RbfBank(np.array([0.0, 1.0]), -1.0)


class TestRmsd:
    def test_identical_is_zero(self):
        a = mol((0, 0, 0), (1, 1, 1))
        assert rmsd(a, a) == 0.0

    def test_single_displaced_atom(self):
        assert rmsd(mol((0, 0, 0)), mol((3, 4, 0))) == 5.0

    def test_two_atom_mixed_displacement(self):
        a = mol((0, 0, 0), (2, 0, 0))
        b = mol((1, 0, 0), (2, 0, 0))
        assert rmsd(a, b) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            rmsd(mol((0, 0, 0)), mol((0, 0, 0), (1, 0, 0)))

    @pytest.mark.parametrize("align", [False, True])
    def test_count_mismatch_named(self, align):
        with pytest.raises(ValueError, match="atom counts differ: 2 vs 1"):
            rmsd(mol((0, 0, 0), (1, 0, 0)), mol((0, 0, 0)), align=align)

    @pytest.mark.parametrize("align", [False, True])
    def test_empty_molecules_rejected(self, align):
        with pytest.raises(ValueError, match="empty molecules"):
            rmsd(mol(), mol(), align=align)

    def test_aligned_removes_rigid_motion(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(-3, 3, size=(6, 3))
        t = RigidTransform.random(rng)
        a = mol(*pos)
        b = mol(*apply_rigid(t, pos))
        assert rmsd(a, b) > 0.1
        assert rmsd(a, b, align=True) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = mol(*rng.uniform(-5, 5, size=(n, 3)))
        b = mol(*rng.uniform(-5, 5, size=(n, 3)))
        assert rmsd(a, b) == pytest.approx(rmsd(b, a), rel=1e-14)
        assert rmsd(a, b) >= 0.0


class TestRigidTransform:
    def test_identity_unchanged(self):
        pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        assert np.array_equal(apply_rigid(RigidTransform.identity(), pts), pts)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        out = apply_rigid(t, np.zeros((1, 3)))
        assert np.allclose(out[0], [1, 2, 3], atol=0)

    def test_quarter_turn_about_z(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = apply_rigid(RigidTransform(rot, np.zeros(3)), np.array([[1.0, 0.0, 0.0]]))
        assert np.max(np.abs(out[0] - np.array([0.0, 1.0, 0.0]))) < 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(TransformError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(TransformError):
            RigidTransform(rot, np.zeros(3))

    def test_distances_preserved_over_random_transforms(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-8, 8, size=(10, 3))
        base = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        for k in range(100):
            t = RigidTransform.random(np.random.default_rng(k))
            moved = apply_rigid(t, pts)
            dist = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
            assert np.max(np.abs(dist - base)) < 1e-10
