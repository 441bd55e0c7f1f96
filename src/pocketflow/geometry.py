"""Distances, Gaussian radial-basis feature banks, RMSD, and rigid transforms.

All lengths are in Angstrom.  The RBF bank turns a scalar distance into a
smooth feature vector ``g_i = exp(-(d - c_i)^2 / (2 sigma^2))`` used by the
context encoder; rigid transforms exist mainly to exercise the invariance
properties of everything built on top of distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .chem import Molecule


class TransformError(ValueError):
    """Rotation matrix is not a proper rotation."""


@dataclass(frozen=True)
class RbfBank:
    """Gaussian radial basis centers with one shared width."""

    centers: np.ndarray
    width: float

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 1 or len(centers) == 0:
            raise ValueError("centers must be a non-empty 1-D array")
        if np.any(np.diff(centers) <= 0):
            raise ValueError("centers must be strictly increasing")
        if self.width <= 0:
            raise ValueError("width must be positive")
        object.__setattr__(self, "centers", centers)

    def __len__(self) -> int:
        return len(self.centers)

    @classmethod
    def default(cls, n_centers: int = 16, r_max: float = 8.0) -> "RbfBank":
        """Evenly spaced centers on [0, r_max] with width equal to the spacing."""
        centers = np.linspace(0.0, r_max, n_centers)
        return cls(centers, float(centers[1] - centers[0]))


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances from every row of ``a`` (n, 3) to every row of
    ``b`` (m, 3), shape (n, m)."""
    x = a[:, None, 0] - b[None, :, 0]
    y = a[:, None, 1] - b[None, :, 1]
    z = a[:, None, 2] - b[None, :, 2]
    return np.sqrt(x * x + y * y + z * z)


def rbf_expand(d: float | np.ndarray, bank: RbfBank) -> np.ndarray:
    """Expand distance(s) into Gaussian RBF features, each in (0, 1].

    Scalar input yields shape ``(len(bank),)``; an array of distances yields
    ``d.shape + (len(bank),)``.
    """
    d = np.asarray(d, dtype=float)
    delta = d[..., None] - bank.centers
    return np.exp(-(delta**2) / (2.0 * bank.width**2))


def rmsd(a: Molecule, b: Molecule, align: bool = False) -> float:
    """Root-mean-square deviation over positionally corresponding atoms.

    ``sqrt(mean_i ||a_i - b_i||^2)`` with the i-th atom of ``a`` matched to
    the i-th atom of ``b``.  With ``align=True`` the optimal rigid
    superposition (Kabsch) is applied first; intended for reporting only.
    """
    if len(a) != len(b):
        raise ValueError(f"atom counts differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty molecules")
    pa, pb = a.positions, b.positions
    if align:
        pa, pb = _kabsch_superpose(pa, pb)
    return float(np.sqrt(np.mean(np.sum((pa - pb) ** 2, axis=1))))


def _kabsch_superpose(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center both point sets and rotate ``p`` onto ``q`` optimally."""
    p = p - p.mean(axis=0)
    q = q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    sign = np.sign(np.linalg.det(u @ vt))
    d = np.diag([1.0, 1.0, sign])
    rot = (u @ d @ vt).T
    return p @ rot.T, q


_ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class RigidTransform:
    """Proper rotation plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=float)
        trans = np.asarray(self.translation, dtype=float)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise TransformError("rotation must be 3x3 and translation a 3-vector")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > _ORTHOGONALITY_TOL:
            raise TransformError("rotation is not orthogonal")
        if np.linalg.det(rot) < 0:
            raise TransformError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def random(cls, rng: np.random.Generator, max_shift: float = 10.0) -> "RigidTransform":
        """Haar-ish random rotation (QR of a Gaussian matrix) plus a random shift."""
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return cls(q, rng.uniform(-max_shift, max_shift, size=3))


def apply_rigid(t: RigidTransform, coords: np.ndarray) -> np.ndarray:
    """Map each row p of ``coords`` to ``rotation @ p + translation``."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return coords @ t.rotation.T + t.translation
