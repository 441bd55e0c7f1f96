"""Element vocabulary, valence accounting, distance-based bond inference and
molecule validity checks.

Atom types are represented as indices into a :class:`Vocabulary`.  Bonds are
inferred purely from interatomic distances against covalent-radius windows;
every inferred bond is a single bond.  A molecule is chemically valid when it
is non-empty, free of steric clashes, connected, and no atom exceeds its
valence capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import distance_matrix

Bond = tuple[int, int, int]


class VocabularyError(KeyError):
    """Unknown element symbol or out-of-range element index."""


class ClashError(ValueError):
    """Two atoms closer than the steric clash threshold."""

    def __init__(self, i: int, j: int, distance: float, threshold: float):
        self.pair = (i, j)
        super().__init__(
            f"atoms {i} and {j} clash: d={distance:.3f} A < {threshold:.3f} A"
        )


@dataclass(frozen=True)
class ElementKind:
    """One entry of the element vocabulary."""

    symbol: str
    atomic_number: int
    covalent_radius: float  # Angstrom
    max_valence: int

    def __post_init__(self) -> None:
        if self.covalent_radius <= 0:
            raise ValueError(f"{self.symbol}: covalent radius must be positive")
        if self.max_valence < 1:
            raise ValueError(f"{self.symbol}: max valence must be >= 1")


# Covalent radii in Angstrom (single-bond values); valences are neutral
# covalent capacities.  Nitrogen is capped at 3: no charge model here.
_DEFAULT_ELEMENTS: tuple[tuple[str, int, float, int], ...] = (
    ("H", 1, 0.31, 1),
    ("C", 6, 0.77, 4),
    ("N", 7, 0.71, 3),
    ("O", 8, 0.66, 2),
    ("F", 9, 0.57, 1),
    ("P", 15, 1.07, 5),
    ("S", 16, 1.05, 6),
    ("Cl", 17, 1.02, 1),
    ("Br", 35, 1.20, 1),
    ("I", 53, 1.39, 1),
)

_ATOMIC_NUMBERS = {sym: z for sym, z, _, _ in _DEFAULT_ELEMENTS}


class Vocabulary:
    """Ordered element table addressed by integer index.

    The default vocabulary covers typical drug-like ligand elements
    (H, C, N, O, F, P, S, Cl, Br, I).  A custom table can be loaded from a
    plain-text file with one ``symbol radius_A max_valence`` triple per line
    (``#`` starts a comment).
    """

    def __init__(self, elements: Iterable[ElementKind]):
        self.elements: tuple[ElementKind, ...] = tuple(elements)
        if not self.elements:
            raise ValueError("vocabulary must not be empty")
        self._by_symbol: dict[str, int] = {}
        for i, e in enumerate(self.elements):
            if e.symbol in self._by_symbol:
                raise ValueError(f"duplicate element symbol {e.symbol!r}")
            self._by_symbol[e.symbol] = i
        self.radii = np.array([e.covalent_radius for e in self.elements])
        self.max_valences = np.array([e.max_valence for e in self.elements])

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index: int) -> ElementKind:
        if not 0 <= index < len(self.elements):
            raise VocabularyError(f"element index {index} out of range")
        return self.elements[index]

    def index(self, symbol: str) -> int:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise VocabularyError(f"unknown element symbol {symbol!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(e.symbol for e in self.elements)

    @classmethod
    def default(cls) -> "Vocabulary":
        return cls(ElementKind(s, z, r, v) for s, z, r, v in _DEFAULT_ELEMENTS)

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocabulary":
        """Load ``symbol radius_A max_valence`` lines; blank/comment lines skipped."""
        entries = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'symbol radius max_valence'")
            sym, radius, valence = parts
            if sym not in _ATOMIC_NUMBERS:
                raise VocabularyError(f"{path}:{lineno}: unknown element symbol {sym!r}")
            try:
                entries.append(ElementKind(sym, _ATOMIC_NUMBERS[sym], float(radius), int(valence)))
            except ValueError as exc:  # a non-numeric or non-positive radius or valence
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(entries)


def max_valence(element: ElementKind) -> int:
    """Bond-order capacity of an element."""
    return element.max_valence


@dataclass(frozen=True)
class Atom:
    """One typed point: vocabulary index plus Cartesian position in Angstrom."""

    element: int
    position: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("atom position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)


def _atom_arrays(atoms: Sequence[Atom]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(positions, elements)`` stacked from ``atoms``."""
    positions = np.array([a.position for a in atoms], dtype=float).reshape(-1, 3)
    elements = np.array([a.element for a in atoms], dtype=int)
    positions.flags.writeable = elements.flags.writeable = False
    return positions, elements


@dataclass
class Molecule:
    """Ordered atoms plus bonds ``(i, j, order)`` with ``i < j``.

    ``positions`` and ``elements`` are read-only arrays stacked once from the
    atoms; a molecule is not meant to change after construction.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    positions: np.ndarray = field(init=False, repr=False, compare=False)
    elements: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for i, j, order in self.bonds:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond ({i},{j}) index out of range for {n} atoms")
            if i == j:
                raise ValueError(f"self-bond on atom {i}")
            if i > j:
                raise ValueError(f"bond ({i},{j}) must be ordered i < j")
            if (i, j) in seen:
                raise ValueError(f"duplicate bond ({i},{j})")
            if order < 1:
                raise ValueError(f"bond ({i},{j}) order must be >= 1")
            seen.add((i, j))
        self.positions, self.elements = _atom_arrays(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass
class Pocket:
    """Protein binding-pocket atoms with per-atom B-factors (Angstrom^2).

    ``positions`` and ``elements`` are read-only arrays stacked once from the
    atoms; a pocket is not meant to change after construction.
    """

    atoms: list[Atom]
    bfactors: np.ndarray
    positions: np.ndarray = field(init=False, repr=False)
    elements: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.bfactors = np.asarray(self.bfactors, dtype=float)
        if self.bfactors.shape != (len(self.atoms),):
            raise ValueError("bfactors length must equal atom count")
        self.positions, self.elements = _atom_arrays(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        if self.valid != (len(self.violations) == 0):
            raise ValueError("valid flag must mirror an empty violation list")


# Bond window: clash_factor*(r_i+r_j) <= d <= r_i+r_j+tolerance.
DEFAULT_BOND_TOLERANCE = 0.45
DEFAULT_CLASH_FACTOR = 0.4


def infer_bonds(
    atoms: Sequence[Atom],
    vocab: Vocabulary,
    tolerance: float = DEFAULT_BOND_TOLERANCE,
    clash_factor: float = DEFAULT_CLASH_FACTOR,
) -> list[Bond]:
    """Infer single bonds from covalent-radius distance windows.

    A pair (i, j) is bonded when
    ``clash_factor*(r_i+r_j) <= d(i,j) <= r_i+r_j+tolerance``.

    Raises:
        ClashError: if any pair sits below the clash threshold.
    """
    if len(atoms) == 0:
        raise ValueError("need at least one atom")
    pos, elements = _atom_arrays(atoms)
    radii = vocab.radii[elements]
    dist = distance_matrix(pos, pos)
    rsum = radii[:, None] + radii[None, :]
    iu, ju = np.triu_indices(len(atoms), k=1)
    clashing = dist[iu, ju] < clash_factor * rsum[iu, ju]
    if clashing.any():
        k = int(np.argmax(clashing))
        i, j = int(iu[k]), int(ju[k])
        raise ClashError(i, j, float(dist[i, j]), float(clash_factor * rsum[i, j]))
    bonded = dist[iu, ju] <= rsum[iu, ju] + tolerance
    return [(int(i), int(j), 1) for i, j in zip(iu[bonded], ju[bonded])]


def used_valence(molecule: Molecule, atom: int) -> int:
    """Sum of bond orders incident to ``atom``."""
    return sum(order for i, j, order in molecule.bonds if atom in (i, j))


def open_valence(molecule: Molecule, atom: int, vocab: Vocabulary) -> int:
    """Remaining bond capacity; negative when the atom is over-bonded."""
    if not 0 <= atom < len(molecule.atoms):
        raise IndexError(f"atom index {atom} out of range")
    return int(vocab.max_valences[molecule.atoms[atom].element]) - used_valence(
        molecule, atom
    )


def _connected(n: int, bonds: Sequence[Bond]) -> bool:
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in bonds:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def check_validity(
    molecule: Molecule,
    vocab: Vocabulary,
    clash_factor: float = DEFAULT_CLASH_FACTOR,
) -> ValidityReport:
    """Report whether a molecule obeys the basic chemistry rules.

    Checks, in order: non-emptiness, steric clashes, per-atom valence
    capacity, and bond-graph connectivity.  Violations are collected, never
    raised; bonds are taken as given (run :func:`infer_bonds` first when the
    molecule carries none).
    """
    violations: list[tuple[int, str]] = []
    n = len(molecule.atoms)
    if n == 0:
        return ValidityReport(False, ((0, "empty molecule"),))

    pos = molecule.positions
    radii = vocab.radii[molecule.elements]
    dist = distance_matrix(pos, pos)
    clashing = np.triu(dist < clash_factor * (radii[:, None] + radii[None, :]), k=1)
    for i, j in zip(*np.nonzero(clashing)):
        violations.append((int(i), f"clash with atom {j} at {dist[i, j]:.3f} A"))

    for i in range(n):
        cap = int(vocab.max_valences[molecule.atoms[i].element])
        used = used_valence(molecule, i)
        if used > cap:
            sym = vocab[molecule.atoms[i].element].symbol
            violations.append((i, f"{sym} valence {used} exceeds capacity {cap}"))

    if not _connected(n, molecule.bonds):
        violations.append((0, "bond graph is disconnected"))

    return ValidityReport(len(violations) == 0, tuple(violations))
