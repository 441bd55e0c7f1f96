"""Seeded protein-like pockets and cavity ligands for the benchmark.

A pocket is a set of random points at least ``MIN_SPACING`` apart in a shell
between ``SHELL_INNER`` and ``SHELL_OUTER`` around the origin, with a C/N/O/S
mix and B-factors, rendered as PDB ATOM text.  A ligand is a random-walk
chain (8-12 atoms in the benchmark) inside the empty cavity that
``infer_bonds`` accepts without a clash, rendered as XYZ text.  Everything
here is a pure function of the seed, so the program under test only ever sees
the generated text.
"""

from __future__ import annotations

import numpy as np

from pocketflow import Atom, StructureRecord, Vocabulary, infer_bonds, serialize_pdb
from pocketflow.chem import Molecule
from pocketflow.molio import write_xyz

MIN_SPACING = 2.6  # Angstrom
SHELL_INNER = 4.0
SHELL_OUTER = 14.0
POCKET_ELEMENTS = ("C", "N", "O", "S")
POCKET_WEIGHTS = (0.62, 0.17, 0.18, 0.03)
LIGAND_ELEMENTS = ("C", "N", "O")
LIGAND_WEIGHTS = (0.75, 0.12, 0.13)
CAVITY_RADIUS = 2.9  # ligand atoms stay >= 1.1 A inside the shell
BOND_LENGTH = 1.5
NONBONDED_MIN = 2.4  # > C-C bond window (0.77 + 0.77 + 0.45), so bonds form a chain


def _shell_points(n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    points = np.empty((n_atoms, 3))
    count = 0
    while count < n_atoms:
        # uniform in the shell volume: radius by inverse CDF of r^2
        u = rng.uniform(SHELL_INNER**3, SHELL_OUTER**3)
        direction = rng.normal(size=3)
        candidate = np.cbrt(u) * direction / np.linalg.norm(direction)
        if count and np.min(np.linalg.norm(points[:count] - candidate, axis=1)) < MIN_SPACING:
            continue
        points[count] = candidate
        count += 1
    return points


def protein_like_pocket_pdb(n_atoms: int, seed: int) -> str:
    """PDB ATOM text of an ``n_atoms`` pocket shell; same seed, same text."""
    rng = np.random.default_rng(seed)
    points = _shell_points(n_atoms, rng)
    symbols = rng.choice(POCKET_ELEMENTS, size=n_atoms, p=POCKET_WEIGHTS)
    bfactors = np.round(rng.uniform(8.0, 60.0, size=n_atoms), 2)
    records = [
        StructureRecord(
            record_kind="ATOM",
            serial=i + 1,
            atom_name=f"{sym}{i % 100}"[:4],
            residue_name="GLY",
            chain="A",
            residue_seq=i // 8 + 1,
            position=np.round(pos, 3),
            occupancy=1.0,
            bfactor=float(b),
            element=str(sym),
        )
        for i, (sym, pos, b) in enumerate(zip(symbols, points, bfactors))
    ]
    return serialize_pdb(records)


def _chain_positions(n_atoms: int, rng: np.random.Generator) -> np.ndarray | None:
    positions = [rng.uniform(-1.0, 1.0, size=3)]
    while len(positions) < n_atoms:
        for _ in range(200):
            direction = rng.normal(size=3)
            candidate = positions[-1] + BOND_LENGTH * direction / np.linalg.norm(direction)
            if np.linalg.norm(candidate) > CAVITY_RADIUS:
                continue
            earlier = np.array(positions[:-1])
            if len(earlier) and np.min(np.linalg.norm(earlier - candidate, axis=1)) < NONBONDED_MIN:
                continue
            positions.append(candidate)
            break
        else:
            return None  # walked into a corner; caller restarts
    return np.round(np.array(positions), 6)


def cavity_ligand_xyz(vocab: Vocabulary, seed: int, n_atoms: int) -> str:
    """XYZ text of an ``n_atoms`` chain ligand inside the pocket cavity."""
    rng = np.random.default_rng(seed)
    positions = None
    while positions is None:
        positions = _chain_positions(n_atoms, rng)
    symbols = rng.choice(LIGAND_ELEMENTS, size=n_atoms, p=LIGAND_WEIGHTS)
    atoms = [Atom(vocab.index(str(s)), p) for s, p in zip(symbols, positions)]
    infer_bonds(atoms, vocab)  # raises ClashError if the chain were unusable
    return write_xyz(Molecule(atoms, []), vocab, comment=f"cavity ligand seed={seed}")
