"""Desk-scale synthetic complexes used by the demos and the test suite.

The toy system is a 5-atom pocket fragment next to a 3-atom C-C-O ligand;
noisy copies jitter the ligand coordinates so a model has something to fit
while the geometry stays chemically sensible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .chem import Atom, Molecule, Pocket, Vocabulary, infer_bonds
from .molio import molecule_to_records
from .pdb import ComplexEntry, serialize_pdb

TOY_POCKET = (
    # (symbol, position, bfactor)
    ("C", (0.0, 0.0, 0.0), 12.0),
    ("N", (2.8, 0.5, 0.0), 18.0),
    ("O", (-0.5, 2.9, 0.2), 30.0),
    ("C", (0.3, -0.2, 3.0), 22.0),
    ("S", (-2.7, -0.4, 0.6), 15.0),
)

TOY_LIGAND = (
    ("C", (3.5, 0.0, 0.8)),
    ("C", (4.95, 0.4, 1.0)),
    ("O", (5.45, 1.65, 0.6)),
)


def toy_complex(
    vocab: Vocabulary,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
    entry_id: str = "toy",
) -> ComplexEntry:
    """One pocket/ligand pair, optionally with Gaussian jitter on the ligand."""
    pocket = Pocket(
        [Atom(vocab.index(sym), np.array(pos)) for sym, pos, _ in TOY_POCKET],
        np.array([b for _, _, b in TOY_POCKET]),
    )
    lig_atoms = []
    for sym, pos in TOY_LIGAND:
        position = np.array(pos)
        if noise > 0.0 and rng is not None:
            position = position + rng.normal(0.0, noise, size=3)
        lig_atoms.append(Atom(vocab.index(sym), position))
    ligand = Molecule(lig_atoms, infer_bonds(lig_atoms, vocab))
    return ComplexEntry(pocket=pocket, ligand=ligand, entry_id=entry_id)


def toy_dataset(
    vocab: Vocabulary,
    n_copies: int = 50,
    noise: float = 0.1,
    seed: int = 7,
) -> list[ComplexEntry]:
    """Noisy copies of the toy complex (the training set of the toy gate)."""
    rng = np.random.default_rng(seed)
    return [
        toy_complex(vocab, rng, noise=noise, entry_id=f"toy_{i:03d}")
        for i in range(n_copies)
    ]


def toy_complex_pdb(entry: ComplexEntry, vocab: Vocabulary, ligand_residue: str = "LIG") -> str:
    """Render a complex as PDB text (protein as ATOM/ALA, ligand as HETATM)."""
    records = molecule_to_records(entry.pocket, vocab, "ALA")
    ligand = molecule_to_records(entry.ligand, vocab, ligand_residue, residue_seq=2)
    records += [replace(r, serial=r.serial + len(entry.pocket)) for r in ligand]
    return serialize_pdb(records)
