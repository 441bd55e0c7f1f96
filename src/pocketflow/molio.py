"""Molecule file output/input: XYZ text, and PDB records for any atom set."""

from __future__ import annotations

import numpy as np

from .chem import Atom, Molecule, Pocket, Vocabulary
from .pdb import StructureRecord


def write_xyz(molecule: Molecule, vocab: Vocabulary, comment: str = "") -> str:
    """XYZ text: count line, comment line, then ``element x y z`` rows."""
    lines = [str(len(molecule)), comment.replace("\n", " ")]
    for atom in molecule.atoms:
        sym = vocab[atom.element].symbol
        x, y, z = atom.position
        lines.append(f"{sym} {x:.6f} {y:.6f} {z:.6f}")
    return "".join(line + "\n" for line in lines)


def read_xyz(text: str, vocab: Vocabulary) -> Molecule:
    """Parse XYZ text back into a molecule (bonds left empty)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty XYZ input")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"bad XYZ count line: {lines[0]!r}") from None
    if count < 0:
        raise ValueError(f"negative XYZ atom count: {count}")
    if len(lines) < 2 + count:
        raise ValueError(f"XYZ input truncated: expected {count} atom lines")
    atoms = []
    for raw in lines[2 : 2 + count]:
        parts = raw.split()
        if len(parts) < 4:
            raise ValueError(f"bad XYZ atom line: {raw!r}")
        atoms.append(Atom(vocab.index(parts[0]), np.array([float(p) for p in parts[1:4]])))
    return Molecule(atoms, [])


def molecule_to_records(
    molecule: Molecule | Pocket,
    vocab: Vocabulary,
    residue_name: str = "LIG",
    chain: str = "A",
    residue_seq: int = 1,
) -> list[StructureRecord]:
    """PDB records for any atom set; atom names are symbol+ordinal.

    A :class:`Pocket` gives ATOM records carrying its B-factors; a
    :class:`Molecule` gives HETATM records with B-factor 0.
    """
    pocket = isinstance(molecule, Pocket)
    bfactors = molecule.bfactors.tolist() if pocket else [0.0] * len(molecule)
    records = []
    for i, (atom, bfactor) in enumerate(zip(molecule.atoms, bfactors), start=1):
        sym = vocab[atom.element].symbol
        records.append(
            StructureRecord(
                record_kind="ATOM" if pocket else "HETATM",
                serial=i,
                atom_name=f"{sym}{i}"[:4],
                residue_name=residue_name,
                chain=chain,
                residue_seq=residue_seq,
                position=atom.position,
                occupancy=1.0,
                bfactor=bfactor,
                element=sym,
            )
        )
    return records
