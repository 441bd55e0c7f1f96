"""Scoring of generated molecules: validity, RMSD to a reference, and a
contact-count linear binding-affinity estimate.

Atoms are classed polar (N, O, S, P) or apolar (everything else); pocket to
ligand contacts within a cutoff are tallied per class pair and fed into a
linear free-energy model

    dG = intercept + sum_class weight_class * count_class   [kcal/mol]

which converts to a dissociation constant through dG = RT ln Kd.  The default
weights are configuration defaults, not fitted coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chem import (
    DEFAULT_BOND_TOLERANCE,
    DEFAULT_CLASH_FACTOR,
    ClashError,
    Molecule,
    Pocket,
    Vocabulary,
    VocabularyError,
    check_validity,
    infer_bonds,
)
from .geometry import distance_matrix, rmsd

POLAR_SYMBOLS = frozenset({"N", "O", "S", "P"})
GAS_CONSTANT_KCAL = 1.9872e-3  # kcal / (mol K)
DEFAULT_CONTACT_CUTOFF = 5.5


class AffinityRangeError(OverflowError):
    """|dG|/RT too large for exp()."""


@dataclass(frozen=True)
class ContactCounts:
    polar_polar: int
    polar_apolar: int
    apolar_apolar: int

    def __post_init__(self) -> None:
        if min(self.polar_polar, self.polar_apolar, self.apolar_apolar) < 0:
            raise ValueError("contact counts must be non-negative")

    @property
    def total(self) -> int:
        return self.polar_polar + self.polar_apolar + self.apolar_apolar


@dataclass(frozen=True)
class AffinityModel:
    weight_polar_polar: float = -0.09  # kcal/mol per contact
    weight_polar_apolar: float = -0.04
    weight_apolar_apolar: float = -0.02
    intercept: float = -2.0
    temperature: float = 298.15  # K
    gas_constant: float = GAS_CONSTANT_KCAL

    def __post_init__(self) -> None:
        if self.temperature <= 0 or self.gas_constant <= 0:
            raise ValueError("temperature and gas constant must be positive")


def is_polar(symbol: str) -> bool:
    return symbol in POLAR_SYMBOLS


def count_contacts(
    pocket: Pocket,
    ligand: Molecule,
    vocab: Vocabulary,
    cutoff: float = DEFAULT_CONTACT_CUTOFF,
) -> ContactCounts:
    """Tally pocket-ligand atom pairs within ``cutoff`` by polarity class."""
    if len(pocket) == 0 or len(ligand) == 0:
        raise ValueError("pocket and ligand must be non-empty")
    elements = np.concatenate([pocket.elements, ligand.elements])
    if elements.min() < 0 or elements.max() >= len(vocab):
        raise VocabularyError(f"element index out of range for {len(vocab)} elements")
    polar = np.array([is_polar(e.symbol) for e in vocab.elements])
    pocket_polar, ligand_polar = polar[pocket.elements], polar[ligand.elements]
    within = distance_matrix(pocket.positions, ligand.positions) <= cutoff
    both = pocket_polar[:, None] & ligand_polar[None, :]
    neither = ~pocket_polar[:, None] & ~ligand_polar[None, :]
    pp = int(np.sum(within & both))
    aa = int(np.sum(within & neither))
    return ContactCounts(pp, int(within.sum()) - pp - aa, aa)


def predict_dg(contacts: ContactCounts, model: AffinityModel) -> float:
    """Linear contact model; more negative means stronger predicted binding."""
    return (
        model.intercept
        + model.weight_polar_polar * contacts.polar_polar
        + model.weight_polar_apolar * contacts.polar_apolar
        + model.weight_apolar_apolar * contacts.apolar_apolar
    )


def dg_to_kd(dg: float, model: AffinityModel) -> tuple[float, float]:
    """Invert dG = RT ln Kd; returns (Kd in molar, pKd = -log10 Kd)."""
    exponent = dg / (model.gas_constant * model.temperature)
    if abs(exponent) > 700.0:
        raise AffinityRangeError(f"|dG|/RT = {abs(exponent):.3g} overflows exp")
    kd = math.exp(exponent)
    return kd, -math.log10(kd)


@dataclass(frozen=True)
class MoleculeScore:
    molecule_id: str
    n_atoms: int
    valid: bool
    rmsd: float | None  # None when no count-matched reference exists
    dg: float
    kd: float
    pkd: float


@dataclass(frozen=True)
class EvalReport:
    scores: tuple[MoleculeScore, ...]
    validity_fraction: float
    mean_pkd_valid: float | None

    def __post_init__(self) -> None:
        if not 0.0 <= self.validity_fraction <= 1.0:
            raise ValueError("validity fraction must lie in [0, 1]")


def _validity(mol: Molecule, vocab: Vocabulary, clash_factor: float, tolerance: float) -> bool:
    if not mol.bonds and len(mol) > 1:
        try:
            mol = Molecule(mol.atoms, infer_bonds(mol.atoms, vocab, tolerance, clash_factor))
        except ClashError:
            pass  # clash violations surface via check_validity below
    return check_validity(mol, vocab, clash_factor).valid


def evaluate_set(
    molecules: Sequence[Molecule],
    pocket: Pocket,
    model: AffinityModel,
    vocab: Vocabulary,
    reference: Molecule | None = None,
    contact_cutoff: float = DEFAULT_CONTACT_CUTOFF,
    ids: Sequence[str] | None = None,
    clash_factor: float = DEFAULT_CLASH_FACTOR,
    bond_tolerance: float = DEFAULT_BOND_TOLERANCE,
) -> EvalReport:
    """Score each molecule and aggregate validity and mean pKd over valid ones.

    Molecules without bonds get them inferred (under ``clash_factor`` and
    ``bond_tolerance``, see :func:`infer_bonds`) before the validity check;
    RMSD is reported only against a reference with the same atom count.
    """
    if not molecules:
        raise ValueError("no molecules to evaluate")
    if ids is None:
        ids = [f"mol_{i:03d}" for i in range(len(molecules))]
    elif len(ids) != len(molecules):
        raise ValueError(f"{len(ids)} ids for {len(molecules)} molecules")
    scores = []
    for mol_id, mol in zip(ids, molecules):
        valid = _validity(mol, vocab, clash_factor, bond_tolerance) if len(mol) else False
        value = None
        if reference is not None and len(mol) == len(reference) and len(mol) > 0:
            value = rmsd(mol, reference)
        if len(mol):
            dg = predict_dg(count_contacts(pocket, mol, vocab, contact_cutoff), model)
        else:
            dg = predict_dg(ContactCounts(0, 0, 0), model)
        kd, pkd = dg_to_kd(dg, model)
        scores.append(MoleculeScore(mol_id, len(mol), valid, value, dg, kd, pkd))
    n_valid = sum(s.valid for s in scores)
    total = 0.0
    for s in scores:  # in index order: ``sum`` compensates from Python 3.12 on
        if s.valid:
            total += s.pkd
    mean_pkd = total / n_valid if n_valid else None
    return EvalReport(tuple(scores), n_valid / len(scores), mean_pkd)


def report_tsv(report: EvalReport) -> str:
    """Tab-separated rows plus a one-line aggregate footer."""
    lines = ["# id\tn_atoms\tvalid\trmsd\tdG_kcal_mol\tKd_M\tpKd"]
    for s in report.scores:
        rmsd_txt = repr(s.rmsd) if s.rmsd is not None else "NA"
        lines.append(
            f"{s.molecule_id}\t{s.n_atoms}\t{int(s.valid)}\t{rmsd_txt}"
            f"\t{s.dg!r}\t{s.kd!r}\t{s.pkd!r}"
        )
    mean_txt = repr(report.mean_pkd_valid) if report.mean_pkd_valid is not None else "NA"
    lines.append(
        f"# aggregate\tvalidity={report.validity_fraction!r}\tmean_pKd_valid={mean_txt}"
    )
    return "".join(line + "\n" for line in lines)


def report_json(report: EvalReport) -> str:
    """Structured-text variant of the report."""
    payload = {
        "molecules": [
            {
                "id": s.molecule_id,
                "n_atoms": s.n_atoms,
                "valid": s.valid,
                "rmsd": s.rmsd,
                "dG_kcal_mol": s.dg,
                "Kd_M": s.kd,
                "pKd": s.pkd,
            }
            for s in report.scores
        ],
        "aggregate": {
            "validity_fraction": report.validity_fraction,
            "mean_pKd_valid": report.mean_pkd_valid,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
