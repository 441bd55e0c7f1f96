"""Fixed-column PDB structure-file parsing, serialization, and complex splitting.

Only ATOM/HETATM records are consumed; everything else is skipped (only the
first MODEL of multi-model files is read).  Column layout, 1-based inclusive:

    kind 1-6, serial 7-11, name 13-16, residue 18-20, chain 22, resSeq 23-26,
    x 31-38, y 39-46, z 47-54, occupancy 55-60, bfactor 61-66, element 77-78

Serialization reproduces this layout exactly, so parse and serialize are
mutual inverses on well-formed records.  A :class:`StructureRecord` is a
value: immutable, with its position a tuple of three finite floats, so two
records from the same line compare and hash equal.  A float column that
reads as non-finite (``nan``, ``inf``) is a parse error naming its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chem import DEFAULT_BOND_TOLERANCE, DEFAULT_CLASH_FACTOR, Atom, Molecule, Pocket, Vocabulary
from .chem import _atom_arrays, infer_bonds
from .geometry import distance_matrix


class PdbParseError(ValueError):
    """Malformed ATOM/HETATM line; message carries the 1-based line number."""


class PdbRangeError(ValueError):
    """Field value not representable in its fixed-width column."""


class SplitError(ValueError):
    """Pocket/ligand split failed (missing residue or empty pocket)."""


@dataclass(frozen=True)
class StructureRecord:
    record_kind: str  # "ATOM" or "HETATM"
    serial: int
    atom_name: str
    residue_name: str
    chain: str
    residue_seq: int
    position: tuple[float, float, float]
    occupancy: float
    bfactor: float
    element: str

    def __post_init__(self) -> None:
        pos = tuple(map(float, self.position))
        if len(pos) != 3 or not all(map(math.isfinite, pos)):
            raise ValueError("record position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)


@dataclass
class ComplexEntry:
    """One pocket/ligand pair extracted from a structure file."""

    pocket: Pocket
    ligand: Molecule
    entry_id: str

    def __post_init__(self) -> None:
        if len(self.pocket) == 0 or len(self.ligand) == 0:
            raise ValueError("pocket and ligand must both be non-empty")


def _parse(kind: type, text: str, lineno: int, what: str):
    """``kind(text)``; a :class:`PdbParseError` naming the line unless it is finite."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise PdbParseError(f"line {lineno}: cannot parse {what} from {text.strip()!r}")
    return value


def _element_from_name(name: str, vocab: Vocabulary | None) -> str:
    """Best-effort element from the atom-name field of older files."""
    stripped = name.strip().lstrip("0123456789")
    if not stripped:
        return ""
    two = stripped[:2].capitalize()
    if vocab is not None and len(stripped) >= 2 and two in vocab:
        return two
    return stripped[0].upper()


def parse_pdb(
    text: str | bytes,
    vocab: Vocabulary | None = None,
) -> list[StructureRecord]:
    """Parse ATOM/HETATM lines into records; other line kinds are ignored.

    Reading stops at the end of the first MODEL.  When the element columns
    77-78 are blank the element is inferred from the atom name.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    records: list[StructureRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        kind = line[0:6].strip()
        if kind == "ENDMDL":
            break
        if kind not in ("ATOM", "HETATM"):
            continue
        if len(line) < 66:
            raise PdbParseError(f"line {lineno}: truncated record ({len(line)} cols < 66)")
        x = _parse(float, line[30:38], lineno, "x coordinate")
        y = _parse(float, line[38:46], lineno, "y coordinate")
        z = _parse(float, line[46:54], lineno, "z coordinate")
        element = line[76:78].strip() if len(line) >= 77 else ""
        name = line[12:16].strip()
        if not element:
            element = _element_from_name(name, vocab)
        records.append(
            StructureRecord(
                record_kind=kind,
                serial=_parse(int, line[6:11], lineno, "serial"),
                atom_name=name,
                residue_name=line[17:20].strip(),
                chain=line[21:22],
                residue_seq=_parse(int, line[22:26], lineno, "residue number"),
                position=(x, y, z),
                occupancy=_parse(float, line[54:60], lineno, "occupancy"),
                bfactor=_parse(float, line[60:66], lineno, "B-factor"),
                element=element,
            )
        )
    return records


def _format_atom_name(name: str) -> str:
    # 1-3 char names start in column 14 by convention; 4-char names fill 13-16.
    if len(name) == 4:
        return name
    return f" {name:<3s}"


_TEXT_WIDTHS = {"record_kind": 6, "atom_name": 4, "residue_name": 3, "chain": 1, "element": 2}


def serialize_pdb(records: list[StructureRecord]) -> str:
    """Emit records in the fixed-column layout; inverse of :func:`parse_pdb`."""
    lines = []
    for r in records:
        x, y, z = r.position
        for label, v in (("x", x), ("y", y), ("z", z)):
            if not -999.999 <= v <= 9999.999:
                raise PdbRangeError(f"{label}={v} does not fit in %8.3f")
        if not -99.99 <= r.occupancy <= 999.99 or not -99.99 <= r.bfactor <= 999.99:
            raise PdbRangeError("occupancy/B-factor does not fit in %6.2f")
        if not -9999 <= r.serial <= 99999:
            raise PdbRangeError(f"serial {r.serial} does not fit in 5 columns")
        if not -999 <= r.residue_seq <= 9999:
            raise PdbRangeError(f"residue number {r.residue_seq} does not fit in 4 columns")
        for name, width in _TEXT_WIDTHS.items():
            if len(getattr(r, name)) > width:
                raise PdbRangeError(f"{name} {getattr(r, name)!r} does not fit in {width} columns")
        lines.append(
            f"{r.record_kind:<6s}{r.serial:>5d} {_format_atom_name(r.atom_name)} "
            f"{r.residue_name:>3s} {r.chain:1s}{r.residue_seq:>4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}{r.occupancy:6.2f}{r.bfactor:6.2f}"
            f"          {r.element:>2s}"
        )
    return "".join(line + "\n" for line in lines)


def _dedupe_altlocs(records: list[StructureRecord]) -> list[StructureRecord]:
    # Keep the first conformer per (chain, residue, atom name).
    seen: set[tuple[str, int, str, str]] = set()
    kept = []
    for r in records:
        key = (r.chain, r.residue_seq, r.residue_name, r.atom_name)
        if key in seen:
            continue
        seen.add(key)
        kept.append(r)
    return kept


DEFAULT_POCKET_CUTOFF = 10.0


def split_pocket_ligand(
    records: list[StructureRecord],
    ligand_residue: str,
    vocab: Vocabulary,
    cutoff: float = DEFAULT_POCKET_CUTOFF,
    entry_id: str = "",
    clash_factor: float = DEFAULT_CLASH_FACTOR,
    bond_tolerance: float = DEFAULT_BOND_TOLERANCE,
) -> ComplexEntry:
    """Split records into a ligand and the pocket atoms within ``cutoff`` of it.

    The ligand is every HETATM with the given residue name (waters excluded);
    the pocket is every ATOM record within ``cutoff`` Angstrom of any ligand
    atom, carrying its B-factor.  Ligand bonds are inferred from distances
    under ``clash_factor`` and ``bond_tolerance`` (see :func:`infer_bonds`).
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    records = _dedupe_altlocs(records)
    lig_records = [
        r
        for r in records
        if r.record_kind == "HETATM"
        and r.residue_name == ligand_residue
        and r.residue_name != "HOH"
    ]
    if not lig_records:
        raise SplitError(f"no HETATM records with residue {ligand_residue!r}")
    prot_records = [r for r in records if r.record_kind == "ATOM"]

    lig_atoms = [Atom(vocab.index(r.element), r.position) for r in lig_records]
    prot_pos = np.array([r.position for r in prot_records]).reshape(-1, 3)
    near = distance_matrix(prot_pos, _atom_arrays(lig_atoms)[0]).min(axis=1) <= cutoff
    pocket_records = [r for r, keep in zip(prot_records, near) if keep]
    if not pocket_records:
        raise SplitError(f"no protein atoms within {cutoff} A of the ligand")

    ligand = Molecule(lig_atoms, infer_bonds(lig_atoms, vocab, bond_tolerance, clash_factor))
    return ComplexEntry(pocket_from_records(pocket_records, vocab), ligand, entry_id)


def normalize_bfactors(pocket: Pocket) -> np.ndarray:
    """Min-max normalize B-factors to [0, 1]; an all-equal profile maps to 0.5."""
    if len(pocket) == 0:
        raise ValueError("empty pocket")
    b = pocket.bfactors
    if np.any(b < 0):
        raise ValueError("negative B-factor")
    lo, hi = float(b.min()), float(b.max())
    if hi == lo:
        return np.full(len(b), 0.5)
    return (b - lo) / (hi - lo)


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    path: Path
    ligand_residue: str


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read tab-separated ``entry_id<TAB>path<TAB>ligand_residue`` lines.

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    entries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        entry_path = Path(parts[1])
        if not entry_path.is_absolute():
            entry_path = path.parent / entry_path
        entries.append(ManifestEntry(parts[0], entry_path, parts[2]))
    return entries


def load_complex(
    entry: ManifestEntry,
    vocab: Vocabulary,
    cutoff: float = DEFAULT_POCKET_CUTOFF,
    clash_factor: float = DEFAULT_CLASH_FACTOR,
    bond_tolerance: float = DEFAULT_BOND_TOLERANCE,
) -> ComplexEntry:
    records = parse_pdb(entry.path.read_text(), vocab)
    return split_pocket_ligand(
        records, entry.ligand_residue, vocab, cutoff, entry.entry_id, clash_factor, bond_tolerance
    )


def pocket_from_records(records: list[StructureRecord], vocab: Vocabulary) -> Pocket:
    """Treat every ATOM record as a pocket atom (no ligand-based filtering)."""
    prot = [r for r in records if r.record_kind == "ATOM"]
    if not prot:
        raise SplitError("no ATOM records in pocket file")
    atoms = [Atom(vocab.index(r.element), r.position) for r in prot]
    return Pocket(atoms, np.array([r.bfactor for r in prot]))
