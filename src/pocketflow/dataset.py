"""Dataset archive: ingested pocket/ligand complexes as one JSON file.

Elements are stored by symbol so an archive remains readable under any
vocabulary that covers them; coordinates round-trip exactly through JSON's
decimal repr.  Each entry has a string ``entry_id``, each pocket B-factor is
finite and non-negative, and each ligand bond is ``[i, j, order]``: three
integers, with an order from 1 to 3 (bonds inferred from distances are all
single).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .chem import Atom, Molecule, Pocket, Vocabulary, VocabularyError
from .pdb import ComplexEntry

DATASET_FORMAT = "pocketflow-dataset"
DATASET_VERSION = 1


class DatasetError(ValueError):
    """Unreadable or version-incompatible dataset archive."""


def _entry_payload(entry: ComplexEntry, vocab: Vocabulary) -> dict:
    return {
        "entry_id": entry.entry_id,
        "pocket": {
            "elements": [vocab[a.element].symbol for a in entry.pocket.atoms],
            "positions": [list(map(float, a.position)) for a in entry.pocket.atoms],
            "bfactors": [float(b) for b in entry.pocket.bfactors],
        },
        "ligand": {
            "elements": [vocab[a.element].symbol for a in entry.ligand.atoms],
            "positions": [list(map(float, a.position)) for a in entry.ligand.atoms],
            "bonds": [list(b) for b in entry.ligand.bonds],
        },
    }


def save_dataset(entries: list[ComplexEntry], vocab: Vocabulary, path: str | Path) -> None:
    payload = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "entries": [_entry_payload(e, vocab) for e in entries],
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_dataset(path: str | Path, vocab: Vocabulary) -> list[ComplexEntry]:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != DATASET_FORMAT:
        raise DatasetError(f"{path}: not a {DATASET_FORMAT} archive")
    if payload.get("version") != DATASET_VERSION:
        raise DatasetError(f"{path}: unsupported version {payload.get('version')!r}")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise DatasetError(f"{path}: 'entries' must be a list, got {type(entries).__name__}")
    try:
        return [_entry(item, vocab, path) for item in entries]
    except VocabularyError:  # a KeyError, but already a data error with its own message
        raise
    except (KeyError, TypeError, OverflowError) as exc:  # overflow: an integer beyond float range
        raise DatasetError(f"{path}: malformed entry ({exc!r})") from None


def _entry(item: dict, vocab: Vocabulary, path: Path) -> ComplexEntry:
    entry_id = item["entry_id"]
    if not isinstance(entry_id, str):
        raise DatasetError(f"{path}: entry_id {entry_id!r} is not a string")
    bonds = [tuple(b) for b in item["ligand"]["bonds"]]
    for bond in bonds:  # a JSON boolean is not an integer here
        if len(bond) != 3 or any(type(x) is not int for x in bond) or not 1 <= bond[2] <= 3:
            raise DatasetError(
                f"{path}: entry {entry_id!r}: bond {list(bond)!r} is not three integers "
                "[i, j, order] with an order from 1 to 3"
            )
    try:
        pocket = Pocket(_atoms(item["pocket"], vocab), item["pocket"]["bfactors"])
        entry = ComplexEntry(pocket, Molecule(_atoms(item["ligand"], vocab), bonds), entry_id)
    except ValueError as exc:  # the checks of Atom, Pocket, Molecule and ComplexEntry
        raise DatasetError(f"{path}: entry {entry_id!r}: {exc}") from None
    for b in pocket.bfactors.tolist():  # NaN fails both tests
        if not 0.0 <= b < math.inf:
            raise DatasetError(
                f"{path}: entry {entry_id!r}: B-factor {b!r} is not finite and non-negative"
            )
    return entry


def _atoms(block: dict, vocab: Vocabulary) -> list[Atom]:
    return [
        Atom(vocab.index(sym), np.array(pos))
        for sym, pos in zip(block["elements"], block["positions"])
    ]
