"""Command-line front end: ingest, train, generate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Output files are written atomically (temp file then rename); any timestamped
log line is prefixed with ``#`` so outputs stay byte-reproducible per seed.
The ``--config`` flag falls back to the ``POCKETFLOW_CONFIG`` environment
variable, then to built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from .chem import VocabularyError
from .config import RunConfig, read_config
from .dataset import load_dataset, save_dataset
from .evaluator import AffinityRangeError, evaluate_set, report_json, report_tsv
from .generator import generate_ligand
from .model import Model
from .molio import molecule_to_records, read_xyz, write_xyz
from .pdb import load_complex, parse_pdb, pocket_from_records, read_manifest, serialize_pdb
from .trainer import NumericError, TrainingDiverged, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CONFIG_ENV_VAR = "POCKETFLOW_CONFIG"

# ConfigError, DatasetError, PdbParseError, PdbRangeError, SplitError and
# CheckpointError all subclass ValueError; VocabularyError is a KeyError.
_DATA_ERRORS = (ValueError, VocabularyError, OSError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 1
        raise UsageError(message)


def count(text: str) -> int:
    """argparse type of ``generate --count``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {value}")
    return value


def _atomic_write(path: Path, write: Callable[[Path], object]) -> None:
    """Create ``path`` whole or not at all: ``write`` fills a sibling
    ``.tmp`` file, which then replaces ``path``; missing directories are made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = read_config(path) if path else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    vocab = cfg.vocabulary()
    manifest = read_manifest(args.manifest)
    if not manifest:
        print("error: manifest is empty", file=sys.stderr)
        return EXIT_DATA
    entries = []
    for item in manifest:
        try:
            entry = load_complex(item, vocab, cfg.pocket_cutoff, cfg.clash_factor, cfg.bond_tolerance)
        except _DATA_ERRORS as exc:
            print(f"{item.entry_id}\tfailed: {exc}")
            continue
        entries.append(entry)
        print(
            f"{item.entry_id}\tok\tpocket={len(entry.pocket)} atoms"
            f"\tligand={len(entry.ligand)} atoms"
        )
    if not entries:
        print("error: every manifest entry failed", file=sys.stderr)
        return EXIT_DATA
    out = Path(args.out)
    _atomic_write(out, lambda tmp: save_dataset(entries, vocab, tmp))
    print(f"wrote {len(entries)}/{len(manifest)} entries to {out}")
    return EXIT_OK


def _loss_log(history: list[float]) -> str:
    return "".join(f"{epoch}\t{loss!r}\n" for epoch, loss in enumerate(history, start=1))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    vocab = cfg.vocabulary()
    dataset = load_dataset(args.dataset, vocab)
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    try:
        result = train(dataset, cfg.model_config(vocab), cfg.train_config())
    except TrainingDiverged as exc:
        _atomic_write(log_path, lambda tmp: tmp.write_text(_loss_log(exc.history)))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _atomic_write(Path(args.out), result.model.save)
    _atomic_write(log_path, lambda tmp: tmp.write_text(_loss_log(result.history)))
    if result.history:
        print(f"final_nll\t{result.final_nll!r}")
    else:
        print("final_nll\tNA (0 epochs)")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = Model.load(args.checkpoint)
    vocab = model.cfg.vocab
    pocket = pocket_from_records(parse_pdb(Path(args.pocket).read_text(), vocab), vocab)
    rng = np.random.default_rng(cfg.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    gen_cfg = cfg.gen_config()
    for i in range(args.count):
        molecule = generate_ligand(model, pocket, gen_cfg, rng)
        stem = f"mol_{i:03d}"
        xyz = write_xyz(molecule, vocab, comment=f"{stem} seed={cfg.seed}")
        pdb_text = serialize_pdb(molecule_to_records(molecule, vocab))
        _atomic_write(out_dir / f"{stem}.xyz", lambda tmp: tmp.write_text(xyz))
        _atomic_write(out_dir / f"{stem}.pdb", lambda tmp: tmp.write_text(pdb_text))
        print(f"{stem}\t{len(molecule)} atoms")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    vocab = cfg.vocabulary()
    mol_dir = Path(args.molecules)
    paths = sorted(mol_dir.glob("*.xyz"))
    if not paths:
        print(f"error: no .xyz molecules in {mol_dir}", file=sys.stderr)
        return EXIT_DATA
    molecules = [read_xyz(p.read_text(), vocab) for p in paths]
    pocket = pocket_from_records(parse_pdb(Path(args.pocket).read_text(), vocab), vocab)
    reference = read_xyz(Path(args.reference).read_text(), vocab) if args.reference else None
    report = evaluate_set(
        molecules,
        pocket,
        cfg.affinity_model(),
        vocab,
        reference=reference,
        contact_cutoff=cfg.contact_cutoff,
        ids=[p.stem for p in paths],
        clash_factor=cfg.clash_factor,
        bond_tolerance=cfg.bond_tolerance,
    )
    text = report_json(report) if args.format == "json" else report_tsv(report)
    _atomic_write(Path(args.out), lambda tmp: tmp.write_text(text))
    mean_txt = repr(report.mean_pkd_valid) if report.mean_pkd_valid is not None else "NA"
    print(f"validity\t{report.validity_fraction!r}\tmean_pKd_valid\t{mean_txt}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pocketflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("ingest", help="parse complexes from a manifest into a dataset archive")
    p.add_argument("manifest", help="tab-separated entry_id/path/ligand_residue lines")
    p.add_argument("--out", required=True, help="dataset archive path (JSON)")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit encoder and flows on an ingested dataset")
    p.add_argument("dataset", help="dataset archive from 'ingest'")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="loss log path (default: <out>.log)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample ligands into a pocket")
    p.add_argument("checkpoint", help="trained checkpoint")
    p.add_argument("pocket", help="pocket PDB file (ATOM records)")
    p.add_argument("--count", type=count, default=1, help="number of molecules")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated molecules")
    p.add_argument("molecules", help="directory of .xyz molecules")
    p.add_argument("pocket", help="pocket PDB file (ATOM records)")
    p.add_argument("--reference", help="reference molecule (.xyz) for RMSD")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", required=True, help="report output path")
    common(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (NumericError, TrainingDiverged, AffinityRangeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
