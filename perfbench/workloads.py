"""The four benchmark workloads: what each sets up, runs, checks and digests.

Every call into the program goes through a module attribute
(``trainer.train``, ``generator.generate_ligand`` ...) so that a traced run
sees it.  Inputs are a pure function of the workload seed; operation ``i``
draws its own seed from ``(seed, i)``, so an operation can be repeated
exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pocketflow import chem, config, evaluator, generator, model, molio, pdb, synthetic, trainer
from pocketflow.chem import Molecule, Vocabulary
from pocketflow.pdb import ComplexEntry

from pockets import cavity_ligand_xyz, protein_like_pocket_pdb

CHECKPOINT = Path(__file__).resolve().parent / "gen_model.ckpt"
POCKET_ATOMS = 400
TOY_COPIES = 50
TRAIN_EPOCHS = 2  # the smallest count that lets the loss check see a decrease
POCKET400_LIGAND_ATOMS = 20  # two complexes, 8-12 atoms each; a fixed total keeps op size seed-free


def op_seed(seed: int, op: int) -> int:
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


@dataclass
class OpResult:
    work: int  # trajectory steps trained, or atoms placed
    payload: bytes  # exact outputs, hashed into the digest
    errors: list[str]
    valid: int = 0  # valid molecules, per evaluate_set


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup_ops: int  # untimed; their outputs form the digest
    tail_percentile: int  # fixed per workload so that runs stay comparable; see README
    make_inputs: Callable[[int], Any]  # seed -> input text (benchmark code, untimed)
    setup: Callable[[Any, int], Any]  # (inputs, seed) -> state (timed as setup_s)
    run_op: Callable[[Any, int], Any]  # (state, op seed) -> raw output (timed)
    check: Callable[[Any, Any], OpResult]  # (state, raw output) -> verdict (untimed)


# -- training -------------------------------------------------------------------


@dataclass
class TrainState:
    dataset: list[ComplexEntry]
    model_cfg: Any
    run_cfg: config.RunConfig
    steps_per_epoch: int


def _train_state(dataset: list[ComplexEntry], seed: int) -> TrainState:
    run_cfg = replace(config.RunConfig(), epochs=TRAIN_EPOCHS, seed=seed)
    model_cfg = run_cfg.model_config()
    steps = trainer.build_steps(
        dataset, np.random.default_rng(seed), model_cfg, run_cfg.dequant_alpha
    )
    return TrainState(dataset, model_cfg, run_cfg, len(steps))


def _train_op(state: TrainState, seed: int):
    cfg = replace(state.run_cfg, seed=seed).train_config()
    return trainer.train(state.dataset, state.model_cfg, cfg).history


def _train_check(state: TrainState, history: list[float]) -> OpResult:
    errors = []
    if len(history) != TRAIN_EPOCHS or not all(np.isfinite(history)):
        errors.append(f"loss history not finite or incomplete: {history!r}")
    elif not history[-1] < history[0]:
        errors.append(f"loss did not decrease: {history[0]!r} -> {history[-1]!r}")
    payload = "\n".join(repr(float(x)) for x in history).encode()
    return OpResult(state.steps_per_epoch * len(history), payload, errors)


def _toy_setup(_inputs: None, seed: int) -> TrainState:
    vocab = Vocabulary.default()
    return _train_state(synthetic.toy_dataset(vocab, n_copies=TOY_COPIES, seed=seed), seed)


def _pocket400_train_inputs(seed: int) -> list[tuple[str, str]]:
    rng = np.random.default_rng(seed)
    first = int(rng.integers(8, 13))
    sizes = (first, POCKET400_LIGAND_ATOMS - first)
    vocab = Vocabulary.default()
    return [
        (
            protein_like_pocket_pdb(POCKET_ATOMS, op_seed(seed, 1000 + c)),
            cavity_ligand_xyz(vocab, op_seed(seed, 2000 + c), n_atoms=size),
        )
        for c, size in enumerate(sizes)
    ]


def _pocket400_train_setup(inputs: list[tuple[str, str]], seed: int) -> TrainState:
    vocab = Vocabulary.default()
    dataset = []
    for c, (pocket_text, ligand_text) in enumerate(inputs):
        pocket = pdb.pocket_from_records(pdb.parse_pdb(pocket_text, vocab), vocab)
        atoms = molio.read_xyz(ligand_text, vocab).atoms
        ligand = Molecule(atoms, chem.infer_bonds(atoms, vocab))
        dataset.append(ComplexEntry(pocket=pocket, ligand=ligand, entry_id=f"p400_{c}"))
    return _train_state(dataset, seed)


# -- generation -----------------------------------------------------------------


@dataclass
class GenState:
    model: Any
    pocket: Any
    run_cfg: config.RunConfig
    gen_cfg: generator.GenConfig
    affinity: evaluator.AffinityModel

    @property
    def vocab(self) -> Vocabulary:
        return self.model.cfg.vocab


def _gen_setup(pocket_text: str, seed: int) -> GenState:
    loaded = model.Model.load(CHECKPOINT)
    vocab = loaded.cfg.vocab
    pocket = pdb.pocket_from_records(pdb.parse_pdb(pocket_text, vocab), vocab)
    run_cfg = replace(config.RunConfig(), seed=seed)
    return GenState(loaded, pocket, run_cfg, run_cfg.gen_config(), run_cfg.affinity_model())


def _gen_op(state: GenState, seed: int):
    """What ``pocketflow generate`` plus ``evaluate`` do for one molecule."""
    vocab = state.vocab
    mol = generator.generate_ligand(
        state.model, state.pocket, state.gen_cfg, np.random.default_rng(seed)
    )
    xyz = molio.write_xyz(mol, vocab, comment=f"mol seed={seed}")
    pdb_text = pdb.serialize_pdb(molio.molecule_to_records(mol, vocab))
    report = evaluator.evaluate_set(
        [mol], state.pocket, state.affinity, vocab, contact_cutoff=state.run_cfg.contact_cutoff
    )
    return mol, xyz, pdb_text, report


def clash_audit(mol: Molecule, pocket: Any, vocab: Vocabulary, factor: float) -> list[str]:
    """Every atom clear of the pocket and of every other atom (criterion 7)."""
    errors = []
    radii = vocab.radii[mol.elements]
    pocket_pos, pocket_radii = pocket.positions, vocab.radii[pocket.elements]
    for i, atom in enumerate(mol.atoms):
        d_pocket = np.linalg.norm(pocket_pos - atom.position, axis=1)
        if np.any(d_pocket < factor * (pocket_radii + radii[i])):
            errors.append(f"atom {i} clashes with the pocket")
        for j in range(i + 1, len(mol)):
            if np.linalg.norm(atom.position - mol.atoms[j].position) < factor * (radii[i] + radii[j]):
                errors.append(f"atoms {i} and {j} clash")
    return errors


def _gen_check(state: GenState, output) -> OpResult:
    mol, xyz, pdb_text, report = output
    vocab = state.vocab
    errors = [] if len(mol) else ["empty molecule"]
    errors += clash_audit(mol, state.pocket, vocab, state.gen_cfg.clash_factor)
    back = molio.read_xyz(xyz, vocab)
    if not (
        np.array_equal(back.elements, mol.elements)
        and np.allclose(back.positions, mol.positions, rtol=0.0, atol=5.1e-7)
    ):
        errors.append("XYZ round trip changed the molecule")
    if len(report.scores) != 1 or report.scores[0].n_atoms != len(mol):
        errors.append("evaluate_set did not score the molecule")
    payload = b"".join(
        (mol.elements.tobytes(), mol.positions.tobytes(), repr(mol.bonds).encode(), pdb_text.encode())
    )
    valid = int(report.scores[0].valid) if report.scores else 0
    return OpResult(len(mol), payload, errors, valid)


def _toy_pocket_pdb(_seed: int) -> str:
    vocab = Vocabulary.default()
    return synthetic.toy_complex_pdb(synthetic.toy_complex(vocab), vocab)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_toy",
            "flows dominate: 150 small steps per epoch, flow backward is most of each step",
            warmup_ops=3,
            tail_percentile=90,
            make_inputs=lambda seed: None,
            setup=_toy_setup,
            run_op=_train_op,
            check=_train_check,
        ),
        Workload(
            "train_pocket400",
            "encoder dominates: ~8k pocket edges per step, shared across a trajectory",
            warmup_ops=1,
            tail_percentile=75,
            make_inputs=_pocket400_train_inputs,
            setup=_pocket400_train_setup,
            run_op=_train_op,
            check=_train_check,
        ),
        Workload(
            "gen_toy",
            "tiny graphs: per-step generator cost, no single layer dominates",
            warmup_ops=40,
            tail_percentile=90,
            make_inputs=_toy_pocket_pdb,
            setup=_gen_setup,
            run_op=_gen_op,
            check=_gen_check,
        ),
        Workload(
            "gen_pocket400",
            "graph build plus encode of a 400-atom pocket dominate every atom placed",
            warmup_ops=2,
            tail_percentile=75,
            make_inputs=lambda seed: protein_like_pocket_pdb(POCKET_ATOMS, seed),
            setup=_gen_setup,
            run_op=_gen_op,
            check=_gen_check,
        ),
    )
}


def digest(payloads: list[bytes]) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)
    return h.hexdigest()
