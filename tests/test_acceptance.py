"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The toy checkpoint shared by the training and
generation gates is trained once per session (module-scoped fixture).
"""

import functools
import math
import time

import numpy as np
import pytest

from pocketflow.chem import (
    Atom,
    ClashError,
    ElementKind,
    Molecule,
    Pocket,
    Vocabulary,
    check_validity,
    infer_bonds,
)
from pocketflow.encoder import Encoder, EncoderConfig, build_graph
from pocketflow.evaluator import AffinityModel, dg_to_kd, evaluate_set
from pocketflow.flows import FlowStack
from pocketflow.generator import GenConfig, generate_ligand
from pocketflow.geometry import RbfBank, RigidTransform, apply_rigid, rmsd
from pocketflow.model import Model, ModelConfig
from pocketflow.params import ParamStore
from pocketflow.pdb import ComplexEntry, StructureRecord, parse_pdb, serialize_pdb
from pocketflow.synthetic import toy_complex, toy_dataset
from pocketflow.trainer import TrainConfig, grad, nll_loss, sequentialize, train

from helpers import max_relative_error

VOCAB = Vocabulary.default()


def criterion(number, title, budget_s=None):
    """Print one pass/fail line per criterion, enforcing its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {number:2d}] PASS  {title} ({elapsed:.1f}s)")
            if budget_s is not None:
                assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"

        return wrapper

    return decorate


def random_stack(rng, n_layers, event_dim, cond_dim=4, w_scale=0.5, b_scale=0.3):
    stack = FlowStack.create(n_layers, event_dim, cond_dim)
    for i in range(n_layers):
        stack.store[f"flow.layer{i}.w"][...] = rng.uniform(
            -w_scale, w_scale, size=(2 * event_dim, cond_dim)
        )
        stack.store[f"flow.layer{i}.b"][...] += rng.uniform(-b_scale, b_scale, 2 * event_dim)
    return stack


TOY_EPOCHS = 2000  # the training gate reads epochs 1 and 200 off this history


@pytest.fixture(scope="module")
def toy_run():
    """One deterministic toy training shared by the training/generation gates."""
    dataset = toy_dataset(VOCAB, n_copies=50, noise=0.1, seed=7)
    cfg = ModelConfig(vocab=VOCAB)
    start = time.perf_counter()
    result = train(dataset, cfg, TrainConfig(epochs=TOY_EPOCHS, learning_rate=1e-3, seed=0))
    elapsed = time.perf_counter() - start
    print(f"[toy fixture] {TOY_EPOCHS} epochs in {elapsed:.1f}s")
    return result, elapsed


@criterion(1, "flow invertibility over 1000 random stacks", budget_s=10)
def test_criterion_1_flow_invertibility():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        stack = random_stack(rng, int(rng.integers(1, 9)), int(rng.choice([3, 10])))
        cond = rng.standard_normal(4)
        z = rng.standard_normal(stack.event_dim)
        x, _ = stack.forward(z, cond)
        z_back, _ = stack.inverse(x, cond)
        worst = max(worst, float(np.max(np.abs(z_back - z))))
    assert worst < 1e-8, f"round-trip error {worst:.3e}"


@criterion(2, "analytic log-det matches finite-difference Jacobian", budget_s=30)
def test_criterion_2_logdet_correctness():
    rng = np.random.default_rng(1002)
    h = 1e-5
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        stack = random_stack(rng, int(rng.integers(1, 7)), dim)
        cond = rng.standard_normal(4)
        z = rng.standard_normal(dim)
        _, logdet = stack.forward(z, cond)
        jac = np.zeros((dim, dim))
        for d in range(dim):
            e = np.zeros(dim)
            e[d] = h
            xp, _ = stack.forward(z + e, cond)
            xm, _ = stack.forward(z - e, cond)
            jac[:, d] = (xp - xm) / (2 * h)
        fd = math.log(abs(np.linalg.det(jac)))
        rel = abs(logdet - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4, f"logdet relative error {rel:.3e}"


@criterion(3, "1-D density integrates to 1 over [-10, 10]")
def test_criterion_3_density_normalization():
    rng = np.random.default_rng(1003)
    grid = np.linspace(-10.0, 10.0, 10_000)
    for _ in range(10):
        stack = random_stack(rng, int(rng.integers(1, 6)), 1, w_scale=0.05, b_scale=0.2)
        cond = rng.standard_normal(4)
        density = np.array([math.exp(stack.log_prob(np.array([g]), cond)) for g in grid])
        integral = float(np.trapezoid(density, grid))
        assert abs(integral - 1.0) < 1e-3, f"integral {integral}"


@criterion(4, "trainer gradient matches central differences", budget_s=60)
def test_criterion_4_gradient_correctness():
    vocab = Vocabulary(
        [
            ElementKind("H", 1, 0.31, 1),
            ElementKind("C", 6, 0.77, 4),
            ElementKind("O", 8, 0.66, 2),
        ]
    )
    cfg = ModelConfig(
        vocab=vocab,
        rbf_centers=3,
        embed_width=2,
        hidden_width=3,
        encoder_layers=1,
        type_flow_layers=1,
        coord_flow_layers=1,
        bfactor_gating=True,
    )
    model = Model(cfg)
    assert model.store.size <= 200, f"{model.store.size} parameters"
    c, o = vocab.index("C"), vocab.index("O")
    pocket = Pocket(
        [Atom(c, (0, 0, 0)), Atom(o, (2.5, 0, 0)), Atom(c, (0, 0, 2.5))],
        np.array([10.0, 20.0, 30.0]),
    )
    lig_atoms = [Atom(c, (3.2, 1.0, 0.5)), Atom(o, (3.9, 2.2, 0.4))]
    entry = ComplexEntry(
        pocket=pocket, ligand=Molecule(lig_atoms, infer_bonds(lig_atoms, vocab)), entry_id="g"
    )
    steps = sequentialize(entry, np.random.default_rng(0), cfg)
    h = 1e-5
    rng = np.random.default_rng(1004)
    for point in range(5):
        model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
        analytic = grad(model, steps).flat.copy()
        numeric = np.zeros_like(analytic)
        for i in range(model.store.size):
            orig = model.store.flat[i]
            model.store.flat[i] = orig + h
            up = nll_loss(model, steps)
            model.store.flat[i] = orig - h
            down = nll_loss(model, steps)
            model.store.flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        err = max_relative_error(analytic, numeric)
        assert err < 1e-3, f"point {point}: max relative error {err:.3e}"


@criterion(5, "encoder embeddings invariant under 100 rigid motions")
def test_criterion_5_encoder_invariance():
    rng = np.random.default_rng(1005)
    cfg = EncoderConfig(embed_width=16, hidden_width=16, n_layers=2, bfactor_gating=True)
    bank = RbfBank.default()
    store = ParamStore(Encoder.sections(cfg, len(VOCAB), len(bank)))
    store.flat[:] = rng.uniform(-0.3, 0.3, size=store.size)
    enc = Encoder(cfg, len(VOCAB), bank, store)

    positions = rng.uniform(-5, 5, size=(20, 3))
    elements = rng.integers(0, len(VOCAB), size=20)
    bfactors = rng.uniform(5, 60, size=12)
    pocket = Pocket([Atom(int(e), p) for e, p in zip(elements[:12], positions[:12])], bfactors)
    placed = [Atom(int(e), p) for e, p in zip(elements[12:], positions[12:])]
    base = enc.encode(build_graph(pocket, placed, cutoff=6.0))
    worst = 0.0
    for k in range(100):
        t = RigidTransform.random(np.random.default_rng(2000 + k))
        moved = apply_rigid(t, positions)
        pocket_t = Pocket(
            [Atom(int(e), p) for e, p in zip(elements[:12], moved[:12])], bfactors
        )
        placed_t = [Atom(int(e), p) for e, p in zip(elements[12:], moved[12:])]
        h = enc.encode(build_graph(pocket_t, placed_t, cutoff=6.0))
        worst = max(worst, float(np.max(np.abs(h - base))))
    assert worst < 1e-9, f"max embedding drift {worst:.3e}"


@criterion(6, "toy training: epoch-200 NLL <= 0.7 x epoch-1, deterministic", budget_s=300)
def test_criterion_6_toy_training_gate(toy_run):
    result, elapsed = toy_run
    history = result.history
    epoch1, epoch200 = history[0], history[199]
    assert epoch200 <= 0.7 * epoch1, f"ratio {epoch200 / epoch1:.3f}"
    # the fixture trains 10x the gate's epochs; scale its runtime accordingly
    assert elapsed * (200 / TOY_EPOCHS) < 300, f"scaled runtime {elapsed:.0f}s"
    # determinism per seed: an independent short run reproduces the history
    dataset = toy_dataset(VOCAB, n_copies=50, noise=0.1, seed=7)
    cfg = ModelConfig(vocab=VOCAB)
    rerun = train(dataset, cfg, TrainConfig(epochs=5, learning_rate=1e-3, seed=0))
    assert rerun.history == history[:5]


@criterion(7, "generation: 100% clash-free, >=95% valid molecules", budget_s=120)
def test_criterion_7_generation_sanity(toy_run):
    result, _ = toy_run
    entry = toy_complex(VOCAB)
    gen_cfg = GenConfig(max_atoms=6, valence_constrained=True)
    pocket_pos = entry.pocket.positions
    pocket_radii = VOCAB.radii[entry.pocket.elements]
    molecules = []
    n_valid = 0
    for seed in range(100):
        mol = generate_ligand(result.model, entry.pocket, gen_cfg, np.random.default_rng(seed))
        assert len(mol) >= 1
        # explicit clash audit against pocket and within the molecule
        radii = VOCAB.radii[mol.elements]
        for i, atom in enumerate(mol.atoms):
            d_pocket = np.linalg.norm(pocket_pos - atom.position, axis=1)
            assert np.all(d_pocket >= 0.4 * (pocket_radii + radii[i])), f"seed {seed}"
            for j in range(i + 1, len(mol)):
                d = float(np.linalg.norm(atom.position - mol.atoms[j].position))
                assert d >= 0.4 * (radii[i] + radii[j]), f"seed {seed}"
        molecules.append(mol)
        if check_validity(mol, VOCAB).valid:
            n_valid += 1
    assert n_valid >= 95, f"validity {n_valid}/100"
    # full scoring pass: the mean pKd over valid molecules must be finite
    # (the cited 4-8 band is a sanity reference, not a gate)
    report = evaluate_set(molecules, entry.pocket, AffinityModel(), VOCAB)
    assert report.mean_pkd_valid is not None and math.isfinite(report.mean_pkd_valid)
    print(f"    validity {n_valid}/100, mean pKd of valid molecules "
          f"{report.mean_pkd_valid:.2f}")


def has_toy_ligand_topology(mol: Molecule) -> bool:
    """True when ``mol`` has the training ligand's bond graph: three atoms,
    one C-C and one C-O bond, and no third bond."""
    if len(mol) != 3 or len(mol.bonds) != 2:
        return False
    symbols = [VOCAB[e].symbol for e in mol.elements]
    return sorted("".join(sorted(symbols[i] + symbols[j])) for i, j, _ in mol.bonds) == ["CC", "CO"]


def test_toy_ligand_topology_helper():
    def mol(symbols, bonds):
        atoms = [Atom(VOCAB.index(s), (1.5 * k, 0.0, 0.0)) for k, s in enumerate(symbols)]
        return Molecule(atoms, [(i, j, 1) for i, j in bonds])

    assert has_toy_ligand_topology(mol("CCO", [(0, 1), (1, 2)]))
    assert has_toy_ligand_topology(mol("OCC", [(0, 1), (1, 2)]))
    assert has_toy_ligand_topology(mol("CCO", [(0, 1), (0, 2)]))
    assert not has_toy_ligand_topology(mol("COC", [(0, 1), (1, 2)]))
    assert not has_toy_ligand_topology(mol("CCO", [(0, 1), (0, 2), (1, 2)]))
    assert not has_toy_ligand_topology(mol("CCOC", [(0, 1), (1, 2)]))
    assert not has_toy_ligand_topology(mol("CCOC", [(0, 1), (1, 2), (2, 3)]))
    assert not has_toy_ligand_topology(mol("CCN", [(0, 1), (1, 2)]))


def test_report_toy_ligand_topology(toy_run):
    """How many of criterion 7's molecules have the training ligand's bond
    graph; reported, not gated."""
    result, _ = toy_run
    entry = toy_complex(VOCAB)
    gen_cfg = GenConfig(max_atoms=6, valence_constrained=True)
    molecules = [
        generate_ligand(result.model, entry.pocket, gen_cfg, np.random.default_rng(seed))
        for seed in range(100)
    ]
    chains = sum(has_toy_ligand_topology(m) for m in molecules)
    triangles = sum(len(m) == 3 and len(m.bonds) == 3 for m in molecules)
    print(f"    C-C-O topology {chains}/100 (3-atom triangles {triangles}/100)")


@criterion(8, "validity matches the brute-force oracle on 1000 geometries")
def test_criterion_8_validity_oracle():
    def oracle(mol: Molecule) -> bool:
        n = len(mol.atoms)
        if n == 0:
            return False
        for i in range(n):
            for j in range(i + 1, n):
                d = float(np.linalg.norm(mol.atoms[i].position - mol.atoms[j].position))
                if d < 0.4 * (
                    VOCAB[mol.atoms[i].element].covalent_radius
                    + VOCAB[mol.atoms[j].element].covalent_radius
                ):
                    return False
        for i in range(n):
            used = sum(order for a, b, order in mol.bonds if i in (a, b))
            if used > VOCAB[mol.atoms[i].element].max_valence:
                return False
        reached = {0}
        frontier = [0]
        while frontier:
            k = frontier.pop()
            for a, b, _ in mol.bonds:
                for u, v in ((a, b), (b, a)):
                    if u == k and v not in reached:
                        reached.add(v)
                        frontier.append(v)
        return len(reached) == n

    rng = np.random.default_rng(1008)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        atoms = [
            Atom(int(rng.integers(0, len(VOCAB))), rng.uniform(0, 4.0, size=3))
            for _ in range(n)
        ]
        try:
            bonds = infer_bonds(atoms, VOCAB)
        except ClashError:
            bonds = []
        mol = Molecule(atoms, bonds)
        assert check_validity(mol, VOCAB).valid == oracle(mol)


@criterion(9, "metric exactness: RMSD hand cases, Kd round trip")
def test_criterion_9_metric_exactness():
    c = VOCAB.index("C")

    def mol(*positions):
        return Molecule([Atom(c, p) for p in positions], [])

    a = mol((0, 0, 0), (1, 2, 3))
    assert rmsd(a, a) == 0.0
    assert abs(rmsd(mol((0, 0, 0)), mol((3, 4, 0))) - 5.0) < 1e-12
    two = rmsd(mol((0, 0, 0), (2, 0, 0)), mol((1, 0, 0), (2, 0, 0)))
    assert abs(two - math.sqrt(0.5)) < 1e-12

    affinity = AffinityModel()
    kd, pkd = dg_to_kd(0.0, affinity)
    assert kd == 1.0 and pkd == 0.0
    for dg in (-9.533, -4.2, 1.7):
        kd, _ = dg_to_kd(dg, affinity)
        back = affinity.gas_constant * affinity.temperature * math.log(kd)
        assert abs(back - dg) / abs(dg) < 1e-12


@criterion(10, "PDB parse/serialize byte identity on 100 records")
def test_criterion_10_pdb_roundtrip():
    rng = np.random.default_rng(1010)
    records = []
    for i in range(100):
        sym = VOCAB.symbols[int(rng.integers(0, len(VOCAB)))]
        records.append(
            StructureRecord(
                record_kind="ATOM" if i % 2 == 0 else "HETATM",
                serial=i + 1,
                atom_name=f"{sym}{i % 9 + 1}"[:4],
                residue_name="LIG" if i % 2 else "ALA",
                chain="ABC"[i % 3],
                residue_seq=int(rng.integers(1, 9999)),
                position=np.round(rng.uniform(-99, 999, 3), 3),
                occupancy=round(float(rng.uniform(0, 1)), 2),
                bfactor=round(float(rng.uniform(0, 99.99)), 2),
                element=sym,
            )
        )
    text = serialize_pdb(records)
    parsed = parse_pdb(text)
    assert parsed == records
    assert serialize_pdb(parsed) == text
    for line in text.splitlines():  # B-factor columns 61-66 carry the value
        assert float(line[60:66]) >= 0.0


@criterion(11, "zero B-factor gates reproduce the ungated encoder bit-for-bit")
def test_criterion_11_bfactor_gate_regression():
    rng = np.random.default_rng(1011)
    bank = RbfBank.default()
    gated_cfg = EncoderConfig(embed_width=12, hidden_width=10, n_layers=3, bfactor_gating=True)
    plain_cfg = EncoderConfig(embed_width=12, hidden_width=10, n_layers=3, bfactor_gating=False)
    store = ParamStore(Encoder.sections(gated_cfg, len(VOCAB), len(bank)))
    store.flat[:] = rng.uniform(-0.4, 0.4, size=store.size)
    for layer in range(3):
        store[f"encoder.layer{layer}.gate"][...] = 0.0
    twin = ParamStore(Encoder.sections(plain_cfg, len(VOCAB), len(bank)))
    twin.flat[:] = store.flat
    gated = Encoder(gated_cfg, len(VOCAB), bank, store)
    plain = Encoder(plain_cfg, len(VOCAB), bank, twin)

    positions = rng.uniform(-4, 4, size=(14, 3))
    elements = rng.integers(0, len(VOCAB), size=14)
    pocket = Pocket(
        [Atom(int(e), p) for e, p in zip(elements[:9], positions[:9])],
        rng.uniform(5, 50, size=9),
    )
    placed = [Atom(int(e), p) for e, p in zip(elements[9:], positions[9:])]
    graph = build_graph(pocket, placed, cutoff=6.0)
    assert np.array_equal(gated.encode(graph), plain.encode(graph))
