"""Trajectory building, NLL evaluation, exact gradients, SGD training."""

from dataclasses import fields, replace

import numpy as np
import pytest

from pocketflow.chem import Atom, ElementKind, Molecule, Pocket, Vocabulary, infer_bonds
from pocketflow.encoder import StepUnion, extend_graph
from pocketflow.flows import base_log_prob
from pocketflow.geometry import RigidTransform, apply_rigid
from pocketflow.model import Model, ModelConfig
from pocketflow.pdb import ComplexEntry
from pocketflow.synthetic import toy_complex, toy_dataset
from pocketflow.trainer import (
    NumericError,
    TrainConfig,
    TrainingDiverged,
    build_steps,
    grad,
    nll_loss,
    sequentialize,
    train,
)

from helpers import max_relative_error
from test_encoder import CAVITY_LIGAND, shell_pocket

VOCAB = Vocabulary.default()
C, O = VOCAB.index("C"), VOCAB.index("O")


def tiny_vocab():
    return Vocabulary(
        [
            ElementKind("H", 1, 0.31, 1),
            ElementKind("C", 6, 0.77, 4),
            ElementKind("O", 8, 0.66, 2),
        ]
    )


def tiny_model_config(vocab=None, gating=False):
    """Compact model (~100-200 params) for finite-difference checks."""
    return ModelConfig(
        vocab=vocab or tiny_vocab(),
        rbf_centers=3,
        rbf_rmax=8.0,
        embed_width=2,
        hidden_width=3,
        encoder_layers=1,
        type_flow_layers=1,
        coord_flow_layers=1,
        bfactor_gating=gating,
    )


class TestSequentialize:
    def test_single_atom_ligand(self):
        entry = ComplexEntry(
            pocket=Pocket([Atom(C, (0, 0, 0)), Atom(C, (2, 0, 0))], np.array([1.0, 2.0])),
            ligand=Molecule([Atom(O, (4.0, 0, 0))], []),
            entry_id="x",
        )
        steps = sequentialize(entry, np.random.default_rng(0), ModelConfig(vocab=VOCAB))
        assert len(steps) == 1
        assert steps[0].graph.n_atoms == 2  # pocket only

    def test_context_sizes_grow_by_one(self):
        entry = toy_complex(VOCAB)
        steps = sequentialize(entry, np.random.default_rng(0), ModelConfig(vocab=VOCAB))
        m = len(entry.pocket)
        assert [s.graph.n_atoms for s in steps] == [m, m + 1, m + 2]

    def test_nearest_first_ordering(self):
        # pocket centroid at origin; ligand atoms A(2,0,0), B(9,0,0), C(5,0,0):
        # A starts (nearest centroid), then C (nearest to A), then B.
        pocket = Pocket(
            [Atom(C, (1, 0, 0)), Atom(C, (-1, 0, 0))], np.array([1.0, 1.0])
        )
        lig_atoms = [Atom(C, (2.0, 0, 0)), Atom(C, (9.0, 0, 0)), Atom(O, (5.0, 0, 0))]
        entry = ComplexEntry(pocket=pocket, ligand=Molecule(lig_atoms, []), entry_id="x")
        cfg = ModelConfig(vocab=VOCAB, graph_cutoff=100.0)
        steps = sequentialize(entry, np.random.default_rng(0), cfg, alpha=0.25)
        decoded = [int(np.argmax(s.target_type)) for s in steps]
        assert decoded == [C, O, C]
        # focal of step 2 is the placed atom at (2,0,0), nearest to target (5,0,0)
        assert steps[1].focal == 2
        assert np.allclose(steps[1].target_offset, [3.0, 0.0, 0.0])

    def test_dequantized_targets_decode_exactly(self):
        entry = toy_complex(VOCAB)
        steps = sequentialize(
            entry, np.random.default_rng(3), ModelConfig(vocab=VOCAB), alpha=0.25
        )
        true_types = {C, O}
        for s in steps:
            assert int(np.argmax(s.target_type)) in true_types
            noise = s.target_type.copy()
            noise[np.argmax(s.target_type)] -= 1.0
            assert np.all(noise >= 0.0) and np.all(noise < 0.25)


ATOM_ARRAYS = ("elements", "origins", "positions", "bfactor_weights")
GRAPH_ARRAYS = ATOM_ARRAYS + ("edge_src", "edge_dst", "edge_dist")


def target_atoms(entry, steps):
    """Each step's target, the ligand atom at its focal plus its offset."""
    lig = entry.ligand
    at = [step.graph.positions[step.focal] + step.target_offset for step in steps]
    return [lig.atoms[int(np.argmin(np.linalg.norm(lig.positions - x, axis=1)))] for x in at]


def sorted_edges(graph):
    order = np.lexsort((graph.edge_dst, graph.edge_src))
    return graph.edge_src[order], graph.edge_dst[order], graph.edge_dist[order]


class TestOneGrowthRule:
    """Each step's graph is the previous step's grown by that step's atom, as
    in generation, and it has the atoms, edges and readout of the pocket
    extended by every atom placed so far at once; only the order of its
    pocket-ligand edges differs."""

    @pytest.mark.parametrize("complex_name", ["toy", "shell400"])
    def test_each_graph_extends_the_previous_by_one_atom(self, complex_name):
        if complex_name == "toy":
            entry = toy_complex(VOCAB)
        else:
            ligand = Molecule(CAVITY_LIGAND, [])
            entry = ComplexEntry(pocket=shell_pocket(400, seed=0), ligand=ligand, entry_id="s")
        cfg = replace(tiny_model_config(VOCAB, gating=True), encoder_layers=2)
        model = Model(cfg)
        model.store.flat[:] = np.random.default_rng(17).uniform(-0.5, 0.5, size=model.store.size)
        steps = sequentialize(entry, np.random.default_rng(0), cfg)
        placed, pocket = target_atoms(entry, steps), steps[0].graph
        assert all(step.pocket is pocket for step in steps)
        encoding = model.encoder.encode_pocket(pocket)
        reordered = False
        for t in range(1, len(steps)):
            step = steps[t]
            grown = extend_graph(steps[t - 1].graph, placed[t - 1 : t], cfg.graph_cutoff)
            for name in GRAPH_ARRAYS:
                assert np.array_equal(getattr(step.graph, name), getattr(grown, name)), name
            at_once = extend_graph(pocket, placed[:t], cfg.graph_cutoff)
            for name in ATOM_ARRAYS:
                assert np.array_equal(getattr(step.graph, name), getattr(at_once, name)), name
            for ours, theirs in zip(sorted_edges(step.graph), sorted_edges(at_once)):
                assert np.array_equal(ours, theirs)
            reordered |= not np.array_equal(step.graph.edge_dst, at_once.edge_dst)
            readouts = [
                model.encoder.encode_with_cache(graph, encoding, step.focal)
                for graph in (step.graph, at_once)
            ]
            assert np.array_equal(*readouts)
        assert reordered


class TestNllLoss:
    def test_identity_flows_reduce_to_base_density(self):
        # zero conditioner weights: nll = -(base(type) + base(offset)) per step
        cfg = ModelConfig(vocab=VOCAB)
        model = Model.initialized(cfg, np.random.default_rng(0))
        steps = sequentialize(toy_complex(VOCAB), np.random.default_rng(1), cfg)
        expected = -np.mean(
            [
                base_log_prob(s.target_type) + base_log_prob(s.target_offset)
                for s in steps
            ]
        )
        assert nll_loss(model, steps) == pytest.approx(expected, abs=1e-9)

    def test_batch_duplication_preserves_mean(self):
        cfg = tiny_model_config(VOCAB)
        model = Model.initialized(cfg, np.random.default_rng(0))
        steps = sequentialize(toy_complex(VOCAB), np.random.default_rng(1), cfg)
        assert nll_loss(model, steps * 2) == pytest.approx(nll_loss(model, steps))

    def test_finite_for_random_params(self):
        cfg = tiny_model_config(VOCAB)
        rng = np.random.default_rng(5)
        model = Model.initialized(cfg, rng)
        model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
        steps = build_steps(toy_dataset(VOCAB, n_copies=20, seed=2), rng, cfg)
        assert len(steps) >= 60
        assert np.isfinite(nll_loss(model, steps[:100]))

    def test_empty_batch_rejected(self):
        model = Model.initialized(tiny_model_config(VOCAB), np.random.default_rng(0))
        with pytest.raises(ValueError):
            nll_loss(model, [])


def fd_gradient(model, steps, h=1e-5):
    flat = model.store.flat
    out = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = nll_loss(model, steps)
        flat[i] = orig - h
        lm = nll_loss(model, steps)
        flat[i] = orig
        out[i] = (lp - lm) / (2 * h)
    return out


def tiny_complex(vocab):
    """C/O-only complex expressible in the 3-element vocabulary."""
    c, o = vocab.index("C"), vocab.index("O")
    pocket = Pocket(
        [Atom(c, (0, 0, 0)), Atom(o, (2.5, 0, 0)), Atom(c, (0, 0, 2.5))],
        np.array([10.0, 20.0, 30.0]),
    )
    lig_atoms = [Atom(c, (3.2, 1.0, 0.5)), Atom(o, (3.9, 2.2, 0.4))]
    return ComplexEntry(
        pocket=pocket,
        ligand=Molecule(lig_atoms, infer_bonds(lig_atoms, vocab)),
        entry_id="tiny",
    )


class TestGrad:
    def test_matches_central_differences_at_5_points(self):
        vocab = tiny_vocab()
        cfg = tiny_model_config(vocab, gating=True)
        model = Model(cfg)
        assert model.store.size <= 200
        entry = tiny_complex(vocab)
        steps = sequentialize(entry, np.random.default_rng(0), cfg)
        rng = np.random.default_rng(42)
        for _ in range(5):
            model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
            analytic = grad(model, steps).flat
            numeric = fd_gradient(model, steps)
            assert max_relative_error(analytic, numeric) < 1e-3

    def test_unused_parameters_have_zero_gradient(self):
        # default vocab: toy complex never contains F/P/Cl/Br/I or H atoms,
        # and gating is disabled, so those embeddings and all gates are inert
        cfg = ModelConfig(vocab=VOCAB, bfactor_gating=False)
        rng = np.random.default_rng(1)
        model = Model.initialized(cfg, rng)
        model.store.flat[:] = rng.uniform(-0.2, 0.2, size=model.store.size)
        steps = sequentialize(toy_complex(VOCAB), rng, cfg)
        g = grad(model, steps)
        table = g["encoder.embed"]
        for symbol in ("H", "F", "P", "Cl", "Br", "I"):
            idx = VOCAB.index(symbol)
            assert np.all(table[:, idx, :] == 0.0)
        for layer in range(cfg.encoder_layers):
            assert float(g[f"encoder.layer{layer}.gate"]) == 0.0

    def test_zero_conditioner_start_has_finite_gradient(self):
        cfg = tiny_model_config(VOCAB)
        model = Model.initialized(cfg, np.random.default_rng(0))
        steps = sequentialize(toy_complex(VOCAB), np.random.default_rng(1), cfg)
        g = grad(model, steps)
        assert np.all(np.isfinite(g.flat))


def other_tiny_complex(vocab):
    """A second C/O complex whose pocket differs from ``tiny_complex``'s."""
    c, o = vocab.index("C"), vocab.index("O")
    pocket = Pocket(
        [Atom(o, (0, 0, 0)), Atom(c, (2.2, 0.4, 0)), Atom(c, (0.3, 2.4, 0.2)), Atom(c, (1, 1, 2.6))],
        np.array([5.0, 25.0, 15.0, 40.0]),
    )
    lig_atoms = [Atom(o, (3.0, 2.0, 1.2)), Atom(c, (4.1, 2.6, 0.9)), Atom(c, (5.0, 1.6, 1.5))]
    return ComplexEntry(
        pocket=pocket,
        ligand=Molecule(lig_atoms, infer_bonds(lig_atoms, vocab)),
        entry_id="other",
    )


def per_step_grad(model, steps):
    """The gradient with no pocket sharing: every step encoded and
    back-propagated on its own full graph, a union of one step on the
    encoder's empty prefix."""
    grads = model.zero_grads()
    encoder, width = model.encoder, 2 * model.cfg.embed_width
    empty = encoder.empty_pocket.graph
    for step in steps:
        union = StepUnion([(step.graph, empty, step.focal)], model.cfg.encoder_layers)
        cond, cache = encoder.encode_union(union)
        cond_coord = np.concatenate([cond[0], model.one_hot(int(np.argmax(step.target_type)))])
        _, dcond_type = model.type_flow.nll_backward(step.target_type, cond[0], grads)
        _, dcond_coord = model.coord_flow.nll_backward(step.target_offset, cond_coord, grads)
        encoder.backward(union, cache, (dcond_type + dcond_coord[:width])[None], grads)
    grads.flat /= len(steps)
    return grads.flat


class TestSharedPocketGrad:
    def test_interleaved_pockets_match_per_step_and_central_differences(self):
        # two encoder layers, gating on, two pockets: the per-pocket sums of
        # pocket-edge adjoints must cross layers and survive interleaving
        vocab = tiny_vocab()
        cfg = replace(tiny_model_config(vocab, gating=True), encoder_layers=2)
        model = Model(cfg)
        a_steps, b_steps = (
            sequentialize(entry, np.random.default_rng(0), cfg)
            for entry in (tiny_complex(vocab), other_tiny_complex(vocab))
        )
        assert a_steps[0].pocket is not b_steps[0].pocket
        batches = [
            [a_steps[0], b_steps[0], a_steps[1], b_steps[1], b_steps[2]],
            [b_steps[2], a_steps[1], b_steps[0], a_steps[0]],
            [a_steps[1], b_steps[1]],
        ]
        rng = np.random.default_rng(7)
        for batch in batches:
            model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
            for name in ("encoder.layer0.gate", "encoder.layer1.gate"):
                assert model.store[name] != 0.0
            analytic = grad(model, batch).flat
            reference = per_step_grad(model, batch)
            assert np.max(np.abs(analytic - reference)) <= 1e-12 * np.max(np.abs(reference))
            assert max_relative_error(analytic, fd_gradient(model, batch)) < 1e-3


def equal_graphs(a, b):
    """Every field of two context graphs equal, array for array."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def moved_pocket(entry, name, index, value):
    """``entry`` with a new pocket whose array ``name`` (positions, elements
    or bfactors) holds ``value`` at ``index``."""
    arrays = {key: getattr(entry.pocket, key).copy() for key in ("positions", "elements", "bfactors")}
    arrays[name][index] = value
    atoms = [Atom(int(e), p) for e, p in zip(arrays["elements"], arrays["positions"])]
    return replace(entry, pocket=Pocket(atoms, arrays["bfactors"]))


def content_equal_dataset(vocab):
    """Three copies of ``tiny_complex`` (three ``Pocket`` objects of equal
    content) interleaved with ``other_tiny_complex``."""
    return [tiny_complex(vocab), other_tiny_complex(vocab), tiny_complex(vocab), tiny_complex(vocab)]


def per_entry_steps(dataset, rng, cfg):
    """The steps ``build_steps`` makes, each complex unrolled on its own."""
    return [step for entry in dataset for step in sequentialize(entry, rng, cfg)]


class TestContentEqualPockets:
    """``build_steps`` gives complexes whose pockets hold equal positions,
    elements and B-factors one pocket graph, so that the union encodes and
    back-propagates each distinct pocket once."""

    def test_content_equal_pockets_share_one_graph(self):
        vocab = tiny_vocab()
        cfg = tiny_model_config(vocab)
        dataset = content_equal_dataset(vocab)
        assert dataset[0].pocket is not dataset[2].pocket
        steps = build_steps(dataset, np.random.default_rng(0), cfg)
        kind = np.repeat([0, 1, 0, 0], [len(entry.ligand) for entry in dataset])
        for a, b in zip(steps, kind):
            for c, d in zip(steps, kind):
                assert (a.pocket is c.pocket) == (b == d)
        union = StepUnion([(s.graph, s.pocket, s.focal) for s in steps], cfg.encoder_layers)
        assert len(union.pockets) == 2

    @pytest.mark.parametrize(
        "name, index, value",
        [("positions", (1, 2), 1e-9), ("elements", 2, 2), ("bfactors", 0, 11.0)],
        ids=["coordinate", "element", "bfactor"],
    )
    def test_one_changed_value_gets_its_own_graph(self, name, index, value):
        vocab = tiny_vocab()
        cfg = tiny_model_config(vocab)
        entry = tiny_complex(vocab)
        moved = moved_pocket(entry, name, index, value)
        for array in ("positions", "elements", "bfactors"):
            same = np.array_equal(getattr(entry.pocket, array), getattr(moved.pocket, array))
            assert same == (array != name)
        steps = build_steps([entry, moved, tiny_complex(vocab)], np.random.default_rng(0), cfg)
        n = len(entry.ligand)
        assert steps[n].pocket is not steps[0].pocket
        assert steps[2 * n].pocket is steps[0].pocket
        union = StepUnion([(s.graph, s.pocket, s.focal) for s in steps], cfg.encoder_layers)
        assert len(union.pockets) == 2

    def test_each_step_matches_its_complex_unrolled_alone(self):
        vocab = tiny_vocab()
        cfg = tiny_model_config(vocab)
        dataset = content_equal_dataset(vocab)
        shared = build_steps(dataset, np.random.default_rng(3), cfg)
        alone = per_entry_steps(dataset, np.random.default_rng(3), cfg)
        assert len(shared) == len(alone)
        for a, b in zip(shared, alone):
            assert equal_graphs(a.graph, b.graph)
            assert equal_graphs(a.pocket, b.pocket)
            assert a.focal == b.focal
            assert np.array_equal(a.target_type, b.target_type)
            assert np.array_equal(a.target_offset, b.target_offset)

    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_loss_and_grad_match_per_entry_steps(self, n_layers, gating):
        """The losses are equal bit for bit: each distinct pocket encodes to
        the same values.  The gradient sums a pocket's share over all its
        steps before its edges' backward pass, not over each complex's, so
        it is held to 1e-12 relative, as against ``per_step_grad``."""
        vocab = tiny_vocab()
        cfg = replace(tiny_model_config(vocab, gating=gating), encoder_layers=n_layers)
        model = Model(cfg)
        dataset = content_equal_dataset(vocab)
        shared = build_steps(dataset, np.random.default_rng(0), cfg)
        alone = per_entry_steps(dataset, np.random.default_rng(0), cfg)
        assert len({id(step.pocket) for step in shared}) == 2
        assert len({id(step.pocket) for step in alone}) == len(dataset)
        rng = np.random.default_rng(5)
        for _ in range(2):
            model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
            assert nll_loss(model, shared) == nll_loss(model, alone)
            analytic = grad(model, shared).flat
            for reference in (grad(model, alone).flat, per_step_grad(model, shared)):
                assert np.max(np.abs(analytic - reference)) <= 1e-12 * np.max(np.abs(reference))


def partners(graph, atom):
    """The atoms that share an edge with ``atom``, read from both ends."""
    src, dst = graph.edge_src, graph.edge_dst
    return np.concatenate([src[dst == atom], dst[src == atom]])


class TestFactoredGrad:
    """The factored last layer and the deferred layer-0 pocket sums at the
    depths ``TestSharedPocketGrad`` leaves out, with a step whose focal is a
    pocket atom once ligand atoms are placed."""

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_matches_per_step_and_central_differences(self, n_layers):
        vocab = tiny_vocab()
        cfg = replace(tiny_model_config(vocab, gating=True), encoder_layers=n_layers)
        model = Model(cfg)
        a_steps, b_steps = (
            sequentialize(entry, np.random.default_rng(0), cfg)
            for entry in (tiny_complex(vocab), other_tiny_complex(vocab))
        )
        pocket_focal = replace(a_steps[1], focal=0)
        n = pocket_focal.pocket.n_atoms
        senders = partners(pocket_focal.graph, 0)
        assert np.any(senders < n) and np.any(senders >= n)
        batch = [a_steps[0], b_steps[1], pocket_focal, a_steps[1], b_steps[2]]
        rng = np.random.default_rng(11)
        for _ in range(2):
            model.store.flat[:] = rng.uniform(-0.5, 0.5, size=model.store.size)
            analytic = grad(model, batch).flat
            reference = per_step_grad(model, batch)
            assert np.max(np.abs(analytic - reference)) <= 1e-12 * np.max(np.abs(reference))
            assert max_relative_error(analytic, fd_gradient(model, batch)) < 1e-3


def shell_complex(vocab, seed):
    """A 400-atom C/O pocket in a 4-14 A shell around a three-carbon ligand
    at the origin: a realistic pocket edge count with tiny widths."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((400, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    positions = direction * rng.uniform(4.0, 14.0, size=(400, 1))
    elements = rng.choice([vocab.index("C"), vocab.index("O")], size=400)
    pocket = Pocket([Atom(int(e), p) for e, p in zip(elements, positions)], rng.uniform(5, 60, 400))
    c = vocab.index("C")
    lig_atoms = [Atom(c, (0.0, 0.0, 0.0)), Atom(c, (1.5, 0.0, 0.0)), Atom(c, (2.2, 1.3, 0.0))]
    return ComplexEntry(
        pocket=pocket,
        ligand=Molecule(lig_atoms, infer_bonds(lig_atoms, vocab)),
        entry_id=f"shell{seed}",
    )


class TestPocketScaleGrad:
    """The pair-folded pocket backward pass on a 400-atom pocket, where
    ``TestSharedPocketGrad`` and ``TestFactoredGrad`` use pockets of four."""

    def test_matches_per_step(self):
        vocab = tiny_vocab()
        cfg = replace(tiny_model_config(vocab, gating=True), encoder_layers=2)
        model = Model(cfg)
        a_steps, b_steps = (
            sequentialize(shell_complex(vocab, seed), np.random.default_rng(0), cfg)
            for seed in (0, 1)
        )
        assert a_steps[0].pocket.n_edges > 2500
        graph, n = a_steps[2].graph, a_steps[2].pocket.n_atoms
        near = int(np.argmin(np.linalg.norm(graph.positions[:n], axis=1)))
        senders = partners(graph, near)
        assert np.any(senders < n) and np.any(senders >= n)
        batch = [*a_steps, replace(a_steps[2], focal=near), *b_steps]
        model.store.flat[:] = np.random.default_rng(13).uniform(-0.5, 0.5, size=model.store.size)
        analytic = grad(model, batch).flat
        reference = per_step_grad(model, batch)
        assert np.max(np.abs(analytic - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestNumericGuards:
    def setup_model(self):
        cfg = tiny_model_config(VOCAB)
        model = Model.initialized(cfg, np.random.default_rng(0))
        return model, sequentialize(toy_complex(VOCAB), np.random.default_rng(1), cfg)

    def test_non_finite_step_loss_raises(self):
        model, steps = self.setup_model()
        model.store.flat[:] = np.nan
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite loss"):
            nll_loss(model, steps)

    def test_non_finite_gradient_raises(self, monkeypatch):
        model, steps = self.setup_model()
        finish = model.encoder._pocket_backward

        def poisoned(*args):
            finish(*args)
            args[-1].flat[0] = np.inf

        monkeypatch.setattr(model.encoder, "_pocket_backward", poisoned)
        with pytest.raises(NumericError, match="non-finite gradient"):
            grad(model, steps)


class TestRigidInvariance:
    def transformed_entry(self, entry, transform):
        pocket_pos = apply_rigid(transform, entry.pocket.positions)
        lig_pos = apply_rigid(transform, entry.ligand.positions)
        pocket = Pocket(
            [Atom(a.element, p) for a, p in zip(entry.pocket.atoms, pocket_pos)],
            entry.pocket.bfactors,
        )
        atoms = [Atom(a.element, p) for a, p in zip(entry.ligand.atoms, lig_pos)]
        return ComplexEntry(
            pocket=pocket, ligand=Molecule(atoms, infer_bonds(atoms, VOCAB)), entry_id="t"
        )

    def test_translation_invariance_any_params(self):
        cfg = tiny_model_config(VOCAB)
        rng = np.random.default_rng(0)
        model = Model.initialized(cfg, rng)
        model.store.flat[:] = rng.uniform(-0.4, 0.4, size=model.store.size)
        entry = toy_complex(VOCAB)
        base = nll_loss(model, sequentialize(entry, np.random.default_rng(9), cfg))
        for k in range(10):
            t = RigidTransform(np.eye(3), np.random.default_rng(k).uniform(-20, 20, 3))
            moved = self.transformed_entry(entry, t)
            loss = nll_loss(model, sequentialize(moved, np.random.default_rng(9), cfg))
            assert abs(loss - base) < 1e-9

    def test_full_rigid_invariance_with_isotropic_flows(self):
        # identity-initialized flows leave the coordinate density isotropic,
        # so rotations join translations as exact symmetries
        cfg = tiny_model_config(VOCAB)
        rng = np.random.default_rng(0)
        model = Model.initialized(cfg, rng)
        model.store["encoder.embed"][...] = rng.uniform(
            -0.3, 0.3, size=model.store["encoder.embed"].shape
        )
        entry = toy_complex(VOCAB)
        base = nll_loss(model, sequentialize(entry, np.random.default_rng(9), cfg))
        for k in range(10):
            t = RigidTransform.random(np.random.default_rng(100 + k))
            moved = self.transformed_entry(entry, t)
            loss = nll_loss(model, sequentialize(moved, np.random.default_rng(9), cfg))
            assert abs(loss - base) < 1e-6


class TestTrain:
    def test_zero_learning_rate_constant_history(self):
        dataset = toy_dataset(VOCAB, n_copies=3, seed=1)
        cfg = tiny_model_config(VOCAB)
        result = train(dataset, cfg, TrainConfig(epochs=5, learning_rate=0.0, seed=0))
        assert len(set(result.history)) == 1

    def test_same_seed_identical_histories(self):
        dataset = toy_dataset(VOCAB, n_copies=3, seed=1)
        cfg = tiny_model_config(VOCAB)
        a = train(dataset, cfg, TrainConfig(epochs=6, learning_rate=1e-3, seed=11))
        b = train(dataset, cfg, TrainConfig(epochs=6, learning_rate=1e-3, seed=11))
        assert a.history == b.history
        assert np.array_equal(a.model.store.flat, b.model.store.flat)

    def test_loss_decreases_on_toy_problem(self):
        dataset = toy_dataset(VOCAB, n_copies=10, seed=3)
        cfg = ModelConfig(vocab=VOCAB, encoder_layers=1, type_flow_layers=3, coord_flow_layers=3)
        result = train(dataset, cfg, TrainConfig(epochs=60, learning_rate=1e-3, seed=0))
        assert result.history[-1] < 0.95 * result.history[0]
        non_monotone = sum(
            1 for a, b in zip(result.history, result.history[1:]) if b > a
        )
        assert non_monotone <= max(1, int(0.05 * len(result.history)))

    def test_divergence_aborts_with_history(self):
        dataset = toy_dataset(VOCAB, n_copies=5, seed=1)
        cfg = tiny_model_config(VOCAB)
        with pytest.raises(TrainingDiverged) as err:
            train(dataset, cfg, TrainConfig(epochs=400, learning_rate=5.0, seed=0))
        assert len(err.value.history) >= 1

    def test_minibatch_mode_runs_deterministically(self):
        dataset = toy_dataset(VOCAB, n_copies=4, seed=2)
        cfg = tiny_model_config(VOCAB)
        tc = TrainConfig(epochs=4, learning_rate=1e-3, batch_size=5, seed=3)
        a = train(dataset, cfg, tc)
        b = train(dataset, cfg, tc)
        assert a.history == b.history

    def test_history_is_the_epoch_loss_at_rate_zero(self):
        # the epoch loss is the mean of every step's loss, whatever the batching
        dataset = toy_dataset(VOCAB, n_copies=4, seed=2)
        cfg = tiny_model_config(VOCAB)
        rng = np.random.default_rng(3)
        model = Model.initialized(cfg, rng)
        steps = build_steps(dataset, rng, cfg)
        n = len(steps)
        expected = nll_loss(model, steps)
        for batch_size in (0, 5, 8, n, n + 4):
            tc = TrainConfig(epochs=4, learning_rate=0.0, batch_size=batch_size, seed=3)
            assert train(dataset, cfg, tc).history == [expected] * 4

    def test_batch_of_at_least_n_is_the_full_batch(self):
        dataset = toy_dataset(VOCAB, n_copies=3, seed=1)
        cfg = tiny_model_config(VOCAB)
        n = len(build_steps(dataset, np.random.default_rng(0), cfg))
        full = train(dataset, cfg, TrainConfig(epochs=4, learning_rate=1e-3, seed=5))
        for batch_size in (n, n + 1):
            tc = TrainConfig(epochs=4, learning_rate=1e-3, batch_size=batch_size, seed=5)
            result = train(dataset, cfg, tc)
            assert result.history == full.history
            assert np.array_equal(result.model.store.flat, full.model.store.flat)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], tiny_model_config(VOCAB), TrainConfig(epochs=1))


# recorded with the per-step flow passes that preceded the batched ones: the
# history of ``TestPinnedHistory``'s run, to be held to 1e-12 relative
PINNED_TOY_HISTORY = [
    13.723526697496427,
    13.68109229960503,
    13.638922442270774,
    13.597007999900544,
    13.555340266372458,
    13.513910930321078,
    13.472712052178089,
    13.431736042823221,
    13.390975643713642,
    13.350423908372457,
    13.310074185127819,
    13.269920101004026,
    13.229955546674894,
    13.190174662397538,
    13.150571824851982,
    13.111141634818361,
    13.071878905629509,
    13.032778652341763,
    12.993836081571839,
    12.955046581951766,
]


class TestPinnedHistory:
    def test_short_toy_history_matches_recorded_values(self):
        """A code change that keeps the outputs keeps the toy loss history
        to 1e-12 relative (the default model, 9 steps, 20 full-batch epochs)."""
        dataset = toy_dataset(VOCAB, n_copies=3)
        result = train(dataset, ModelConfig(vocab=VOCAB), TrainConfig(epochs=20, seed=0))
        got = np.array(result.history)
        assert np.max(np.abs(got - PINNED_TOY_HISTORY) / PINNED_TOY_HISTORY) <= 1e-12


# recorded before the steps of a batch were encoded as one union: the history
# of ``TestPinnedMiniBatchHistory``'s run, to be held to 1e-12 relative
PINNED_MINIBATCH_HISTORY = [
    13.920780996152127,
    13.838887677996759,
    13.75934826864412,
    13.678570588607386,
    13.597509953723952,
    13.517932585918919,
    13.441038946418265,
    13.36411089860743,
    13.2915137250899,
    13.214991286778131,
]


class TestPinnedMiniBatchHistory:
    def test_minibatch_history_on_two_pockets_matches_recorded_values(self):
        """Mini-batches of 4 of the 6 steps on two different pockets, a fresh
        permutation each epoch, so that each batch has its own union layout
        (the default model with B-factor gating, 10 epochs)."""
        dataset = [toy_complex(VOCAB), other_tiny_complex(VOCAB)]
        cfg = ModelConfig(vocab=VOCAB, bfactor_gating=True)
        result = train(dataset, cfg, TrainConfig(epochs=10, batch_size=4, seed=0))
        got = np.array(result.history)
        assert np.max(np.abs(got - PINNED_MINIBATCH_HISTORY) / PINNED_MINIBATCH_HISTORY) <= 1e-12


# recorded while a deep union still kept every pocket row of every step and
# ran the middle layer's pocket block per step: the histories of
# ``TestPinnedDeepHistory``'s runs, to be held to 1e-12 relative
PINNED_DEEP_HISTORY = {
    0: [
        13.646900175442994,
        13.633682787692202,
        13.620488560263366,
        13.607317191651445,
        13.594168385291582,
        13.581041849455026,
        13.567937297147601,
        13.554854446010893,
        13.541793018225858,
        13.528752740418875,
    ],
    4: [
        13.634100578197193,
        13.594781406351203,
        13.555139067153974,
        13.516153685697526,
        13.477600555159666,
        13.439389794837759,
        13.400106006238309,
        13.362242117450656,
        13.32344237567167,
        13.285382532287668,
    ],
}


class TestPinnedDeepHistory:
    @pytest.mark.parametrize("batch_size", [0, 4])
    def test_three_layer_history_matches_recorded_values(self, batch_size):
        """A three-layer encoder with B-factor gating, which trains on the
        empty prefix, over 12 steps for 10 epochs, full batch and in batches
        of 4."""
        cfg = ModelConfig(
            vocab=VOCAB,
            embed_width=6,
            hidden_width=5,
            encoder_layers=3,
            bfactor_gating=True,
            type_flow_layers=2,
            coord_flow_layers=2,
        )
        dataset = toy_dataset(VOCAB, n_copies=4)
        result = train(dataset, cfg, TrainConfig(epochs=10, batch_size=batch_size, seed=0))
        want = np.array(PINNED_DEEP_HISTORY[batch_size])
        assert np.max(np.abs(np.array(result.history) - want) / want) <= 1e-12
