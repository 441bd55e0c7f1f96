"""Focal selection, rigged-flow sampling, stepping, and full generation."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from pocketflow import generator
from pocketflow.chem import (
    Atom,
    Molecule,
    Pocket,
    Vocabulary,
    check_validity,
    infer_bonds,
    open_valence,
)
from pocketflow.encoder import build_graph
from pocketflow.generator import (
    GenConfig,
    GenerationState,
    generate_coord,
    generate_ligand,
    generate_type,
    select_focal,
    step,
)
from pocketflow.model import Model, ModelConfig
from pocketflow.synthetic import toy_complex

VOCAB = Vocabulary.default()
C, O, N = VOCAB.index("C"), VOCAB.index("O"), VOCAB.index("N")


class ZeroRng:
    """Stand-in generator that always draws the zero latent."""

    def standard_normal(self, n):
        return np.zeros(n)


def small_model(seed=0, randomize_encoder=False):
    cfg = ModelConfig(
        vocab=VOCAB,
        rbf_centers=6,
        embed_width=8,
        hidden_width=8,
        encoder_layers=1,
        type_flow_layers=2,
        coord_flow_layers=2,
    )
    model = Model.initialized(cfg, np.random.default_rng(seed))
    if randomize_encoder:
        rng = np.random.default_rng(seed + 1)
        emb = model.store["encoder.embed"]
        emb[...] = rng.uniform(-0.2, 0.2, size=emb.shape)
    return model


def pocket_with_centroid_at_origin():
    return Pocket(
        [Atom(C, (1.0, 0, 0)), Atom(N, (-1.0, 0, 0))], np.array([10.0, 20.0])
    )


class TestSelectFocal:
    def test_initial_step_nearest_pocket_centroid(self):
        pocket = Pocket(
            [Atom(C, (4.0, 0, 0)), Atom(C, (1.0, 0, 0)), Atom(C, (-5.0, 0, 0))],
            np.array([1.0, 1.0, 1.0]),
        )
        state = GenerationState(pocket=pocket)
        assert select_focal(state) == 1  # centroid at x=0, atom at x=1 closest

    def test_single_open_atom(self):
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (3.0, 0, 0))],
            bonds=[],
            open_valences=[4],
        )
        assert select_focal(state) == 2

    def test_all_saturated_stops(self):
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (3.0, 0, 0)), Atom(O, (4.5, 0, 0))],
            bonds=[(0, 1, 1)],
            open_valences=[0, 0],
        )
        assert select_focal(state) is None

    def test_prefers_atom_nearer_centroid(self):
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (5.0, 0, 0)), Atom(C, (3.0, 0, 0))],
            bonds=[],
            open_valences=[4, 4],
        )
        assert select_focal(state) == 2 + 1

    def test_tie_breaks_to_lowest_index(self):
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (3.0, 0, 0)), Atom(C, (-3.0, 0, 0))],
            bonds=[],
            open_valences=[4, 4],
        )
        assert select_focal(state) == 2 + 0


class TestGenerateType:
    def test_dominating_shift_always_carbon(self):
        model = small_model(randomize_encoder=True)
        # layer 0 applies the identity permutation: a large shift on the C
        # component dominates any standard-normal draw
        model.store["typeflow.layer0.b"][len(VOCAB) + C] = 50.0
        entry = toy_complex(VOCAB)
        state = GenerationState(pocket=entry.pocket)
        focal = select_focal(state)
        rng = np.random.default_rng(0)
        draws = {generate_type(model, state, focal, rng) for _ in range(50)}
        assert draws == {C}

    def test_deterministic_per_seed(self):
        model = small_model()
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        focal = select_focal(state)
        a = [generate_type(model, state, focal, np.random.default_rng(7)) for _ in range(3)]
        b = [generate_type(model, state, focal, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_valence_mask_blocks_monovalent_when_one_slot_left(self):
        model = small_model()
        # force the argmax toward a monovalent element
        model.store["typeflow.layer0.b"][len(VOCAB) + VOCAB.index("F")] = 50.0
        pocket = pocket_with_centroid_at_origin()
        open_one = GenerationState(
            pocket=pocket, placed=[Atom(O, (3.0, 0, 0))], bonds=[], open_valences=[1]
        )
        rng = np.random.default_rng(1)
        masked = generate_type(model, open_one, 2, rng, valence_constrained=True)
        assert VOCAB[masked].max_valence > 1
        unmasked = generate_type(model, open_one, 2, np.random.default_rng(1), valence_constrained=False)
        assert unmasked == VOCAB.index("F")


class TestGenerateCoord:
    def test_zero_latent_lands_on_focal(self):
        model = small_model()
        entry = toy_complex(VOCAB)
        state = GenerationState(pocket=entry.pocket)
        focal = select_focal(state)
        out = generate_coord(model, state, focal, C, ZeroRng())
        assert np.allclose(out, entry.pocket.atoms[focal].position, atol=1e-10)

    def test_shift_only_flow_offsets_by_unit_x(self):
        model = small_model()
        model.store["coordflow.layer0.b"][3:] = [1.0, 0.0, 0.0]
        entry = toy_complex(VOCAB)
        state = GenerationState(pocket=entry.pocket)
        focal = select_focal(state)
        out = generate_coord(model, state, focal, C, ZeroRng())
        expected = entry.pocket.atoms[focal].position + np.array([1.0, 0.0, 0.0])
        assert np.allclose(out, expected, atol=1e-10)

    def test_same_seed_same_coordinate(self):
        model = small_model(randomize_encoder=True)
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        focal = select_focal(state)
        a = generate_coord(model, state, focal, C, np.random.default_rng(3))
        b = generate_coord(model, state, focal, C, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestStep:
    def test_single_atom_budget(self):
        model = small_model()
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        finished = step(model, state, np.random.default_rng(0), GenConfig(max_atoms=1))
        assert finished and state.t == 1

    def test_saturated_state_finishes_without_placement(self):
        model = small_model()
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(O, (3.0, 0, 0))],
            bonds=[],
            open_valences=[0],
        )
        finished = step(model, state, np.random.default_rng(0), GenConfig(max_atoms=9))
        assert finished and state.t == 1

    def test_state_at_budget_finishes_without_drawing(self):
        model = small_model()
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(O, (3.0, 0, 0))],
            bonds=[],
            open_valences=[2],
        )
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert step(model, state, rng, GenConfig(max_atoms=1))
        assert state.t == 1 and rng.bit_generator.state == before

    def test_clash_exhaustion_emits_stop(self):
        model = small_model()
        # scales pinned at the softplus floor collapse every offset onto the
        # focal atom, so each attempt clashes and the step must give up
        for i in range(model.cfg.coord_flow_layers):
            model.store[f"coordflow.layer{i}.b"][:3] = -60.0
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        finished = step(model, state, np.random.default_rng(0), GenConfig(max_atoms=4))
        assert finished and state.t == 0


class TestGenerateLigand:
    def test_deterministic_per_seed(self):
        model = small_model(randomize_encoder=True)
        pocket = toy_complex(VOCAB).pocket
        cfg = GenConfig(max_atoms=4)
        a = generate_ligand(model, pocket, cfg, np.random.default_rng(5))
        b = generate_ligand(model, pocket, cfg, np.random.default_rng(5))
        assert len(a) == len(b)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.elements, b.elements)

    def test_seeds_differ_somewhere(self):
        model = small_model(randomize_encoder=True)
        pocket = toy_complex(VOCAB).pocket
        cfg = GenConfig(max_atoms=3)
        different = 0
        for s in range(20):
            a = generate_ligand(model, pocket, cfg, np.random.default_rng(s))
            b = generate_ligand(model, pocket, cfg, np.random.default_rng(1000 + s))
            if len(a) != len(b) or not np.array_equal(a.positions, b.positions):
                different += 1
        assert different >= 1

    def test_no_clashes_against_context(self):
        model = small_model(randomize_encoder=True)
        entry = toy_complex(VOCAB)
        cfg = GenConfig(max_atoms=5)
        for s in range(30):
            mol = generate_ligand(model, entry.pocket, cfg, np.random.default_rng(s))
            for atom in mol.atoms:
                r_new = VOCAB.radii[atom.element]
                d = np.linalg.norm(entry.pocket.positions - atom.position, axis=1)
                limits = 0.4 * (VOCAB.radii[entry.pocket.elements] + r_new)
                assert np.all(d >= limits)
            report = check_validity(mol, VOCAB)
            # clash violations are impossible by construction
            assert not any("clash" in reason for _, reason in report.violations)

    def test_context_grows_by_one_per_step(self):
        model = small_model()
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        rng = np.random.default_rng(2)
        cfg = GenConfig(max_atoms=4)
        sizes = [state.t]
        while not step(model, state, rng, cfg):
            sizes.append(state.t)
        assert sizes == list(range(len(sizes)))

    def test_empty_pocket_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            generate_ligand(
                model, Pocket([], np.array([])), GenConfig(), np.random.default_rng(0)
            )

    def test_molecule_state_invariant(self):
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        assert isinstance(state.molecule(), Molecule)
        assert state.molecule().atoms == []

    def test_valence_constrained_keeps_total_open_nonnegative(self):
        # rig the type flow to always pick carbon, the worst case for bond
        # accumulation, and watch the open-valence total after every step
        model = small_model(randomize_encoder=True)
        model.store["typeflow.layer0.b"][len(VOCAB) + C] = 50.0
        pocket = toy_complex(VOCAB).pocket
        cfg = GenConfig(max_atoms=6, valence_constrained=True)
        for seed in range(40):
            state = GenerationState(pocket=pocket)
            rng = np.random.default_rng(seed)
            while True:
                finished = step(model, state, rng, cfg)
                if state.t:
                    assert sum(state.open_valences) >= 0
                if finished:
                    break


def random_pocket(n_atoms=400, seed=0):
    """Seeded protein-sized pocket: atoms in a 4-14 A shell around a cavity."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((n_atoms, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(4.0, 14.0, size=(n_atoms, 1))
    elements = rng.choice([C, N, O, VOCAB.index("S")], size=n_atoms, p=[0.6, 0.2, 0.17, 0.03])
    atoms = [Atom(int(e), p) for e, p in zip(elements, direction * radius)]
    return Pocket(atoms, rng.uniform(5.0, 60.0, size=n_atoms))


def dense_source_major(graph, cutoff):
    """The same context with its edges rebuilt densely, ordered by source
    then destination: the order a plain pairwise construction gives."""
    diff = graph.positions[:, None, :] - graph.positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    src, dst = np.nonzero((dist <= cutoff) & ~np.eye(graph.n_atoms, dtype=bool))
    return dataclasses.replace(graph, edge_src=src, edge_dst=dst, edge_dist=dist[src, dst])


class TestPocketCache:
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_incremental_encoding_equals_full_reencode(self, gating, pocket_name):
        # every encoder parameter random and nonzero, so each cached piece
        # (edge-MLP outputs, layer-0 aggregate, gates) carries real messages
        cfg = ModelConfig(vocab=VOCAB, bfactor_gating=gating)
        model = Model.initialized(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for name, shape in model.store.shapes.items():
            if name.startswith("encoder."):
                model.store[name][...] = rng.uniform(-0.3, 0.3, size=shape)
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        state = GenerationState(pocket=pocket)
        gen_cfg = GenConfig(max_atoms=8)
        rng = np.random.default_rng(3)
        finished = False
        while True:
            graph, cache = state.context(model)
            full = build_graph(pocket, state.placed, cutoff=cfg.graph_cutoff)
            h = model.encoder.encode(graph, cache)
            assert np.array_equal(h, model.encoder.encode(full))
            assert np.array_equal(h, model.encoder.encode(dense_source_major(full, cfg.graph_cutoff)))
            if finished:
                break
            finished = step(model, state, rng, gen_cfg)
        assert state.t >= 4, f"only {state.t} atoms placed"


def rejection_reason(pocket, placed, atom, cfg):
    """Why ``step`` must reject ``atom``, from whole-molecule rules: a clash
    with any context atom, or bonds (as :func:`infer_bonds` infers them over
    the whole candidate) beyond the placed set's total capacity."""
    context = [*pocket.atoms, *placed]
    d = np.array([np.linalg.norm(a.position - atom.position) for a in context])
    rsum = VOCAB.radii[[a.element for a in context]] + VOCAB.radii[atom.element]
    if np.any(d < cfg.clash_factor * rsum):
        return "clash"
    candidate = [*placed, atom]
    capacity = sum(int(VOCAB.max_valences[a.element]) for a in candidate)
    bonds = infer_bonds(candidate, VOCAB, cfg.bond_tolerance, cfg.clash_factor)
    if cfg.valence_constrained and capacity < 2 * len(bonds):
        return "valence"
    return None


class TestStepBookkeeping:
    """``step`` decides each attempt from the candidate's distances alone;
    these tests hold it to the whole-molecule rules of :mod:`pocketflow.chem`."""

    @pytest.mark.parametrize("valence_constrained", [True, False])
    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_bonds_and_open_valences_match_chem_after_every_step(
        self, monkeypatch, valence_constrained, pocket_name
    ):
        model = small_model()
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        cfg = GenConfig(valence_constrained=valence_constrained)
        tried = []
        rejects = Counter()
        real_step, real_coord = generator.step, generator.generate_coord

        def recording_coord(model, state, focal, element, rng, cond=None):
            position = real_coord(model, state, focal, element, rng, cond)
            tried.append(Atom(element, position))
            return position

        def checked_step(model, state, rng, cfg):
            tried.clear()
            before = list(state.placed)
            finished = real_step(model, state, rng, cfg)
            accepted = state.placed[len(before) :]
            assert state.placed[: len(before)] == before and len(accepted) <= 1
            rejected = tried[:-1] if accepted else tried
            for atom in rejected:
                reason = rejection_reason(pocket, before, atom, cfg)
                assert reason is not None
                rejects[reason] += 1
            if accepted:
                assert accepted[0].element == tried[-1].element
                assert np.array_equal(accepted[0].position, tried[-1].position)
                assert rejection_reason(pocket, before, accepted[0], cfg) is None
            assert state.bonds == infer_bonds(state.placed, VOCAB, cfg.bond_tolerance, cfg.clash_factor)
            mol = state.molecule()
            assert state.open_valences == [open_valence(mol, i, VOCAB) for i in range(state.t)]
            return finished

        monkeypatch.setattr(generator, "generate_coord", recording_coord)
        monkeypatch.setattr(generator, "step", checked_step)
        for seed in range(10):
            generate_ligand(model, pocket, cfg, np.random.default_rng(seed))
        assert rejects["clash"] > 0
        assert (rejects["valence"] > 0) == valence_constrained

    @pytest.mark.parametrize("gap, bonded", [(0.0, True), (1e-9, False)])
    def test_bond_window_is_closed(self, monkeypatch, gap, bonded):
        # a candidate exactly at the radius sum plus the tolerance bonds, as
        # in infer_bonds; one just beyond it does not
        tolerance = 2.0 - 2 * VOCAB.radii[C]
        assert 2 * VOCAB.radii[C] + tolerance == 2.0
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (5.0, 0, 0))],
            bonds=[],
            open_valences=[4],
        )
        monkeypatch.setattr(generator, "generate_type", lambda *args: C)
        monkeypatch.setattr(generator, "generate_coord", lambda *args: np.array([7.0 + gap, 0, 0]))
        step(small_model(), state, np.random.default_rng(0), GenConfig(bond_tolerance=tolerance))
        assert state.bonds == ([(0, 1, 1)] if bonded else [])
        assert state.bonds == infer_bonds(state.placed, VOCAB, tolerance)
        assert state.open_valences == ([3, 3] if bonded else [4, 4])
