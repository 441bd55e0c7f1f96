"""Focal selection, rigged-flow sampling, stepping, and full generation."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pocketflow
from pocketflow import cli, generator
from pocketflow.chem import (
    Atom,
    Molecule,
    Pocket,
    Vocabulary,
    check_validity,
    infer_bonds,
    open_valence,
)
from pocketflow.encoder import ContextEncoding, build_graph, extend_graph
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
from pocketflow.molio import molecule_to_records
from pocketflow.pdb import serialize_pdb
from pocketflow.synthetic import toy_complex

VOCAB = Vocabulary.default()
REPO = Path(__file__).resolve().parents[1]
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


def condition(model, state, focal):
    """The conditioner that ``step`` forms for ``focal``, and the focal's
    position."""
    encoding = state.encoded(model)
    cond = model.encoder.encode_with_cache(encoding.graph, encoding.pocket, focal)
    return cond, encoding.graph.positions[focal]


def coord_gaussian(model, cond, element):
    """The coordinate flow's (A, M) that ``step`` forms for ``element``."""
    return model.coord_flow.gaussian(np.concatenate([cond, model.one_hot(element)]))


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
        cond, _ = condition(model, state, select_focal(state))
        gaussian = model.type_flow.gaussian(cond)
        rng = np.random.default_rng(0)
        draws = {generate_type(model, state, gaussian, rng) for _ in range(50)}
        assert draws == {C}

    def test_deterministic_per_seed(self):
        model = small_model()
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        cond, _ = condition(model, state, select_focal(state))
        gaussian = model.type_flow.gaussian(cond)
        a = [generate_type(model, state, gaussian, np.random.default_rng(7)) for _ in range(3)]
        b = [generate_type(model, state, gaussian, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_valence_mask_blocks_monovalent_when_one_slot_left(self):
        model = small_model()
        # force the argmax toward a monovalent element
        model.store["typeflow.layer0.b"][len(VOCAB) + VOCAB.index("F")] = 50.0
        pocket = pocket_with_centroid_at_origin()
        open_one = GenerationState(
            pocket=pocket, placed=[Atom(O, (3.0, 0, 0))], bonds=[], open_valences=[1]
        )
        cond, _ = condition(model, open_one, 2)
        gaussian = model.type_flow.gaussian(cond)
        rng = np.random.default_rng(1)
        masked = generate_type(model, open_one, gaussian, rng, valence_constrained=True)
        assert VOCAB[masked].max_valence > 1
        unmasked = generate_type(
            model, open_one, gaussian, np.random.default_rng(1), valence_constrained=False
        )
        assert unmasked == VOCAB.index("F")


class TestGenerateCoord:
    def test_zero_latent_lands_on_focal(self):
        model = small_model()
        entry = toy_complex(VOCAB)
        state = GenerationState(pocket=entry.pocket)
        focal = select_focal(state)
        cond, origin = condition(model, state, focal)
        out = generate_coord(origin, coord_gaussian(model, cond, C), ZeroRng())
        assert np.allclose(out, entry.pocket.atoms[focal].position, atol=1e-10)

    def test_zero_latent_lands_on_placed_focal(self):
        model = small_model(randomize_encoder=True)
        placed = [Atom(C, (0.5, 0.5, 0.0)), Atom(O, (1.5, 1.2, 0.3))]
        state = GenerationState(
            pocket=toy_complex(VOCAB).pocket, placed=placed, bonds=[(0, 1, 1)], open_valences=[3, 1]
        )
        focal = len(state.pocket) + 1
        cond, origin = condition(model, state, focal)
        out = generate_coord(origin, coord_gaussian(model, cond, C), ZeroRng())
        assert np.allclose(out, placed[1].position, atol=1e-10)

    def test_shift_only_flow_offsets_by_unit_x(self):
        model = small_model()
        model.store["coordflow.layer0.b"][3:] = [1.0, 0.0, 0.0]
        entry = toy_complex(VOCAB)
        state = GenerationState(pocket=entry.pocket)
        focal = select_focal(state)
        cond, origin = condition(model, state, focal)
        out = generate_coord(origin, coord_gaussian(model, cond, C), ZeroRng())
        expected = entry.pocket.atoms[focal].position + np.array([1.0, 0.0, 0.0])
        assert np.allclose(out, expected, atol=1e-10)

    def test_same_seed_same_coordinate(self):
        model = small_model(randomize_encoder=True)
        state = GenerationState(pocket=toy_complex(VOCAB).pocket)
        cond, origin = condition(model, state, select_focal(state))
        a = generate_coord(origin, coord_gaussian(model, cond, C), np.random.default_rng(3))
        b = generate_coord(origin, coord_gaussian(model, cond, C), np.random.default_rng(3))
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

    def test_offset_is_taken_from_a_placed_focal(self):
        model = small_model()
        model.store["typeflow.layer0.b"][len(VOCAB) + C] = 50.0
        model.store["coordflow.layer0.b"][3:] = [1.5, 0.0, 0.0]
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (3.0, 0, 0))],
            bonds=[],
            open_valences=[4],
        )
        assert step(model, state, ZeroRng(), GenConfig(max_atoms=2))
        assert state.t == 2
        assert np.allclose(state.placed[1].position, (4.5, 0, 0), atol=1e-10)
        assert state.bonds == [(0, 1, 1)] and state.open_valences == [3, 3]

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


def dense_triu_pairs(graph, cutoff):
    """The same context with its edges rebuilt densely as the np.triu pairs
    of the distance matrix, in lexicographic order: the order a plain
    pairwise construction gives."""
    diff = graph.positions[:, None, :] - graph.positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    src, dst = np.nonzero(np.triu(dist <= cutoff, 1))
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
            encoding = state.encoded(model)
            graph, cache = encoding.graph, encoding.pocket
            full = build_graph(pocket, state.placed, cutoff=cfg.graph_cutoff)
            h = model.encoder.encode(graph, cache)
            assert np.array_equal(h, model.encoder.encode(full))
            assert np.array_equal(h, model.encoder.encode(dense_triu_pairs(full, cfg.graph_cutoff)))
            if finished:
                break
            finished = step(model, state, rng, gen_cfg)
        assert state.t >= 4, f"only {state.t} atoms placed"


def random_encoder_model(layers, gating):
    """A model whose encoder parameters are all random and nonzero."""
    cfg = ModelConfig(vocab=VOCAB, encoder_layers=layers, bfactor_gating=gating)
    model = Model.initialized(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for name, shape in model.store.shapes.items():
        if name.startswith("encoder."):
            model.store[name][...] = rng.uniform(-0.3, 0.3, size=shape)
    return model


class TestKeptEncoding:
    """A state extends its encoding by each accepted atom; every readout of
    it must equal ``encode_with_cache`` on the whole context."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_kept_conditioner_equals_a_full_encode(self, layers, gating, pocket_name):
        model = random_encoder_model(layers, gating)
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        prefix = model.pocket_encoding(pocket)
        state, n = GenerationState(pocket=pocket), len(pocket)
        pocket_focal = select_focal(state)
        rng, cfg = np.random.default_rng(3), GenConfig(max_atoms=8)
        finished = False
        while not finished:
            kept = state.encoded(model)
            graph = extend_graph(prefix.graph, state.placed, model.cfg.graph_cutoff)
            focals = {pocket_focal, n + state.t - 1 if state.t else pocket_focal}
            for focal in focals:
                got = model.encoder.readout(kept, focal)
                assert np.array_equal(got, model.encoder.encode_with_cache(graph, prefix, focal))
            assert np.array_equal(model.encoder.readout(kept), model.encoder.encode(graph, prefix))
            finished = step(model, state, rng, cfg)
        assert state.t >= 4, f"only {state.t} atoms placed"

    @pytest.mark.parametrize("layers", [1, 2])
    def test_atom_with_one_edge(self, layers):
        # an atom 5 A out from the pocket's last atom has that one edge, the
        # next one 5 A further out one edge to it: a one-row edge MLP, which
        # numpy would hand to gemv, must equal its row in a larger batch
        model = random_encoder_model(layers, gating=False)
        state = GenerationState(
            pocket=pocket_with_centroid_at_origin(),
            placed=[Atom(C, (7.0, 0, 0)), Atom(C, (12.0, 0, 0))],
        )
        kept = state.encoded(model)
        assert len(kept.messages[0]) == 2
        full = build_graph(state.pocket, state.placed)
        for focal in range(kept.graph.n_atoms):
            got = model.encoder.readout(kept, focal)
            assert np.array_equal(got, model.encoder.encode_with_cache(full, None, focal))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_state_built_with_placed_atoms_catches_up(self, layers, pocket_name):
        model = random_encoder_model(layers, gating=True)
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        grown, rng, cfg = GenerationState(pocket=pocket), np.random.default_rng(3), GenConfig()
        while grown.t < 4:
            assert not step(model, grown, rng, cfg)
        built = GenerationState(
            pocket, list(grown.placed), list(grown.bonds), list(grown.open_valences)
        )
        kept, caught_up = grown.encoded(model), built.encoded(model)
        assert np.array_equal(kept.graph.edges, caught_up.graph.edges)
        for a, b in [(kept.x, caught_up.x), (kept.out_messages, caught_up.out_messages)]:
            assert np.array_equal(a, b)
        assert all(map(np.array_equal, kept.messages, caught_up.messages))
        for state in (grown, built):
            step(model, state, np.random.default_rng(5), cfg)
        assert grown.t == built.t == 5
        assert same_molecule(grown.molecule(), built.molecule())
        assert grown.open_valences == built.open_valences



def cold_copy(model):
    """A model with the same parameters and an empty pocket memo."""
    return Model(model.cfg, model.store.copy())


def same_molecule(a, b):
    return (
        a.bonds == b.bonds
        and np.array_equal(a.elements, b.elements)
        and np.array_equal(a.positions, b.positions)
    )


def count_encodes(monkeypatch, model):
    """Count the model's pocket encodes from now on."""
    calls = []
    real = model.encoder.encode_pocket

    def counting(graph):
        calls.append(graph.n_atoms)
        return real(graph)

    monkeypatch.setattr(model.encoder, "encode_pocket", counting)
    return calls


class TestPocketMemo:
    """``Model.pocket_encoding`` keeps one pocket's encoding across molecules;
    every molecule must equal the one a model with a cold memo grows."""

    def test_alternating_pockets_equal_a_cold_model(self, monkeypatch):
        model = small_model(randomize_encoder=True)
        toy, big = toy_complex(VOCAB).pocket, random_pocket()
        encodes = count_encodes(monkeypatch, model)
        cfg = GenConfig(max_atoms=6)
        for seed, pocket in enumerate([toy, toy, big, big, toy, big]):
            warm = generate_ligand(model, pocket, cfg, np.random.default_rng(seed))
            cold = generate_ligand(cold_copy(model), pocket, cfg, np.random.default_rng(seed))
            assert same_molecule(warm, cold)
        assert encodes == [len(toy), len(big), len(toy), len(big)]

    def test_parameter_write_reencodes(self, monkeypatch):
        model = small_model(randomize_encoder=True)
        pocket = toy_complex(VOCAB).pocket
        encodes = count_encodes(monkeypatch, model)
        cfg = GenConfig(max_atoms=6)
        generate_ligand(model, pocket, cfg, np.random.default_rng(0))
        for n, k in enumerate([0, model.store.size // 2, model.store.size - 1], start=2):
            model.store.flat[k] += 1e-3
            warm = generate_ligand(model, pocket, cfg, np.random.default_rng(n))
            cold = generate_ligand(cold_copy(model), pocket, cfg, np.random.default_rng(n))
            assert same_molecule(warm, cold)
            assert len(encodes) == n

    def test_entry_is_a_plain_context_encoding(self):
        """The memo keeps only what generation extends: a ``ContextEncoding``
        on the empty prefix, without the inputs of training's backward pass."""
        model = small_model(randomize_encoder=True)
        encoding = model.pocket_encoding(random_pocket())
        assert type(encoding) is ContextEncoding
        assert list(vars(encoding)) == ["pocket", "graph", "messages", "x", "out_messages"]
        assert encoding.pocket is model.encoder.empty_pocket

    def test_equal_content_pocket_reuses_the_entry(self, monkeypatch):
        model = small_model(randomize_encoder=True)
        pocket = toy_complex(VOCAB).pocket
        twin = Pocket(list(pocket.atoms), pocket.bfactors.copy())
        encoding = model.pocket_encoding(pocket)
        encodes = count_encodes(monkeypatch, model)
        assert model.pocket_encoding(twin) is encoding and encodes == []

    def test_bfactor_change_reencodes_under_gating(self, monkeypatch):
        model = Model.initialized(ModelConfig(vocab=VOCAB, bfactor_gating=True), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for name, shape in model.store.shapes.items():
            if name.startswith("encoder."):
                model.store[name][...] = rng.uniform(-0.3, 0.3, size=shape)
        pocket = toy_complex(VOCAB).pocket
        bfactors = pocket.bfactors.copy()
        bfactors[np.argsort(bfactors)[len(bfactors) // 2]] += 1.0  # neither the min nor the max
        shifted = Pocket(list(pocket.atoms), bfactors)
        encodes = count_encodes(monkeypatch, model)
        cfg = GenConfig(max_atoms=6)
        for seed, target in enumerate([pocket, shifted]):
            warm = generate_ligand(model, target, cfg, np.random.default_rng(seed))
            cold = generate_ligand(cold_copy(model), target, cfg, np.random.default_rng(seed))
            assert same_molecule(warm, cold)
        assert len(encodes) == 2
        assert not np.array_equal(
            model.pocket_encoding(pocket).x, model.pocket_encoding(shifted).x
        )

    def test_cli_builds_the_pocket_graph_once_per_run(self, monkeypatch, tmp_path):
        real = pocketflow.encoder.build_graph
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("pocketflow") and getattr(module, "build_graph", None) is real:
                monkeypatch.setattr(module, "build_graph", counting)
        pocket_pdb = tmp_path / "pocket.pdb"
        pocket_pdb.write_text(serialize_pdb(molecule_to_records(toy_complex(VOCAB).pocket, VOCAB, "ALA")))
        argv = ["generate", str(REPO / "perfbench" / "gen_model.ckpt"), str(pocket_pdb),
                "--count", "5", "--seed", "3", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("*.xyz"))) == 5
        assert len(calls) == 1


def rejection_reason(pocket, placed, atom, cfg, focal):
    """Why ``step`` must reject ``atom`` grown from context atom ``focal``,
    from whole-molecule rules: a clash with any context atom; or, under
    valence-constrained sampling, with bonds as :func:`infer_bonds` infers
    them over the whole candidate, some atom bonded beyond its capacity, or
    a placed focal that the candidate does not bond to."""
    context = [*pocket.atoms, *placed]
    d = np.array([np.linalg.norm(a.position - atom.position) for a in context])
    rsum = VOCAB.radii[[a.element for a in context]] + VOCAB.radii[atom.element]
    if np.any(d < cfg.clash_factor * rsum):
        return "clash"
    if not cfg.valence_constrained:
        return None
    atoms = [*placed, atom]
    candidate = Molecule(atoms, infer_bonds(atoms, VOCAB, cfg.bond_tolerance, cfg.clash_factor))
    if any(open_valence(candidate, i, VOCAB) < 0 for i in range(len(candidate))):
        return "valence"
    if focal >= len(pocket) and (focal - len(pocket), len(placed), 1) not in candidate.bonds:
        return "focal"
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
        drawn, tried = [], []
        rejects = Counter()
        real_step, real_type = generator.step, generator.generate_type
        real_coord = generator.generate_coord

        def recording_type(*args):
            drawn.append(real_type(*args))
            return drawn[-1]

        def recording_coord(origin, gaussian, rng):
            position = real_coord(origin, gaussian, rng)
            tried.append(Atom(drawn[-1], position))
            return position

        def checked_step(model, state, rng, cfg):
            tried.clear()
            before = list(state.placed)
            focal = select_focal(state)
            finished = real_step(model, state, rng, cfg)
            accepted = state.placed[len(before) :]
            assert state.placed[: len(before)] == before and len(accepted) <= 1
            rejected = tried[:-1] if accepted else tried
            for atom in rejected:
                reason = rejection_reason(pocket, before, atom, cfg, focal)
                assert reason is not None
                rejects[reason] += 1
            if accepted:
                assert accepted[0].element == tried[-1].element
                assert np.array_equal(accepted[0].position, tried[-1].position)
                assert rejection_reason(pocket, before, accepted[0], cfg, focal) is None
            assert state.bonds == infer_bonds(state.placed, VOCAB, cfg.bond_tolerance, cfg.clash_factor)
            mol = state.molecule()
            assert state.open_valences == [open_valence(mol, i, VOCAB) for i in range(state.t)]
            return finished

        monkeypatch.setattr(generator, "generate_type", recording_type)
        monkeypatch.setattr(generator, "generate_coord", recording_coord)
        monkeypatch.setattr(generator, "step", checked_step)
        for seed in range(10):
            generate_ligand(model, pocket, cfg, np.random.default_rng(seed))
        assert rejects["clash"] > 0
        assert (rejects["valence"] > 0) == valence_constrained
        assert (rejects["focal"] > 0) == valence_constrained

    @pytest.mark.parametrize("gap, bonded", [(0.0, True), (1e-9, False)])
    def test_bond_window_is_closed(self, monkeypatch, gap, bonded):
        # a candidate exactly at the radius sum plus the tolerance bonds, as
        # in infer_bonds; one just beyond it does not, so it leaves its placed
        # focal unbonded, which only unconstrained sampling accepts
        tolerance = 2.0 - 2 * VOCAB.radii[C]
        assert 2 * VOCAB.radii[C] + tolerance == 2.0
        monkeypatch.setattr(generator, "generate_type", lambda *args: C)
        monkeypatch.setattr(generator, "generate_coord", lambda *args: np.array([7.0 + gap, 0, 0]))
        for constrained in (False, True):
            state = GenerationState(
                pocket=pocket_with_centroid_at_origin(),
                placed=[Atom(C, (5.0, 0, 0))],
                bonds=[],
                open_valences=[4],
            )
            cfg = GenConfig(bond_tolerance=tolerance, valence_constrained=constrained)
            step(small_model(), state, np.random.default_rng(0), cfg)
            assert state.bonds == ([(0, 1, 1)] if bonded else [])
            assert state.bonds == infer_bonds(state.placed, VOCAB, tolerance)
            if bonded:
                assert state.open_valences == [3, 3]
            else:
                assert state.open_valences == ([4] if constrained else [4, 4])


class TestValenceConstrained:
    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_no_atom_over_capacity_and_every_atom_bonded_to_its_focal(self, pocket_name):
        model = small_model(randomize_encoder=True)
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        n = len(pocket)
        cfg = GenConfig(valence_constrained=True)
        sizes = []
        for seed in range(12):
            state = GenerationState(pocket=pocket)
            rng = np.random.default_rng(seed)
            focals = []
            while True:
                focal, t = select_focal(state), state.t
                finished = step(model, state, rng, cfg)
                if state.t > t:
                    focals.append(focal)
                if finished:
                    break
            mol = state.molecule()
            assert focals[0] < n  # the first atom grows from the pocket
            for t, focal in enumerate(focals[1:], start=1):
                assert focal >= n and (focal - n, t, 1) in mol.bonds
            assert all(open_valence(mol, i, VOCAB) >= 0 for i in range(len(mol)))
            assert check_validity(mol, VOCAB).valid
            sizes.append(len(mol))
        assert max(sizes) >= 3, sizes
