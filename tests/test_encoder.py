"""Context graph construction, message passing, invariances, B-factor gating."""

import numpy as np
import pytest

from pocketflow.chem import Atom, Molecule, Pocket, Vocabulary, VocabularyError
from pocketflow.encoder import (
    LIGAND,
    PROTEIN,
    ContextGraph,
    Encoder,
    EncoderConfig,
    StepUnion,
    aggregate_readout,
    build_graph,
    extend_graph,
    scatter_add,
)
from pocketflow.geometry import RbfBank, RigidTransform, apply_rigid, distance_matrix
from pocketflow.generator import GenConfig, generate_ligand
from pocketflow.model import Model, ModelConfig
from pocketflow.params import ParamStore
from pocketflow.pdb import ComplexEntry
from pocketflow.synthetic import toy_complex, toy_dataset
from pocketflow.trainer import build_steps

from helpers import dense_encode, readout_backward

VOCAB = Vocabulary.default()
C, N, O = VOCAB.index("C"), VOCAB.index("N"), VOCAB.index("O")
BANK = RbfBank.default(8, 8.0)


def make_encoder(cfg=None, seed=0, randomize=False):
    cfg = cfg or EncoderConfig(embed_width=6, hidden_width=5, n_layers=2)
    store = ParamStore(Encoder.sections(cfg, len(VOCAB), len(BANK)))
    enc = Encoder(cfg, len(VOCAB), BANK, store)
    rng = np.random.default_rng(seed)
    enc.init(rng)
    if randomize:
        store.flat[:] = rng.uniform(-0.3, 0.3, size=store.size)
    return enc


def pocket_of(*positions, elements=None, bfactors=None):
    elements = elements or [C] * len(positions)
    atoms = [Atom(e, p) for e, p in zip(elements, positions)]
    bf = np.array(bfactors if bfactors is not None else [10.0] * len(atoms))
    return Pocket(atoms, bf)


class TestBuildGraph:
    def test_pair_within_cutoff(self):
        graph = build_graph(pocket_of((0, 0, 0), (3, 0, 0)), cutoff=6.0)
        assert graph.n_edges == 1  # one undirected edge, stored once
        assert set(zip(graph.edge_src, graph.edge_dst)) == {(0, 1)}

    def test_pair_beyond_cutoff(self):
        graph = build_graph(pocket_of((0, 0, 0), (7, 0, 0)), cutoff=6.0)
        assert graph.n_edges == 0

    def test_collinear_chain(self):
        graph = build_graph(pocket_of((0, 0, 0), (4, 0, 0), (8, 0, 0)), cutoff=6.0)
        pairs = set(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_origin_flags_and_cross_edges(self):
        pocket = pocket_of((0, 0, 0))
        placed = [Atom(O, (2.0, 0, 0))]
        graph = build_graph(pocket, placed, cutoff=6.0)
        assert graph.origins.tolist() == [PROTEIN, LIGAND]
        assert graph.n_edges == 1

    def test_distances_consistent(self):
        rng = np.random.default_rng(0)
        graph = build_graph(pocket_of(*rng.uniform(0, 5, (6, 3))), cutoff=6.0)
        d = np.linalg.norm(
            graph.positions[graph.edge_src] - graph.positions[graph.edge_dst], axis=1
        )
        assert np.max(np.abs(d - graph.edge_dist)) < 1e-12

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            build_graph(Pocket([], np.array([])), [], cutoff=6.0)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0])
    def test_non_positive_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            build_graph(pocket_of((0, 0, 0), (1, 0, 0)), cutoff=cutoff)

    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_edges_are_the_dense_triu_pairs(self, pocket_name):
        """Each undirected edge once, as the np.triu pairs of a dense distance
        matrix: the pocket's pairs, then pocket-ligand, then ligand-ligand,
        each run in lexicographic order, with the dense matrix's distances."""
        pocket = pocket_atoms(pocket_name)
        rng = np.random.default_rng(4)
        anchor = pocket.centroid() if pocket_name == "toy" else np.zeros(3)
        placed = [Atom(C, anchor + p) for p in rng.uniform(-2.5, 2.5, (10, 3))]
        n = len(pocket)
        for t in range(len(placed) + 1):
            positions = np.vstack([pocket.positions, *[a.position for a in placed[:t]]])
            dense = distance_matrix(positions, positions)
            src, dst = np.nonzero(np.triu(dense <= 6.0, 1))
            run = np.argsort((src >= n).astype(int) + (dst >= n), kind="stable")
            src, dst = src[run], dst[run]
            pocket_only = build_graph(pocket)
            for graph in (build_graph(pocket, placed[:t]), extend_graph(pocket_only, placed[:t])):
                assert np.array_equal(graph.edge_src, src) and np.array_equal(graph.edge_dst, dst)
                assert np.array_equal(graph.edge_dist, dense[src, dst])


class TestMessageLayer:
    def test_isolated_node_unchanged(self):
        enc = make_encoder(randomize=True)
        graph = build_graph(pocket_of((0, 0, 0), (20, 0, 0)), cutoff=6.0)
        h = np.arange(12, dtype=float).reshape(2, 6)
        out = enc.message_layer(h, graph, 0)
        assert np.array_equal(out, h)

    def test_zero_final_mlp_is_identity(self):
        # init() zeroes w2/b2, so messages vanish for every layer count
        enc = make_encoder()
        graph = build_graph(pocket_of((0, 0, 0), (2, 0, 0), (3, 0, 0)), cutoff=6.0)
        h0 = enc.initial_embeddings(graph)
        assert np.array_equal(enc.encode(graph), h0)

    def test_single_edge_hand_case(self):
        # h_dst' = h_dst + h_src * mlp(rbf(d)) with all-ones h_src
        enc = make_encoder(randomize=True)
        graph = build_graph(pocket_of((0, 0, 0), (2.5, 0, 0)), cutoff=6.0)
        h = np.vstack([np.ones(6), np.zeros(6)])
        feat = enc.edge_features(graph)
        w1 = enc.store["encoder.layer0.w1"]
        b1 = enc.store["encoder.layer0.b1"]
        w2 = enc.store["encoder.layer0.w2"]
        b2 = enc.store["encoder.layer0.b2"]
        m = np.tanh(feat[0] @ w1 + b1) @ w2 + b2
        out = enc.message_layer(h, graph, 0)
        assert np.allclose(out[1], h[1] + m, atol=1e-15)

    def test_width_mismatch(self):
        enc = make_encoder()
        graph = build_graph(pocket_of((0, 0, 0)), cutoff=6.0)
        with pytest.raises(ValueError):
            enc.message_layer(np.zeros((1, 3)), graph, 0)


class TestEncodeContext:
    def test_single_atom_returns_table_row(self):
        enc = make_encoder(randomize=True)
        graph = build_graph(pocket_of((1, 2, 3), elements=[N]), cutoff=6.0)
        expected = enc.store["encoder.embed"][PROTEIN, N]
        assert np.array_equal(enc.encode(graph)[0], expected)

    def test_element_outside_vocabulary(self):
        enc = make_encoder()
        graph = ContextGraph(
            elements=np.array([99]),
            origins=np.array([PROTEIN]),
            positions=np.zeros((1, 3)),
            edge_src=np.array([], dtype=int),
            edge_dst=np.array([], dtype=int),
            edge_dist=np.array([]),
            bfactor_weights=np.zeros(1),
        )
        with pytest.raises(VocabularyError):
            enc.encode(graph)

    def test_rigid_invariance(self):
        enc = make_encoder(randomize=True)
        rng = np.random.default_rng(2)
        pos = rng.uniform(-4, 4, size=(9, 3))
        elements = list(rng.integers(0, len(VOCAB), 9))
        bf = rng.uniform(5, 50, 9)
        base = enc.encode(build_graph(pocket_of(*pos, elements=elements, bfactors=bf)))
        worst = 0.0
        for k in range(100):
            t = RigidTransform.random(np.random.default_rng(k))
            moved = apply_rigid(t, pos)
            h = enc.encode(build_graph(pocket_of(*moved, elements=elements, bfactors=bf)))
            worst = max(worst, float(np.max(np.abs(h - base))))
        assert worst < 1e-9

    def test_permutation_equivariance(self):
        enc = make_encoder(randomize=True)
        rng = np.random.default_rng(4)
        pos = rng.uniform(-3, 3, size=(6, 3))
        elements = list(rng.integers(0, len(VOCAB), 6))
        bf = rng.uniform(5, 50, 6)
        h = enc.encode(build_graph(pocket_of(*pos, elements=elements, bfactors=bf)))
        perm = rng.permutation(6)
        hp = enc.encode(
            build_graph(
                pocket_of(
                    *pos[perm],
                    elements=[elements[p] for p in perm],
                    bfactors=bf[perm],
                )
            )
        )
        assert np.max(np.abs(hp - h[perm])) < 1e-12


class TestScatterAdd:
    @pytest.mark.parametrize(
        "index",
        [
            [4, 0, 4, 2, 2, 2, 7, 1, 0, 4],  # unsorted, repeated
            [3, 3, 3, 3],  # one row, many times
            [5],  # a single row
            [],  # nothing to add
        ],
    )
    @pytest.mark.parametrize("width", [1, 3, 32])
    def test_bit_equal_to_row_wise_add_at(self, index, width):
        rng = np.random.default_rng(len(index) * 100 + width)
        index = np.array(index, dtype=int)
        # mixed magnitudes make the result depend on the order of the additions
        rows = rng.standard_normal((len(index), width)) * 10.0 ** rng.integers(-8, 9, (len(index), 1))
        out = rng.standard_normal((8, width))
        expected = out.copy()
        np.add.at(expected, index, rows)
        scatter_add(out, index, rows)
        assert np.array_equal(out, expected)

    def test_three_dimensional_output_row_index(self):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((2, 5, 4))
        origins, elements = np.array([1, 0, 1, 1]), np.array([3, 3, 0, 3])
        rows = rng.standard_normal((4, 4))
        expected = table.copy()
        np.add.at(expected, (origins, elements), rows)
        scatter_add(table, origins * 5 + elements, rows)
        assert np.array_equal(table, expected)

    def test_non_contiguous_output_rejected(self):
        out = np.zeros((3, 8))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add(out, np.array([0, 2]), np.ones((2, 4)))


class TestBfactorGate:
    def graphs(self):
        pocket = pocket_of((0, 0, 0), (2, 0, 0), bfactors=[10.0, 40.0])
        placed = [Atom(O, (1.0, 1.0, 0.0))]
        return build_graph(pocket, placed, cutoff=6.0)

    def test_zero_gate_bit_identical_to_ungated(self):
        cfg_gated = EncoderConfig(embed_width=6, hidden_width=5, n_layers=2, bfactor_gating=True)
        cfg_plain = EncoderConfig(embed_width=6, hidden_width=5, n_layers=2, bfactor_gating=False)
        gated, plain = make_encoder(cfg_gated, randomize=True), make_encoder(cfg_plain)
        plain.store.flat[:] = gated.store.flat
        for layer in range(2):
            gated.store[f"encoder.layer{layer}.gate"][...] = 0.0
            plain.store[f"encoder.layer{layer}.gate"][...] = 0.0
        graph = self.graphs()
        assert np.array_equal(gated.encode(graph), plain.encode(graph))

    def test_nonzero_gate_changes_protein_messages(self):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=1, bfactor_gating=True)
        enc = make_encoder(cfg, randomize=True)
        graph = self.graphs()
        base = enc.encode(graph)
        enc.store["encoder.layer0.gate"][...] = 0.7
        moved = enc.encode(graph)
        assert not np.allclose(base, moved)

    def test_gate_scales_by_normalized_bfactor(self):
        # one protein source with weight w=1 (max B-factor), gate g:
        # message multiplier must be exactly (1 + g)
        cfg = EncoderConfig(embed_width=4, hidden_width=3, n_layers=1, bfactor_gating=True)
        store = ParamStore(Encoder.sections(cfg, len(VOCAB), len(BANK)))
        enc = Encoder(cfg, len(VOCAB), BANK, store)
        rng = np.random.default_rng(0)
        store.flat[:] = rng.uniform(-0.5, 0.5, size=store.size)
        pocket = pocket_of((0, 0, 0), (9, 9, 9), bfactors=[50.0, 5.0])  # w = [1, 0]
        graph = build_graph(pocket, [Atom(O, (1.5, 0, 0))], cutoff=4.0)
        store["encoder.layer0.gate"][...] = 0.0
        h0 = enc.encode(graph)
        store["encoder.layer0.gate"][...] = 0.8
        h1 = enc.encode(graph)
        table = store["encoder.embed"]
        base_msg = h0[2] - table[LIGAND, O]  # ligand node message, protein source
        assert np.allclose(h1[2] - table[LIGAND, O], 1.8 * base_msg, atol=1e-12)


class TestReadout:
    def test_single_atom(self):
        h = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(aggregate_readout(h, 0), [1, 2, 3, 1, 2, 3])

    def test_all_zero(self):
        h = np.zeros((4, 2))
        assert np.array_equal(aggregate_readout(h, 2), np.zeros(4))

    def test_two_atom_mean(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(aggregate_readout(h, 0), [1.0, 0.0, 0.5, 0.5])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            aggregate_readout(np.zeros((2, 3)), 5)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((5, 4))
        dcond = rng.standard_normal(8)
        dh = readout_backward(dcond, 5, focal=2)
        eps = 1e-7
        for i in range(5):
            for j in range(4):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += eps
                hm[i, j] -= eps
                fd = (
                    np.dot(dcond, aggregate_readout(hp, 2))
                    - np.dot(dcond, aggregate_readout(hm, 2))
                ) / (2 * eps)
                assert dh[i, j] == pytest.approx(fd, abs=1e-6)


def shell_pocket(n_atoms, seed):
    """Seeded protein-sized pocket: atoms in a 4-14 A shell around a cavity
    at the origin, with varied B-factors."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((n_atoms, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    positions = direction * rng.uniform(4.0, 14.0, size=(n_atoms, 1))
    elements = rng.choice([C, N, O], size=n_atoms).tolist()
    return pocket_of(*positions, elements=elements, bfactors=rng.uniform(5.0, 60.0, n_atoms))


CAVITY_LIGAND = [
    Atom(C, (0.0, 0.0, 0.0)),
    Atom(C, (1.5, 0.0, 0.0)),
    Atom(O, (2.2, 1.2, 0.0)),
    Atom(N, (-0.8, 1.2, 0.4)),
]


class TestFactoredReadout:
    """Given a focal, ``encode_with_cache`` never forms the last layer over
    the pocket's own edges; its readout must still equal that of a full
    encoding, and so must every row of the union of those steps."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_equals_readout_of_full_encoding(self, n_layers, gating, pocket_name):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=n_layers, bfactor_gating=gating)
        enc = make_encoder(cfg, randomize=True)
        if pocket_name == "toy":
            complex_ = toy_complex(VOCAB)
            pocket, ligand = complex_.pocket, complex_.ligand.atoms
        else:
            pocket, ligand = shell_pocket(400, seed=0), CAVITY_LIGAND
        n = len(pocket)
        encoding = enc.encode_pocket(build_graph(pocket, cutoff=6.0))
        # a second pocket, whose steps the union interleaves with the first's
        other = enc.encode_pocket(build_graph(shell_pocket(60, seed=1), cutoff=6.0))
        steps, readouts = [], []
        pocket_focal_met_both = False
        for t in range(len(ligand) + 1):
            placed = ligand[:t]
            graph = extend_graph(encoding.graph, placed, 6.0)
            h = enc.encode(build_graph(pocket, placed, cutoff=6.0))
            assert np.array_equal(enc.encode(graph, encoding), h)
            anchor = placed[0].position if placed else pocket.centroid()
            distance = np.linalg.norm(pocket.positions - anchor, axis=1)
            near, far = int(np.argmin(distance)), int(np.argmax(distance))
            for focal in (near, far, graph.n_atoms - 1):
                want = aggregate_readout(h, focal)
                got = enc.encode_with_cache(graph, encoding, focal)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                steps.append((graph, encoding.graph, focal))
                readouts.append(want)
            # a pocket focal that receives both pocket and ligand messages
            senders = partners(graph, near)
            pocket_focal_met_both |= bool(np.any(senders < n) and np.any(senders >= n))
            other_graph = extend_graph(other.graph, CAVITY_LIGAND[:t], 6.0)
            steps.append((other_graph, other.graph, other_graph.n_atoms - 1))
            readouts.append(enc.encode_with_cache(other_graph, other, other_graph.n_atoms - 1))
        assert pocket_focal_met_both
        # step 0's focal is a pocket atom that no ligand edge touches
        assert steps[0][0].n_edges == steps[0][1].n_edges and steps[0][2] < n
        union = StepUnion(steps, n_layers)
        cond, _ = enc.encode_union(union)
        want = np.array(readouts)
        assert np.max(np.abs(cond - want)) <= 1e-12 * np.max(np.abs(want))


def assert_close_to(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDenseReference:
    """The encoder's outputs, pocket prefix, pocket sums and factored readout
    included, against the order-free :func:`helpers.dense_encode` of the
    whole graph: every row of ``encode_union`` on the steps that training
    builds, ``encode`` on their graphs, and the conditioner that generation
    reads out of its kept encoding at every step."""

    def training_steps(self, dataset_name):
        if dataset_name == "toy_set":
            dataset = toy_dataset(VOCAB)
        else:
            ligand = Molecule(CAVITY_LIGAND, [])
            dataset = [ComplexEntry(pocket=shell_pocket(400, seed=0), ligand=ligand, entry_id="s")]
        return build_steps(dataset, np.random.default_rng(0), ModelConfig(vocab=VOCAB))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("dataset_name", ["toy_set", "shell400"])
    def test_union_rows_equal_dense_readouts(self, n_layers, gating, dataset_name):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=n_layers, bfactor_gating=gating)
        enc = make_encoder(cfg, randomize=True)
        steps = self.training_steps(dataset_name)
        union = StepUnion([(s.graph, s.pocket, s.focal) for s in steps], n_layers)
        cond, _ = enc.encode_union(union)
        want = np.array([aggregate_readout(dense_encode(enc, s.graph), s.focal) for s in steps])
        assert_close_to(cond, want)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("dataset_name", ["toy_set", "shell400"])
    def test_full_embeddings_equal_dense(self, n_layers, gating, dataset_name):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=n_layers, bfactor_gating=gating)
        enc = make_encoder(cfg, randomize=True)
        graphs = {id(s.graph): s.graph for s in self.training_steps(dataset_name)}.values()
        for graph in graphs:
            assert_close_to(enc.encode(graph), dense_encode(enc, graph))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_generation_conditioners_equal_dense(self, n_layers, gating, pocket_name):
        """Every conditioner that ``step`` reads out of the state's kept
        encoding, extended by one atom per placement, on the state's graph."""
        cfg = ModelConfig(
            vocab=VOCAB,
            rbf_centers=len(BANK),
            embed_width=6,
            hidden_width=5,
            encoder_layers=n_layers,
            bfactor_gating=gating,
            type_flow_layers=1,
            coord_flow_layers=1,
        )
        model = Model.initialized(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for name in model.store.section_names():
            if name.startswith("encoder."):
                model.store.set(name, rng.uniform(-0.3, 0.3, size=model.store[name].shape))
        read, real = [], model.encoder.readout

        def recording(context, focal=None):
            cond = real(context, focal)
            read.append((context.graph, focal, cond))
            return cond

        model.encoder.readout = recording
        pocket, gen_cfg = pocket_atoms(pocket_name), GenConfig(6, valence_constrained=False)
        for seed in range(4):  # between them, every count of placed atoms up to 5
            generate_ligand(model, pocket, gen_cfg, np.random.default_rng(seed))
        assert max(graph.n_atoms for graph, _, _ in read) == len(pocket) + 5
        for graph, focal, cond in read:
            assert_close_to(cond, aggregate_readout(dense_encode(model.encoder, graph), focal))


def partners(graph, atom):
    """The atoms that share an edge with ``atom``, read from both ends."""
    src, dst = graph.edge_src, graph.edge_dst
    return np.concatenate([src[dst == atom], dst[src == atom]])


def pocket_atoms(pocket_name):
    return toy_complex(VOCAB).pocket if pocket_name == "toy" else shell_pocket(400, seed=0)


def pocket_graph(pocket_name):
    return build_graph(pocket_atoms(pocket_name), cutoff=6.0)


def union_grads(enc, steps, dcond):
    """The conditioners of the union of ``steps``, (graph, pocket graph,
    focal) triples, and the parameter gradient of ``sum(dcond * cond)``
    through the union's backward pass, pocket edges included."""
    union = StepUnion(steps, enc.cfg.n_layers)
    cond, cache = enc.encode_union(union)
    grads = ParamStore(enc.store.shapes)
    enc.backward(union, cache, dcond, grads)
    return cond, grads.flat


def full_path_grads(enc, pocket, placed, focal, dcond):
    """Parameter gradient of ``dcond . readout`` through a full encoding, on
    the empty prefix: every atom a row of its own, no pocket sums."""
    graph = build_graph(pocket, placed, cutoff=6.0)
    return union_grads(enc, [(graph, enc.empty_pocket.graph, focal)], dcond[None])[1]


def prefix_grads(enc, pocket, placed, focal, dcond):
    """The same gradient through the pocket prefix and its edges' pass."""
    pocket_only = build_graph(pocket, cutoff=6.0)
    graph = extend_graph(pocket_only, placed, 6.0)
    return union_grads(enc, [(graph, pocket_only, focal)], dcond[None])[1]


def array_leaves(value) -> list[np.ndarray]:
    """Every array in ``value``, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [array for item in value for array in array_leaves(item)]
    return []


def array_shapes(value) -> list[tuple[int, ...]]:
    """The shape of every array in ``value``, through dicts, lists and tuples."""
    return [array.shape for array in array_leaves(value)]


class TestPocketPairs:
    """The pocket prefix runs its edge MLP once per undirected edge; these
    tests hold it to the directed edge list it stands for."""

    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_both_copies_of_every_edge_have_bit_equal_distances(self, pocket_name):
        """Both directions of an edge share its one stored distance, which
        equals the distance computed from either end bit for bit."""
        graph = pocket_graph(pocket_name)
        dense = distance_matrix(graph.positions, graph.positions)
        assert graph.n_edges > 0
        assert np.array_equal(graph.edge_dist, dense[graph.edge_src, graph.edge_dst])
        assert np.array_equal(graph.edge_dist, dense[graph.edge_dst, graph.edge_src])

    def test_cache_rows_are_pairs(self):
        """One row per pair in every layer's messages of a pocket's encoding,
        which keeps no hidden activations (width 5); a union pass keeps
        neither, nor any other array of the pocket's edge count, since the
        backward pass forms them again."""
        enc = make_encoder(EncoderConfig(embed_width=6, hidden_width=5, n_layers=3))
        graph = pocket_graph("shell400")
        encoding = enc.encode_pocket(graph)
        n_pairs = graph.n_edges
        assert [m.shape for m in encoding.messages] == [(n_pairs, 6)] * 3
        assert all(5 not in shape for shape in array_shapes(vars(encoding)))
        # a deeper encoder trains on the empty prefix, so the union is a two-layer one's
        enc = make_encoder(EncoderConfig(embed_width=6, hidden_width=5, n_layers=2))
        step = extend_graph(graph, CAVITY_LIGAND[:1], 6.0)
        _, cache = enc.encode_union(StepUnion([(step, graph, step.n_atoms - 1)], 2))
        shapes = array_shapes(vars(cache))
        assert shapes and all(n_pairs not in shape and 5 not in shape for shape in shapes)

    def test_pocket_messages_are_not_copied(self):
        """``encode_pocket`` keeps each layer's edge-MLP output as formed: a
        copy would cost every gradient evaluation one more array of the
        pocket's edge count per layer."""
        enc = make_encoder(randomize=True)
        formed, real = [], enc._edge_mlp

        def recording(layer, edge_feat):
            t, m = real(layer, edge_feat)
            formed.append(m)
            return t, m

        enc._edge_mlp = recording
        encoding = enc.encode_pocket(pocket_graph("shell400"))
        assert len(formed) == len(encoding.messages) == 2
        assert all(kept is m for kept, m in zip(encoding.messages, formed))

    def test_union_rows_are_the_rows_a_step_changes_or_reads(self):
        """With two layers, the union of a batch's steps keeps, per step, its
        placed atoms and only the pocket atoms that its own edges touch or
        its readout reads (the focal and the focal's partners): on the
        400-atom and the toy pocket, far fewer rows than a copy of the
        pocket per step.  Its gradient still equals the full path's."""
        enc = make_encoder(randomize=True)
        toy = toy_complex(VOCAB)
        steps, paths, bound, copied = [], [], 0, 0
        cases = ((shell_pocket(400, seed=0), CAVITY_LIGAND), (toy.pocket, toy.ligand.atoms))
        for pocket, ligand in cases:
            pocket_only = build_graph(pocket, cutoff=6.0)
            n = pocket_only.n_atoms
            near = int(np.argmin(np.linalg.norm(pocket.positions - ligand[0].position, axis=1)))
            for t in range(len(ligand)):
                graph = extend_graph(pocket_only, ligand[:t], 6.0)
                focal = graph.n_atoms - 1 if t else near
                own = graph.edge_src[pocket_only.n_edges :]
                read = {*own.tolist(), focal, *partners(graph, focal).tolist()}
                bound += t + sum(1 for atom in read if atom < n)
                copied += graph.n_atoms
                steps.append((graph, pocket_only, focal))
                paths.append((pocket, ligand[:t], focal))
        union = StepUnion(steps, 2)
        assert union.n_atoms <= bound < copied / 4
        dcond = np.random.default_rng(6).standard_normal((len(steps), 12))
        _, got = union_grads(enc, steps, dcond)
        want = sum(full_path_grads(enc, *path, row) for path, row in zip(paths, dcond))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_deep_union_extends_the_empty_prefix(self):
        """With three layers every step of a union extends the empty prefix,
        so the union's one pocket is the empty graph."""
        enc = make_encoder(EncoderConfig(embed_width=6, hidden_width=5, n_layers=3), randomize=True)
        graph = pocket_graph("toy")
        step = extend_graph(graph, CAVITY_LIGAND[:2], 6.0)
        union = StepUnion([(step, graph, step.n_atoms - 1)] * 2, 3)
        assert [p is enc.empty_pocket.graph for p in union.pockets] == [True]
        assert union.n_atoms == 2 * step.n_atoms

    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_directed_sums_are_bit_equal_to_a_directed_pass(self, pocket_name):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=2, bfactor_gating=True)
        enc = make_encoder(cfg, randomize=True)
        graph = pocket_graph(pocket_name)
        encoding = enc.encode_pocket(graph)
        h0 = enc.initial_embeddings(graph)
        # the directed edge list, both copies of every edge, source-major
        n_edges = graph.n_edges
        src = np.concatenate([graph.edge_src, graph.edge_dst])
        dst = np.concatenate([graph.edge_dst, graph.edge_src])
        order = np.lexsort((dst, src))
        src, dst, edge = src[order], dst[order], np.tile(np.arange(n_edges), 2)[order]
        gamma = 1.0 + float(enc.store["encoder.layer0.gate"]) * graph.bfactor_weights
        want = h0.copy()
        np.add.at(want, dst, h0[src] * encoding.messages[0][edge] * gamma[src, None])
        assert np.array_equal(encoding.x, want)
        want = np.zeros(h0.shape)
        np.add.at(want, src, encoding.messages[1][edge])
        assert np.array_equal(encoding.out_messages, want)

    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize(
        "positions",
        [[(0.0, 0.0, 9.0)], [(0.0, 0.0, 9.0), (0.0, 9.0, 0.0), (9.0, 0.0, 0.0)]],
        ids=["one_atom", "beyond_cutoff"],
    )
    def test_pockets_without_edges(self, positions, gating):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=2, bfactor_gating=gating)
        enc = make_encoder(cfg, randomize=True)
        pocket = pocket_of(*positions, bfactors=[10.0, 30.0, 50.0][: len(positions)])
        encoding = enc.encode_pocket(build_graph(pocket, cutoff=6.0))
        placed = CAVITY_LIGAND[:2]
        graph = extend_graph(encoding.graph, placed, 6.0)
        enc.encode_union(StepUnion([(graph, encoding.graph, 0)], 2))
        assert encoding.graph.n_edges == 0
        assert np.array_equal(
            enc.encode(graph, encoding), enc.encode(build_graph(pocket, placed, cutoff=6.0))
        )
        dcond = np.random.default_rng(2).standard_normal(12)
        for focal in (0, graph.n_atoms - 1):
            want = full_path_grads(enc, pocket, placed, focal, dcond)
            got = prefix_grads(enc, pocket, placed, focal, dcond)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_prefix(self):
        enc = make_encoder(randomize=True)
        assert enc.empty_pocket.graph.n_edges == 0
        assert enc.empty_pocket.messages[1].shape == (0, 6)
        graph = build_graph(shell_pocket(30, seed=1), CAVITY_LIGAND, cutoff=6.0)
        assert np.array_equal(enc.encode(graph, enc.empty_pocket), enc.encode(graph))
        assert np.array_equal(
            enc.encode_with_cache(graph, enc.empty_pocket, 3),
            enc.encode_with_cache(graph, None, 3),
        )

    @pytest.mark.parametrize("pocket_name", ["toy", "shell400"])
    def test_gradient_through_pairs_equals_full_path(self, pocket_name):
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=3, bfactor_gating=True)
        enc = make_encoder(cfg, randomize=True)
        if pocket_name == "toy":
            complex_ = toy_complex(VOCAB)
            pocket, placed = complex_.pocket, complex_.ligand.atoms[:2]
        else:
            pocket, placed = shell_pocket(400, seed=0), CAVITY_LIGAND[:2]
        near = int(np.argmin(np.linalg.norm(pocket.positions - placed[0].position, axis=1)))
        dcond = np.random.default_rng(5).standard_normal(12)
        for focal in (near, len(pocket) + 1):
            want = full_path_grads(enc, pocket, placed, focal, dcond)
            got = prefix_grads(enc, pocket, placed, focal, dcond)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestPocketBackwardPasses:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_pocket_encodings_are_read_only(self, n_layers):
        """``encode_union`` and ``backward`` encode every pocket graph of the
        union and read it again, but write into none of the graphs' arrays,
        nor into an encoding of each pocket made before them."""
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=n_layers, bfactor_gating=True)
        enc = make_encoder(cfg, randomize=True)
        toy = toy_complex(VOCAB)
        cases = [(toy.pocket, toy.ligand.atoms), (shell_pocket(60, seed=1), CAVITY_LIGAND)]
        steps = []
        for pocket, ligand in cases:
            pocket_only = build_graph(pocket, cutoff=6.0)
            for t in range(1, len(ligand) + 1):
                graph = extend_graph(pocket_only, ligand[:t], 6.0)
                steps += [(graph, pocket_only, 0), (graph, pocket_only, graph.n_atoms - 1)]
        union = StepUnion(steps, n_layers)
        kept = [enc.encode_pocket(graph) for graph in union.pockets]
        assert len(kept) == 2

        def arrays(encoding):
            return array_leaves(vars(encoding)) + array_leaves(vars(encoding.graph))

        before = [[a.copy() for a in arrays(k)] for k in kept]
        _, cache = enc.encode_union(union)
        dcond = np.random.default_rng(7).standard_normal((len(steps), 12))
        enc.backward(union, cache, dcond, ParamStore(enc.store.shapes))
        for k, snapshot in zip(kept, before):
            after = arrays(k)
            assert len(after) == len(snapshot) and all(map(np.array_equal, after, snapshot))

    @pytest.mark.parametrize("n_layers, passes", [(1, 0), (2, 1)])
    def test_layer0_pair_pass_runs_only_on_a_nonzero_adjoint(self, n_layers, passes):
        """With one layer the readout's adjoint never reaches layer 0's input,
        so ``backward`` runs no pass of the pocket block at layer 0; the
        gradient still equals the full path's."""
        cfg = EncoderConfig(embed_width=6, hidden_width=5, n_layers=n_layers, bfactor_gating=True)
        enc = make_encoder(cfg, randomize=True)
        complex_ = toy_complex(VOCAB)
        pocket, placed = complex_.pocket, complex_.ligand.atoms[:2]
        encoding = enc.encode_pocket(build_graph(pocket, cutoff=6.0))
        graph = extend_graph(encoding.graph, placed, 6.0)
        focal = graph.n_atoms - 1
        dcond = np.random.default_rng(4).standard_normal(12)
        grads = ParamStore(enc.store.shapes)
        union = StepUnion([(graph, encoding.graph, focal)], n_layers)
        _, cache = enc.encode_union(union)
        calls, real = [], enc._pass_backward

        def counting(*args):
            if args[0] is encoding.graph:
                calls.append(args[1])
            return real(*args)

        enc._pass_backward = counting
        enc.backward(union, cache, dcond[None], grads)
        assert calls == [0] * passes
        want = full_path_grads(enc, pocket, placed, focal, dcond)
        assert np.max(np.abs(grads.flat - want)) <= 1e-12 * np.max(np.abs(want))

    def test_each_pass_forms_its_edge_mlp_once(self):
        """``backward`` forms the edge MLP's hidden activations once per edge
        set and layer: the union's layer 0 and last layer, and the pocket's.
        The encoder is randomized, so the pocket's layer-0 pass runs."""
        enc = make_encoder(EncoderConfig(embed_width=6, hidden_width=5, n_layers=2), randomize=True)
        complex_ = toy_complex(VOCAB)
        pocket_only = build_graph(complex_.pocket, cutoff=6.0)
        steps = []
        for t in range(1, len(complex_.ligand) + 1):
            graph = extend_graph(pocket_only, complex_.ligand.atoms[:t], 6.0)
            steps.append((graph, pocket_only, graph.n_atoms - 1))
        union = StepUnion(steps, 2)
        _, cache = enc.encode_union(union)
        formed, real = [], enc._hidden

        def recording(layer, edge_feat):
            formed.append((layer, len(edge_feat)))
            return real(layer, edge_feat)

        enc._hidden = recording
        dcond = np.random.default_rng(3).standard_normal((len(steps), 12))
        enc.backward(union, cache, dcond, ParamStore(enc.store.shapes))
        union_edges, pocket_edges = union.n_edges, pocket_only.n_edges
        assert union_edges != pocket_edges
        want = [(0, union_edges), (1, union_edges), (0, pocket_edges), (1, pocket_edges)]
        assert sorted(formed) == sorted(want)


def hand_graph(edges):
    """A three-atom carbon graph with the given edges."""
    src, dst = (np.array(side, dtype=int) for side in zip(*edges))
    return ContextGraph(
        elements=np.full(3, C),
        origins=np.full(3, PROTEIN),
        positions=np.zeros((3, 3)),
        edge_src=src,
        edge_dst=dst,
        edge_dist=np.full(len(edges), 1.5),
        bfactor_weights=np.zeros(3),
    )


class TestPairGuard:
    """A context graph stores each undirected edge once, as (src, dst) with
    src < dst."""

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 0), (0, 1)],  # a self-loop
            [(0, 1), (2, 1)],  # one edge stored as (dst, src)
            [(0, 1), (1, 0)],  # one edge stored both ways
        ],
        ids=["self_loop", "reversed_edge", "both_directions"],
    )
    def test_unpairable_graph_raises(self, edges):
        with pytest.raises(ValueError, match="src < dst"):
            hand_graph(edges)

    def test_pair_list_accepted(self):
        graph = hand_graph([(0, 2), (0, 1), (1, 2)])
        assert graph.n_edges == 3
