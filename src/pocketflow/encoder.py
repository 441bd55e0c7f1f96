"""Distance-graph message passing over the protein pocket plus placed ligand atoms.

Nodes carry an element index and an origin flag (protein or ligand); edges
connect every atom pair within a distance cutoff.  Each layer updates node
embeddings with

    h_k <- h_k + sum_{u in N(k)} gamma_uk * h_u * MLP_l(rbf(d_uk))

where the MLP maps the RBF-expanded edge distance to an elementwise message
weight, and ``gamma_uk = 1 + g_l * w_u`` optionally emphasizes flexible
(high B-factor) protein neighbors through a learnable per-layer gate ``g_l``
and the min-max-normalized B-factor ``w_u``; the gate path is off by default
and ``g_l = 0`` reproduces the ungated update exactly.

Because messages depend on positions only through pairwise distances, the
embeddings are invariant under rigid motions of the whole context.  The
module also implements the exact reverse-mode derivative of the encoding,
used by the trainer.

Pocket prefix: every context graph extends a :class:`PocketEncoding`, the
forward-pass values that only the pocket determines (its edges' edge-MLP
outputs, the first layer's pocket rows and the last layer's outgoing message
sums) plus the sums that its steps' backward passes add into, or else the
encoder's empty prefix, the encoding of an empty graph.
:meth:`Encoder.encode_pocket` computes it once, and :func:`extend_graph`
adds placed atoms at O(L*(n+L)) cost; encoding the extended graph equals a
full re-encode bit for bit while the encoder parameters stay fixed.
Generation shares one prefix across the steps that grow a molecule, training
across the steps of a trajectory within a gradient evaluation.

Pair blocks: a graph stores each undirected edge once, as (i, j) with
i < j, and a message weight depends on its edge's distance alone, so both
directions of an edge share one edge-MLP row: the RBF expansion, the edge
MLP and its backward pass run once per edge.  Every message is formed by
:meth:`Encoder._pass` and back-propagated by :meth:`Encoder._pass_backward`
on a pair block, a run of edges sent as ``[i; j]`` and received as
``[j; i]``: every i -> j, then every j -> i.  An atom v thus meets the
edges (u, v) first, then (v, w).  A graph's edges come as the pocket's
pairs, then pocket-ligand, then ligand-ligand, each run in lexicographic
order, so v adds its terms in increasing partner order, whichever blocks
the edges are split into; the per-atom sums of a prefix encoding equal a
full encoding's bit for bit.  Backward, each edge runs as its reverse,
which has the same row: the adjoint goes into the forward pass's receivers,
in the same order, and an edge's d(loss)/d(m) is the sum of its two rows.

Factored readout: generation and training need only the conditioner
:func:`aggregate_readout`, the focal row and the mean of the last layer's
output, and :meth:`Encoder.encode_with_cache`, given a focal, forms just those
at every depth, without the last layer's output.  Every message adds into the
mean alike, so the mean needs only each atom's summed outgoing messages (on
the pocket edges, a per-pocket sum), and the focal row only the edges into
the focal.  The readout's adjoint is the same on every row but the focal's,
and layer 0's pocket rows start from the same embeddings at every step; so
:meth:`Encoder.backward` adds each step's share of the pocket edges' adjoint
into sums of (n, H) or (E, H) rows held by the pocket's encoding, and
:meth:`Encoder.pocket_backward` pushes them through the pocket edges once for
all the steps.  No per-step array then has the pocket's edge count as a size
but a middle layer's pair-block pass.  The sums are reassociated, so the
readout and gradients can move in the last ulp against a full encoding.
Every scatter goes through :func:`scatter_add`, which adds in the same order
as a row-wise ``np.add.at``.

Caches: a step's cache keeps only its own edges' RBF features and the
indices of the edges into its focal, nothing with the pocket's atom or edge
count as a size, so that a trainer can hold every step's cache at once;
:meth:`Encoder.backward` re-runs the step's edge MLP and layers from them,
bit for bit.  A pocket's encoding keeps its edges' RBF features but not the
edge MLP's hidden activations, which :meth:`Encoder.pocket_backward`
recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chem import Atom, Pocket, VocabularyError, _atom_arrays
from .geometry import RbfBank, distance_matrix, rbf_expand
from .params import ParamStore
from .pdb import normalize_bfactors

DEFAULT_GRAPH_CUTOFF = 6.0

PROTEIN, LIGAND = 0, 1


@dataclass
class ContextGraph:
    """Atoms of the conditioning context plus its distance-cutoff edge list.

    Each undirected edge is stored once, as ``(edge_src, edge_dst)`` with
    ``edge_src < edge_dst``; a graph with a self-loop or a reversed edge
    raises ``ValueError``.
    """

    elements: np.ndarray  # (n,) vocabulary indices
    origins: np.ndarray  # (n,) PROTEIN or LIGAND
    positions: np.ndarray  # (n, 3)
    edge_src: np.ndarray  # (E,)
    edge_dst: np.ndarray  # (E,)
    edge_dist: np.ndarray  # (E,)
    bfactor_weights: np.ndarray  # (n,) normalized; 0 for ligand atoms
    # plain attributes rather than properties: the encoder reads them several
    # times per layer, and at toy scale each Python call counts
    n_atoms: int = field(init=False, repr=False, compare=False)
    n_edges: int = field(init=False, repr=False, compare=False)
    # (2, E) [src; dst]: a run of edges is a view, the senders of its pair block
    edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.n_atoms, self.n_edges = len(self.elements), len(self.edge_src)
        self.edges = np.array([self.edge_src, self.edge_dst])
        self.edge_src, self.edge_dst = self.edges  # views: each list is stored once
        if (self.edge_src >= self.edge_dst).any():
            raise ValueError("each edge must be stored once, as (src, dst) with src < dst")


def _upper_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) with i < j where ``mask`` is set, in lexicographic order:
    ``np.nonzero(np.triu(mask, 1))``, without ``np.triu``'s per-call cost."""
    i, j = np.nonzero(mask)
    upper = i < j
    return i[upper], j[upper]


def build_graph(
    pocket: Pocket,
    placed: Sequence[Atom] = (),
    cutoff: float = DEFAULT_GRAPH_CUTOFF,
) -> ContextGraph:
    """Assemble the context graph for pocket atoms followed by placed atoms.

    Undirected edges link every pair (protein-protein, protein-ligand and
    ligand-ligand alike) with distance <= cutoff.  This is the pocket-only
    graph, its edges in lexicographic order, extended by :func:`extend_graph`
    when atoms are placed.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if len(pocket) + len(placed) == 0:
        raise ValueError("empty context")
    n = len(pocket)
    dist = distance_matrix(pocket.positions, pocket.positions)
    src, dst = _upper_pairs(dist <= cutoff)
    graph = ContextGraph(
        elements=pocket.elements,
        origins=np.full(n, PROTEIN),
        positions=pocket.positions,
        edge_src=src,
        edge_dst=dst,
        edge_dist=dist[src, dst],
        bfactor_weights=normalize_bfactors(pocket) if n else np.zeros(0),
    )
    return extend_graph(graph, placed, cutoff) if len(placed) else graph


def extend_graph(
    graph: ContextGraph,
    placed: Sequence[Atom],
    cutoff: float = DEFAULT_GRAPH_CUTOFF,
) -> ContextGraph:
    """``graph`` plus ``placed`` as ligand atoms, at O(L*(n+L)) distance cost.

    The edges of ``graph`` keep the head of the list; the new ones follow as
    old-new pairs, then new-new pairs, each run in lexicographic order, so
    that the encoder's per-atom sums match a full encoding bit for bit (see
    the module docstring).
    """
    n, n_new = graph.n_atoms, len(placed)
    new_pos, new_elements = _atom_arrays(placed)
    positions = np.vstack([graph.positions, new_pos])
    dist = distance_matrix(new_pos, positions)  # (L, n + L)
    near = dist <= cutoff
    old_src, new_dst = np.nonzero(near[:, :n].T)
    new_src, new_pair = _upper_pairs(near[:, n:])
    return ContextGraph(
        elements=np.concatenate([graph.elements, new_elements]),
        origins=np.concatenate([graph.origins, np.full(n_new, LIGAND)]),
        positions=positions,
        edge_src=np.concatenate([graph.edge_src, old_src, n + new_src]),
        edge_dst=np.concatenate([graph.edge_dst, n + new_dst, n + new_pair]),
        edge_dist=np.concatenate(
            [graph.edge_dist, dist[new_dst, old_src], dist[new_src, n + new_pair]]
        ),
        bfactor_weights=np.concatenate([graph.bfactor_weights, np.zeros(n_new)]),
    )


@dataclass(eq=False)
class PocketEncoding:
    """A pocket prefix: the part of the forward pass that only the pocket
    determines, valid only while the encoder parameters stay fixed, and the
    sums into which :meth:`Encoder.backward` adds each step's share of the
    pocket edges' adjoint, which :meth:`Encoder.pocket_backward` finishes.

    ``messages`` has one row per pocket edge.  ``aggregate`` and
    ``out_messages`` are per-atom sums, each atom's terms in increasing
    partner order, so that a context encoded on this prefix equals its full
    encoding bit for bit.
    """

    graph: ContextGraph  # the pocket alone
    messages: list[np.ndarray]  # per layer, the edge-MLP output m per edge (E, H)
    aggregate: np.ndarray  # layer 0's output on pocket rows, before ligand messages
    out_messages: np.ndarray  # (n, H) the last layer's m summed per atom over its edges
    edge_feat: np.ndarray  # (E, n_rbf); pocket_backward recomputes t from it
    h0: np.ndarray  # (n, H) layer 0's input embeddings
    # sums over the steps on this pocket, added by ``Encoder.backward``
    g0: np.ndarray = field(init=False)  # d(loss)/d(layer 0's output), pocket rows
    dh0: np.ndarray = field(init=False)  # d(loss)/d(embeddings) less layer 0's pocket block
    last: np.ndarray = field(init=False)  # gamma * x * the readout's mean adjoint
    # per step, the pocket edges into the focal and their d(loss)/d(m)
    focal: list = field(init=False, default_factory=list)
    # layer -> d(loss)/d(m) per edge of a layer that ran the pocket block
    dm: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.g0, self.dh0, self.last = (np.zeros(self.h0.shape) for _ in range(3))


def _out_sums(out: np.ndarray, block: np.ndarray, m: np.ndarray) -> None:
    """Add each edge's ``m`` into both its ends' rows of ``out``, the dst ends
    first, so that each atom adds its terms in increasing partner order."""
    scatter_add(out, block[::-1].ravel(), np.concatenate([m, m]))


def _last_layer_dm(
    last: np.ndarray, block: np.ndarray, edges: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The last layer's d(loss)/d(m) on ``block`` given a focal: each edge's
    ``m`` enters the readout's mean once from each end, so edge (i, j) gets
    ``last[i] + last[j]`` (``last`` is gamma * x times the mean's adjoint), and
    the edges into a focal add ``rows``."""
    dm = last[block[0]] + last[block[1]]
    scatter_add(dm, edges, rows)
    return dm


def scatter_add(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """Add each row of ``rows`` (index.shape + (w,)) into row ``index[i]`` of
    ``out`` viewed as (-1, w): ``np.add.at(out, index, rows)`` for a C-contiguous
    ``out``, as one 1-D ``np.add.at`` over flat element indices.  Every element
    receives its terms in the same order, so the result is the same bit for bit."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    flat = np.add.outer(index * rows.shape[-1], np.arange(rows.shape[-1]))
    np.add.at(out.reshape(-1), flat.ravel(), rows.reshape(-1))


@dataclass(frozen=True)
class EncoderConfig:
    embed_width: int = 32  # H
    hidden_width: int = 64
    n_layers: int = 2
    bfactor_gating: bool = False


class Encoder:
    """Message-passing encoder bound to one parameter store.

    Sections (per layer l): ``encoder.layer{l}.w1/b1/w2/b2/gate`` plus the
    ``encoder.embed`` table of shape (origin, element, H).
    """

    def __init__(
        self,
        cfg: EncoderConfig,
        vocab_size: int,
        bank: RbfBank,
        store: ParamStore,
    ):
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.bank = bank
        self.store = store
        none = np.zeros(0, dtype=int)
        self.empty_pocket = self.encode_pocket(
            ContextGraph(none, none, np.zeros((0, 3)), none, none, np.zeros(0), np.zeros(0))
        )

    @staticmethod
    def sections(cfg: EncoderConfig, vocab_size: int, n_rbf: int) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {
            "encoder.embed": (2, vocab_size, cfg.embed_width)
        }
        for layer in range(cfg.n_layers):
            out[f"encoder.layer{layer}.w1"] = (n_rbf, cfg.hidden_width)
            out[f"encoder.layer{layer}.b1"] = (cfg.hidden_width,)
            out[f"encoder.layer{layer}.w2"] = (cfg.hidden_width, cfg.embed_width)
            out[f"encoder.layer{layer}.b2"] = (cfg.embed_width,)
            out[f"encoder.layer{layer}.gate"] = ()
        return out

    def init(self, rng: np.random.Generator) -> None:
        """Uniform [-0.1, 0.1] embeddings and first MLP layers; the final MLP
        layers and B-factor gates start at zero so every layer begins as the
        identity map."""
        self.store.set(
            "encoder.embed",
            rng.uniform(-0.1, 0.1, size=self.store["encoder.embed"].shape),
        )
        for layer in range(self.cfg.n_layers):
            w1 = self.store[f"encoder.layer{layer}.w1"]
            w1[...] = rng.uniform(-0.1, 0.1, size=w1.shape)
            b1 = self.store[f"encoder.layer{layer}.b1"]
            b1[...] = rng.uniform(-0.1, 0.1, size=b1.shape)
            self.store[f"encoder.layer{layer}.w2"][...] = 0.0
            self.store[f"encoder.layer{layer}.b2"][...] = 0.0
            self.store[f"encoder.layer{layer}.gate"][...] = 0.0

    # -- forward ---------------------------------------------------------

    def _check_elements(self, graph: ContextGraph) -> None:
        if graph.n_atoms and (
            graph.elements.min() < 0 or graph.elements.max() >= self.vocab_size
        ):
            raise VocabularyError("graph contains element index outside the vocabulary")

    def initial_embeddings(self, graph: ContextGraph) -> np.ndarray:
        self._check_elements(graph)
        return self.store["encoder.embed"][graph.origins, graph.elements].copy()

    def edge_features(self, graph: ContextGraph, edges: slice = slice(None)) -> np.ndarray:
        """RBF features of the edges ``edges``."""
        return rbf_expand(graph.edge_dist[edges], self.bank)

    def _hidden(self, layer: int, edge_feat: np.ndarray) -> np.ndarray:
        """The edge MLP's hidden activations t per edge, formed in place."""
        p = f"encoder.layer{layer}"
        t = edge_feat @ self.store[f"{p}.w1"]
        t += self.store[f"{p}.b1"]
        return np.tanh(t, out=t)

    def _edge_mlp(self, layer: int, edge_feat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge MLP's hidden activations t and its output m per edge."""
        t = self._hidden(layer, edge_feat)
        m = t @ self.store[f"encoder.layer{layer}.w2"]
        m += self.store[f"encoder.layer{layer}.b2"]
        return t, m

    def _gamma(self, graph: ContextGraph, layer: int) -> np.ndarray | None:
        """Per-atom B-factor gate factors, applied to the messages each atom
        sends, or None with gating off."""
        if not self.cfg.bfactor_gating:
            return None
        # ligand atoms have weight 0, so their messages keep the factor 1
        gate = float(self.store[f"encoder.layer{layer}.gate"])
        return 1.0 + gate * graph.bfactor_weights

    def message_layer(
        self,
        h: np.ndarray,
        graph: ContextGraph,
        layer: int,
        m: np.ndarray | None = None,
        pocket: PocketEncoding | None = None,
    ) -> np.ndarray:
        """One residual message-passing update of ``graph``, which extends
        ``pocket.graph`` (by default the empty prefix).

        ``m`` holds the edge-MLP outputs of the edges after the pocket's own,
        computed here when not given.  The pocket edges run as one pair block
        but at layer 0, whose sum on the pocket rows is read from ``pocket``.
        """
        if h.shape != (graph.n_atoms, self.cfg.embed_width):
            raise ValueError(
                f"embedding shape {h.shape} does not match "
                f"({graph.n_atoms}, {self.cfg.embed_width})"
            )
        pocket = pocket or self.empty_pocket
        start = pocket.graph.n_edges
        if m is None:
            _, m = self._edge_mlp(layer, self.edge_features(graph, slice(start, None)))
        h_next = h.copy()
        gamma = self._gamma(graph, layer)
        if layer == 0:
            h_next[: pocket.graph.n_atoms] = pocket.aggregate
        else:
            self._pass(h_next, h, pocket.graph.edges, pocket.messages[layer], gamma)
        self._pass(h_next, h, graph.edges[:, start:], m, gamma)
        return h_next

    def _pass(self, out, h, block: np.ndarray, m, gamma: np.ndarray | None) -> None:
        """Add the messages ``gamma[u] * h[u] * m`` of the pair block ``block``
        (one row of ``m`` per edge, sent both ways) into the receivers' rows
        of ``out``, in block order."""
        rows = h[block]
        rows *= m
        if gamma is not None:
            rows *= gamma[block, None]
        scatter_add(out, block[::-1], rows)

    def encode(self, graph: ContextGraph, pocket: PocketEncoding | None = None) -> np.ndarray:
        h, _ = self.encode_with_cache(graph, pocket)
        return h

    def encode_with_cache(
        self, graph: ContextGraph, pocket: PocketEncoding | None = None, focal: int | None = None
    ):
        """Embed atoms then run all message layers, keeping what backward
        re-runs them from.

        ``graph`` extends ``pocket.graph`` (see :meth:`encode_pocket`; by
        default the empty prefix).  Returns the embeddings or, given a
        ``focal`` atom, their :func:`aggregate_readout`, formed without the
        last layer's output (see :meth:`_readout_terms`).  The cache holds the
        edge features of the edges after the pocket's own and the edges into
        the focal; :meth:`backward` recomputes every activation from them.
        """
        pocket = pocket or self.empty_pocket
        edge_feat = self.edge_features(graph, slice(pocket.graph.n_edges, None))
        cache = {"edge_feat": edge_feat, "pocket": pocket, "focal": focal}
        mlp, h_in = self._layer_inputs(graph, cache)
        x, m = h_in[-1], mlp[-1][1]
        if focal is None:
            return self.message_layer(x, graph, len(mlp) - 1, m, pocket), cache
        _check_focal(focal, graph.n_atoms)
        # the edges into the focal, those with dst == focal then those with
        # src == focal, are in list order (pocket edges first) and in
        # increasing partner order (see the module docstring)
        src, dst, start = graph.edge_src, graph.edge_dst, pocket.graph.n_edges
        (to_f,), (from_f,) = (dst == focal).nonzero(), (src == focal).nonzero()
        edges, in_src = np.concatenate([to_f, from_f]), np.concatenate([src[to_f], dst[from_f]])
        k = np.searchsorted(edges, start)
        cache["readout"] = (edges[k:] - start, edges[:k], in_src)  # into, in_pocket, in_src
        gx, out_m, in_m = self._readout_terms(x, graph, m, cache)
        row = x[focal] + (gx[in_src] * in_m).sum(axis=0)
        mean = (x + gx * out_m).mean(axis=0)
        return np.concatenate([row, mean]), cache

    def _layer_inputs(self, graph: ContextGraph, cache: dict) -> tuple[list, list]:
        """Every layer's edge-MLP values ``(t, m)`` and every layer's input
        embeddings, from a cache of :meth:`encode_with_cache`."""
        pocket = cache["pocket"]
        mlp = [self._edge_mlp(layer, cache["edge_feat"]) for layer in range(self.cfg.n_layers)]
        h_in = [self.initial_embeddings(graph)]
        for layer, (_, m) in enumerate(mlp[:-1]):
            h_in.append(self.message_layer(h_in[-1], graph, layer, m, pocket))
        return mlp, h_in

    def _readout_terms(self, x: np.ndarray, graph: ContextGraph, m: np.ndarray, cache: dict):
        """From the last layer's input ``x`` and the edge-MLP outputs ``m`` of
        the edges after the pocket's, what its readout needs: ``gamma * x``,
        each atom's outgoing ``m`` summed (every message adds into the mean
        alike) and the ``m`` of the edges into the focal."""
        pocket, (into, in_pocket, _) = cache["pocket"], cache["readout"]
        layer = self.cfg.n_layers - 1
        gamma = self._gamma(graph, layer)
        gx = x if gamma is None else x * gamma[:, None]
        out_m = np.zeros(x.shape)
        out_m[: len(pocket.out_messages)] = pocket.out_messages
        _out_sums(out_m, graph.edges[:, pocket.graph.n_edges :], m)
        return gx, out_m, np.concatenate([pocket.messages[layer][in_pocket], m[into]])

    def encode_pocket(self, graph: ContextGraph) -> PocketEncoding:
        """Encode a pocket-only graph once for reuse by every context built on
        it with :func:`extend_graph`: every layer's edge MLP, layer 0, and the
        last layer's outgoing message sums.
        """
        block = graph.edges
        edge_feat = self.edge_features(graph)
        messages = [self._edge_mlp(layer, edge_feat)[1] for layer in range(self.cfg.n_layers)]
        h0 = self.initial_embeddings(graph)
        aggregate = h0.copy()
        self._pass(aggregate, h0, block, messages[0], self._gamma(graph, 0))
        out_messages = np.zeros(h0.shape)
        _out_sums(out_messages, block, messages[-1])
        return PocketEncoding(graph, messages, aggregate, out_messages, edge_feat, h0)

    # -- backward --------------------------------------------------------

    def backward(self, graph: ContextGraph, cache: dict, dh: np.ndarray, grads: ParamStore) -> None:
        """Accumulate d(loss)/d(params) into ``grads`` given ``dh``, the
        adjoint of what :meth:`encode_with_cache` returned: the embeddings, or
        the readout when it was given a focal.

        The pocket edges' share is left out: it is added into the sums of
        ``cache["pocket"]``, and :meth:`pocket_backward` finishes it once for
        every step that shares the pocket.
        """
        pocket = cache["pocket"]
        n, start = pocket.graph.n_atoms, pocket.graph.n_edges
        mlp, h_in = self._layer_inputs(graph, cache)
        g, top = dh, self.cfg.n_layers
        block = graph.edges[:, start:]  # the edges after the pocket's
        if "readout" in cache:
            g = self._readout_backward(graph, cache, h_in[-1], mlp[-1], dh, grads)
            top -= 1
        for layer in reversed(range(top)):
            h, dx = h_in[layer], g.copy()  # the residual path
            if n and layer == 0:  # layer 0's pocket block runs in pocket_backward
                pocket.g0 += g[:n]
            elif n:
                sums, m = pocket.dm, pocket.messages[layer]
                dm = self._pass_backward(graph, layer, pocket.graph.edges, h, g, m, dx, grads)
                sums[layer] = sums[layer] + dm if layer in sums else dm
            t, m = mlp[layer]
            dm = self._pass_backward(graph, layer, block, h, g, m, dx, grads)
            self._mlp_backward(layer, cache["edge_feat"], t, dm, grads)
            g = dx
        if n:
            pocket.dh0 += g[:n]
        table = graph.origins[n:] * self.vocab_size + graph.elements[n:]
        scatter_add(grads["encoder.embed"], table, g[n:])

    def _pass_backward(
        self, graph: ContextGraph, layer: int, block: np.ndarray, h, g, m, dh, grads: ParamStore
    ) -> np.ndarray:
        """Back through :meth:`_pass` of ``block`` at layer ``layer``, given
        its input ``h`` and d(loss)/d(out) ``g``: add the messages' share of
        d(loss)/d(h) into ``dh`` and the gate's gradient into ``grads``, and
        return d(loss)/d(m), one row per edge.

        Each edge runs as its reverse, which has the same row of ``m``: rows
        ``g[send] * m`` are scattered into the forward pass's receivers, in
        its order, so each atom adds its terms in increasing partner order.
        An edge's d(loss)/d(m) is the sum of its two rows.
        """
        send, recv = block, block[::-1]
        dmsg = g[send]  # d(loss)/d(message) of each reverse edge recv -> send
        gamma = self._gamma(graph, layer)
        if gamma is not None:
            pre = h[recv]
            pre *= m
            dgamma = (dmsg * pre).sum(axis=-1)
            grads[f"encoder.layer{layer}.gate"][...] += np.sum(dgamma * graph.bfactor_weights[recv])
            dmsg *= gamma[recv, None]
        dm = h[recv]
        dm *= dmsg
        dmsg *= m
        scatter_add(dh, recv, dmsg)
        return dm[0] + dm[1]

    def _readout_backward(
        self, graph: ContextGraph, cache: dict, x, mlp, dcond, grads: ParamStore
    ) -> np.ndarray:
        """Back through the readout of :meth:`encode_with_cache` given the
        last layer's input ``x``, its edge-MLP values ``(t, m)`` and
        d(loss)/d(readout): the adjoint of the last layer's output is the
        mean's share ``c`` on every row plus ``df`` on the focal's.  Adds the
        last layer's gradients but for the pocket edges' MLP, whose share
        goes into the pocket's sums, and returns d(loss)/d(x)."""
        layer = self.cfg.n_layers - 1
        pocket = cache["pocket"]
        n, start = pocket.graph.n_atoms, pocket.graph.n_edges
        into, in_pocket, in_src = cache["readout"]
        gx, out_m, in_m = self._readout_terms(x, graph, mlp[1], cache)
        width = self.cfg.embed_width
        df, c = dcond[:width], dcond[width:] / graph.n_atoms
        df_rows = gx[in_src] * df  # d(loss)/d(m) on the edges into the focal, less c
        last, k = gx * c, len(in_pocket)
        dm = _last_layer_dm(last, graph.edges[:, start:], into, df_rows[k:])
        self._mlp_backward(layer, cache["edge_feat"], mlp[0], dm, grads)
        if n:
            pocket.last += last[:n]
            pocket.focal.append((in_pocket, df_rows[:k]))
        dx = out_m * c
        df_m = in_m * df
        gamma = self._gamma(graph, layer)
        if gamma is not None:
            w = graph.bfactor_weights
            grads[f"encoder.layer{layer}.gate"][...] += (
                w @ (x * dx).sum(axis=1) + w[in_src] @ (x[in_src] * df_m).sum(axis=1)
            )
            dx *= gamma[:, None]
            df_m *= gamma[in_src, None]
        dx += c
        dx[cache["focal"]] += df
        dx[in_src] += df_m  # one edge per partner into the focal: no repeated rows
        return dx

    def pocket_backward(self, pocket: PocketEncoding, grads: ParamStore) -> None:
        """Finish the pocket edges' share of the gradient, once for every step
        that :meth:`backward` added into the sums of ``pocket``.  Each share is
        linear in those sums, and the edge MLP's backward pass runs once per
        layer, on the edges' summed d(loss)/d(m):

        - layer 0: the pocket rows' input embeddings ``h0`` are the same at
          every step, so the pocket block's backward pass on the summed output
          adjoint ``g0`` yields, for all the steps, the edges' d(loss)/d(m),
          the messages' share of d(loss)/d(embeddings) and the gate gradient;
          it is skipped when ``g0`` is all zero, as when layer 0 is also the
          last layer;
        - the last layer, given a focal: :func:`_last_layer_dm` of the summed
          ``last`` and the rows of the edges into each focal;
        - any other layer: the edges' d(loss)/d(m) that ``backward`` summed.
        """
        graph, dm, sent = pocket.graph, dict(pocket.dm), np.zeros(pocket.h0.shape)
        block, feat = graph.edges, pocket.edge_feat
        if pocket.g0.any():
            m = pocket.messages[0]
            dm[0] = self._pass_backward(graph, 0, block, pocket.h0, pocket.g0, m, sent, grads)
        sent += pocket.dh0
        scatter_add(grads["encoder.embed"], graph.origins * self.vocab_size + graph.elements, sent)
        if pocket.focal:
            last = self.cfg.n_layers - 1
            edges, rows = zip(*pocket.focal)
            d = _last_layer_dm(pocket.last, block, np.concatenate(edges), np.concatenate(rows))
            dm[last] = dm[last] + d if last in dm else d
        for layer, d in dm.items():
            self._mlp_backward(layer, feat, self._hidden(layer, feat), d, grads)

    def _mlp_backward(
        self, layer: int, edge_feat: np.ndarray, t: np.ndarray, dm: np.ndarray, grads: ParamStore
    ) -> None:
        """Add the edge MLP's parameter gradients given d(loss)/d(m) and its
        hidden activations ``t``, which are overwritten."""
        p = f"encoder.layer{layer}"
        grads[f"{p}.w2"][...] += t.T @ dm
        grads[f"{p}.b2"][...] += dm.sum(axis=0)
        da = dm @ self.store[f"{p}.w2"].T
        np.square(t, out=t)
        da *= np.subtract(1.0, t, out=t)
        grads[f"{p}.w1"][...] += edge_feat.T @ da
        grads[f"{p}.b1"][...] += da.sum(axis=0)


def _check_focal(focal: int, n_atoms: int) -> None:
    if not 0 <= focal < n_atoms:
        raise IndexError(f"focal index {focal} out of range for {n_atoms} atoms")


def aggregate_readout(embeddings: np.ndarray, focal: int) -> np.ndarray:
    """Fixed-width conditioner: focal embedding concatenated with the mean."""
    _check_focal(focal, len(embeddings))
    return np.concatenate([embeddings[focal], embeddings.mean(axis=0)])
