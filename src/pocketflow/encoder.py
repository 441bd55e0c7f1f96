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
sums), or else the encoder's empty prefix.  :meth:`Encoder.encode_pocket`
computes it once, and :func:`extend_graph` adds placed atoms at O(L*(n+L))
cost; encoding the extended graph equals a full re-encode bit for bit while
the encoder parameters stay fixed.  Generation shares one prefix across the
steps that grow a molecule, training across the steps of a trajectory within
a gradient evaluation.

Edge blocks: every message is formed by :meth:`Encoder._pass` and
back-propagated by :meth:`Encoder._pass_backward`, on a directed block (one
edge-MLP row per edge: the edges after the pocket's own) or on the pocket's
pair block.  A message weight depends on its edge's distance alone, and the
two directed copies of a pocket pair have the same distance bit for bit, so
the pair block runs each pair (i, j), i < j, both ways (every i -> j, then
every j -> i) on one row per pair (P = E/2): the RBF expansion, the edge MLP
and its backward pass run once per pair.  Its receivers ``[j; i]`` meet their
senders in increasing order, as in a source-major directed list, so the
per-atom sums equal a full encoding's bit for bit.  Backward, each edge runs
as its reverse, which has the same row: the adjoint goes into the forward
pass's receivers, in the same order, and a pair's d(loss)/d(m) is the sum of
its two rows.

Factored readout: generation and training need only the conditioner
:func:`aggregate_readout`, the focal row and the mean of the last layer's
output, and :meth:`Encoder.encode_with_cache`, given a focal, forms just those
at every depth, without the last layer's output.  Every message adds into the
mean alike, so the mean needs only each atom's summed outgoing messages (on
the pocket edges, a per-pocket sum), and the focal row only the edges into
the focal.  The readout's adjoint is the same on every row but the focal's,
and layer 0's pocket rows start from the same embeddings at every step; so
:meth:`Encoder.backward` adds each step's share of the pocket edges' adjoint
into per-pocket sums of (n, H) or (P, H) rows, and
:meth:`Encoder.pocket_backward` pushes them through the pocket edges once for
all the steps.  No per-step array then has the pocket's edge count as a size
but a middle layer's pair-block pass.  The sums are reassociated, so the
readout and gradients can move in the last ulp against a full encoding.
Every scatter goes through :func:`scatter_add`, which adds in the same order
as a row-wise ``np.add.at``.
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

    Edges are directed and stored both ways, so an undirected neighbor pair
    contributes one entry per direction.
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

    def __post_init__(self) -> None:
        self.n_atoms, self.n_edges = len(self.elements), len(self.edge_src)


def build_graph(
    pocket: Pocket,
    placed: Sequence[Atom] = (),
    cutoff: float = DEFAULT_GRAPH_CUTOFF,
) -> ContextGraph:
    """Assemble the context graph for pocket atoms followed by placed atoms.

    Undirected edges link every pair (protein-protein, protein-ligand and
    ligand-ligand alike) with distance <= cutoff.  This is the pocket-only
    graph, its edges in source-major order, extended by :func:`extend_graph`
    when atoms are placed.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if len(pocket) + len(placed) == 0:
        raise ValueError("empty context")
    n = len(pocket)
    dist = distance_matrix(pocket.positions, pocket.positions)
    src, dst = np.nonzero((dist <= cutoff) & ~np.eye(n, dtype=bool))
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
    old->new then new->any, each ordered by source then destination.  Every
    node thus meets its edges in increasing neighbour order, as in a fully
    source-major list, so the encoder's per-node sums (the forward pass and
    the scattered adjoints) match such a list bit for bit.
    """
    n, n_new = graph.n_atoms, len(placed)
    new_pos, new_elements = _atom_arrays(placed)
    positions = np.vstack([graph.positions, new_pos])
    dist = distance_matrix(new_pos, positions)  # (L, n + L)
    near = dist <= cutoff
    near[:, n:] &= ~np.eye(n_new, dtype=bool)
    old_src, new_dst = np.nonzero(near[:, :n].T)
    new_src, any_dst = np.nonzero(near)
    return ContextGraph(
        elements=np.concatenate([graph.elements, new_elements]),
        origins=np.concatenate([graph.origins, np.full(n_new, LIGAND)]),
        positions=positions,
        edge_src=np.concatenate([graph.edge_src, old_src, n + new_src]),
        edge_dst=np.concatenate([graph.edge_dst, n + new_dst, any_dst]),
        edge_dist=np.concatenate(
            [graph.edge_dist, dist[new_dst, old_src], dist[new_src, any_dst]]
        ),
        bfactor_weights=np.concatenate([graph.bfactor_weights, np.zeros(n_new)]),
    )


@dataclass(frozen=True)
class PocketEncoding:
    """The part of the forward pass that only the pocket determines; valid
    only while the encoder parameters stay fixed.

    ``messages`` has one row per undirected pocket pair, ``pair_of`` maps
    each directed pocket edge to its pair, and ``block`` is the pocket's pair
    block (see the module docstring).  ``aggregate`` and ``out_messages`` are
    sums over the directed edges, each atom's terms in the source-major order
    of a full encoding, so that a context encoded on this prefix equals its
    full encoding bit for bit.  The pocket edges into atom f are the reverses
    of f's source-major run out of it, in the same order.
    """

    graph: ContextGraph  # the pocket alone
    pair_of: np.ndarray  # (E,) the undirected pair of each directed pocket edge
    messages: list[np.ndarray]  # per layer, the edge-MLP output m per pair (P, H)
    aggregate: np.ndarray  # layer 0's output on pocket rows, before ligand messages
    out_messages: np.ndarray  # (n, H) the last layer's m summed per source atom
    # senders [i; j] and receivers [j; i], both (2, P), and the receivers'
    # flat scatter index at width H
    block: tuple[np.ndarray, np.ndarray, np.ndarray]

    def edge_messages(self, layer: int, edges: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The edge-MLP output m of layer ``layer`` on the directed pocket
        edges ``edges`` (all of them by default), one row per edge."""
        return self.messages[layer][self.pair_of[edges]]


def pair_edges(graph: ContextGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The undirected pairs of a symmetric, source-major edge list.

    Returns ``by_dst`` (the edges ordered by destination, then source, which
    for such a list is the reverse-edge index), ``pairs`` (the edges with
    source < destination, in list order: one per pair, ordered by their
    lower then higher atom) and ``pair_of`` (the pair of each edge).  Raises
    ``ValueError`` unless every edge has a reverse of the same distance and
    no edge is a self-loop, so that no edge is ever paired wrongly.  With
    ``by_dst`` a stable sort, these checks also hold the list to source-major
    order, which :meth:`Encoder.encode_pocket` relies on.
    """
    src, dst = graph.edge_src, graph.edge_dst
    by_dst = np.argsort(dst, kind="stable")
    pairs = np.flatnonzero(src < dst)
    if not (
        2 * len(pairs) == graph.n_edges
        and (src[by_dst] == dst).all()
        and (dst[by_dst] == src).all()
        and (graph.edge_dist[by_dst] == graph.edge_dist).all()
    ):
        raise ValueError(
            "pocket edges must be source-major and closed under reversal, "
            "with equal distances both ways and no self-loops"
        )
    pair_of = np.empty(graph.n_edges, dtype=int)
    pair_of[pairs] = pair_of[by_dst[pairs]] = np.arange(len(pairs))
    return by_dst, pairs, pair_of


def scatter_add(
    out: np.ndarray, index: np.ndarray, rows: np.ndarray, flat: np.ndarray | None = None
) -> np.ndarray:
    """Add each row of ``rows`` (index.shape + (w,)) into row ``index[i]`` of
    ``out`` viewed as (-1, w): ``np.add.at(out, index, rows)`` for a C-contiguous
    ``out``, as one 1-D ``np.add.at`` over flat element indices.  Every element
    receives its terms in the same order, so the result is the same bit for bit.

    Returns the flat indices, which a later scatter by the same ``index``
    and width can pass back as ``flat`` rather than build them again."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    if flat is None:
        flat = np.add.outer(index * rows.shape[-1], np.arange(rows.shape[-1])).ravel()
    np.add.at(out.reshape(-1), flat, rows.reshape(-1))
    return flat


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
        none, rows = np.zeros(0, dtype=int), np.zeros((0, cfg.embed_width))
        ends = np.zeros((2, 0), dtype=int)
        self.empty_pocket = PocketEncoding(
            ContextGraph(none, none, np.zeros((0, 3)), none, none, np.zeros(0), np.zeros(0)),
            none,
            [rows] * cfg.n_layers,
            rows,
            rows,
            (ends, ends, none),
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

    def edge_features(
        self, graph: ContextGraph, edges: np.ndarray | slice = slice(None)
    ) -> np.ndarray:
        """RBF features of the edges ``edges`` (an index array or a slice)."""
        return rbf_expand(graph.edge_dist[edges], self.bank)

    def _edge_mlp(self, layer: int, edge_feat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge MLP's hidden activations t and its output m per edge."""
        p = f"encoder.layer{layer}"
        t = np.tanh(edge_feat @ self.store[f"{p}.w1"] + self.store[f"{p}.b1"])
        return t, t @ self.store[f"{p}.w2"] + self.store[f"{p}.b2"]

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
        computed here when not given.  The pocket edges run as the pocket's
        pair block but at layer 0, whose sum on the pocket rows is read from
        ``pocket``.
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
            self._pass(h_next, h, pocket.block, pocket.messages[layer], gamma)
        self._pass(h_next, h, (graph.edge_src[start:], graph.edge_dst[start:], None), m, gamma)
        return h_next

    def _pass(
        self, out: np.ndarray, h: np.ndarray, block: tuple, m: np.ndarray, gamma: np.ndarray | None
    ) -> np.ndarray:
        """Add the messages ``gamma[u] * h[u] * m`` of every edge u -> v of
        ``block`` into row v of ``out``, each row in block order.

        ``block`` is ``(send, recv, flat)``: a directed block, with (E,)
        senders and receivers and one row of ``m`` per edge, or a pair block,
        with (2, P) ones and one row of ``m`` per pair.  ``flat`` is the flat
        scatter index of ``recv``, or None to build it; it is returned.
        """
        send, recv, flat = block
        rows = h[send]
        rows *= m
        if gamma is not None:
            rows *= gamma[send, None]
        return scatter_add(out, recv, rows, flat)

    def encode(self, graph: ContextGraph, pocket: PocketEncoding | None = None) -> np.ndarray:
        h, _ = self.encode_with_cache(graph, pocket)
        return h

    def encode_with_cache(
        self, graph: ContextGraph, pocket: PocketEncoding | None = None, focal: int | None = None
    ):
        """Embed atoms then run all message layers, keeping what backward needs.

        ``graph`` extends ``pocket.graph`` (see :meth:`encode_pocket`; by
        default the empty prefix), and the cache holds the edge features and
        edge-MLP values of the edges after the pocket's own.  Returns the
        embeddings or, given a ``focal`` atom, their :func:`aggregate_readout`,
        formed without the last layer's output (see :meth:`_last_layer_readout`).
        """
        pocket = pocket or self.empty_pocket
        edge_feat = self.edge_features(graph, slice(pocket.graph.n_edges, None))
        mlp = [self._edge_mlp(layer, edge_feat) for layer in range(self.cfg.n_layers)]
        h = self.initial_embeddings(graph)
        h_in = []
        for layer, (_, m) in enumerate(mlp[: len(mlp) - (focal is not None)]):
            h_in.append(h)
            h = self.message_layer(h, graph, layer, m, pocket)
        cache = {"edge_feat": edge_feat, "mlp": mlp, "h_in": h_in, "pocket": pocket, "focal": focal}
        if focal is None:
            return h, cache
        h_in.append(h)
        cond, cache["readout"] = self._last_layer_readout(h, graph, focal, mlp[-1][1], pocket)
        return cond, cache

    def _last_layer_readout(
        self, x: np.ndarray, graph: ContextGraph, focal: int, m: np.ndarray, pocket: PocketEncoding
    ) -> tuple[np.ndarray, tuple]:
        """:func:`aggregate_readout` of the last layer's output, from its input
        ``x`` and the edge-MLP outputs ``m`` of the edges after the pocket's.

        Every message ``gamma[src] * x[src] * m_e`` adds into the mean alike,
        so the mean needs only each atom's outgoing messages summed, which on
        the pocket edges is ``pocket.out_messages``; the focal row needs only
        the edges into the focal, on the pocket the reverses of the focal's
        source-major run.  Also returns what :meth:`_readout_backward` reads.
        """
        _check_focal(focal, len(x))
        layer, start = self.cfg.n_layers - 1, pocket.graph.n_edges
        src = graph.edge_src[start:]
        gamma = self._gamma(graph, layer)
        gx = x if gamma is None else x * gamma[:, None]
        out_m = np.zeros(x.shape)
        out_m[: len(pocket.out_messages)] = pocket.out_messages
        scatter_add(out_m, src, m)
        (into,) = (graph.edge_dst[start:] == focal).nonzero()
        lo, hi = np.searchsorted(pocket.graph.edge_src, (focal, focal + 1))
        in_pairs = pocket.pair_of[lo:hi]
        in_src = np.concatenate([pocket.graph.edge_dst[lo:hi], src[into]])
        in_m = np.concatenate([pocket.messages[layer][in_pairs], m[into]])
        row = x[focal] + (gx[in_src] * in_m).sum(axis=0)
        mean = (x + gx * out_m).mean(axis=0)
        return np.concatenate([row, mean]), (gx, out_m, into, in_pairs, in_src, in_m)

    def encode_pocket(self, graph: ContextGraph) -> tuple[PocketEncoding, dict]:
        """Encode a pocket-only graph once for reuse by every context built on
        it with :func:`extend_graph`: every layer's edge MLP, layer 0, and the
        last layer's outgoing message sums.  Also returns the cache into which
        :meth:`backward` adds the pocket's share of each step's adjoint, and
        which :meth:`pocket_backward` then reads.

        The RBF features and the edge MLP run once per undirected pair (see
        :func:`pair_edges`), and layer 0 as the pocket's pair block.
        """
        _, pairs, pair_of = pair_edges(graph)
        i, j = graph.edge_src[pairs], graph.edge_dst[pairs]
        send, recv = np.stack([i, j]), np.stack([j, i])
        edge_feat = self.edge_features(graph, pairs)
        mlp = [self._edge_mlp(layer, edge_feat) for layer in range(self.cfg.n_layers)]
        h0 = self.initial_embeddings(graph)
        aggregate = h0.copy()
        flat = self._pass(aggregate, h0, (send, recv, None), mlp[0][1], self._gamma(graph, 0))
        out_messages = np.zeros(h0.shape)
        # the edges out of an atom are those into it reversed, with the same m
        for end, part in zip(recv, np.split(flat, 2)):
            scatter_add(out_messages, end, mlp[-1][1], part)
        encoding = PocketEncoding(
            graph, pair_of, [m for _, m in mlp], aggregate, out_messages, (send, recv, flat)
        )
        cache = {
            "encoding": encoding,
            "edge_feat": edge_feat,  # (P, n_rbf)
            "mlp": mlp,  # per layer, the hidden activations t and m per pair
            "h0": h0,
            # sums over the steps on this pocket, added by ``backward``
            "g0": np.zeros(h0.shape),  # d(loss)/d(layer 0's output), pocket rows
            "dh0": np.zeros(h0.shape),  # d(loss)/d(embeddings) less layer 0's pocket block
            "last": np.zeros(h0.shape),  # gamma * x * the readout's mean adjoint
            "focal": [],  # per step, the pairs of the pocket edges into the focal and their dm
            "dm": {},  # layer -> d(loss)/d(m) per pair of a layer that ran the pair block
        }
        return encoding, cache

    # -- backward --------------------------------------------------------

    def backward(
        self,
        graph: ContextGraph,
        cache: dict,
        dh: np.ndarray,
        grads: ParamStore,
        pocket_cache: dict | None = None,
    ) -> None:
        """Accumulate d(loss)/d(params) into ``grads`` given ``dh``, the
        adjoint of what :meth:`encode_with_cache` returned: the embeddings, or
        the readout when it was given a focal.

        The pocket edges' share is left out: it is added into the sums of
        ``pocket_cache``, the cache of :meth:`encode_pocket` (needed unless
        the pocket prefix is empty), and :meth:`pocket_backward` finishes it
        once for every step that shares the pocket.
        """
        pocket = cache["pocket"]
        n, start = pocket.graph.n_atoms, pocket.graph.n_edges
        if n and pocket_cache is None:
            raise ValueError("a context on a pocket prefix needs the pocket's cache")
        g, top = dh, self.cfg.n_layers
        block = graph.edge_src[start:], graph.edge_dst[start:], None  # the edges after the pocket's
        if "readout" in cache:
            g, top = self._readout_backward(graph, cache, dh, grads, pocket_cache), top - 1
        for layer in reversed(range(top)):
            h, dx = cache["h_in"][layer], g.copy()  # the residual path
            if n and layer == 0:  # layer 0's pocket block runs in pocket_backward
                pocket_cache["g0"] += g[:n]
            elif n:
                sums, m = pocket_cache["dm"], pocket.messages[layer]
                dm = self._pass_backward(graph, layer, pocket.block, h, g, m, dx, grads)
                sums[layer] = sums[layer] + dm if layer in sums else dm
            t, m = cache["mlp"][layer]
            dm = self._pass_backward(graph, layer, block, h, g, m, dx, grads)
            self._mlp_backward(layer, cache["edge_feat"], t, dm, grads)
            g = dx
        if n:
            pocket_cache["dh0"] += g[:n]
        table = graph.origins[n:] * self.vocab_size + graph.elements[n:]
        scatter_add(grads["encoder.embed"], table, g[n:])

    def _pass_backward(
        self, graph: ContextGraph, layer: int, block: tuple, h, g, m, dh, grads: ParamStore
    ) -> np.ndarray:
        """Back through :meth:`_pass` of ``block`` at layer ``layer``, given
        its input ``h`` and d(loss)/d(out) ``g``: add the messages' share of
        d(loss)/d(h) into ``dh`` and the gate's gradient into ``grads``, and
        return d(loss)/d(m), one row per row of ``m``.

        A pair block runs each edge as its reverse, which has the same row of
        ``m``: rows ``g[send] * m`` are scattered into ``recv`` by the forward
        pass's flat index, so each atom adds its terms in increasing neighbour
        order, as over its source-major run of outgoing edges.  A pair's
        d(loss)/d(m) is the sum of its two edges' rows.
        """
        send, recv, flat = block
        if send.ndim == 2:
            send, recv = recv, send
        else:
            flat = None  # a directed block's index scatters into ``recv``
        dmsg = g[recv]
        gamma = self._gamma(graph, layer)
        if gamma is not None:
            pre = h[send]
            pre *= m
            dgamma = (dmsg * pre).sum(axis=-1)
            grads[f"encoder.layer{layer}.gate"][...] += np.sum(dgamma * graph.bfactor_weights[send])
            dmsg *= gamma[send, None]
        dm = h[send]
        dm *= dmsg
        dmsg *= m
        scatter_add(dh, send, dmsg, flat)
        return dm if dm.ndim == 2 else dm[0] + dm[1]

    def _readout_backward(
        self,
        graph: ContextGraph,
        cache: dict,
        dcond: np.ndarray,
        grads: ParamStore,
        pocket_cache: dict | None,
    ) -> np.ndarray:
        """Back through :meth:`_last_layer_readout` given d(loss)/d(readout):
        the adjoint of the last layer's output is the mean's share ``c`` on
        every row plus ``df`` on the focal's.  Adds the last layer's
        gradients but for the pocket edges' MLP, whose d(loss)/d(m) goes into
        ``pocket_cache`` per source atom, and returns d(loss)/d(x)."""
        layer = self.cfg.n_layers - 1
        pocket = cache["pocket"]
        n, start = pocket.graph.n_atoms, pocket.graph.n_edges
        gx, out_m, into, in_pairs, in_src, in_m = cache["readout"]
        width = self.cfg.embed_width
        df, c = dcond[:width], dcond[width:] / graph.n_atoms
        df_rows = gx[in_src] * df  # d(loss)/d(m) on the edges into the focal, less c
        dm = gx[graph.edge_src[start:]] * c
        dm[into] += df_rows[len(in_pairs) :]
        self._mlp_backward(layer, cache["edge_feat"], cache["mlp"][layer][0], dm, grads)
        if n:
            pocket_cache["last"] += gx[:n] * c
            pocket_cache["focal"].append((in_pairs, df_rows[: len(in_pairs)]))
        dx = out_m * c
        df_m = in_m * df
        gamma = self._gamma(graph, layer)
        if gamma is not None:
            x = cache["h_in"][layer]
            w = graph.bfactor_weights
            grads[f"encoder.layer{layer}.gate"][...] += (
                w @ (x * dx).sum(axis=1) + w[in_src] @ (x[in_src] * df_m).sum(axis=1)
            )
            dx *= gamma[:, None]
            df_m *= gamma[in_src, None]
        dx += c
        dx[cache["focal"]] += df
        dx[in_src] += df_m  # one edge per source into the focal: no repeated rows
        return dx

    def pocket_backward(self, pocket_cache: dict, grads: ParamStore) -> None:
        """Finish the pocket edges' share of the gradient, once for every step
        that :meth:`backward` added into ``pocket_cache``.  Each share is
        linear in the sums kept there, and the edge MLP's backward pass runs
        once per layer, on the pairs' summed d(loss)/d(m):

        - layer 0: the pocket rows' input embeddings ``h0`` are the same at
          every step, so the pair block's backward pass on the summed output
          adjoint ``g0`` yields, for all the steps, the pairs' d(loss)/d(m),
          the messages' share of d(loss)/d(embeddings) and the gate gradient
          (``g0`` stays zero when layer 0 is also the last layer);
        - the last layer, given a focal: d(loss)/d(m) of edge i->j is source
          i's summed term, so pair (i, j) gets ``last[i] + last[j]`` plus the
          rows of the edges into each focal;
        - any other layer: the pairs' d(loss)/d(m) that ``backward`` summed.
        """
        c = pocket_cache
        encoding, sent = c["encoding"], np.zeros(c["h0"].shape)
        graph, block, dm = encoding.graph, encoding.block, dict(c["dm"])
        dm[0] = self._pass_backward(graph, 0, block, c["h0"], c["g0"], c["mlp"][0][1], sent, grads)
        sent += c["dh0"]
        scatter_add(grads["encoder.embed"], graph.origins * self.vocab_size + graph.elements, sent)
        if c["focal"]:
            last = self.cfg.n_layers - 1
            i, j = block[0]  # each pair's ends
            d = c["last"][i] + c["last"][j]
            pairs, rows = zip(*c["focal"])
            scatter_add(d, np.concatenate(pairs), np.concatenate(rows))
            dm[last] = dm[last] + d if last in dm else d
        for layer, d in dm.items():
            self._mlp_backward(layer, c["edge_feat"], c["mlp"][layer][0], d, grads)

    def _mlp_backward(
        self, layer: int, edge_feat: np.ndarray, t: np.ndarray, dm: np.ndarray, grads: ParamStore
    ) -> None:
        """Add the edge MLP's parameter gradients given d(loss)/d(m)."""
        p = f"encoder.layer{layer}"
        grads[f"{p}.w2"][...] += t.T @ dm
        grads[f"{p}.b2"][...] += dm.sum(axis=0)
        da = (dm @ self.store[f"{p}.w2"].T) * (1.0 - t**2)
        grads[f"{p}.w1"][...] += edge_feat.T @ da
        grads[f"{p}.b1"][...] += da.sum(axis=0)


def _check_focal(focal: int, n_atoms: int) -> None:
    if not 0 <= focal < n_atoms:
        raise IndexError(f"focal index {focal} out of range for {n_atoms} atoms")


def aggregate_readout(embeddings: np.ndarray, focal: int) -> np.ndarray:
    """Fixed-width conditioner: focal embedding concatenated with the mean."""
    _check_focal(focal, len(embeddings))
    return np.concatenate([embeddings[focal], embeddings.mean(axis=0)])


def readout_backward(dcond: np.ndarray, n_atoms: int, focal: int) -> np.ndarray:
    """d(loss)/d(embeddings) given d(loss)/d(readout)."""
    width = dcond.size // 2
    dh = np.empty((n_atoms, width))
    dh[...] = dcond[width:] / n_atoms
    dh[focal] += dcond[:width]
    return dh
