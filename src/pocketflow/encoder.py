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
outputs and the first layer's pocket rows), or else the encoder's empty
prefix.  :meth:`Encoder.encode_pocket` computes it once, and
:func:`extend_graph` adds placed atoms at O(L*(n+L)) cost; encoding the
extended graph equals a full re-encode bit for bit while the encoder
parameters stay fixed.  Generation shares one prefix across the steps that
grow a molecule, training across the steps of a trajectory within a gradient
evaluation.  There, :meth:`Encoder.backward` returns the pocket edges'
message adjoints and :meth:`Encoder.pocket_backward` runs the edge-MLP
backward pass once on their sum: exact, since that half of the pass is
linear in the adjoint, but the summed MLP gradients can move in the last
ulp.  Every scatter goes through :func:`scatter_add`, which adds in the same
order as a row-wise ``np.add.at``, so the forward pass and the scattered
adjoints are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)


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
    only while the encoder parameters stay fixed."""

    graph: ContextGraph  # the pocket alone
    messages: list[np.ndarray]  # per layer, the edge-MLP output m on its edges
    aggregate: np.ndarray  # layer 0's output on pocket rows, before ligand messages


def scatter_add(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """Add each row of ``rows`` (n, w) into row ``index[i]`` of ``out`` viewed
    as (-1, w): ``np.add.at(out, index, rows)`` for a C-contiguous ``out``, as one
    1-D ``np.add.at`` over flat element indices.  Every element receives its
    terms in the same order, so the result is the same bit for bit."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    width = rows.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    np.add.at(out.reshape(-1), flat, rows.reshape(-1))


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
        self.empty_pocket = PocketEncoding(
            ContextGraph(none, none, np.zeros((0, 3)), none, none, np.zeros(0), np.zeros(0)),
            [rows] * cfg.n_layers,
            rows,
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

    def edge_features(self, graph: ContextGraph, start: int = 0) -> np.ndarray:
        """RBF features of the edges from index ``start`` on."""
        return rbf_expand(graph.edge_dist[start:], self.bank)

    def _edge_mlp(self, layer: int, edge_feat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge MLP's hidden activations t and its output m per edge."""
        p = f"encoder.layer{layer}"
        t = np.tanh(edge_feat @ self.store[f"{p}.w1"] + self.store[f"{p}.b1"])
        return t, t @ self.store[f"{p}.w2"] + self.store[f"{p}.b2"]

    def _gamma(self, graph: ContextGraph, layer: int) -> np.ndarray | None:
        """Per-edge B-factor gate factors, or None with gating off."""
        if not self.cfg.bfactor_gating:
            return None
        # ligand atoms have weight 0, so their edges keep the factor 1
        gate = float(self.store[f"encoder.layer{layer}.gate"])
        return 1.0 + gate * graph.bfactor_weights[graph.edge_src]

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
        computed here when not given; the pocket edges' are read from
        ``pocket``, and at layer 0 so is their whole sum on the pocket rows.
        """
        if h.shape != (graph.n_atoms, self.cfg.embed_width):
            raise ValueError(
                f"embedding shape {h.shape} does not match "
                f"({graph.n_atoms}, {self.cfg.embed_width})"
            )
        pocket = pocket or self.empty_pocket
        if m is None:
            _, m = self._edge_mlp(layer, self.edge_features(graph, pocket.graph.n_edges))
        h_next = h.copy()
        first = 0
        if layer == 0:
            h_next[: pocket.graph.n_atoms] = pocket.aggregate
            first = pocket.graph.n_edges
        msg = _times_messages(h[graph.edge_src[first:]], pocket.messages[layer][first:], m)
        gamma = self._gamma(graph, layer)
        if gamma is not None:
            msg *= gamma[first:, None]
        scatter_add(h_next, graph.edge_dst[first:], msg)
        return h_next

    def encode(self, graph: ContextGraph, pocket: PocketEncoding | None = None) -> np.ndarray:
        h, _ = self.encode_with_cache(graph, pocket)
        return h

    def encode_with_cache(self, graph: ContextGraph, pocket: PocketEncoding | None = None):
        """Embed atoms then run all message layers, keeping what backward needs.

        ``graph`` extends ``pocket.graph`` (see :meth:`encode_pocket`; by
        default the empty prefix), and the cache holds the edge features and
        edge-MLP values of the edges after the pocket's own.
        """
        pocket = pocket or self.empty_pocket
        edge_feat = self.edge_features(graph, pocket.graph.n_edges)
        mlp = [self._edge_mlp(layer, edge_feat) for layer in range(self.cfg.n_layers)]
        h = self.initial_embeddings(graph)
        h_in = []
        for layer, (_, m) in enumerate(mlp):
            h_in.append(h)
            h = self.message_layer(h, graph, layer, m, pocket)
        return h, {"edge_feat": edge_feat, "mlp": mlp, "h_in": h_in, "pocket": pocket}

    def encode_pocket(self, graph: ContextGraph) -> tuple[PocketEncoding, dict]:
        """Encode a pocket-only graph once for reuse by every context built on
        it with :func:`extend_graph`: every layer's edge MLP, plus layer 0.
        Also returns the cache that :meth:`pocket_backward` reads."""
        edge_feat = self.edge_features(graph)
        mlp = [self._edge_mlp(layer, edge_feat) for layer in range(self.cfg.n_layers)]
        aggregate = self.message_layer(self.initial_embeddings(graph), graph, 0, mlp[0][1])
        encoding = PocketEncoding(graph, [m for _, m in mlp], aggregate)
        return encoding, {"edge_feat": edge_feat, "mlp": mlp}

    # -- backward --------------------------------------------------------

    def backward(
        self, graph: ContextGraph, cache: dict, dh: np.ndarray, grads: ParamStore
    ) -> list[np.ndarray]:
        """Accumulate d(loss)/d(params) into ``grads`` given d(loss)/d(h_out).

        The pocket edges' rows of each layer's d(loss)/d(m) are returned, not
        pushed through the edge MLP; :meth:`pocket_backward` finishes their
        sum once for every step that shares the pocket.
        """
        pocket = cache["pocket"]
        start = pocket.graph.n_edges
        src, dst = graph.edge_src, graph.edge_dst
        pocket_dm = []
        g = dh
        for layer in reversed(range(self.cfg.n_layers)):
            t, m = cache["mlp"][layer]
            pocket_m = pocket.messages[layer]
            h_src = cache["h_in"][layer][src]
            dmsg = g[dst]  # (E, H)
            gamma = self._gamma(graph, layer)
            if gamma is not None:
                msg_pre = _times_messages(h_src.copy(), pocket_m, m)
                dgamma = (dmsg * msg_pre).sum(axis=1)
                grads[f"encoder.layer{layer}.gate"][...] += np.sum(dgamma * graph.bfactor_weights[src])
                dmsg *= gamma[:, None]
            dm = dmsg * h_src
            dprev = g.copy()  # residual path
            scatter_add(dprev, src, _times_messages(dmsg, pocket_m, m))

            self._mlp_backward(layer, cache["edge_feat"], t, dm[start:], grads)
            pocket_dm.insert(0, dm[:start])
            g = dprev
        scatter_add(grads["encoder.embed"], graph.origins * self.vocab_size + graph.elements, g)
        return pocket_dm

    def pocket_backward(
        self, pocket_cache: dict, pocket_dm: list[np.ndarray], grads: ParamStore
    ) -> None:
        """The edge-MLP backward pass for the pocket's own edges, given their
        d(loss)/d(m) summed over the steps that share the pocket (see
        :meth:`backward`).  One pass serves them all: this half of the
        backward pass is linear in d(loss)/d(m)."""
        for layer, ((t, _), dm) in enumerate(zip(pocket_cache["mlp"], pocket_dm)):
            self._mlp_backward(layer, pocket_cache["edge_feat"], t, dm, grads)

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


def _times_messages(rows: np.ndarray, pocket_m: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``rows`` (one per edge) times the edge messages, in place: ``pocket_m``
    on the leading pocket edges (possibly none), ``m`` on the trailing ones."""
    rows[: len(pocket_m)] *= pocket_m
    rows[len(rows) - len(m) :] *= m
    return rows


def aggregate_readout(embeddings: np.ndarray, focal: int) -> np.ndarray:
    """Fixed-width conditioner: focal embedding concatenated with the mean."""
    n = len(embeddings)
    if not 0 <= focal < n:
        raise IndexError(f"focal index {focal} out of range for {n} atoms")
    return np.concatenate([embeddings[focal], embeddings.mean(axis=0)])


def readout_backward(dcond: np.ndarray, n_atoms: int, focal: int) -> np.ndarray:
    """d(loss)/d(embeddings) given d(loss)/d(readout)."""
    width = dcond.size // 2
    dh = np.tile(dcond[width:] / n_atoms, (n_atoms, 1))
    dh[focal] += dcond[:width]
    return dh
