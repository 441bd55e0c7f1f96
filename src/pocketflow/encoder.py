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

Pocket prefix: every context graph extends a pocket's encoding, the
forward-pass values that only the pocket determines (its edges' edge-MLP
outputs, the first layer's pocket rows and the last layer's outgoing message
sums), or else the encoder's empty prefix, the encoding of an empty graph.
A pocket's encoding is its :class:`ContextEncoding` on the empty prefix:
:meth:`Encoder.encode_pocket` extends the empty prefix to the pocket graph
once, and nothing writes into it after.  :func:`extend_graph` adds placed
atoms at O(L*(n+L)) cost.  Training shares one prefix across the steps of a
trajectory in a gradient evaluation, built by :meth:`Encoder.encode_union`.

Context encoding: the encoder has one forward path, in two pieces.  A
:class:`ContextEncoding` starts as a prefix and keeps what later atoms only
add to: :meth:`Encoder.extend` grows it to a graph that extends its own,
forming the new edges' edge-MLP rows at every layer, appending the new
atoms' rows and adding the new edges' layer-0 messages and last-layer
outgoing ``m`` into their ends' rows; :meth:`Encoder.readout` runs the
layers in between and reads out.  :meth:`Encoder.encode_with_cache` extends
a prefix to its graph at once; generation extends one molecule's encoding by
each accepted atom.  Both equal a full re-encode bit for bit while the
encoder parameters stay fixed: a placed atom is always the highest index,
so every atom still adds its terms in increasing partner order (see below),
and every edge's MLP row is formed as in a batch of two or more edges
(:func:`_matmul_rows`).

Pair blocks: a graph stores each undirected edge once, as (i, j) with
i < j, and a message weight depends on its edge's distance alone, so both
directions of an edge share one edge-MLP row: the RBF expansion, the edge
MLP and its backward pass run once per edge.  Every message is formed by
:meth:`Encoder._pass` and back-propagated, a whole layer of a graph at a
time, by :meth:`Encoder._pass_backward` on a pair block, a run of edges
sent as ``[i; j]`` and received as ``[j; i]``: every i -> j, then every
j -> i.  An atom v thus meets the edges (u, v) first, then (v, w).  A
graph's edges come as the pocket's pairs, in lexicographic order, then per
placed atom, in placement order, its edges to all earlier atoms with
partners ascending, whichever :func:`extend_graph` calls placed the atoms;
so v adds its terms in increasing partner order, whichever blocks the edges
are split into, and the per-atom sums of a prefix encoding equal a full
encoding's bit for bit.  Backward, each edge runs as its reverse, which has
the same row: the adjoint goes into the forward pass's receivers, in the
same order, and an edge's d(loss)/d(m) is the sum of its two rows.

Factored readout: generation and training need only the conditioner
:func:`aggregate_readout`, the focal row and the mean of the last layer's
output, and :meth:`Encoder.readout`, given a focal, forms just those at every
depth, without the last layer's output.  Every message adds into the mean
alike, so the mean needs only each atom's summed outgoing messages, which a
:class:`ContextEncoding` keeps, and the focal row only the edges into the
focal.  Every scatter goes through :func:`scatter_add`, which adds in the
same order as a row-wise ``np.add.at``.

Step union: training encodes a batch's steps as one disjoint union, a
:class:`StepUnion`.  A step's rows are its placed atoms plus only the pocket
atoms it changes or reads: the pocket ends of its own edges, its focal and
the focal's partners.  Every other pocket atom keeps its row of the pocket
alone at the last layer's input (its encoding's ``x``: the embeddings with
one layer, layer 0's output with two), so it adds the same term into every
such step's mean, and :meth:`Encoder.encode_union` adds the pocket's sum of
those terms and, on a step's own pocket rows, the difference from them.
Backward, the readout's adjoint is the mean's share ``c`` on every row of a
step plus the focal's, so such an atom's adjoint is ``c`` times a row of the
pocket alone; over the steps, a per-pocket sum of ``c``.
:meth:`Encoder.backward` runs the union once, sums each pocket's share into
(n, H) locals of the call, and then pushes them through the pocket's edges
once for all the steps.  A pocket's encoding lives only inside
:meth:`Encoder.encode_union`.  An encoder deeper than two layers, whose placed
atoms reach pocket rows two edges away by the last layer's input, trains on
the empty prefix: every atom of a step is a row of its own, and there are no
pocket sums.  The sums are reassociated, so the readout and gradients can
move in the last ulp against a full encoding.

Memory: the union's layout holds index arrays only, and between the forward
and backward passes only union-shaped arrays are kept: the union edges' RBF
features, the (U, H) inputs of the layers after the first, the last layer's
readout sums and the pocket-alone rows.  The backward pass recomputes the
edge MLP below the last layer and the embeddings, and forms what it needs of
a pocket's edges again from the pocket graph.  The union's values are
dropped before the pocket edges' passes, which run one pocket at a time.
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

    def prefix(self, n_atoms: int) -> ContextGraph:
        """The first ``n_atoms`` atoms and the edges among them, which in a graph
        grown by :func:`extend_graph` lead the edge list: every array is a view."""
        n_edges = int(np.count_nonzero(self.edge_dst < n_atoms))
        graph = object.__new__(ContextGraph)  # views: no copy, and no check to repeat
        for name in ("elements", "origins", "positions", "bfactor_weights"):
            setattr(graph, name, getattr(self, name)[:n_atoms])
        graph.edge_src, graph.edge_dst = graph.edges = self.edges[:, :n_edges]
        graph.edge_dist = self.edge_dist[:n_edges]
        graph.n_atoms, graph.n_edges = n_atoms, n_edges
        return graph


_NONE = np.zeros(0, dtype=int)
_EMPTY = ContextGraph(_NONE, _NONE, np.zeros((0, 3)), _NONE, _NONE, np.zeros(0), np.zeros(0))


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
    src, dst = np.nonzero(dist <= cutoff)
    upper = src < dst  # each pair once, in lexicographic order
    src, dst = src[upper], dst[upper]
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

    The edges of ``graph`` keep the head of the list; the new ones follow per
    placed atom, in placement order, its edges to all earlier atoms with
    partners ascending.  So growing by ``a + b`` in one call or in two gives
    the same graph, array for array, and the encoder's per-atom sums match a
    full encoding bit for bit (see the module docstring).
    """
    n, n_new = graph.n_atoms, len(placed)
    new_pos, new_elements = _atom_arrays(placed)
    positions = np.vstack([graph.positions, new_pos])
    dist = distance_matrix(new_pos, positions)  # (L, n + L)
    near = dist <= cutoff
    rank = np.arange(n_new)
    near[:, n:] &= rank[None, :] < rank[:, None]  # new-new pairs: earlier partners only
    new, partner = np.nonzero(near)
    return ContextGraph(
        elements=np.concatenate([graph.elements, new_elements]),
        origins=np.concatenate([graph.origins, np.full(n_new, LIGAND)]),
        positions=positions,
        edge_src=np.concatenate([graph.edge_src, partner]),
        edge_dst=np.concatenate([graph.edge_dst, n + new]),
        edge_dist=np.concatenate([graph.edge_dist, dist[new, partner]]),
        bfactor_weights=np.concatenate([graph.bfactor_weights, np.zeros(n_new)]),
    )


@dataclass(eq=False)
class ContextEncoding:
    """A context graph's forward-pass values that placed atoms only add to,
    on a pocket prefix: :meth:`Encoder.extend` grows it, and
    :meth:`Encoder.readout` runs the rest of the forward pass.  Its arrays
    are replaced, never written in place, so it starts on the prefix's own.

    ``x`` and ``out_messages`` are per-atom sums, each atom's terms in
    increasing partner order, so that it equals a full encoding of its graph
    bit for bit.
    """

    pocket: ContextEncoding  # the prefix it extends
    graph: ContextGraph  # extends pocket.graph
    messages: list[np.ndarray]  # per layer, m of the edges after the pocket's (E', H)
    x: np.ndarray  # (N, H) layer 0's output, or its input with one layer
    out_messages: np.ndarray  # (N, H) the last layer's m summed per atom over its edges

    @classmethod
    def of(cls, pocket: ContextEncoding) -> "ContextEncoding":
        """The encoding of ``pocket``'s graph alone, to extend."""
        messages = [m[:0] for m in pocket.messages]
        return cls(pocket, pocket.graph, messages, pocket.x, pocket.out_messages)


def _out_sums(out: np.ndarray, block: np.ndarray, m: np.ndarray) -> None:
    """Add each edge's ``m`` into both its ends' rows of ``out``, the dst ends
    first, so that each atom adds its terms in increasing partner order."""
    scatter_add(out, block[::-1].ravel(), np.concatenate([m, m]))


def scatter_add(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """Add each row of ``rows`` (index.shape + (w,)) into row ``index[i]`` of
    ``out`` viewed as (-1, w): ``np.add.at(out, index, rows)`` for a C-contiguous
    ``out``, as one 1-D ``np.add.at`` over flat element indices.  Every element
    receives its terms in the same order, so the result is the same bit for bit."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    flat = np.add.outer(index * rows.shape[-1], np.arange(rows.shape[-1]))
    np.add.at(out.reshape(-1), flat.ravel(), rows.reshape(-1))


class StepUnion:
    """The disjoint union of a batch's steps, as index arrays derived from
    their graphs alone, so that one layout serves every gradient evaluation
    of the same batch.  ``steps`` are ``(graph, pocket, focal)`` triples,
    each ``graph`` extending ``pocket``; pockets are grouped by identity, and
    :func:`~pocketflow.trainer.build_steps` gives content-equal ones one graph.

    A step's rows are its placed atoms plus only the pocket atoms it changes
    or reads: the pocket ends of its own edges, its focal and the focal's
    partners.  Every other pocket atom keeps its row of the pocket alone,
    which :meth:`Encoder.encode_union` encodes and :meth:`Encoder.backward`
    reads.  With more than two layers every step extends the empty prefix
    instead of its pocket, so ``pockets`` is that one graph.

    The rows come as every step's placed atoms, then every step's pocket
    rows; the edges as every step's own edges, those after its pocket's.
    Both keep each step's graph order, so that every row adds its terms in
    the same order as in the step's own graph.  The pockets' atoms are also
    indexed stacked, in ``pockets`` order.
    """

    def __init__(self, steps: Sequence[tuple[ContextGraph, ContextGraph, int]], n_layers: int):
        if not steps:
            raise ValueError("empty batch")
        if n_layers > 2:
            steps = [(graph, _EMPTY, focal) for graph, _, focal in steps]
        graphs, focals = [graph for graph, _, _ in steps], np.array([focal for *_, focal in steps])
        for graph, focal in zip(graphs, focals):
            _check_focal(focal, graph.n_atoms)
        pockets: dict[int, ContextGraph] = {}
        for _, pocket, _ in steps:
            pockets.setdefault(id(pocket), pocket)
        index = {key: k for k, key in enumerate(pockets)}
        self.pockets = list(pockets.values())
        self.pocket_of = np.array([index[id(pocket)] for _, pocket, _ in steps])
        self.n_steps = len(steps)
        self.atom_offsets = np.cumsum([0] + [p.n_atoms for p in self.pockets])
        self.stack_pocket = np.repeat(np.arange(len(self.pockets)), np.diff(self.atom_offsets))
        self.stack_weights = np.concatenate([p.bfactor_weights for p in self.pockets])

        # every step's atoms and own edges (those after its pocket's), numbered
        # on from the previous step's
        sizes = np.array([graph.n_atoms for graph in graphs])
        n_pocket = np.diff(self.atom_offsets)[self.pocket_of]
        start = np.array([pocket.n_edges for _, pocket, _ in steps])
        atom_step = np.repeat(np.arange(self.n_steps), sizes)
        first = np.cumsum(sizes) - sizes
        atom = np.arange(len(atom_step)) - first[atom_step]  # index in its step's graph
        own = [graph.edges[:, s:] for graph, s in zip(graphs, start)]
        edge_step = np.repeat(np.arange(self.n_steps), [e.shape[1] for e in own])
        src, dst = np.concatenate(own, axis=1) + first[edge_step]
        focal = first + focals
        # the edges into each focal in readout's order: a pocket
        # focal's pocket edges first (no other focal has any), then own edges
        ids, partners = _edges_into(focal[edge_step], src, dst)
        parts = [(ids, partners, edge_step[ids], np.ones(len(ids), dtype=bool))]
        for s in (focals < n_pocket).nonzero()[0]:
            pocket = steps[s][1]
            ids, ends = _edges_into(focals[s], pocket.edge_src, pocket.edge_dst)
            parts.append((ids, first[s] + ends, np.full(len(ids), s), np.zeros_like(ids, bool)))
        ids, partners, in_step, is_own = (np.concatenate(column) for column in zip(*parts))
        order = np.lexsort((is_own, in_step))  # stable: per step, pocket edges first
        ids, partners, in_step, is_own = ids[order], partners[order], in_step[order], is_own[order]
        in_pocket = atom < n_pocket[atom_step]
        kept = np.zeros(len(atom_step), dtype=bool)  # a pocket atom ends its own edges as src
        kept[src] = kept[partners] = kept[focal] = True
        kept &= in_pocket

        # rows: every step's placed atoms, then every step's kept pocket atoms
        atoms = np.concatenate([(~in_pocket).nonzero()[0], kept.nonzero()[0]])
        row = np.full(len(atom_step), -1)  # each graph atom's union row
        row[atoms] = np.arange(len(atoms))
        self.n_atoms, self.n_placed = len(atoms), int((~in_pocket).sum())
        self.origins = np.concatenate([graph.origins for graph in graphs])[atoms]
        self.elements = np.concatenate([graph.elements for graph in graphs])[atoms]
        self.bfactor_weights = np.concatenate([graph.bfactor_weights for graph in graphs])[atoms]
        self.row_step = atom_step[atoms]
        kept_atoms = atoms[self.n_placed :]
        kept_pocket = self.pocket_of[atom_step[kept_atoms]]
        self.pocket_rows = self.atom_offsets[kept_pocket] + atom[kept_atoms]
        self.sizes = sizes.astype(float)
        # edges: each step's own, as (2, E) union rows
        self.edges = np.array([row[src], row[dst]])
        self.edge_dist = np.concatenate([graph.edge_dist[s:] for graph, s in zip(graphs, start)])
        self.n_edges = len(self.edge_dist)
        # readout: each step's focal row and the edges into it, pocket edges first
        self.focal = row[focal]
        self.in_src, self.in_step = row[partners], in_step
        self.into, self.into_at = ids[is_own], is_own.nonzero()[0]  # own edges are union edges
        # per pocket, (index among the in-edges, pocket edge) of its focal edges
        at = (~is_own).nonzero()[0]
        pocket = self.pocket_of[in_step[at]]
        self.pocket_in = [(at[pocket == k], ids[at[pocket == k]]) for k in range(len(self.pockets))]


@dataclass(eq=False)
class UnionPass:
    """The values of :meth:`Encoder.encode_union` that :meth:`Encoder.backward`
    reads, which it drops as it goes: union-shaped arrays only, nothing of a
    pocket's edges (see the module docstring's "Memory")."""

    edge_feat: np.ndarray | None  # (E, n_rbf) the union edges' RBF features
    inputs: list[np.ndarray]  # the (U, H) input rows of every layer after the first
    x0: np.ndarray | None  # (P, H) the stacked pocket atoms' last-layer input, pocket alone
    out0: np.ndarray | None  # (P, H) and their outgoing last-layer m, summed
    out_m: np.ndarray | None  # (U, H) each row's outgoing last-layer m, summed
    in_m: np.ndarray | None  # the last-layer m of the edges into each step's focal


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
        none = np.zeros((0, cfg.embed_width))
        self.empty_pocket = ContextEncoding(None, _EMPTY, [none] * cfg.n_layers, none, none)
        self.empty_pocket.pocket = self.empty_pocket

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
        t = _matmul_rows(edge_feat, self.store[f"{p}.w1"])
        t += self.store[f"{p}.b1"]
        return np.tanh(t, out=t)

    def _edge_mlp(self, layer: int, edge_feat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge MLP's hidden activations t and its output m per edge."""
        t = self._hidden(layer, edge_feat)
        m = _matmul_rows(t, self.store[f"encoder.layer{layer}.w2"])
        m += self.store[f"encoder.layer{layer}.b2"]
        return t, m

    def _gamma(self, weights: np.ndarray, layer: int) -> np.ndarray | None:
        """Per-atom B-factor gate factors for the atoms of B-factor weights
        ``weights``, applied to the messages each atom sends, or None with
        gating off."""
        if not self.cfg.bfactor_gating:
            return None
        # ligand atoms have weight 0, so their messages keep the factor 1
        gate = float(self.store[f"encoder.layer{layer}.gate"])
        return 1.0 + gate * weights

    def message_layer(
        self,
        h: np.ndarray,
        graph: ContextGraph,
        layer: int,
        m: np.ndarray | None = None,
        pocket: ContextEncoding | None = None,
    ) -> np.ndarray:
        """One residual message-passing update of ``graph``, which extends
        ``pocket.graph`` (by default the empty prefix).

        ``m`` holds the edge-MLP outputs of the edges after the pocket's own,
        computed here when not given.  The pocket edges run first, as one pair
        block of ``pocket.messages``.
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
        gamma = self._gamma(graph.bfactor_weights, layer)
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

    def encode(self, graph: ContextGraph, pocket: ContextEncoding | None = None) -> np.ndarray:
        return self.encode_with_cache(graph, pocket)

    def encode_with_cache(
        self, graph: ContextGraph, pocket: ContextEncoding | None = None, focal: int | None = None
    ) -> np.ndarray:
        """Embed atoms then run all message layers: :meth:`extend` the
        encoding of ``pocket.graph`` (see :meth:`encode_pocket`; by default
        the empty prefix) to ``graph``, then :meth:`readout`.
        """
        context = ContextEncoding.of(pocket or self.empty_pocket)
        self.extend(context, graph)
        return self.readout(context, focal)

    def extend(self, context: ContextEncoding, graph: ContextGraph) -> None:
        """Extend ``context`` to ``graph``, which extends ``context.graph``:
        form the new edges' edge-MLP rows at every layer, append the new
        atoms' rows, and add the new edges' layer-0 messages (with more than
        one layer) and last-layer ``m`` into their ends' rows.  The new
        edges' RBF features and the input embeddings are not kept."""
        n, start = context.graph.n_atoms, context.graph.n_edges
        block = graph.edges[:, start:]
        edge_feat = self.edge_features(graph, slice(start, None))
        m = [self._edge_mlp(layer, edge_feat)[1] for layer in range(self.cfg.n_layers)]
        h0 = self.initial_embeddings(graph)
        x = np.concatenate([context.x, h0[n:]])
        if self.cfg.n_layers > 1:
            self._pass(x, h0, block, m[0], self._gamma(graph.bfactor_weights, 0))
        out_m = np.concatenate([context.out_messages, np.zeros((graph.n_atoms - n, x.shape[1]))])
        _out_sums(out_m, block, m[-1])
        if start > context.pocket.graph.n_edges:  # a first block's rows are kept, not copied
            m = [np.concatenate(pair) for pair in zip(context.messages, m)]
        context.graph, context.messages, context.x, context.out_messages = graph, m, x, out_m

    def readout(self, context: ContextEncoding, focal: int | None = None) -> np.ndarray:
        """The embeddings of ``context`` or, given a ``focal`` atom, their
        :func:`aggregate_readout`, formed without the last layer's output
        (see the module docstring)."""
        pocket, graph, m = context.pocket, context.graph, context.messages
        start, last = pocket.graph.n_edges, self.cfg.n_layers - 1
        x = context.x
        for layer in range(1, last):
            x = self.message_layer(x, graph, layer, m[layer], pocket)
        if focal is None:
            return self.message_layer(x, graph, last, m[last], pocket)
        _check_focal(focal, graph.n_atoms)
        # the edges into the focal are in list order (pocket edges first) and
        # in increasing partner order (see the module docstring)
        edges, in_src = _edges_into(focal, graph.edge_src, graph.edge_dst)
        k = np.searchsorted(edges, start)
        gamma = self._gamma(graph.bfactor_weights, last)
        gx = x if gamma is None else x * gamma[:, None]
        in_m = np.concatenate([pocket.messages[last][edges[:k]], m[last][edges[k:] - start]])
        row = x[focal] + (gx[in_src] * in_m).sum(axis=0)
        # every message adds into the mean alike, through its sender's outgoing sum
        mean = (x + gx * context.out_messages).mean(axis=0)
        return np.concatenate([row, mean])

    def encode_union(self, union: StepUnion) -> tuple[np.ndarray, UnionPass]:
        """Every step's conditioner, (S, 2H): row s equals the readout of
        :meth:`encode_with_cache` on step s, up to the reassociation of its
        mean.  It encodes each of ``union.pockets`` with :meth:`encode_pocket`,
        reads the pocket-alone rows and the ``m`` of the pocket edges into the
        steps' focals, and lets the encoding go.

        A pocket atom outside a step's rows has the row of the pocket alone
        at the last layer's input and among its outgoing messages, so its
        term of the mean is the same at every such step: the mean adds the
        pocket's sum of those terms and, on the step's own pocket rows, the
        difference from them.
        """
        last, width, placed = self.cfg.n_layers - 1, self.cfg.embed_width, union.n_placed
        kept, in_m = [], np.empty((len(union.in_src), width))  # in_m: edges into each focal
        for graph, (at, ids) in zip(union.pockets, union.pocket_in):
            pocket = self.encode_pocket(graph)
            kept.append((pocket.x, pocket.out_messages))
            in_m[at] = pocket.messages[last][ids]
        x0, out0 = (np.concatenate(rows) for rows in zip(*kept))
        del pocket, kept
        edge_feat = self.edge_features(union)
        x, inputs = self.initial_embeddings(union), []
        for layer in range(last):
            out = x.copy()
            if layer == 0:
                out[placed:] = x0[union.pocket_rows]
            gamma = self._gamma(union.bfactor_weights, layer)
            self._pass(out, x, union.edges, self._edge_mlp(layer, edge_feat)[1], gamma)
            x = out
            inputs.append(x)
        m = self._edge_mlp(last, edge_feat)[1]
        in_m[union.into_at] = m[union.into]
        out_m = np.concatenate([np.zeros((placed, width)), out0[union.pocket_rows]])
        _out_sums(out_m, union.edges, m)
        del m
        gamma = self._gamma(union.bfactor_weights, last)
        gx = x if gamma is None else x * gamma[:, None]
        row = np.zeros((union.n_steps, width))
        scatter_add(row, union.in_step, gx[union.in_src] * in_m)
        terms = gx * out_m + x  # each row's term of the mean
        gamma0 = self._gamma(union.stack_weights, last)
        alone = (x0 if gamma0 is None else x0 * gamma0[:, None]) * out0 + x0
        terms[placed:] -= alone[union.pocket_rows]
        per_pocket = np.zeros((len(union.pockets), width))
        scatter_add(per_pocket, union.stack_pocket, alone)
        mean = per_pocket[union.pocket_of]
        scatter_add(mean, union.row_step, terms)
        mean /= union.sizes[:, None]
        cache = UnionPass(edge_feat, inputs, x0, out0, out_m, in_m)
        return np.hstack([x[union.focal] + row, mean]), cache

    def encode_pocket(self, graph: ContextGraph) -> ContextEncoding:
        """Encode a pocket-only graph once for reuse, while the parameters stay
        fixed, by every context built on it with :func:`extend_graph`:
        :meth:`extend` the empty prefix to it."""
        context = ContextEncoding.of(self.empty_pocket)
        self.extend(context, graph)
        return context

    # -- backward --------------------------------------------------------

    def backward(
        self, union: StepUnion, cache: UnionPass, dcond: np.ndarray, grads: ParamStore
    ) -> None:
        """Accumulate d(loss)/d(params) into ``grads`` given ``dcond``, the
        adjoint of the conditioners of :meth:`encode_union`.

        The readout's adjoint is the mean's share ``c`` on every row of a step
        plus ``df`` on its focal's, so a pocket atom outside a step's rows
        has the adjoint ``c`` times a row of the pocket alone; summed over the
        steps, that is a per-pocket sum of ``c`` times that row.  The pocket
        edges' share is summed over each pocket's steps, and
        :meth:`_pocket_backward` finishes it once per pocket, after the union.
        The union and the pockets run each pass through one routine:
        :meth:`_pass_backward` below the last layer, :meth:`_last_backward` at it.
        """
        last, width = self.cfg.n_layers - 1, self.cfg.embed_width
        edge_feat, inputs, x0, out0 = cache.edge_feat, cache.inputs, cache.x0, cache.out0
        dx, in_m = cache.out_m, cache.in_m  # the readout sums, freed before the pocket passes
        cache.edge_feat = cache.x0 = cache.out0 = cache.out_m = cache.in_m = None
        placed, in_src = union.n_placed, union.in_src
        df, c = dcond[:, :width], dcond[:, width:] / union.sizes[:, None]
        x = inputs.pop() if last else self.initial_embeddings(union)
        gamma = self._gamma(union.bfactor_weights, last)
        gx = x if gamma is None else x * gamma[:, None]
        # the last layer's edge MLP: every message adds into its step's mean
        # from both ends, and the edges into a focal into its row
        df_rows = gx[in_src] * df[union.in_step]
        last_rows = gx * c[union.row_step]
        # the pocket atoms outside a step's rows: the sums over the steps
        # that leave each atom out of ``last`` and of d(loss)/d(x)
        gate = f"encoder.layer{last}.gate"
        gamma0 = self._gamma(union.stack_weights, last)
        per_pocket = np.zeros((len(union.pockets), width))
        scatter_add(per_pocket, union.pocket_of, c)
        c_out = per_pocket[union.stack_pocket]
        scatter_add(c_out, union.pocket_rows, -c[union.row_step[placed:]])
        outside = out0 * c_out
        if gamma0 is None:
            last_sum = x0 * c_out
        else:
            grads[gate][...] += union.stack_weights @ (x0 * outside).sum(axis=1)
            last_sum = x0 * gamma0[:, None] * c_out
            outside *= gamma0[:, None]
        outside += c_out
        del x0, out0, c_out
        scatter_add(last_sum, union.pocket_rows, last_rows[placed:])
        into = [(ids, df_rows[at]) for at, ids in union.pocket_in]  # each pocket's focal edges
        into_focal = df_rows[union.into_at]
        self._last_backward(union.edges, edge_feat, last_rows, union.into, into_focal, grads)
        del last_rows, df_rows, into_focal
        # d(loss)/d(x), from the readout sums
        dx *= c[union.row_step]
        in_m *= df[union.in_step]
        if gamma is not None:
            w = union.bfactor_weights
            grads[gate][...] += (
                w @ (x * dx).sum(axis=1) + w[in_src] @ (x[in_src] * in_m).sum(axis=1)
            )
            dx *= gamma[:, None]
            in_m *= gamma[in_src, None]
        dx += c[union.row_step]
        dx[union.focal] += df
        dx[in_src] += in_m  # one edge per partner into each focal: no repeated rows
        del x, gx, in_m
        g, g0 = dx, None
        for layer in reversed(range(last)):
            h = inputs.pop() if layer else self.initial_embeddings(union)
            if layer == 0:  # layer 0's pocket block runs in _pocket_backward
                g0 = outside.copy()
                scatter_add(g0, union.pocket_rows, g[placed:])
            # the residual path: g takes the messages' share in place, read before it adds
            self._pass_backward(union, layer, edge_feat, h, g, g, grads)
            del h
        scatter_add(outside, union.pocket_rows, g[placed:])
        table = union.origins[:placed] * self.vocab_size + union.elements[:placed]
        scatter_add(grads["encoder.embed"], table, g[:placed])
        del dx, g, edge_feat
        for k, (graph, (edges, rows)) in enumerate(zip(union.pockets, into)):
            at = slice(union.atom_offsets[k], union.atom_offsets[k + 1])
            sums = (None if g0 is None else g0[at]), outside[at], last_sum[at]
            self._pocket_backward(graph, *sums, edges, rows, grads)

    def _pass_backward(
        self, graph: ContextGraph, layer: int, edge_feat: np.ndarray, h, g, dh, grads: ParamStore
    ) -> None:
        """Back through layer ``layer``'s messages on all of ``graph``'s edges,
        one pair block of RBF features ``edge_feat``, given their input ``h``
        and d(loss)/d(out) ``g``: form the edge MLP once, add the messages'
        share of d(loss)/d(h) into ``dh``, and add the gate's and the edge
        MLP's gradients into ``grads``.

        Each edge runs as its reverse, which has the same row of ``m``: rows
        ``g[send] * m`` are scattered into the forward pass's receivers, in
        its order, so each atom adds its terms in increasing partner order.
        An edge's d(loss)/d(m) is the sum of its two rows.
        """
        t, m = self._edge_mlp(layer, edge_feat)
        send, recv = graph.edges, graph.edges[::-1]
        dmsg = g[send]  # d(loss)/d(message) of each reverse edge recv -> send
        gamma = self._gamma(graph.bfactor_weights, layer)
        if gamma is not None:
            pre = h[recv]
            pre *= m
            dgamma = (dmsg * pre).sum(axis=-1)
            grads[f"encoder.layer{layer}.gate"][...] += np.sum(dgamma * graph.bfactor_weights[recv])
            del pre
            dmsg *= gamma[recv, None]
        dm, other = h[recv[0]], h[recv[1]]
        dm *= dmsg[0]
        other *= dmsg[1]
        dm += other
        del other
        dmsg *= m
        scatter_add(dh, recv[0], dmsg[0])  # one direction at a time, in block order
        scatter_add(dh, recv[1], dmsg[1])
        del dmsg, m
        self._mlp_backward(layer, edge_feat, t, dm, grads)

    def _last_backward(
        self, block: np.ndarray, edge_feat: np.ndarray, last, edges, rows, grads: ParamStore
    ) -> None:
        """Back through the last layer's edge MLP on the pair block ``block``
        of RBF features ``edge_feat``, given a focal: each edge's ``m`` enters
        the readout's mean once from each end, so edge (i, j) gets
        d(loss)/d(m) ``last[i] + last[j]`` (``last`` is gamma * x times the
        mean's adjoint), and the edges ``edges`` into a focal add ``rows``."""
        dm = last[block[0]] + last[block[1]]
        scatter_add(dm, edges, rows)
        layer = self.cfg.n_layers - 1
        self._mlp_backward(layer, edge_feat, self._hidden(layer, edge_feat), dm, grads)

    def _pocket_backward(
        self, graph: ContextGraph, g0, dh0, last, edges, rows, grads: ParamStore
    ) -> None:
        """Finish the pocket edges' share of the gradient for every step of
        one :meth:`backward` pass on the pocket graph ``graph``, whose edges'
        RBF features and embeddings ``h0`` it forms again, given that pass's
        sums over those steps: ``g0``, d(loss)/d(layer 0's output) on the
        pocket rows (None with one layer); ``dh0``, d(loss)/d(embeddings) less
        layer 0's pocket block; ``last``, gamma * x times the readout's mean
        adjoint; and the pocket edges ``edges`` into the steps' focals with
        their ``rows``.  Each share is linear in those sums, so each layer's
        pass runs once, on the sums:

        - layer 0: the pocket rows' input embeddings ``h0`` are the same at
          every step, so :meth:`_pass_backward` on ``g0`` yields, for all the
          steps, the messages' share of d(loss)/d(embeddings) and the gate's
          and edge MLP's gradients; it is skipped when ``g0`` is all zero, as
          in a fresh model, whose flows start independent of the conditioner;
        - the last layer: :meth:`_last_backward` of ``last`` and ``rows``.

        A deeper encoder's only pocket is the empty prefix (see
        :class:`StepUnion`).
        """
        feat, h0 = self.edge_features(graph), self.initial_embeddings(graph)
        sent = np.zeros(h0.shape)
        if g0 is not None and g0.any():
            self._pass_backward(graph, 0, feat, h0, g0, sent, grads)
        sent += dh0
        scatter_add(grads["encoder.embed"], graph.origins * self.vocab_size + graph.elements, sent)
        self._last_backward(graph.edges, feat, last, edges, rows, grads)

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


def _matmul_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w``, a single row formed as in a batch of two: numpy hands a
    one-row product to gemv, whose rounding can differ from gemm's, and gemm
    forms each row alike whatever the batch."""
    if len(a) != 1:
        return a @ w
    return (np.concatenate([a, a]) @ w)[:1]


def _edges_into(focal, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the list ``(src, dst)`` into ``focal`` (one atom, or one
    per edge) as :meth:`Encoder.readout` orders them, those with
    dst == focal, then those with src == focal, each in list order; and
    their other ends."""
    (to_f,), (from_f,) = (dst == focal).nonzero(), (src == focal).nonzero()
    return np.concatenate([to_f, from_f]), np.concatenate([src[to_f], dst[from_f]])


def _check_focal(focal: int, n_atoms: int) -> None:
    if not 0 <= focal < n_atoms:
        raise IndexError(f"focal index {focal} out of range for {n_atoms} atoms")


def aggregate_readout(embeddings: np.ndarray, focal: int) -> np.ndarray:
    """Fixed-width conditioner: focal embedding concatenated with the mean."""
    _check_focal(focal, len(embeddings))
    return np.concatenate([embeddings[focal], embeddings.mean(axis=0)])
