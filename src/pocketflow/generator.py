"""Autoregressive ligand generation inside a pocket.

Atoms are placed one at a time: pick a focal context atom, sample an element
from the type flow and a focal-relative offset from the coordinate flow (both
conditioned on the encoded context), then judge the candidate by its distances
to the context alone.  A clash rejects it, the placed atoms within bond range
become its bonds, and the bond counts give the open valences.  Rejected
placements are resampled a bounded number of times.  Generation stops when no
focal atom with open valence remains, the atom budget is reached, or
resampling is exhausted.

The pocket is encoded once per molecule (:class:`GenerationState` keeps the
forward-only :class:`~pocketflow.encoder.PocketEncoding`) and each step only
adds the placed atoms' edges.  The conditioner comes from
:meth:`~pocketflow.encoder.Encoder.encode_with_cache` given the focal, as in
training, which forms the last layer only at the focal row and the mean.  It
equals the readout of a full re-encode of the context up to the last ulp, on
the condition that the model parameters stay fixed while one molecule grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chem import DEFAULT_BOND_TOLERANCE, DEFAULT_CLASH_FACTOR, Atom, Bond, Molecule, Pocket
from .encoder import ContextGraph, PocketEncoding, build_graph, extend_graph
from .geometry import distance_matrix
from .model import Model


@dataclass
class GenConfig:
    max_atoms: int = 24
    valence_constrained: bool = True
    clash_retries: int = 10
    clash_factor: float = DEFAULT_CLASH_FACTOR
    bond_tolerance: float = DEFAULT_BOND_TOLERANCE

    def __post_init__(self) -> None:
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")
        if self.clash_retries < 0:
            raise ValueError("clash_retries must be >= 0")
        if not 0 < self.clash_factor < 1:
            raise ValueError("clash_factor must lie in (0, 1)")
        if self.bond_tolerance < 0:
            raise ValueError("bond_tolerance must be >= 0")


@dataclass
class GenerationState:
    """Pocket plus the molecule grown so far, with open-valence bookkeeping.

    ``encoding`` caches the pocket's share of the context encoding; it is
    built on first use and assumes one model with fixed parameters.
    """

    pocket: Pocket
    placed: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    open_valences: list[int] = field(default_factory=list)
    encoding: PocketEncoding | None = field(default=None, repr=False)

    @property
    def t(self) -> int:
        return len(self.placed)

    def context(self, model: Model) -> tuple[ContextGraph, PocketEncoding]:
        """The current context graph plus the pocket encoding it extends."""
        cutoff = model.cfg.graph_cutoff
        if self.encoding is None:
            self.encoding, _ = model.encoder.encode_pocket(build_graph(self.pocket, cutoff=cutoff))
        return extend_graph(self.encoding.graph, self.placed, cutoff), self.encoding

    def molecule(self) -> Molecule:
        return Molecule(list(self.placed), list(self.bonds))


def select_focal(state: GenerationState) -> int | None:
    """Context index of the next growth anchor, or None to stop.

    Step 0 anchors on the pocket atom nearest the pocket centroid; later
    steps anchor on the placed atom with remaining valence nearest the pocket
    centroid (ties resolved toward the lowest atom index).  Context indices
    count pocket atoms first, then placed atoms in placement order.
    """
    centroid = state.pocket.centroid()
    if state.t == 0:
        d = np.linalg.norm(state.pocket.positions - centroid, axis=1)
        return int(np.argmin(d))
    candidates = [i for i, ov in enumerate(state.open_valences) if ov > 0]
    if not candidates:
        return None
    d = [float(np.linalg.norm(state.placed[i].position - centroid)) for i in candidates]
    return len(state.pocket) + candidates[int(np.argmin(d))]


def _context_condition(
    model: Model, state: GenerationState, focal: int
) -> tuple[ContextGraph, np.ndarray]:
    graph, pocket = state.context(model)
    cond, _ = model.encoder.encode_with_cache(graph, pocket, focal)
    return graph, cond


def generate_type(
    model: Model,
    state: GenerationState,
    focal: int,
    rng: np.random.Generator,
    valence_constrained: bool = True,
    cond: np.ndarray | None = None,
) -> int:
    """Sample an element index through the type flow, argmax-decoded.

    Under ``valence_constrained``, single-valence elements are masked while
    exactly one open valence slot remains among the placed atoms.
    """
    if cond is None:
        _, cond = _context_condition(model, state, focal)
    x, _ = model.type_flow.sample(cond, rng)
    single = model.cfg.vocab.max_valences == 1
    open_slots = sum(max(v, 0) for v in state.open_valences)
    if valence_constrained and open_slots == 1 and not single.all():
        x = np.where(single, -np.inf, x)  # a single-valence atom would fill the last slot
    return int(np.argmax(x))


def generate_coord(
    model: Model,
    state: GenerationState,
    focal: int,
    element: int,
    rng: np.random.Generator,
    cond: np.ndarray | None = None,
) -> np.ndarray:
    """Sample the new atom position as a flow offset from the focal atom."""
    if cond is None:
        _, cond = _context_condition(model, state, focal)
    offset, _ = model.coord_flow.sample(np.concatenate([cond, model.one_hot(element)]), rng)
    return [*state.pocket.atoms, *state.placed][focal].position + offset


def step(
    model: Model,
    state: GenerationState,
    rng: np.random.Generator,
    cfg: GenConfig,
) -> bool:
    """Attempt to place one atom; returns True when generation is finished.

    ``state.bonds`` must list the bonds among the placed atoms, as
    :func:`~pocketflow.chem.infer_bonds` would infer them; every state that
    :func:`generate_ligand` passes in does.  Only the candidate's own bonds
    can then be new, so one row of distances, from every context atom to the
    candidate, decides each attempt:

    - it is rejected when it sits closer than ``clash_factor`` times the
      covalent-radius sum to any context atom;
    - it bonds (singly) to each placed atom within the radius sum plus
      ``bond_tolerance``, the window of ``infer_bonds``;
    - under valence-constrained sampling it is rejected when the bonds it
      would form drive the placed set's total open valence negative.
    """
    if state.t >= cfg.max_atoms:
        return True
    focal = select_focal(state)
    if focal is None:
        return True
    vocab = model.cfg.vocab
    graph, cond = _context_condition(model, state, focal)
    n, t = len(state.pocket), state.t
    for _ in range(1 + cfg.clash_retries):
        element = generate_type(model, state, focal, rng, cfg.valence_constrained, cond)
        position = generate_coord(model, state, focal, element, rng, cond)
        d = distance_matrix(graph.positions, position[None])[:, 0]
        rsum = vocab.radii[graph.elements] + vocab.radii[element]
        if np.any(d < cfg.clash_factor * rsum):
            continue
        partners = np.flatnonzero(d[n:] <= rsum[n:] + cfg.bond_tolerance)
        bonds = sorted(state.bonds + [(int(i), t, 1) for i in partners])
        ends = np.array([b[:2] for b in bonds], dtype=int).ravel()
        elements = np.append(graph.elements[n:], element)
        open_valences = vocab.max_valences[elements] - np.bincount(ends, minlength=t + 1)
        if cfg.valence_constrained and open_valences.sum() < 0:
            continue
        state.placed = state.placed + [Atom(element, position)]
        state.bonds = bonds
        state.open_valences = open_valences.tolist()
        return state.t >= cfg.max_atoms
    return True  # resampling exhausted


def generate_ligand(
    model: Model,
    pocket: Pocket,
    cfg: GenConfig,
    rng: np.random.Generator,
) -> Molecule:
    """Grow a ligand until saturation, budget, or resampling failure.

    Fully deterministic given (model parameters, pocket, generator state of
    ``rng``).  Validity is *not* enforced here; score the result with the
    evaluator.
    """
    if len(pocket) == 0:
        raise ValueError("empty pocket")
    state = GenerationState(pocket=pocket)
    while not step(model, state, rng, cfg):
        pass
    return state.molecule()
