"""Autoregressive ligand generation inside a pocket.

Atoms are placed one at a time: pick a focal context atom, sample an element
from the type flow and a focal-relative offset from the coordinate flow (both
conditioned on the encoded context), then judge the candidate by its distances
to the context alone.  A clash rejects it, the placed atoms within bond range
become its bonds, and only its partners' open valences and its own change.
Rejected placements are resampled a bounded number of times.  Generation stops
when no focal atom with open valence remains, the atom budget is reached, or
resampling is exhausted.

The pocket is encoded once per (model parameters, pocket), by
:meth:`~pocketflow.model.Model.pocket_encoding`, and each
:class:`GenerationState` keeps its molecule's encoding on it, a
:class:`~pocketflow.encoder.ContextEncoding` that it extends by each accepted
atom's edges once.  :func:`step` reads the conditioner out of it once, with
:meth:`~pocketflow.encoder.Encoder.readout` given the focal; it equals
:meth:`~pocketflow.encoder.Encoder.encode_with_cache` on the whole context bit
for bit.  From it, :func:`step` forms the type flow's Gaussian (A, M) once and
the coordinate flow's once per element drawn; every attempt samples
x = A * z + M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chem import DEFAULT_BOND_TOLERANCE, DEFAULT_CLASH_FACTOR, Atom, Bond, Molecule, Pocket
from .encoder import ContextEncoding, extend_graph
from .flows import Gaussian
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
        if not (math.isfinite(self.bond_tolerance) and self.bond_tolerance >= 0):
            raise ValueError("bond_tolerance must be finite and >= 0")


@dataclass
class GenerationState:
    """Pocket plus the molecule grown so far, with open-valence bookkeeping.

    ``encoding`` is the context's encoding under one model, started from the
    model's pocket memo on first use and extended by each atom placed since,
    one at a time.  ``placed`` only grows, and the model's parameters stay
    fixed while the molecule grows.
    """

    pocket: Pocket
    placed: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    open_valences: list[int] = field(default_factory=list)
    encoding: ContextEncoding | None = field(default=None, repr=False)

    @property
    def t(self) -> int:
        return len(self.placed)

    def encoded(self, model: Model) -> ContextEncoding:
        """The context's encoding, extended by the atoms placed since the last call."""
        if self.encoding is None:
            self.encoding = ContextEncoding.of(model.pocket_encoding(self.pocket))
        encoding, cutoff = self.encoding, model.cfg.graph_cutoff
        for atom in self.placed[encoding.graph.n_atoms - len(self.pocket) :]:
            model.encoder.extend(encoding, extend_graph(encoding.graph, [atom], cutoff))
        return encoding

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


def generate_type(
    model: Model,
    state: GenerationState,
    gaussian: Gaussian,
    rng: np.random.Generator,
    valence_constrained: bool = True,
) -> int:
    """Sample an element index from the type flow's Gaussian (A, M) at the
    step's conditioner, argmax-decoded.

    Under ``valence_constrained``, single-valence elements are masked while
    exactly one open valence slot remains among the placed atoms.
    """
    a, m = gaussian
    x = a * rng.standard_normal(a.size) + m
    single = model.cfg.vocab.max_valences == 1
    open_slots = sum(max(v, 0) for v in state.open_valences)
    if valence_constrained and open_slots == 1 and not single.all():
        x = np.where(single, -np.inf, x)  # a single-valence atom would fill the last slot
    return int(np.argmax(x))


def generate_coord(origin: np.ndarray, gaussian: Gaussian, rng: np.random.Generator) -> np.ndarray:
    """Sample the new atom position as an offset from ``origin``, the focal
    atom's position, drawn from the coordinate flow's Gaussian (A, M) at the
    step's conditioner and the drawn element."""
    a, m = gaussian
    return origin + (a * rng.standard_normal(a.size) + m)


def step(
    model: Model,
    state: GenerationState,
    rng: np.random.Generator,
    cfg: GenConfig,
) -> bool:
    """Attempt to place one atom; returns True when generation is finished.

    ``state.bonds`` must list the bonds among the placed atoms, as
    :func:`~pocketflow.chem.infer_bonds` would infer them, and
    ``state.open_valences`` their open valences; every state that
    :func:`generate_ligand` passes in does.  Only the candidate's own bonds
    can then be new, so one row of distances, from every context atom to the
    candidate, decides each attempt:

    - it is rejected when it sits closer than ``clash_factor`` times the
      covalent-radius sum to any context atom;
    - it bonds (singly) to each placed atom within the radius sum plus
      ``bond_tolerance``, the window of ``infer_bonds``;
    - each partner's open valence drops by one and the candidate's is its
      capacity less its partner count; under valence-constrained sampling
      the attempt is rejected when any is negative or a placed focal is not
      a partner.  Only an accepted attempt merges its bonds into ``state.bonds``.
    """
    if state.t >= cfg.max_atoms:
        return True
    focal = select_focal(state)
    if focal is None:
        return True
    vocab = model.cfg.vocab
    encoding = state.encoded(model)
    graph = encoding.graph
    cond = model.encoder.readout(encoding, focal)
    type_gaussian = model.type_flow.gaussian(cond)
    coord_gaussians = {}  # element -> the coordinate flow's (A, M)
    n, t = len(state.pocket), state.t
    radii = vocab.radii[graph.elements]
    for _ in range(1 + cfg.clash_retries):
        element = generate_type(model, state, type_gaussian, rng, cfg.valence_constrained)
        if element not in coord_gaussians:
            coord_cond = np.concatenate([cond, model.one_hot(element)])
            coord_gaussians[element] = model.coord_flow.gaussian(coord_cond)
        position = generate_coord(graph.positions[focal], coord_gaussians[element], rng)
        d = distance_matrix(graph.positions, position[None])[:, 0]
        rsum = radii + vocab.radii[element]
        if np.any(d < cfg.clash_factor * rsum):
            continue
        partners = np.flatnonzero(d[n:] <= rsum[n:] + cfg.bond_tolerance)
        open_valences = np.array([*state.open_valences, vocab.max_valences[element] - len(partners)])
        open_valences[partners] -= 1
        unbonded_focal = focal >= n and focal - n not in partners
        if cfg.valence_constrained and (open_valences.min() < 0 or unbonded_focal):
            continue
        state.placed = state.placed + [Atom(element, position)]
        state.bonds = sorted(state.bonds + [(int(i), t, 1) for i in partners])
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
