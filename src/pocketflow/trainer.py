"""Trajectory construction and exact maximum-likelihood training.

Each complex is unrolled into one autoregressive trajectory: ligand atoms
enter in nearest-first order (first the atom closest to the pocket centroid,
then whichever unplaced atom lies closest to an already placed one), and each
step records the context snapshot, the focal atom (context atom nearest the
target), the dequantized one-hot of the target element, and the target
coordinate as a focal-relative offset.  Each step's graph is a prefix of the
one graph per complex that a single :func:`~pocketflow.encoder.extend_graph`
call grows from the pocket graph: the graph generation grows atom by atom.

The loss is the mean per-step negative log-likelihood under the type and
coordinate flows; gradients are exact reverse-mode derivatives assembled from
the flow and encoder backward passes, and the optimizer is plain SGD.
:func:`nll_loss`, :func:`grad` and :func:`train` share one pass that returns
each step's loss together with the gradient of their mean.

Every step of a trajectory extends its pocket's graph, and :func:`build_steps`
builds one graph per distinct pocket (equal positions, elements and
B-factors, byte for byte), so one pass, :meth:`Encoder.encode_union`,
encodes each distinct pocket of the batch once, as a
:class:`~pocketflow.encoder.ContextEncoding` on the empty prefix, then all
the steps at once, as one disjoint union
(:class:`~pocketflow.encoder.StepUnion`).  With one or the default two
layers a step's rows in the union are its placed atoms plus only the pocket
atoms it changes or reads, and every other pocket row enters through
per-pocket sums; a deeper encoder's steps extend the empty prefix, every
atom a row of its own.  Every edge, pocket or ligand, is stored once, and
its two directions share one edge-MLP row and one row of its backward pass.
Each flow then runs once, forward and backward, over the (N, C) conditioners
of all N steps.  Last, :meth:`Encoder.backward` runs the union's backward
pass once, sums each pocket's share over its steps, and pushes the sums
through each pocket's edges once.
The union's layout derives from the steps' graphs alone: :func:`train` builds
it once for the full batch, and once per batch for mini-batches.  Sums are
reassociated against encoding every step on its own full graph and against
one flow pass per step, so the per-step losses and the gradient can move in
the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import ContextGraph, StepUnion, build_graph, extend_graph
from .geometry import distance_matrix
from .model import Model, ModelConfig
from .params import ParamStore
from .pdb import ComplexEntry

DEFAULT_DEQUANT_ALPHA = 0.25
DIVERGENCE_BOUND = 1e6  # an epoch loss above this aborts training


class NumericError(ArithmeticError):
    """Loss or gradient became non-finite."""


class TrainingDiverged(RuntimeError):
    """Loss exceeded the divergence bound; carries the partial history."""

    def __init__(self, epoch: int, loss: float, history: list[float]):
        self.history = history
        super().__init__(f"training diverged at epoch {epoch}: loss={loss:.6g}")


@dataclass
class TrajectoryStep:
    """One autoregressive target with its context: ``pocket`` or a prefix of one grown graph."""

    graph: ContextGraph  # context snapshot before this atom is placed
    focal: int  # graph node index
    target_type: np.ndarray  # dequantized one-hot, width V
    target_offset: np.ndarray  # target position minus focal position
    pocket: ContextGraph  # the pocket alone, which ``graph`` extends


@dataclass
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 0  # 0 = full batch
    seed: int = 0
    dequant_alpha: float = DEFAULT_DEQUANT_ALPHA

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # rate 0 is allowed: it freezes the parameters, useful for smoke tests
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0.0 < self.dequant_alpha <= 0.5:
            raise ValueError("dequant_alpha must lie in (0, 0.5]")


def sequentialize(
    entry: ComplexEntry,
    rng: np.random.Generator,
    cfg: ModelConfig,
    alpha: float = DEFAULT_DEQUANT_ALPHA,
    pocket: ContextGraph | None = None,  # the graph of entry.pocket, built here if None
) -> list[TrajectoryStep]:
    """Unroll one complex into per-atom training steps, nearest-first: one
    :func:`extend_graph` call grows the pocket graph by every atom but the
    last, in placement order, and step t's graph is its
    :meth:`~pocketflow.encoder.ContextGraph.prefix` of the first t atoms."""
    n = len(entry.ligand)
    if n == 0:
        raise ValueError("empty ligand")
    pocket = pocket or build_graph(entry.pocket, cutoff=cfg.graph_cutoff)
    lig_pos, p = entry.ligand.positions, pocket.n_atoms
    # each ligand atom's distances to the pocket, the ligand and the centroid
    dist = distance_matrix(lig_pos, np.vstack([pocket.positions, lig_pos, entry.pocket.centroid()]))
    # dmin: each unplaced atom's distance to its nearest placed atom
    lig, dmin = dist[:, p : p + n].copy(), np.full(n, np.inf)
    order = [int(dist[:, -1].argmin())]
    for _ in range(n - 1):
        lig[:, order[-1]] = dmin[order[-1]] = np.inf  # placed: never a candidate again
        np.minimum(dmin, lig[order[-1]], out=dmin)
        order.append(int(dmin.argmin()))
    grown = extend_graph(pocket, [entry.ligand.atoms[i] for i in order[:-1]], cfg.graph_cutoff)
    # step t's focal: the nearest of the pocket and the first t placed, in graph order
    order, rank = np.array(order), np.arange(n)
    near = dist[order, :-1]
    near[:, p:] = np.where(rank < rank[:, None], near[:, p + order], np.inf)
    focals = near.argmin(axis=1)
    offsets = lig_pos[order] - grown.positions[focals]
    if not np.isfinite(offsets).all():
        raise ValueError("non-finite target offset")
    types = rng.uniform(0.0, alpha, size=(n, len(cfg.vocab)))  # dequantized one-hots
    types[rank, entry.ligand.elements[order]] += 1.0
    graphs = [pocket] + [grown.prefix(p + t) for t in range(1, n)]
    steps = zip(graphs, focals.tolist(), types, offsets)
    return [TrajectoryStep(*step, pocket) for step in steps]


def _union(model: Model, steps: list[TrajectoryStep]) -> StepUnion:
    return StepUnion([(s.graph, s.pocket, s.focal) for s in steps], model.cfg.encoder_layers)


def _loss_and_grad(
    model: Model, steps: list[TrajectoryStep], union: StepUnion | None = None
) -> tuple[np.ndarray, ParamStore]:
    """Each step's NLL, in step order, and the exact gradient of their mean.

    ``union`` is the layout of ``steps``, built here when not given.
    :meth:`Encoder.encode_union` encodes every pocket, keeping only what the
    union reads, then the union of the steps; each flow runs once over all
    the steps' conditioners; then the encoder's backward pass runs the union,
    then each pocket's edges once, re-derived from its graph."""
    if not steps:
        raise ValueError("empty batch")
    encoder, width = model.encoder, 2 * model.cfg.embed_width
    union = union or _union(model, steps)
    cond, cache = encoder.encode_union(union)
    types = np.array([step.target_type for step in steps])
    offsets = np.array([step.target_offset for step in steps])
    element = np.eye(len(model.cfg.vocab))[types.argmax(axis=1)]
    grads = model.zero_grads()
    values, dcond = model.type_flow.nll_backward(types, cond, grads)
    nll_coord, dcoord = model.coord_flow.nll_backward(offsets, np.hstack([cond, element]), grads)
    values += nll_coord
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise NumericError(f"non-finite loss {float(bad[0])!r}")
    dcond += dcoord[:, :width]
    del cond, dcoord  # only dcond reaches the encoder's backward passes
    encoder.backward(union, cache, dcond, grads)
    grads.flat /= len(steps)
    if not np.all(np.isfinite(grads.flat)):
        raise NumericError("non-finite gradient")
    return values, grads


def _ordered_mean(values: np.ndarray) -> float:
    """Mean summed in index order (``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


def nll_loss(model: Model, steps: list[TrajectoryStep]) -> float:
    """Mean per-step negative log-likelihood.

    Runs the same pass as :func:`grad`, so it raises :class:`NumericError`
    when a step's loss or the gradient is not finite."""
    return _ordered_mean(_loss_and_grad(model, steps)[0])


def grad(model: Model, steps: list[TrajectoryStep]) -> ParamStore:
    """Exact gradient of :func:`nll_loss` with respect to every parameter."""
    return _loss_and_grad(model, steps)[1]


def build_steps(
    dataset: list[ComplexEntry],
    rng: np.random.Generator,
    cfg: ModelConfig,
    alpha: float = DEFAULT_DEQUANT_ALPHA,
) -> list[TrajectoryStep]:
    """Every complex's steps, in dataset order, on one graph per distinct pocket."""
    steps: list[TrajectoryStep] = []
    graphs: dict[tuple[bytes, ...], ContextGraph] = {}
    for entry in dataset:
        pocket = entry.pocket
        key = (pocket.positions.tobytes(), pocket.elements.tobytes(), pocket.bfactors.tobytes())
        if key not in graphs:
            graphs[key] = build_graph(pocket, cutoff=cfg.graph_cutoff)
        steps.extend(sequentialize(entry, rng, cfg, alpha, graphs[key]))
    return steps


@dataclass
class TrainResult:
    model: Model
    history: list[float] = field(default_factory=list)

    @property
    def final_nll(self) -> float:
        return self.history[-1] if self.history else float("nan")


def train(
    dataset: list[ComplexEntry],
    model_cfg: ModelConfig,
    cfg: TrainConfig,
) -> TrainResult:
    """Fit encoder and flows by full-batch (or mini-batch) SGD.

    ``history[epoch]`` is the mean of the epoch's per-step losses, summed in
    step order, each taken just before the update of its batch; with the full
    batch, ``history[0]`` is the loss of the freshly initialized model.
    Mini-batches follow a fresh permutation each epoch.  Entirely
    deterministic for a fixed seed.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    model = Model.initialized(model_cfg, rng)
    steps = build_steps(dataset, rng, model_cfg, cfg.dequant_alpha)

    history: list[float] = []
    n = len(steps)
    size = cfg.batch_size if 0 < cfg.batch_size < n else n
    full = _union(model, steps) if size == n else None  # the one full-batch layout
    values = np.empty(n)  # this epoch's per-step losses, indexed by step
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if size < n else np.arange(n)
        for start in range(0, n, size):
            batch = order[start : start + size]
            values[batch], grads = _loss_and_grad(model, [steps[i] for i in batch], full)
            model.store.flat -= cfg.learning_rate * grads.flat
        loss = _ordered_mean(values)
        history.append(loss)
        if loss > DIVERGENCE_BOUND:
            raise TrainingDiverged(epoch, loss, history)
    return TrainResult(model=model, history=history)
