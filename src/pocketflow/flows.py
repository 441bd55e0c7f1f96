"""Conditional invertible transform stacks with exact log-determinants.

Each layer is an elementwise affine map whose scale and shift come from a
linear conditioner applied to the conditioning vector only:

    x_i = s_i(c) * x_{i-1} + b_i(c),    s_i = softplus(raw_i) + floor

Odd layers read their conditioner rows in reverse, so the slot that drives
dimension d alternates across layers, and an all-identity stack is the exact
identity map.  Since no layer looks at x, a K-layer stack composes to one
conditional diagonal Gaussian:

    x = A(c) * z + M(c),    A = prod_i s_i,    M_i = s_i * M_{i-1} + b_i

with z ~ N(0, I).  Depth makes the conditioner c -> (A, M) nonlinear; it does
not widen the family of densities.  The Jacobian in z is diag(A), hence
log|det J| = sum_i sum_d log s_id, the inverse is z = (x - M) / A, and
log p(x) = log N(z) - log|det J|.

Every pass runs on rows: N events against N conditioning vectors share one
conditioner matmul; the per-vector calls take the case N = 1 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamStore, sigmoid, softplus, softplus_inverse

DEFAULT_SCALE_FLOOR = 1e-4
Gaussian = tuple[np.ndarray, np.ndarray]  # (A, M) of x = A * z + M


def base_log_prob(z: np.ndarray) -> float:
    """Standard-normal log-density of a D-vector."""
    z = np.asarray(z, dtype=float)
    return float(-0.5 * z.size * math.log(2.0 * math.pi) - 0.5 * np.dot(z, z))


@dataclass
class FlowStack:
    """K conditional affine layers over an event of width D.

    Parameters live in ``{prefix}.layer{i}.w`` of shape (2D, cond_dim) and
    ``{prefix}.layer{i}.b`` of shape (2D,): the first D rows produce the raw
    scale, the last D the shift.
    """

    store: ParamStore
    prefix: str
    n_layers: int
    event_dim: int
    cond_dim: int
    scale_floor: float = DEFAULT_SCALE_FLOOR

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("need at least one layer")
        k, d = self.n_layers, self.event_dim
        self._w_names = [f"{self.prefix}.layer{i}.w" for i in range(k)]
        self._b_names = [f"{self.prefix}.layer{i}.b" for i in range(k)]
        # rows of the stacked (2KD,) conditioner output, gathered as
        # (raw | shift, layer, dimension) with odd layers reversed
        rows = np.arange(2 * k * d).reshape(k, 2, d)
        rows[1::2] = rows[1::2, :, ::-1].copy()
        self._order = rows.transpose(1, 0, 2).copy()

    @staticmethod
    def sections(
        prefix: str, n_layers: int, event_dim: int, cond_dim: int
    ) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}
        for i in range(n_layers):
            out[f"{prefix}.layer{i}.w"] = (2 * event_dim, cond_dim)
            out[f"{prefix}.layer{i}.b"] = (2 * event_dim,)
        return out

    def init(self) -> None:
        """Start every layer at the identity: zero conditioner weights, raw-scale
        bias solving softplus(raw) + floor = 1, zero shift."""
        raw_identity = softplus_inverse(1.0 - self.scale_floor)
        for w_name, b_name in zip(self._w_names, self._b_names):
            self.store[w_name][...] = 0.0
            b = self.store[b_name]
            b[: self.event_dim] = raw_identity
            b[self.event_dim :] = 0.0

    @classmethod
    def create(
        cls,
        n_layers: int,
        event_dim: int,
        cond_dim: int,
        prefix: str = "flow",
        scale_floor: float = DEFAULT_SCALE_FLOOR,
    ) -> "FlowStack":
        """Standalone stack with its own parameter store, identity-initialized."""
        store = ParamStore(cls.sections(prefix, n_layers, event_dim, cond_dim))
        stack = cls(store, prefix, n_layers, event_dim, cond_dim, scale_floor)
        stack.init()
        return stack

    # -- the closed form ------------------------------------------------------

    def _rows(self, v: np.ndarray, cond: np.ndarray, one: bool = False):
        """``v`` and ``cond`` as (N, D) and (N, C) rows; a single (D,) event
        with a (C,) conditioner is the case N = 1, the only one ``one`` takes."""
        v, cond = np.asarray(v, dtype=float), np.asarray(cond, dtype=float)
        if v.ndim == cond.ndim == 1:
            v, cond = v[None], cond[None]
        if v.ndim != 2 or v.shape[1] != self.event_dim:
            raise ValueError(f"event shape {v.shape} != (N, {self.event_dim})")
        if cond.shape != (len(v), self.cond_dim):
            raise ValueError(f"conditioning shape {cond.shape} != ({len(v)}, {self.cond_dim})")
        if one and len(v) != 1:
            raise ValueError(f"a per-vector call takes one event, not {len(v)} rows")
        return v, cond

    def _affine(self, cond: np.ndarray):
        """The whole stack at each row of an (N, cond_dim) conditioner.

        Returns ``(w, raw, s, means, amps)``: the stacked conditioner weights
        (2KD, cond_dim), the raw scales and scales s_i (K, D, N) in event
        order, and the running shifts M_0..M_K and scales A_0..A_K, each
        (K+1, D, N); the rows run along the last axis.  All rows share one
        matmul; with N = 1 it is the matrix-vector product, bit for bit.
        """
        w = np.concatenate([self.store[name] for name in self._w_names])
        out = w @ cond.T
        out += np.concatenate([self.store[name] for name in self._b_names])[:, None]
        raw, shift = out.take(self._order, axis=0)
        s = softplus(raw) + self.scale_floor
        means = np.zeros((self.n_layers + 1, self.event_dim, len(cond)))
        for i in range(self.n_layers):
            means[i + 1] = s[i] * means[i] + shift[i]
        amps = np.ones_like(means)
        np.cumprod(s, axis=0, out=amps[1:])
        return w, raw, s, means, amps

    def gaussian(self, cond: np.ndarray) -> Gaussian:
        """The stack at one conditioner as its Gaussian x = A * z + M; returns
        (A, M), each (D,), so that ``forward(z, cond)`` is ``A * z + M``."""
        _, _, _, means, amps = self._affine(np.asarray(cond, dtype=float)[None])
        return amps[-1, :, 0], means[-1, :, 0]

    # -- transforms ---------------------------------------------------------

    def forward(self, z: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, float]:
        """Latent -> data; returns (x, log|det J|)."""
        z, cond = self._rows(z, cond, one=True)
        _, _, s, means, amps = self._affine(cond)
        return amps[-1, :, 0] * z[0] + means[-1, :, 0], float(np.log(s).sum())

    def inverse(self, x: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, float]:
        """Data -> latent; returns (z, log|det J^-1|) = (z, -forward logdet)."""
        x, cond = self._rows(x, cond, one=True)
        _, _, s, means, amps = self._affine(cond)
        return (x[0] - means[-1, :, 0]) / amps[-1, :, 0], -float(np.log(s).sum())

    def log_prob(self, x: np.ndarray, cond: np.ndarray) -> float:
        """Exact log-density of x under the flow-transformed standard normal."""
        z, logdet_inv = self.inverse(x, cond)
        return base_log_prob(z) + logdet_inv

    def sample(self, cond: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Draw x = forward(z), z ~ N(0, I); returns (x, log p(x))."""
        z = rng.standard_normal(self.event_dim)
        x, logdet = self.forward(z, cond)
        return x, base_log_prob(z) - logdet

    # -- training -----------------------------------------------------------

    def nll(self, x: np.ndarray, cond: np.ndarray) -> float:
        return -self.log_prob(x, cond)

    def nll_backward(self, x: np.ndarray, cond: np.ndarray, grads: ParamStore) -> tuple:
        """NLL of each row of x (N, D) given its row of cond (N, C), with gradients.

        Accumulates the parameter gradients of the NLLs' sum into ``grads``
        and returns ``(nll, d nll / d cond)``, (N,) and (N, C), so that each
        row's conditioning pathway can continue into the encoder.  A single
        x (D,) and cond (C,) give a float and a (C,) adjoint.
        """
        single = np.ndim(x) == 1
        x, cond = self._rows(x, cond)
        w, raw, s, means, amps = self._affine(cond)
        z = (x.T - means[-1]) / amps[-1]
        base = -0.5 * self.event_dim * math.log(2.0 * math.pi) - 0.5 * np.einsum("dn,dn->n", z, z)
        nll = -(base - np.log(s).sum(axis=(0, 1)))

        # Walking M_i = s_i M_{i-1} + b_i and A_i = s_i A_{i-1} back from
        # z = (x - M_K) / A_K multiplies each adjoint by the later s_j, so
        # d nll / d b_i = -z / A_i and d nll / d s_i = (d nll / d b_i) x_{i-1}
        # + 1 / s_i, where x_{i-1} = A_{i-1} z + M_{i-1} enters layer i.
        dshift = -z / amps[1:]
        dscale = dshift * (amps[:-1] * z + means[:-1]) + 1.0 / s
        dout = np.empty((w.shape[0], len(x)))
        dout[self._order] = (dscale * sigmoid(raw), dshift)
        dw, db = dout @ cond, dout.sum(axis=1)
        rows = 2 * self.event_dim
        for i, (w_name, b_name) in enumerate(zip(self._w_names, self._b_names)):
            grads[w_name][...] += dw[i * rows : (i + 1) * rows]
            grads[b_name][...] += db[i * rows : (i + 1) * rows]
        dcond = dout.T @ w
        return (float(nll[0]), dcond[0]) if single else (nll, dcond)
