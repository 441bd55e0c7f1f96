"""Conditional invertible transform stacks with exact log-determinants.

Each layer is an elementwise affine map whose scale and shift come from a
linear conditioner applied to the conditioning vector only:

    x = P_i^-1( s_i(c) * P_i(z) + b_i(c) ),    s_i = softplus(raw) + floor

``P_i`` is a fixed permutation that alternates (identity, reversal) across
layers and is applied in conjugated form, so it relabels which conditioner
slot drives which dimension while leaving an all-identity stack the exact
identity map.  The Jacobian in z is diagonal, hence

    log|det J| = sum_i sum_d log s_id

and the inverse is closed-form.  Densities follow the change-of-variables
chain: log p(x) = log N(z_0) - sum_i log|det J_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamStore, sigmoid, softplus, softplus_inverse

DEFAULT_SCALE_FLOOR = 1e-4


def base_log_prob(z: np.ndarray) -> float:
    """Standard-normal log-density of a D-vector."""
    z = np.asarray(z, dtype=float)
    return float(-0.5 * z.size * math.log(2.0 * math.pi) - 0.5 * np.dot(z, z))


def _layer_permutation(layer: int, dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return idx if layer % 2 == 0 else idx[::-1].copy()


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
        self._perms = [
            _layer_permutation(i, self.event_dim) for i in range(self.n_layers)
        ]
        self._inv_perms = [np.argsort(p) for p in self._perms]

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
        for i in range(self.n_layers):
            self.store[f"{self.prefix}.layer{i}.w"][...] = 0.0
            b = self.store[f"{self.prefix}.layer{i}.b"]
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

    # -- parameters per layer ---------------------------------------------

    def layer_scale_shift(self, layer: int, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scale, shift, raw) for one layer at one conditioning vector."""
        cond = self._check_cond(cond)
        w = self.store[f"{self.prefix}.layer{layer}.w"]
        b = self.store[f"{self.prefix}.layer{layer}.b"]
        out = w @ cond + b
        raw, shift = out[: self.event_dim], out[self.event_dim :]
        return softplus(raw) + self.scale_floor, shift, raw

    def _check_cond(self, cond: np.ndarray) -> np.ndarray:
        cond = np.asarray(cond, dtype=float)
        if cond.shape != (self.cond_dim,):
            raise ValueError(f"conditioning shape {cond.shape} != ({self.cond_dim},)")
        return cond

    def _check_event(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.event_dim,):
            raise ValueError(f"event shape {v.shape} != ({self.event_dim},)")
        return v

    # -- transforms ---------------------------------------------------------

    def forward(self, z: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, float]:
        """Latent -> data; returns (x, log|det J|)."""
        x = self._check_event(z).copy()
        logdet = 0.0
        for i in range(self.n_layers):
            scale, shift, _ = self.layer_scale_shift(i, cond)
            y = x[self._perms[i]]
            u = scale * y + shift
            x = u[self._inv_perms[i]]
            logdet += float(np.log(scale).sum())
        return x, logdet

    def inverse(self, x: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, float]:
        """Data -> latent; returns (z, log|det J^-1|) = (z, -forward logdet)."""
        z, logdet_inv, _ = self._inverse_with_cache(x, cond)
        return z, logdet_inv

    def _inverse_with_cache(self, x: np.ndarray, cond: np.ndarray):
        z = self._check_event(x).copy()
        logdet_inv = 0.0
        caches = [None] * self.n_layers
        for i in reversed(range(self.n_layers)):
            scale, shift, raw = self.layer_scale_shift(i, cond)
            y = z[self._perms[i]]
            v = (y - shift) / scale
            z = v[self._inv_perms[i]]
            logdet_inv -= float(np.log(scale).sum())
            caches[i] = {"scale": scale, "raw": raw, "v": v}
        return z, logdet_inv, caches

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

    def nll_backward(
        self, x: np.ndarray, cond: np.ndarray, grads: ParamStore
    ) -> tuple[float, np.ndarray]:
        """NLL of x plus exact gradients.

        Accumulates parameter gradients into ``grads`` and returns
        ``(nll, d nll / d cond)`` so the conditioning pathway can continue
        into the encoder.
        """
        cond = self._check_cond(cond)
        z0, logdet_inv, caches = self._inverse_with_cache(x, cond)
        nll = -(base_log_prob(z0) + logdet_inv)

        dcond = np.zeros(self.cond_dim)
        g = z0.copy()  # d nll / d z0
        for i in range(self.n_layers):
            c = caches[i]
            scale, raw, v = c["scale"], c["raw"], c["v"]
            dv = g[self._perms[i]]
            dy = dv / scale
            dshift = -dy
            dscale = -dv * v / scale + 1.0 / scale  # data path + logdet term
            draw = dscale * sigmoid(raw)  # softplus'(raw) = sigmoid(raw)
            dout = np.concatenate([draw, dshift])
            w = self.store[f"{self.prefix}.layer{i}.w"]
            grads[f"{self.prefix}.layer{i}.w"][...] += np.outer(dout, cond)
            grads[f"{self.prefix}.layer{i}.b"][...] += dout
            dcond += w.T @ dout
            g = dy[self._inv_perms[i]]
        return float(nll), dcond
