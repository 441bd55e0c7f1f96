"""Conditional affine flows: invertibility, log-determinants, exact densities.

Shows the change-of-variables machinery on a small stack: forward and
inverse transforms, the closed form x = A(c) * z + M(c) of the whole stack,
the diagonal log-determinant, the density chain rule, and a quadrature check
that the 1-D density integrates to one.
"""

import math

import numpy as np

from pocketflow import FlowStack, base_log_prob
from pocketflow.params import softplus

rng = np.random.default_rng(0)

# A 4-layer stack over a 3-D event, conditioned on a 5-wide vector. Freshly
# created stacks are the identity map: softplus bias tuned so scale = 1.
stack = FlowStack.create(n_layers=4, event_dim=3, cond_dim=5)
cond = rng.standard_normal(5)
z = rng.standard_normal(3)
x, logdet = stack.forward(z, cond)
print("Identity-initialized stack: max|x - z| =", float(np.max(np.abs(x - z))))
print("log|det J| =", logdet)

# Randomize the conditioner weights: now the transform is a nontrivial
# conditional affine map, still exactly invertible.
for i in range(stack.n_layers):
    stack.store[f"flow.layer{i}.w"][...] = rng.uniform(-0.5, 0.5, size=(6, 5))
    stack.store[f"flow.layer{i}.b"][...] += rng.uniform(-0.3, 0.3, size=6)

x, logdet = stack.forward(z, cond)
z_back, logdet_inv = stack.inverse(x, cond)
print("\nAfter randomizing the conditioner:")
print("  round-trip error:", float(np.max(np.abs(z_back - z))))
print("  forward log|det| + inverse log|det| =", logdet + logdet_inv)

# No layer looks at x, so the stack is one conditional diagonal Gaussian:
# x = A(c) * z + M(c), A the product of the layer scales and M the composed
# shifts (odd layers read their conditioner rows reversed).
A, M = np.ones(3), np.zeros(3)
for i in range(stack.n_layers):
    out = stack.store[f"flow.layer{i}.w"] @ cond + stack.store[f"flow.layer{i}.b"]
    raw, shift = out[:3], out[3:]
    if i % 2:
        raw, shift = raw[::-1], shift[::-1]
    s = softplus(raw) + stack.scale_floor
    A, M = s * A, s * M + shift
print("  A(c) =", np.array2string(A, precision=4), " M(c) =", np.array2string(M, precision=4))
assert np.allclose(x, A * z + M, rtol=0.0, atol=1e-12)
assert abs(logdet - float(np.log(A).sum())) < 1e-12

# The density follows the change of variables: log p(x) = log N(z0) - log|det J|,
# with log|det J| = sum log A.
lp = stack.log_prob(x, cond)
print("  log p(x) =", lp, " = base(z0) + logdet_inv =", base_log_prob(z_back) + logdet_inv)

# Sampling returns the exact density of the draw.
sample, lp_sample = stack.sample(cond, np.random.default_rng(7))
print("  sampled x:", np.array2string(sample, precision=4), " log p =", round(lp_sample, 6))
assert abs(lp_sample - stack.log_prob(sample, cond)) < 1e-9

# Quadrature sanity for a 1-D stack: exp(log_prob) integrates to 1.
one_d = FlowStack.create(n_layers=3, event_dim=1, cond_dim=5)
for i in range(one_d.n_layers):
    one_d.store[f"flow.layer{i}.w"][...] = rng.uniform(-0.05, 0.05, size=(2, 5))
    one_d.store[f"flow.layer{i}.b"][...] += rng.uniform(-0.2, 0.2, size=2)
grid = np.linspace(-10, 10, 10_000)
density = np.array([math.exp(one_d.log_prob(np.array([g]), cond)) for g in grid])
print("\n1-D density integral over [-10, 10]:", float(np.trapezoid(density, grid)))
