"""Invertibility, log-determinants, densities, and sampling of the flow stacks."""

import math

import numpy as np
import pytest
from scipy import stats

from pocketflow.flows import FlowStack, base_log_prob
from pocketflow.params import softplus, softplus_inverse

from helpers import max_relative_error

LN2 = math.log(2.0)


def random_stack(rng, n_layers, event_dim, cond_dim=4, w_scale=0.5, b_scale=0.3):
    stack = FlowStack.create(n_layers, event_dim, cond_dim)
    for i in range(n_layers):
        stack.store[f"flow.layer{i}.w"][...] = rng.uniform(
            -w_scale, w_scale, size=(2 * event_dim, cond_dim)
        )
        stack.store[f"flow.layer{i}.b"][...] += rng.uniform(
            -b_scale, b_scale, size=2 * event_dim
        )
    return stack


def scale_stack(scale, event_dim, cond_dim=4):
    """Single layer with conditioner weights zero and s tuned to ``scale``."""
    stack = FlowStack.create(1, event_dim, cond_dim)
    stack.store["flow.layer0.b"][:event_dim] = softplus_inverse(scale - stack.scale_floor)
    return stack


COND = np.array([0.3, -1.2, 0.8, 2.0])


class TestBaseLogProb:
    def test_origin_3d(self):
        # -(3/2) ln(2 pi)
        assert base_log_prob(np.zeros(3)) == pytest.approx(-2.756815599614018, abs=1e-12)

    def test_unit_1d(self):
        assert base_log_prob(np.ones(1)) == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_even_function(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(7)
        assert base_log_prob(z) == base_log_prob(-z)


class TestForward:
    def test_identity_flow(self):
        stack = FlowStack.create(3, 5, 4)
        z = np.array([0.5, -1.0, 2.0, 0.0, -0.3])
        x, logdet = stack.forward(z, COND)
        assert np.allclose(x, z, atol=1e-15)
        assert logdet == pytest.approx(0.0, abs=1e-12)

    def test_scale_two_layer(self):
        stack = scale_stack(2.0, 3)
        x, logdet = stack.forward(np.array([1.0, 2.0, 3.0]), COND)
        assert np.allclose(x, [2.0, 4.0, 6.0], atol=1e-12)
        assert logdet == pytest.approx(3 * LN2, abs=1e-12)

    def test_two_identity_layers_match_one(self):
        one = FlowStack.create(1, 4, 4)
        two = FlowStack.create(2, 4, 4)
        z = np.array([1.0, -2.0, 0.5, 3.0])
        x1, ld1 = one.forward(z, COND)
        x2, ld2 = two.forward(z, COND)
        assert np.allclose(x1, x2, atol=1e-14)
        assert ld1 == pytest.approx(ld2, abs=1e-14)

    def test_shape_errors(self):
        stack = FlowStack.create(2, 3, 4)
        with pytest.raises(ValueError):
            stack.forward(np.zeros(5), COND)
        with pytest.raises(ValueError):
            stack.forward(np.zeros(3), np.zeros(7))
        # the per-vector calls take one event: rows are nll_backward's
        rows, cond_rows = np.zeros((3, 3)), np.zeros((3, 4))
        for call in (stack.forward, stack.inverse, stack.log_prob, stack.nll):
            with pytest.raises(ValueError, match="one event"):
                call(rows, cond_rows)


class TestInverse:
    def test_identity(self):
        stack = FlowStack.create(2, 3, 4)
        x = np.array([1.0, 2.0, 3.0])
        z, logdet_inv = stack.inverse(x, COND)
        assert np.allclose(z, x, atol=1e-15) and logdet_inv == pytest.approx(0.0)

    def test_scale_two_inverse(self):
        stack = scale_stack(2.0, 3)
        z, logdet_inv = stack.inverse(np.array([2.0, 4.0, 6.0]), COND)
        assert np.allclose(z, [1.0, 2.0, 3.0], atol=1e-12)
        assert logdet_inv == pytest.approx(-3 * LN2, abs=1e-12)

    def test_roundtrip_1000_random(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for k in range(1000):
            n_layers = int(rng.integers(1, 9))
            dim = int(rng.choice([3, 10]))
            stack = random_stack(rng, n_layers, dim)
            cond = rng.standard_normal(4)
            z = rng.standard_normal(dim)
            x, ld = stack.forward(z, cond)
            z2, ldi = stack.inverse(x, cond)
            worst = max(worst, float(np.max(np.abs(z2 - z))))
            assert ld + ldi == pytest.approx(0.0, abs=1e-12)
        assert worst < 1e-8

    def test_logdet_vs_finite_difference_jacobian(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            stack = random_stack(rng, int(rng.integers(1, 5)), dim)
            cond = rng.standard_normal(4)
            z = rng.standard_normal(dim)
            _, logdet = stack.forward(z, cond)
            jac = np.zeros((dim, dim))
            for d in range(dim):
                e = np.zeros(dim)
                e[d] = h
                xp, _ = stack.forward(z + e, cond)
                xm, _ = stack.forward(z - e, cond)
                jac[:, d] = (xp - xm) / (2 * h)
            fd = math.log(abs(np.linalg.det(jac)))
            assert abs(logdet - fd) / max(abs(fd), 1.0) < 1e-4


class TestLogProb:
    def test_identity_at_origin(self):
        stack = FlowStack.create(2, 3, 4)
        assert stack.log_prob(np.zeros(3), COND) == pytest.approx(
            -2.756815599614018, abs=1e-12
        )

    def test_scale_two_1d(self):
        # change of variables by hand: base(0) - ln 2
        stack = scale_stack(2.0, 1)
        expected = base_log_prob(np.zeros(1)) - LN2
        assert expected == pytest.approx(-1.6120857137646178, abs=1e-12)
        assert stack.log_prob(np.zeros(1), COND) == pytest.approx(expected, abs=1e-12)

    def test_chain_identity_exact(self):
        # log_prob must equal base(z0) + logdet_inverse bit-for-bit
        rng = np.random.default_rng(3)
        for _ in range(50):
            stack = random_stack(rng, 4, 3)
            cond = rng.standard_normal(4)
            x = rng.standard_normal(3)
            z, ldi = stack.inverse(x, cond)
            assert stack.log_prob(x, cond) == base_log_prob(z) + ldi

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(-10.0, 10.0, 10_000)
        for _ in range(10):
            stack = random_stack(
                rng, int(rng.integers(1, 6)), 1, w_scale=0.05, b_scale=0.2
            )
            cond = rng.standard_normal(4)
            density = np.array([math.exp(stack.log_prob(np.array([g]), cond)) for g in grid])
            integral = np.trapezoid(density, grid)
            assert integral == pytest.approx(1.0, abs=1e-3)


class TestSample:
    def test_reproducible(self):
        rng = np.random.default_rng(5)
        stack = random_stack(rng, 3, 3)
        x1, lp1 = stack.sample(COND, np.random.default_rng(99))
        x2, lp2 = stack.sample(COND, np.random.default_rng(99))
        assert np.array_equal(x1, x2) and lp1 == lp2

    def test_density_matches_log_prob(self):
        rng = np.random.default_rng(6)
        stack = random_stack(rng, 4, 3)
        for k in range(20):
            x, lp = stack.sample(COND, np.random.default_rng(k))
            assert abs(lp - stack.log_prob(x, COND)) < 1e-9

    def test_identity_flow_sampling_is_standard_normal(self):
        stack = FlowStack.create(2, 1, 4)
        rng = np.random.default_rng(1234)
        draws = np.array([stack.sample(COND, rng)[0][0] for _ in range(10_000)])
        statistic = stats.kstest(draws, "norm").statistic
        assert statistic < 0.02


def reference_layers(stack, cond):
    """(P_i, s_i, b_i) per layer of x = P_i^-1(s_i * P_i(x) + b_i), P_i reversing odd layers."""
    d = stack.event_dim
    for i in range(stack.n_layers):
        out = stack.store[f"flow.layer{i}.w"] @ cond + stack.store[f"flow.layer{i}.b"]
        perm = np.arange(d)[::-1] if i % 2 else np.arange(d)
        yield perm, softplus(out[:d]) + stack.scale_floor, out[d:]


def reference_forward(stack, z, cond):
    x, logdet = z, 0.0
    for perm, s, b in reference_layers(stack, cond):
        x = (s * x[perm] + b)[np.argsort(perm)]
        logdet += np.log(s).sum()
    return x, logdet


def reference_inverse(stack, x, cond):
    z, logdet = x, 0.0
    for perm, s, b in reversed(list(reference_layers(stack, cond))):
        z = ((z[perm] - b) / s)[np.argsort(perm)]
        logdet -= np.log(s).sum()
    return z, logdet


class TestClosedForm:
    @pytest.mark.parametrize("event_dim", [1, 3, 10])
    @pytest.mark.parametrize("n_layers", range(1, 9))
    def test_matches_layer_by_layer_composition(self, n_layers, event_dim):
        rng = np.random.default_rng(100 * n_layers + event_dim)
        for _ in range(10):
            stack = random_stack(rng, n_layers, event_dim)
            cond = rng.standard_normal(4)
            z = rng.standard_normal(event_dim)
            x, logdet = stack.forward(z, cond)
            x_ref, logdet_ref = reference_forward(stack, z, cond)
            np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-12)
            assert logdet == pytest.approx(logdet_ref, rel=1e-12, abs=1e-12)
            z_back, logdet_inv = stack.inverse(x_ref, cond)
            z_ref, logdet_inv_ref = reference_inverse(stack, x_ref, cond)
            np.testing.assert_allclose(z_back, z_ref, rtol=1e-12, atol=1e-12)
            assert logdet_inv == pytest.approx(logdet_inv_ref, rel=1e-12, abs=1e-12)
            lp_ref = base_log_prob(z_ref) + logdet_inv_ref
            assert stack.log_prob(x_ref, cond) == pytest.approx(lp_ref, rel=1e-12, abs=1e-12)


class TestNllBackward:
    @pytest.mark.parametrize("event_dim", [1, 3, 10])
    @pytest.mark.parametrize("n_layers", range(1, 7))
    def test_gradients_match_central_differences(self, n_layers, event_dim):
        rng = np.random.default_rng(10 * n_layers + event_dim)
        stack = random_stack(rng, n_layers, event_dim)
        cond = rng.standard_normal(4)
        x = rng.standard_normal(event_dim)
        grads = stack.store.zeros_like()
        nll, dcond = stack.nll_backward(x, cond, grads)
        assert nll == pytest.approx(stack.nll(x, cond), rel=1e-12, abs=1e-12)

        h = 1e-5
        flat = stack.store.flat
        fd_params = np.zeros(flat.size)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            up = stack.nll(x, cond)
            flat[k] = saved - h
            down = stack.nll(x, cond)
            flat[k] = saved
            fd_params[k] = (up - down) / (2 * h)
        fd_cond = np.zeros(cond.size)
        for k in range(cond.size):
            e = np.zeros(cond.size)
            e[k] = h
            fd_cond[k] = (stack.nll(x, cond + e) - stack.nll(x, cond - e)) / (2 * h)
        assert max_relative_error(grads.flat, fd_params) < 1e-4
        assert max_relative_error(dcond, fd_cond) < 1e-4


def fd_row_gradients(stack, x, cond, h=1e-5):
    """Central differences of the summed row NLLs in every parameter and of
    each row's NLL in its own conditioner."""

    def total():
        return sum(stack.nll(xi, ci) for xi, ci in zip(x, cond))

    flat = stack.store.flat
    fd_params = np.zeros(flat.size)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + h
        up = total()
        flat[k] = saved - h
        down = total()
        flat[k] = saved
        fd_params[k] = (up - down) / (2 * h)
    fd_cond = np.zeros(cond.shape)
    for (i, k), _ in np.ndenumerate(cond):
        e = np.zeros(cond.shape[1])
        e[k] = h
        fd_cond[i, k] = (stack.nll(x[i], cond[i] + e) - stack.nll(x[i], cond[i] - e)) / (2 * h)
    return fd_params, fd_cond


class TestRowwiseNllBackward:
    """``nll_backward`` on (N, D) events and (N, C) conditioners: one
    matmul for all the rows, the per-vector call being N = 1."""

    @pytest.mark.parametrize("event_dim", [1, 3, 10])
    @pytest.mark.parametrize("n_layers", [1, 2, 6])
    def test_rows_equal_one_row_calls(self, n_layers, event_dim):
        rng = np.random.default_rng(50 * n_layers + event_dim)
        stack = random_stack(rng, n_layers, event_dim)
        x, cond = rng.standard_normal((5, event_dim)), rng.standard_normal((5, 4))
        grads = stack.store.zeros_like()
        nll, dcond = stack.nll_backward(x, cond, grads)
        assert nll.shape == (5,) and dcond.shape == (5, 4)
        summed = stack.store.zeros_like()
        for i in range(5):
            one = stack.store.zeros_like()
            nll_i, dcond_i = stack.nll_backward(x[i], cond[i], one)
            assert isinstance(nll_i, float) and dcond_i.shape == (4,)
            assert abs(nll[i] - nll_i) <= 1e-12 * abs(nll_i)
            assert np.max(np.abs(dcond[i] - dcond_i)) <= 1e-12 * np.max(np.abs(dcond_i))
            summed.flat[:] += one.flat
        assert np.max(np.abs(grads.flat - summed.flat)) <= 1e-12 * np.max(np.abs(summed.flat))

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(17)
        stack = random_stack(rng, 3, 3)
        x, cond = rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
        grads = stack.store.zeros_like()
        nll, dcond = stack.nll_backward(x, cond, grads)
        want = [stack.nll(xi, ci) for xi, ci in zip(x, cond)]
        np.testing.assert_allclose(nll, want, rtol=1e-12)
        fd_params, fd_cond = fd_row_gradients(stack, x, cond)
        assert max_relative_error(grads.flat, fd_params) < 1e-4
        assert max_relative_error(dcond, fd_cond) < 1e-4

    @pytest.mark.parametrize(
        "x_shape, cond_shape",
        [
            ((5, 2), (5, 4)),  # event width
            ((5, 3), (5, 6)),  # conditioner width
            ((5, 3), (4, 4)),  # row counts
            ((3,), (1, 4)),  # one event, a row of conditioners
            ((1, 3), (4,)),  # a row of events, one conditioner
            ((2, 5, 3), (2, 5, 4)),  # a third axis
        ],
    )
    def test_shape_errors(self, x_shape, cond_shape):
        stack = FlowStack.create(2, 3, 4)
        with pytest.raises(ValueError):
            stack.nll_backward(np.zeros(x_shape), np.zeros(cond_shape), stack.store.zeros_like())
