"""Tests for SGD/Adam and gradient clipping."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, Adam, clip_grad_norm, global_grad_norm
from repro.nn.pytree import tree_flatten, tree_zip_map


def quad_grad(x, target):
    return 2.0 * (x - target)


class TestSGD:
    def test_single_step(self):
        opt = SGD(lr=0.1)
        p = {"w": np.array([1.0])}
        g = {"w": np.array([2.0])}
        p2, _ = opt.step(p, g, opt.init(p))
        np.testing.assert_allclose(p2["w"], [0.8])

    def test_momentum_accelerates(self):
        target = np.array([1.0])
        for mom, label in [(0.0, "plain"), (0.9, "momentum")]:
            opt = SGD(lr=0.01, momentum=mom)
            x = {"w": np.array([5.0])}
            st = opt.init(x)
            for _ in range(50):
                x, st = opt.step(x, {"w": quad_grad(x["w"], target)}, st)
            if mom == 0.0:
                plain_err = abs(x["w"][0] - 1.0)
            else:
                assert abs(x["w"][0] - 1.0) < plain_err

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_lr_override(self):
        opt = SGD(lr=1.0)
        p2, _ = opt.step({"w": np.array([1.0])}, {"w": np.array([1.0])}, None, lr=0.5)
        np.testing.assert_allclose(p2["w"], [0.5])


class TestAdam:
    def test_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        x = np.array([4.0, -3.0])
        st = opt.init(x)
        for _ in range(400):
            x, st = opt.step(x, quad_grad(x, np.array([1.0, 2.0])), st)
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-4)

    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step has magnitude ≈ lr.
        opt = Adam(lr=0.05)
        x = np.array([0.0])
        st = opt.init(x)
        x2, _ = opt.step(x, np.array([123.0]), st)
        assert abs(abs(x2[0]) - 0.05) < 1e-6

    def test_scale_invariance(self):
        # Adam's step is (nearly) invariant to gradient scaling.
        opt = Adam(lr=0.1)
        for scale in (1.0, 1e6):
            x = np.array([0.0])
            st = opt.init(x)
            x, st = opt.step(x, np.array([scale]), st)
            assert abs(abs(x[0]) - 0.1) < 1e-3

    def test_state_counts_steps(self):
        opt = Adam(lr=0.1)
        x = np.array([0.0])
        st = opt.init(x)
        for i in range(3):
            x, st = opt.step(x, np.array([1.0]), st)
        assert st[0] == 3

    def test_pytree_params(self):
        opt = Adam(lr=0.1)
        params = [{"W": np.ones((2, 2)), "b": np.zeros(2)}]
        grads = [{"W": np.ones((2, 2)), "b": np.ones(2)}]
        st = opt.init(params)
        p2, _ = opt.step(params, grads, st)
        assert p2[0]["W"].shape == (2, 2)
        assert np.all(p2[0]["W"] < 1.0)

    @staticmethod
    def _three_pass_step(opt, params, grads, state, lr):
        """Adam as three ``tree_zip_map`` passes: the reference formula."""
        t, m, v = state
        t += 1
        m = tree_zip_map(
            lambda mi, g: opt.beta1 * mi + (1 - opt.beta1) * np.asarray(g), m, grads
        )
        v = tree_zip_map(
            lambda vi, g: opt.beta2 * vi + (1 - opt.beta2) * np.asarray(g) ** 2,
            v, grads,
        )
        bc1 = 1.0 - opt.beta1**t
        bc2 = 1.0 - opt.beta2**t

        def update(p, mi, vi):
            mhat = mi / bc1
            vhat = vi / bc2
            return np.asarray(p, dtype=np.float64) - lr * mhat / (np.sqrt(vhat) + opt.eps)

        return tree_zip_map(update, params, m, v), (t, m, v)

    def test_one_pass_step_bitwise_equals_three_pass_formula(self):
        rng = np.random.default_rng(4)
        # Parameters on the scale of one update, so that a change in the
        # update's last bits is not rounded away by the subtraction.
        small = lambda *shape: 1e-3 * rng.standard_normal(shape)
        params = {
            "u": [{"W": small(3, 4), "b": small(4)}, {"W": small(4, 1), "b": small(1)}],
            "c": ({"W": small(1, 2), "b": np.zeros(2)},),
        }
        opt = Adam(lr=2e-3)
        state = ref_state = opt.init(params)
        ref = params
        for k in range(5):
            lr = 2e-3 / (1 + k)
            grads = tree_zip_map(lambda p: rng.standard_normal(p.shape), params)
            params, state = opt.step(params, grads, state, lr=lr)
            ref, ref_state = self._three_pass_step(opt, ref, grads, ref_state, lr)
            assert state[0] == ref_state[0]
            for got, want in ((params, ref), (state[1], ref_state[1]), (state[2], ref_state[2])):
                g_leaves, g_def = tree_flatten(got)
                w_leaves, w_def = tree_flatten(want)
                assert g_def == w_def
                assert all(np.array_equal(a, b) for a, b in zip(g_leaves, w_leaves))

    def test_mismatched_grads_raise(self):
        opt = Adam()
        params = [np.ones(2), np.ones(3)]
        with pytest.raises(ValueError, match="mismatched"):
            opt.step(params, [np.ones(2)], opt.init(params))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            Adam(lr=-1.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class TestClipping:
    def test_global_norm(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert abs(global_grad_norm(g) - 5.0) < 1e-12

    def test_clip_rescales(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_grad_norm(g, 1.0)
        assert abs(global_grad_norm(clipped) - 1.0) < 1e-12

    def test_clip_noop_below_threshold(self):
        g = {"a": np.array([0.1])}
        assert clip_grad_norm(g, 1.0) is g

    def test_clip_zero_gradient(self):
        g = {"a": np.zeros(3)}
        out = clip_grad_norm(g, 1.0)
        np.testing.assert_array_equal(out["a"], np.zeros(3))
