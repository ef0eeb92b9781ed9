"""Tests for analytic input-derivative propagation (the PINN workhorse)."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.nn.derivatives import mlp_forward, mlp_with_derivatives
from repro.nn.mlp import MLP
from repro.nn.pytree import tree_flatten, tree_unflatten, value_and_grad_tree

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def net():
    m = MLP(2, (12, 12), 2)
    return m, m.init_params(5)


def fd_input_derivatives(model, params, X, i, eps=1e-5):
    Xp, Xm = X.copy(), X.copy()
    Xp[:, i] += eps
    Xm[:, i] -= eps
    f = lambda pts: model.apply(params, pts).data
    d1 = (f(Xp) - f(Xm)) / (2 * eps)
    d2 = (f(Xp) - 2 * f(X) + f(Xm)) / eps**2
    return d1, d2


class TestValues:
    def test_value_matches_apply(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (6, 2))
        u, _, _ = mlp_with_derivatives(m, p, X)
        np.testing.assert_allclose(u.data, m.apply(p, X).data, rtol=1e-14)

    def test_mlp_forward_alias(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (4, 2))
        np.testing.assert_array_equal(
            mlp_forward(m, p, X).data, m.apply(p, X).data
        )

    def test_shapes(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (7, 2))
        u, du, d2u = mlp_with_derivatives(m, p, X)
        assert u.shape == (7, 2)
        assert len(du) == 2 and len(d2u) == 2
        assert all(d.shape == (7, 2) for d in du + d2u)

    def test_need_second_false_skips(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (3, 2))
        _, du, d2u = mlp_with_derivatives(m, p, X, need_second=False)
        assert len(du) == 2
        assert d2u == []

    def test_bad_input_shape_raises(self, net):
        m, p = net
        with pytest.raises(ValueError):
            mlp_with_derivatives(m, p, np.zeros((5, 3)))


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("i", [0, 1])
    def test_first_derivatives(self, net, i):
        m, p = net
        X = RNG.uniform(-1, 1, (10, 2))
        _, du, _ = mlp_with_derivatives(m, p, X)
        fd1, _ = fd_input_derivatives(m, p, X, i)
        np.testing.assert_allclose(du[i].data, fd1, atol=1e-8)

    @pytest.mark.parametrize("i", [0, 1])
    def test_second_derivatives(self, net, i):
        m, p = net
        X = RNG.uniform(-1, 1, (10, 2))
        _, _, d2u = mlp_with_derivatives(m, p, X)
        _, fd2 = fd_input_derivatives(m, p, X, i)
        np.testing.assert_allclose(d2u[i].data, fd2, atol=5e-5)

    def test_laplacian_of_harmonic_combination(self):
        # A single linear layer (no activation) has zero second derivative.
        m = MLP(2, (), 1)
        p = m.init_params(0)
        X = RNG.uniform(-1, 1, (5, 2))
        _, _, d2u = mlp_with_derivatives(m, p, X)
        np.testing.assert_allclose(d2u[0].data, 0.0, atol=1e-14)
        np.testing.assert_allclose(d2u[1].data, 0.0, atol=1e-14)


class TestWeightGradients:
    def test_residual_loss_weight_gradient(self, net):
        """One reverse pass through derivative propagation == FD on weights."""
        m, p = net
        X = RNG.uniform(-1, 1, (8, 2))

        def loss(params):
            u, du, d2u = mlp_with_derivatives(m, params, X)
            lap = d2u[0] + d2u[1]
            return ops.mean(ops.square(lap)) + ops.mean(ops.square(du[0]))

        val, grads = value_and_grad_tree(loss)(p)
        leaves, td = tree_flatten(p)
        gleaves, _ = tree_flatten(grads)
        h = 1e-6
        for li, idx in [(0, (0, 0)), (2, (3, 1)), (4, (1, 0))]:
            lp = [np.array(x, copy=True) for x in leaves]
            lm = [np.array(x, copy=True) for x in leaves]
            lp[li][idx] += h
            lm[li][idx] -= h
            fp = float(loss(tree_unflatten(td, lp)).data)
            fm = float(loss(tree_unflatten(td, lm)).data)
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gleaves[li][idx]) < 1e-6 * max(1.0, abs(fd))


class TestEnsembleDerivatives:
    """mlp_ensemble_with_derivatives: one vbatch trace over N parameter
    sets must reproduce every per-network result bitwise, and gradients
    must flow back to the stacked leaves."""

    N = 3

    @staticmethod
    def _stack(params_list):
        flats = [tree_flatten(p) for p in params_list]
        treedef = flats[0][1]
        leaves = [
            np.stack([np.asarray(f[0][i]) for f in flats])
            for i in range(len(flats[0][0]))
        ]
        return tree_unflatten(treedef, leaves), treedef

    def _nets(self, arch):
        in_dim, hidden, out_dim = arch
        m = MLP(in_dim, hidden, out_dim)
        params = [m.init_params(seed) for seed in range(self.N)]
        X = np.random.default_rng(23).uniform(-1, 1, (6, in_dim))
        return m, params, X

    @pytest.mark.parametrize(
        "arch",
        [(2, (12, 12), 2), (2, (8,), 1), (3, (5, 5), 4)],
        ids=["2-12-12-2", "2-8-1", "3-5-5-4"],
    )
    def test_slices_bitwise_match_per_network(self, arch):
        from repro.nn.derivatives import mlp_ensemble_with_derivatives

        m, params, X = self._nets(arch)
        stacked, _ = self._stack(params)
        u, du, d2u = mlp_ensemble_with_derivatives(m, stacked, X)
        assert u.shape == (self.N, X.shape[0], arch[2])
        for j in range(self.N):
            uj, duj, d2uj = mlp_with_derivatives(m, params[j], X)
            assert np.array_equal(u.data[j], uj.data), f"u slice {j}"
            for i in range(arch[0]):
                assert np.array_equal(du[i].data[j], duj[i].data)
                assert np.array_equal(d2u[i].data[j], d2uj[i].data)

    def test_need_second_false(self):
        from repro.nn.derivatives import mlp_ensemble_with_derivatives

        m, params, X = self._nets((2, (8,), 1))
        stacked, _ = self._stack(params)
        u, du, d2u = mlp_ensemble_with_derivatives(m, stacked, X, need_second=False)
        assert d2u == []
        assert len(du) == 2 and du[0].shape == (self.N, X.shape[0], 1)

    def test_gradients_match_per_network(self):
        from repro.nn.derivatives import mlp_ensemble_with_derivatives

        m, params, X = self._nets((2, (6, 6), 1))

        def loss_one(p):
            u, du, d2u = mlp_with_derivatives(m, p, X)
            return ops.mean(ops.square(d2u[0] + d2u[1])) + ops.mean(ops.square(u))

        stacked, treedef = self._stack(params)

        def loss_stacked(p):
            u, du, d2u = mlp_ensemble_with_derivatives(m, p, X)
            lap = d2u[0] + d2u[1]
            # Mean over everything except the ensemble axis, then sum:
            # gradient slice j == gradient of loss_one(params[j]).
            return ops.sum_(
                ops.mean(ops.square(lap), axis=(1, 2))
                + ops.mean(ops.square(u), axis=(1, 2))
            )

        _, grads = value_and_grad_tree(loss_stacked)(stacked)
        gstack, _ = tree_flatten(grads)
        for j in range(self.N):
            _, gj = value_and_grad_tree(loss_one)(params[j])
            for gs, g1 in zip(gstack, tree_flatten(gj)[0]):
                np.testing.assert_allclose(
                    np.asarray(gs)[j], np.asarray(g1), rtol=0, atol=1e-12
                )


def _op_by_op(model, params, X, order):
    """The derivative propagation written with one tape primitive per
    operation — the reference the fused node must reproduce."""
    act = model.activation
    batch, d = X.shape
    seed = np.zeros((d, batch, d))
    for i in range(d):
        seed[i, :, i] = 1.0
    a, da, d2a = X, seed, np.zeros((d, batch, d))
    last = model.n_layers - 1
    for li, layer in enumerate(params):
        W, b = layer["W"], layer["b"]
        z = ops.matmul(a, W) + b
        dz = ops.matmul(da, W)
        d2z = ops.matmul(d2a, W)
        if li < last:
            s1 = act.df(z)
            d2a = act.d2f(z) * ops.square(dz) + s1 * d2z
            da = s1 * dz
            a = act.f(z)
        else:
            a, da, d2a = z, dz, d2z
    outs = [a] + [da[i] for i in range(d)][: d if order else 0]
    return outs + ([d2a[i] for i in range(d)] if order == 2 else [])


def _fused(model, params, X, order):
    if order == 0:
        return [model.apply(params, X)]
    u, du, d2u = mlp_with_derivatives(model, params, X, need_second=order == 2)
    return [u] + du + d2u


def _residual(outs):
    return sum(ops.mean(ops.square(o * (k + 1.0))) for k, o in enumerate(outs))


ACTS = ["tanh", "sigmoid", "sin"]


class TestFusedPrimitive:
    """``mlp_eval``: one tape node per network evaluation whose forward is
    bitwise the op-by-op propagation and whose hand-written reverse sweep
    is the exact weight gradient."""

    @pytest.mark.parametrize("act", ACTS)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_forward_bitwise_matches_op_by_op(self, act, order):
        m = MLP(2, (9, 7), 2, activation=act)
        p = m.init_params(2)
        X = RNG.uniform(-1, 1, (11, 2))
        for a, b in zip(_fused(m, p, X, order), _op_by_op(m, p, X, order)):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("act", ACTS)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_check_gradient(self, act, order):
        from repro.autodiff.check import check_gradient

        m = MLP(2, (6, 5), 2, activation=act)
        p = m.init_params(4)
        X = RNG.uniform(-1, 1, (8, 2))
        leaves, td = tree_flatten(p)
        # Nonzero biases, so every branch of the sweep carries signal.
        leaves = [l + 0.1 * RNG.standard_normal(l.shape) for l in leaves]
        sizes = [l.size for l in leaves]

        def unflat(theta):
            parts = np.split(np.asarray(theta), np.cumsum(sizes)[:-1])
            return tree_unflatten(td, [q.reshape(l.shape) for q, l in zip(parts, leaves)])

        def loss(params):
            return _residual(_fused(m, params, X, order))

        theta = np.concatenate([l.ravel() for l in leaves])
        _, g = value_and_grad_tree(loss)(unflat(theta))
        analytic = np.concatenate([q.ravel() for q in tree_flatten(g)[0]])
        check_gradient(
            lambda t: float(loss(unflat(t)).data), analytic, theta,
            eps=1e-6, rtol=1e-6, atol=1e-9,
        )

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_gradient_matches_op_by_op(self, order):
        m = MLP(2, (8, 8), 3)
        p = m.init_params(6)
        X = RNG.uniform(-1, 1, (10, 2))
        _, gf = value_and_grad_tree(lambda q: _residual(_fused(m, q, X, order)))(p)
        _, gr = value_and_grad_tree(lambda q: _residual(_op_by_op(m, q, X, order)))(p)
        for a, b in zip(tree_flatten(gf)[0], tree_flatten(gr)[0]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_one_node_and_one_sweep_per_evaluation(self):
        from repro.autodiff.tensor import Tensor, _topological_order

        m = MLP(2, (8, 8), 1)
        p = m.init_params(0)
        X = RNG.uniform(-1, 1, (5, 2))
        leaves, td = tree_flatten(p)
        lts = [Tensor(l, requires_grad=True) for l in leaves]
        u, du, d2u = mlp_with_derivatives(m, tree_unflatten(td, lts), X)
        nodes = [n for n in _topological_order(d2u[0]) if n._parents]
        assert [n._op for n in nodes] == ["getitem", "mlp"]
        assert [q for q, _ in nodes[1]._parents] == lts

    def test_input_gradient(self):
        from repro.autodiff.functional import value_and_grad

        m = MLP(2, (6,), 1, activation="sin")
        p = m.init_params(1)
        X = RNG.uniform(-1, 1, (4, 2))

        def f(x):
            u, du, d2u = mlp_with_derivatives(m, p, x)
            return ops.sum_(ops.square(u)) + ops.sum_(du[0] * d2u[1])

        _, g = value_and_grad(f)(X)
        from repro.autodiff.check import numerical_gradient

        fd = numerical_gradient(lambda x: float(f(x).data), X.copy())
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_frozen_parameters_record_no_node(self):
        m = MLP(2, (4,), 1)
        out = m.apply(m.init_params(0), RNG.uniform(-1, 1, (3, 2)))
        assert out._parents == [] and out._op == "leaf"
