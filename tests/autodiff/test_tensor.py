"""Tests for the Tensor tape node and backward pass."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, asdata, no_grad, tensor, unbroadcast


class TestConstruction:
    def test_wraps_list_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_wraps_scalar(self):
        t = Tensor(2.5)
        assert t.size == 1
        assert t.item() == 2.5

    def test_tensor_idempotent(self):
        t = tensor([1.0])
        assert tensor(t) is t

    def test_tensor_upgrade_requires_grad_copies(self):
        t = tensor([1.0])
        t2 = tensor(t, requires_grad=True)
        assert t2 is not t
        assert t2.requires_grad

    def test_leaf_has_no_parents(self):
        t = Tensor([1.0])
        assert not t.needs_tape()

    def test_requires_grad_leaf_needs_tape(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.needs_tape()

    def test_asdata_on_tensor_and_array(self):
        t = Tensor([1.0, 2.0])
        assert asdata(t) is t.data
        assert asdata([3.0]).dtype == np.float64

    def test_detach_cuts_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.needs_tape()

    def test_len_and_properties(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.ndim == 2
        assert t.size == 12


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + 3.0 * x
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            y.backward()

    def test_fan_out_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # x used twice
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        y = a * b  # dy/dx = 3*(x+1) + 3x = 6x + 3 = 15
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [15.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        (x * 3.0).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        # Iterative topological sort must handle graphs deeper than the
        # Python recursion limit (PDE solves unroll long loops).
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.001
        ops.sum_(y).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_context_prunes_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.needs_tape()


class TestOperatorOverloads:
    def test_radd_rmul_with_ndarray(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = np.array([3.0, 4.0]) + x
        z = np.array([2.0, 2.0]) * y
        ops.sum_(z).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_rsub_rtruediv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 - x
        z = 4.0 / x
        (y + z).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [-1.0 - 1.0])

    def test_pow_and_neg(self):
        x = Tensor([3.0], requires_grad=True)
        y = -(x**2)
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [-6.0])

    def test_matmul_operator(self):
        A = np.eye(2) * 2
        x = Tensor([1.0, 1.0], requires_grad=True)
        y = A @ x
        ops.sum_(y).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_getitem_operator(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = x[1:]
        ops.sum_(y).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])

    def test_comparisons_return_bool_arrays(self):
        x = Tensor([1.0, 2.0])
        assert (x > 1.5).tolist() == [False, True]
        assert (x <= 1.0).tolist() == [True, False]

    def test_method_sum_mean_reshape_ravel(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        assert x.sum().item() == 15.0
        assert x.mean().item() == 2.5
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.ravel().shape == (6,)

    def test_transpose_property(self):
        x = Tensor(np.ones((2, 3)))
        assert x.T.shape == (3, 2)


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, 4 * np.ones((2, 3)))

    def test_sums_expanded_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, 3 * np.ones((2, 1)))

    def test_scalar_target(self):
        g = np.ones((5, 5))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 25.0


class TestJointVJPAndInputs:
    """A node-level joint VJP runs once per backward, and ``inputs``
    restricts the backward to what reaches the given leaves."""

    @staticmethod
    def _joint_node(a, b, calls):
        from repro.autodiff.tensor import make_node

        def vjp(g):
            calls.append(1)
            return [g * b.data, g * a.data]

        return make_node(a.data * b.data, [(a, None), (b, None)], "jmul", vjp=vjp)

    def test_joint_vjp_runs_once_for_all_parents(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 5.0], requires_grad=True)
        calls = []
        ops.sum_(self._joint_node(a, b, calls)).backward()
        assert calls == [1]
        assert np.array_equal(a.grad, [3.0, 5.0])
        assert np.array_equal(b.grad, [1.0, 2.0])

    def test_joint_node_without_parents_or_grad_is_a_constant(self):
        from repro.autodiff.tensor import make_node

        def vjp(g):
            raise AssertionError("never called")

        assert make_node(np.ones(2), [], "jmul", vjp=vjp)._op == "leaf"
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert make_node(np.ones(1), [(a, None)], "jmul", vjp=vjp)._op == "leaf"

    def test_inputs_restrict_backward_bitwise(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def loss():
            return ops.sum_(ops.sin(a) * ops.exp(b)) + ops.sum_(ops.square(ops.tanh(b)))

        loss().backward()
        full_a = a.grad
        a.zero_grad()
        b.zero_grad()
        out = loss()
        out.backward(inputs=[a])
        assert np.array_equal(a.grad, full_a)
        assert b.grad is None
