"""Tests for the trace-once replay engine (:mod:`repro.autodiff.compile`).

The contract under test: for any supported graph, a compiled replay must
reproduce the eager tape's value AND gradients to bit-identical (or at
worst 1e-12 relative) precision across arbitrarily many input changes —
and must fall back to a fresh trace whenever the input signature changes.
"""

import zlib

import numpy as np
import pytest

from repro.autodiff import linalg, ops
from repro.autodiff.batching import vbatch
from repro.autodiff.compile import (
    CompileError,
    CompiledProgram,
    compiled_value_and_grad,
    compiled_value_and_grad_tree,
)
from repro.autodiff.functional import value_and_grad
from repro.autodiff.linalg import LUSolver
from repro.autodiff.sparse import sparse_pattern_solve
from repro.autodiff.tensor import Tensor, asdata
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.nn.derivatives import flat_weights, mlp_eval
from repro.nn.mlp import MLP
from repro.nn.pytree import tree_flatten, value_and_grad_tree
from repro.pde.laplace import LaplaceControlProblem


# ----------------------------------------------------------------------
# Property: replay == eager, values and gradients
# ----------------------------------------------------------------------
_MASK = np.arange(12) % 2 == 0  # fixed selection: replay-safe


def _composite(c):
    """A graph touching reductions, branches, indexing and nonlinearities.

    Note the ``where`` condition is *positional*, not value-dependent: a
    condition computed from input values would be baked at trace time
    (the same restriction ``jax.jit`` places on traced control flow).
    ``maximum``/``clip`` masks are fine — their forward closures refresh
    them on every replay.
    """
    a = ops.mul(c, 2.0)
    b = ops.maximum(a, 0.1)
    d = ops.clip(ops.sin(b), -0.9, 0.9)
    e = ops.where(_MASK, d, ops.square(c))
    head = e[2:7]
    return ops.sum_(ops.square(head)) + ops.mean(ops.exp(ops.mul(e, -0.5)))


def test_composite_graph_matches_eager():
    eager = value_and_grad(_composite)
    comp = compiled_value_and_grad(_composite)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=12)
        ve, ge = eager(x)
        vc, gc = comp(x)
        np.testing.assert_allclose(vc, ve, rtol=1e-12)
        np.testing.assert_allclose(gc, ge, rtol=1e-12)
    info = comp.cache_info()
    assert info["traces"] == 1 and info["replays"] == 9


def test_composite_graph_bit_identical():
    """Replay re-executes the same ufunc sequence: exact equality expected."""
    eager = value_and_grad(_composite)
    comp = compiled_value_and_grad(_composite)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=12)
        ve, ge = eager(x)
        vc, gc = comp(x)
        assert vc == ve
        assert np.array_equal(gc, ge)


def test_mlp_forward_matches_eager():
    mlp = MLP(2, [8, 8], 1)
    params = mlp.init_params(seed=3)
    x = np.random.default_rng(4).normal(size=(16, 2))
    target = np.sin(x[:, :1].sum(axis=1, keepdims=True))

    def loss(p):
        pred = mlp.apply(p, x)
        return ops.mean(ops.square(pred - target))

    eager = value_and_grad_tree(loss)
    comp = compiled_value_and_grad_tree(loss)
    rng = np.random.default_rng(5)
    for _ in range(6):
        leaves, _ = tree_flatten(params)
        ve, ge = eager(params)
        vc, gc = comp(params)
        assert vc == ve
        ge_l, _ = tree_flatten(ge)
        gc_l, _ = tree_flatten(gc)
        for a, b in zip(ge_l, gc_l):
            assert np.array_equal(a, b)
        # perturb the parameters for the next round
        params = [
            {"W": l["W"] + 0.01 * rng.normal(size=l["W"].shape),
             "b": l["b"] + 0.01 * rng.normal(size=l["b"].shape)}
            for l in params
        ]


@pytest.mark.parametrize("backend", ["dense", "local"])
def test_laplace_dp_cost_matches_eager(backend):
    prob = LaplaceControlProblem(SquareCloud(8), backend=backend)
    eager = LaplaceDP(prob)
    comp = LaplaceDP(prob, compile=True)
    rng = np.random.default_rng(6)
    for _ in range(5):
        c = rng.normal(scale=0.2, size=prob.n_control)
        ve, ge = eager.value_and_grad(c)
        vc, gc = comp.value_and_grad(c)
        assert vc == ve
        assert np.array_equal(gc, ge)


def test_sparse_pattern_replay_refreshes_factorisation():
    """Matrix *values* on the tape: each replay must re-factorise."""
    n = 20
    rng = np.random.default_rng(7)
    dense = np.diag(rng.uniform(2.0, 3.0, size=n))
    dense[np.arange(n - 1), np.arange(1, n)] = 0.3
    rows, cols = np.nonzero(dense)
    b = rng.normal(size=n)

    def f(data):
        x = sparse_pattern_solve(rows, cols, (n, n), data, b)
        return ops.sum_(ops.square(x))

    eager = value_and_grad(f)
    comp = compiled_value_and_grad(f)
    for _ in range(4):
        data = dense[rows, cols] + rng.uniform(0, 0.5, size=rows.size)
        ve, ge = eager(data)
        vc, gc = comp(data)
        np.testing.assert_allclose(vc, ve, rtol=1e-12)
        np.testing.assert_allclose(gc, ge, rtol=1e-12)


def test_lu_solver_replay_matches_eager():
    n = 15
    rng = np.random.default_rng(8)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    solver = LUSolver(A)

    def f(b):
        return ops.sum_(ops.square(solver(b)))

    eager = value_and_grad(f)
    comp = compiled_value_and_grad(f)
    for _ in range(4):
        b = rng.normal(size=n)
        ve, ge = eager(b)
        vc, gc = comp(b)
        assert vc == ve and np.array_equal(gc, ge)


# ----------------------------------------------------------------------
# Replay == eager, bitwise: general-rank matmul VJPs and solve programs
# ----------------------------------------------------------------------
STACKED_MATMUL_SHAPES = [
    ((3, 4), (4, 2)),          # plain 2x2
    ((2, 3, 4), (4, 2)),       # stacked @ matrix
    ((3, 4), (2, 4, 2)),       # matrix @ stacked
    ((2, 3, 4), (2, 4, 2)),    # equal batch
    ((1, 3, 4), (5, 4, 2)),    # broadcast batch
    ((5, 2, 3, 4), (4, 2)),    # rank-4 @ matrix
]


def _matmul_program(sa, sb):
    rng = np.random.default_rng(zlib.crc32(f"{sa}{sb}".encode()))

    def loss(a, b):
        return ops.sum_(ops.square(ops.matmul(a, b)))

    return loss, (rng.standard_normal(sa), rng.standard_normal(sb)), (0, 1)


def _solve_program():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)

    def loss(b):
        x = linalg.solve(A, ops.exp(b))
        return ops.sum_(ops.square(x)) + ops.sum_(b * x)

    return loss, (np.linspace(0.1, 1.0, 6),), 0


def _row_affine_program():
    rng = np.random.default_rng(9)
    A0 = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    D1, D2 = rng.standard_normal((2, 6, 6))

    def loss(s, b):
        # Scalings and right-hand side both on the tape, so every replay
        # refactorises from the new values.
        B = ops.stack([ops.exp(b), b], axis=1)
        X = linalg.solve_row_affine(A0, ((s, D1), (ops.square(s), D2)), B)
        return ops.sum_(ops.square(X)) + ops.sum_(b * X[:, 0])

    return loss, (np.linspace(0.1, 0.4, 6), np.linspace(0.1, 1.0, 6)), (0, 1)


def _lu_solver_program():
    rng = np.random.default_rng(8)
    solver = LUSolver(rng.standard_normal((5, 5)) + 5.0 * np.eye(5))

    def loss(b):
        return ops.sum_(ops.square(solver(ops.sin(b))))

    return loss, (np.linspace(0.1, 1.0, 5),), 0


def _mlp_program():
    """Fused network nodes at every order: replay refreshes the cached
    layer intermediates its joint VJP reads."""
    rng = np.random.default_rng(10)
    net = MLP(2, (6, 5), 2)
    X = rng.uniform(-1, 1, (9, 2))
    ws = [w + 0.1 * rng.standard_normal(w.shape) for w in flat_weights(net.init_params(3))]

    def loss(*ws):
        Y2 = mlp_eval(X, ws, net.activation, 2)
        Y1 = mlp_eval(X[:4], ws, net.activation, 1)
        u0 = mlp_eval(X[5:], ws, net.activation, 0)
        return (
            ops.sum_(ops.square(Y2[3] + Y2[4]))
            + ops.mean(ops.square(Y2[0][:4] * Y1[1]))
            + ops.sum_(ops.sin(u0))
        )

    return loss, tuple(ws), tuple(range(len(ws)))


REPLAY_PROGRAMS = {
    "mlp": _mlp_program,
    **{
        f"matmul:{sa}@{sb}": (lambda sa=sa, sb=sb: _matmul_program(sa, sb))
        for sa, sb in STACKED_MATMUL_SHAPES
    },
    "solve": _solve_program,
    "solve_row_affine": _row_affine_program,
    "lu_solver": _lu_solver_program,
}


@pytest.mark.parametrize("name", list(REPLAY_PROGRAMS))
def test_replay_program_bitwise_matches_eager(name):
    loss, args, argnums = REPLAY_PROGRAMS[name]()
    eager = value_and_grad(loss, argnums=argnums)
    comp = compiled_value_and_grad(loss, argnums=argnums)
    for k in range(3):  # one trace, then two replays on new values
        call_args = [a * (1.0 + 0.1 * k) for a in args]
        ve, ge = eager(*call_args)
        vc, gc = comp(*call_args)
        assert vc == ve, name
        ge = ge if isinstance(ge, tuple) else (ge,)
        gc = gc if isinstance(gc, tuple) else (gc,)
        for a, b in zip(gc, ge):
            assert np.array_equal(a, b), f"{name}: max |diff| {np.max(np.abs(a - b))}"
    info = comp.cache_info()
    assert info["programs"] == 1 and info["replays"] == 2, name


def test_replay_matches_eager_on_conformance_case(batch_case):
    """Every conformance program, replayed on new differentiable inputs.

    ``test_batching::test_compiled_matches_eager`` replays on the inputs
    it traced with; here the differentiable arguments are rescaled before
    each of two replays (constant arguments stay fixed, so neither call
    re-traces), which catches a replay that reuses stale forward values.
    The factors are positive: a condition computed from input values
    (``where:traced_mask``) is baked at trace time, and a positive
    rescaling keeps its sign pattern.
    """
    case = batch_case
    if not case.compileable:
        pytest.skip("argument not hashable/wrappable by the compile cache")
    diff_idx = tuple(i for i, d in enumerate(case.diff) if d)
    base = case.make_args(np.random.default_rng(zlib.crc32(case.label.encode())), 3)

    def loss(*call_args):
        return ops.sum_(vbatch(case.fn, in_axes=case.in_axes)(*call_args))

    eager = value_and_grad(loss, argnums=diff_idx)
    comp = compiled_value_and_grad(loss, argnums=diff_idx)
    for k in range(3):  # one trace, then two replays on new values
        args = [a * (1.0 + 0.1 * k) if i in diff_idx else a for i, a in enumerate(base)]
        ve, ge = eager(*args)
        vc, gc = comp(*args)
        assert float(vc) == float(ve), case.label
        ge = ge if isinstance(ge, (tuple, list)) else (ge,)
        gc = gc if isinstance(gc, (tuple, list)) else (gc,)
        for a, b in zip(gc, ge):
            a, b = asdata(a), asdata(b)
            assert np.array_equal(a, b), (
                f"{case.label}: max |diff| {np.max(np.abs(a - b))}"
            )
    info = comp.cache_info()
    assert info["programs"] == 1 and info["replays"] == 2, case.label


def _pinn_pair():
    from repro.control.pinn import LaplacePINN, PINNTrainConfig

    cfg = PINNTrainConfig(epochs=1, n_interior=30, n_boundary=8)
    pinn = LaplacePINN(
        LaplaceControlProblem(SquareCloud(8)), state_hidden=(7, 7),
        control_hidden=(5,), config=cfg,
    )
    return pinn, pinn.init_params(0)


def _perturbed(params, rng, keys):
    return {
        k: [
            {n: a + (0.05 * rng.standard_normal(a.shape) if k in keys else 0.0)
             for n, a in layer.items()}
            for layer in v
        ]
        for k, v in params.items()
    }


@pytest.mark.parametrize("wrt", [None, ("u",), ("c",)])
def test_tree_replay_with_aux_and_wrt_bitwise_matches_eager(wrt):
    """Replay of a loss with auxiliary outputs, differentiated w.r.t. one
    network: values, aux values and gradients equal the eager tape, and a
    change to the *frozen* network's parameters shows in the replayed
    value (its leaves are replay inputs, not baked constants)."""
    pinn, params = _pinn_pair()

    def loss(p):
        return pinn.loss_terms(p, 0.5)

    eager = value_and_grad_tree(loss, has_aux=True, wrt=wrt)
    comp = compiled_value_and_grad_tree(loss, has_aux=True, wrt=wrt)
    rng = np.random.default_rng(11)
    values = []
    for k in range(4):
        (ve, ae), ge = eager(params)
        (vc, ac), gc = comp(params)
        assert vc == ve
        assert set(ac) == {"cost", "residual"}
        for name in ac:
            assert np.array_equal(ac[name], ae[name]), name
        for key in params:
            for a, b in zip(tree_flatten(gc[key])[0], tree_flatten(ge[key])[0]):
                assert np.array_equal(a, b), key
                if wrt is not None and key not in wrt:
                    assert not np.any(a), key
        values.append(vc)
        # Alternate which network moves: the frozen one too.
        params = _perturbed(params, rng, ("u",) if k % 2 else ("c",))
    assert len(set(values)) == len(values)
    info = comp.cache_info()
    assert info["programs"] == 1 and info["replays"] == 3


def test_wrt_gradient_equals_full_backward_slice():
    """Differentiating one network alone gives bitwise the gradient the
    full backward gives that network, in both tiers."""
    pinn, params = _pinn_pair()

    def loss(p):
        return pinn.loss(p, 2.0)

    _, full = value_and_grad_tree(loss)(params)
    for key in ("u", "c"):
        for make in (value_and_grad_tree, compiled_value_and_grad_tree):
            vg = make(loss, wrt=(key,))
            for _ in range(2):  # trace, then replay
                _, g = vg(params)
                for a, b in zip(tree_flatten(g[key])[0], tree_flatten(full[key])[0]):
                    assert np.array_equal(a, b), key
                other = "c" if key == "u" else "u"
                assert all(not np.any(a) for a in tree_flatten(g[other])[0])


def test_aux_must_be_a_program_node():
    """An auxiliary output the root does not depend on cannot be
    refreshed by replay: the signature stays on the eager tape."""

    def loss(p):
        w = p["w"]
        return ops.sum_(ops.square(w)), {"side": ops.sum_(ops.exp(p["v"]))}

    comp = compiled_value_and_grad_tree(loss, has_aux=True)
    for k in range(3):
        p = {"w": np.full(3, 1.0 + k), "v": np.full(2, 0.5 * k)}
        (v, aux), _ = comp(p)
        assert float(aux["side"]) == float(np.sum(np.exp(p["v"])))
    assert comp.cache_info()["programs"] == 0


# ----------------------------------------------------------------------
# Re-trace on signature change
# ----------------------------------------------------------------------
def test_shape_change_triggers_retrace():
    comp = compiled_value_and_grad(lambda x: ops.sum_(ops.square(x)))
    for size in (5, 5, 9, 9, 5):
        x = np.arange(size, dtype=np.float64)
        v, g = comp(x)
        assert v == float(np.sum(x**2))
        assert np.array_equal(g, 2.0 * x)
    info = comp.cache_info()
    assert info["traces"] == 2  # one per distinct shape
    assert info["replays"] == 3
    assert info["programs"] == 2


def test_constant_operand_change_triggers_retrace():
    """Baked (non-diff) operands are content-keyed: new values, new trace."""
    comp = compiled_value_and_grad(lambda x, w: ops.sum_(ops.mul(x, w)))
    x = np.ones(4)
    w1, w2 = np.full(4, 2.0), np.full(4, 3.0)
    assert comp(x, w1)[0] == 8.0
    assert comp(x, w1)[0] == 8.0
    assert comp(x, w2)[0] == 12.0  # stale replay would still give 8.0
    assert comp.cache_info()["traces"] == 2


def test_replay_rejects_mismatched_shape():
    x = np.ones(6)
    vg = compiled_value_and_grad(lambda t: ops.sum_(ops.square(t)))
    vg(x)
    (prog,) = [p for p in vg._cache.values() if isinstance(p, CompiledProgram)]
    with pytest.raises(CompileError):
        prog.replay([np.ones(7)])


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_profile_counts_and_reuse():
    comp = compiled_value_and_grad(
        lambda x: ops.sum_(ops.square(ops.mul(x, 3.0))), profile=True
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        comp(rng.normal(size=50))
    p = comp.profile
    assert p.n_traces == 1
    assert p.n_replays == 4
    assert p.n_eager_calls == 0
    assert p.persistent_bytes > 0
    assert p.bytes_reused > 0
    assert p.op("square").calls == 4
    report = p.report()
    assert "square" in report and "sum" in report


# ----------------------------------------------------------------------
# Allocation discipline of the audited VJPs
# ----------------------------------------------------------------------
def test_sum_vjp_returns_readonly_view():
    x = Tensor(np.arange(12.0), requires_grad=True)
    y = ops.sum_(x)
    (_, vjp), = y._parents
    g = np.array(2.5)
    out = vjp(g)
    assert out.shape == (12,)
    assert not out.flags.writeable
    assert np.shares_memory(out, g)


def test_mean_vjp_returns_stride0_view():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    y = ops.mean(x)
    (_, vjp), = y._parents
    out = vjp(np.array(1.0))
    assert out.shape == (3, 4)
    assert not out.flags.writeable
    assert out.strides == (0, 0)


def test_getitem_forward_is_view():
    x = Tensor(np.arange(10.0), requires_grad=True)
    y = x[2:7]
    assert np.shares_memory(y.data, x.data)
