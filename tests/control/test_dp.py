"""Tests for the differentiable-programming oracles."""

import numpy as np
import pytest

from repro.autodiff.check import directional_numerical_derivative
from repro.autodiff.linalg import LUSolver, solve_row_affine
from repro.autodiff.sparse import SparseLUSolver
from repro.autodiff.tensor import _topological_order, tensor
from repro.bench.compile_smoke import EagerOracle
from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.loop import optimize
from repro.obs.goldens import TIER0
from repro.obs.metrics import use_registry
from repro.pde.laplace import LaplaceControlProblem
from repro.pde import navier_stokes
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig


def _tier0_ns(**problem_kwargs):
    """The ``ns_dp_tier0`` channel problem and its solver configuration."""
    cfg = TIER0["ns_dp_tier0"]
    problem = ChannelFlowProblem(
        cloud=ChannelCloud(cfg.nx, cfg.ny), perturbation=cfg.perturbation,
        **problem_kwargs,
    )
    return problem, NSConfig(reynolds=cfg.reynolds, refinements=cfg.refinements)


class TestLaplaceDP:
    def test_value_matches_direct_solve(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c = laplace_problem.zero_control()
        u = dp.solve_state(c)
        assert dp.value(c) == pytest.approx(
            laplace_problem.cost_from_state(u), rel=1e-12
        )

    def test_gradient_exact_vs_fd(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c0 = laplace_problem.zero_control() + 0.1
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            d = rng.standard_normal(c0.shape)
            d /= np.linalg.norm(d)
            num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
            assert abs(float(g @ d) - num) < 1e-8 * max(1.0, abs(num))

    def test_gradient_zero_at_discrete_optimum(self, laplace_problem):
        """At the (convex) discrete optimum the DP gradient vanishes."""
        dp = LaplaceDP(laplace_problem)
        c_star, _ = optimize(dp, n_iterations=600, initial_lr=1e-2)
        _, g = dp.value_and_grad(c_star)
        assert np.linalg.norm(g) < 1e-3

    def test_drives_cost_to_machine_precision_scale(self, laplace_problem):
        """The paper's headline: DP reaches J ~ 1e-9 (2.2e-9 in Table 3)."""
        dp = LaplaceDP(laplace_problem)
        _, hist = optimize(dp, n_iterations=500, initial_lr=1e-2)
        assert hist.best_cost < 1e-7

    def test_optimal_control_close_to_analytic(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c_star, _ = optimize(dp, n_iterations=500, initial_lr=1e-2)
        err = np.max(np.abs(c_star - laplace_problem.optimal_control()))
        assert err < 0.15  # discretisation-level agreement

    def test_initial_control_is_zero(self, laplace_problem):
        np.testing.assert_array_equal(
            LaplaceDP(laplace_problem).initial_control(),
            np.zeros(laplace_problem.n_control),
        )


class TestLaplaceDPLocalBackend:
    """The sparse RBF-FD fast path through the same DP oracle."""

    @pytest.fixture(scope="class")
    def local_problem(self):
        return LaplaceControlProblem(SquareCloud(12), backend="local")

    def test_uses_sparse_solver(self, local_problem, laplace_problem):
        assert isinstance(LaplaceDP(local_problem).solver, SparseLUSolver)
        assert isinstance(LaplaceDP(laplace_problem).solver, LUSolver)

    def test_gradient_exact_vs_fd(self, local_problem):
        dp = LaplaceDP(local_problem)
        c0 = local_problem.zero_control() + 0.1
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            d = rng.standard_normal(c0.shape)
            d /= np.linalg.norm(d)
            num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
            assert abs(float(g @ d) - num) < 1e-8 * max(1.0, abs(num))

    def test_factorizes_once_across_control_loop(self, local_problem):
        # Factorise-once/solve-many: the system matrix is constant, so
        # repeated oracle calls inside the optimisation loop must never
        # re-factorise.
        dp = LaplaceDP(local_problem)
        assert dp.solver.n_factorizations == 1
        c = local_problem.zero_control() + 0.05
        for _ in range(3):
            _, g = dp.value_and_grad(c)
            c = c - 1e-2 * g
        assert dp.solver.n_factorizations == 1

    def test_reaches_comparable_optimum(self, local_problem):
        # Acceptance bar: the sparse path lands within 10x of the dense
        # final cost on the same cloud.
        dense = LaplaceDP(LaplaceControlProblem(SquareCloud(12)))
        local = LaplaceDP(local_problem)
        _, hist_d = optimize(dense, n_iterations=120, initial_lr=1e-2)
        _, hist_l = optimize(local, n_iterations=120, initial_lr=1e-2)
        assert hist_l.best_cost <= 10.0 * hist_d.best_cost + 1e-12


class TestNavierStokesDP:
    @pytest.fixture(scope="class")
    def dp(self, channel_problem):
        return NavierStokesDP(
            channel_problem, NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5)
        )

    def test_value_consistent_with_ad_forward(self, dp, channel_problem):
        c = channel_problem.default_control()
        j_np = dp.value(c)
        j_ad, _ = dp.value_and_grad(c)
        assert j_np == pytest.approx(j_ad, rel=1e-12)

    def test_gradient_vs_fd(self, dp, channel_problem):
        c0 = channel_problem.default_control()
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(3)
        d = rng.standard_normal(c0.shape)
        d /= np.linalg.norm(d)
        num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
        assert abs(float(g @ d) - num) < 1e-6 * max(1.0, abs(num))

    def test_short_optimisation_reduces_cost(self, dp):
        c, hist = optimize(dp, n_iterations=15, initial_lr=1e-1)
        assert hist.best_cost < hist.costs[0] * 0.7

    def test_initial_control_parabolic(self, dp, channel_problem):
        np.testing.assert_allclose(
            dp.initial_control(), channel_problem.default_control()
        )


class TestFactorizationCount:
    """Every factorisation on the tape is counted, one per momentum step.

    The dense momentum step factorises its matrix once for both velocity
    components (``solve_row_affine``); the sparse step does the same
    through ``sparse_pattern_solve``.
    """

    @pytest.fixture(scope="class")
    def tier0(self):
        return _tier0_ns()

    @staticmethod
    def _factorizations(oracle, c, kind: str = "dense") -> int:
        with use_registry() as reg:
            oracle.value_and_grad(c)
        return reg.counter(f"linalg.{kind}.factorizations").value

    def test_eager_counts_one_per_solve(self, tier0, monkeypatch):
        problem, ns_cfg = tier0
        oracle = NavierStokesDP(problem, ns_cfg)
        c = problem.default_control()
        calls = []

        def counted_solve(*args, **kwargs):
            calls.append(1)
            return solve_row_affine(*args, **kwargs)

        monkeypatch.setattr(navier_stokes, "solve_row_affine", counted_solve)
        assert self._factorizations(oracle, c) == len(calls)
        assert len(calls) == ns_cfg.refinements  # u* and v* share one solve

    def test_replay_counts_each_refactorization(self, tier0):
        problem, ns_cfg = tier0
        oracle = NavierStokesDP(problem, ns_cfg)
        c = problem.default_control()
        oracle.value_and_grad(c)  # first call
        oracle.value_and_grad(c)  # trace
        # A replay refactorises only solves whose matrix is on the tape.
        # The first refinement assembles its matrix from the constant
        # initial state, so its factors are baked into the trace.
        per_replay = ns_cfg.refinements - 1
        assert self._factorizations(oracle, c) == per_replay
        assert self._factorizations(oracle, c) == per_replay

    def test_first_call_eager_second_traces_third_replays(self, tier0):
        problem, ns_cfg = tier0
        oracle = NavierStokesDP(problem, ns_cfg)
        c = problem.default_control()
        k = ns_cfg.refinements

        def step():
            n = self._factorizations(oracle, c)
            info = oracle._vg.cache_info()
            return n, [info[e] for e in ("first", "traces", "replays", "eager", "programs")]

        # Call 1 runs the eager tape and builds no program.
        assert step() == (k, [1, 0, 0, 0, 0])
        # Call 2 runs eagerly again and traces; the validation replay
        # counts no factorisation.
        assert step() == (k, [1, 1, 0, 0, 1])
        # Call 3 replays.
        assert step() == (k - 1, [1, 1, 1, 0, 1])

    def test_local_eager_counts_one_sparse_factorization_per_step(self):
        problem, ns_cfg = _tier0_ns(backend="local")
        oracle = NavierStokesDP(problem, ns_cfg)
        c = problem.default_control()
        # The pressure factorisation happens once, when the problem is built.
        assert self._factorizations(oracle, c, "sparse") == ns_cfg.refinements
        assert self._factorizations(oracle, c, "dense") == 0


class TestMomentumStep:
    """The NS momentum step on the tape: shape and forward parity.

    The dense momentum matrix enters the tape only through its row
    scalings, so every node is a vector or an ``(n, 2)`` block.
    """

    #: Interior nodes of one tier-0 gradient tape (k = 3 refinements).
    #: A change here means the tape's structure changed: check why.
    N_NODES = 87

    def test_no_square_node_and_pinned_size(self):
        problem, ns_cfg = _tier0_ns()
        c = tensor(problem.default_control(), requires_grad=True)
        u, v, _ = problem.solve_ad(c, ns_cfg)
        nodes = [t for t in _topological_order(problem.cost_ad(u, v)) if t._parents]
        n = problem.cloud.n
        square = [t._op for t in nodes if t.shape == (n, n)]
        assert square == []
        assert len(nodes) == self.N_NODES

    @pytest.mark.parametrize(
        "backend,solver",
        [("dense", "direct"), ("local", "direct"), ("local", "iterative")],
    )
    def test_tape_forward_equals_numpy_bitwise(self, backend, solver):
        # Both paths assemble the momentum matrix through one helper and
        # solve the stacked right-hand side with the same calls.
        problem, ns_cfg = _tier0_ns(backend=backend, solver=solver)
        c = problem.default_control()
        st = problem.solve(c, ns_cfg)
        u, v, p = problem.solve_ad(c, ns_cfg)
        for a, b in ((u, st.u), (v, st.v), (p, st.p)):
            assert np.array_equal(a.data, b)


class TestSmoothnessPenalty:
    """The §4 control-variation penalty (opt-in extension)."""

    def test_penalised_laplace_value_adds_term(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = laplace_problem.zero_control() + np.sin(
            7 * laplace_problem.control_x
        )
        plain = LaplaceDP(laplace_problem)
        pen = LaplaceDP(laplace_problem, smoothness_weight=1e-2)
        assert pen.value(c) > plain.value(c)

    def test_zero_weight_is_noop(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = laplace_problem.zero_control() + 0.1
        assert LaplaceDP(laplace_problem, smoothness_weight=0.0).value(
            c
        ) == pytest.approx(LaplaceDP(laplace_problem).value(c), rel=1e-14)

    def test_penalty_gradient_correct(self, laplace_problem):
        from repro.autodiff.check import directional_numerical_derivative
        from repro.control.dp import LaplaceDP

        dp = LaplaceDP(laplace_problem, smoothness_weight=1e-2)
        c0 = laplace_problem.zero_control() + 0.05
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(c0.shape)
        d /= np.linalg.norm(d)
        num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
        assert abs(float(g @ d) - num) < 1e-7 * max(1.0, abs(num))

    def test_constant_control_unpenalised(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = np.full(laplace_problem.n_control, 0.3)
        plain = LaplaceDP(laplace_problem)
        pen = LaplaceDP(laplace_problem, smoothness_weight=10.0)
        assert pen.value(c) == pytest.approx(plain.value(c), rel=1e-12)

    def test_ns_penalised_value_consistent_with_grad_path(self, channel_problem):
        from repro.control.dp import NavierStokesDP
        from repro.pde.navier_stokes import NSConfig

        cfg = NSConfig(reynolds=100.0, refinements=4, pseudo_dt=0.5)
        dp = NavierStokesDP(channel_problem, cfg, smoothness_weight=1e-3)
        c = channel_problem.default_control() * 1.1
        j_np = dp.value(c)
        j_ad, _ = dp.value_and_grad(c)
        assert j_np == pytest.approx(j_ad, rel=1e-12)


class TestHistoriesBitwiseEqualEager:
    """The DP oracle's optimisation history (costs, gradient norms, best
    control) is bitwise the history of the same cost differentiated on the
    eager tape every iteration, on every backend and solver."""

    CONFIGS = [("dense", "direct"), ("local", "direct"), ("local", "iterative")]

    @staticmethod
    def _assert_bitwise(make_oracle, iterations, lr):
        c_e, h_e = optimize(EagerOracle(make_oracle()), iterations, lr)
        c_r, h_r = optimize(make_oracle(), iterations, lr)
        assert h_r.costs == h_e.costs
        assert h_r.grad_norms == h_e.grad_norms
        assert np.array_equal(c_r, c_e)

    @pytest.mark.parametrize("backend,solver", CONFIGS)
    def test_laplace(self, backend, solver):
        cfg = TIER0["laplace_dp_tier0"]
        self._assert_bitwise(
            lambda: LaplaceDP(LaplaceControlProblem(
                SquareCloud(cfg.nx), backend=backend, solver=solver
            )),
            cfg.iterations, cfg.lr,
        )

    @pytest.mark.parametrize("backend,solver", CONFIGS)
    def test_navier_stokes(self, backend, solver):
        cfg = TIER0["ns_dp_tier0"]
        self._assert_bitwise(
            lambda: NavierStokesDP(*_tier0_ns(backend=backend, solver=solver)),
            cfg.iterations, cfg.lr,
        )
