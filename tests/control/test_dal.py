"""Tests for the direct-adjoint-looping oracles."""

import numpy as np
import pytest

from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.loop import optimize
from repro.pde.navier_stokes import NSConfig


class TestLaplaceDAL:
    def test_value_matches_dp(self, laplace_problem):
        dal = LaplaceDAL(laplace_problem)
        dp = LaplaceDP(laplace_problem)
        c = laplace_problem.zero_control() + 0.05
        assert dal.value(c) == pytest.approx(dp.value(c), rel=1e-12)

    def test_adjoint_boundary_conditions(self, laplace_problem):
        """λ vanishes on the three fixed walls; equals 2·mismatch on top."""
        dal = LaplaceDAL(laplace_problem)
        p = laplace_problem
        c = p.zero_control()
        lam = dal.solve_adjoint(c)
        np.testing.assert_allclose(lam[p.bottom], 0.0, atol=1e-12)
        np.testing.assert_allclose(lam[p.left], 0.0, atol=1e-12)
        np.testing.assert_allclose(lam[p.right], 0.0, atol=1e-12)
        u = dal.solver.solve_numpy(p.rhs(c))
        mism = p.flux_rows @ u - p.target
        np.testing.assert_allclose(lam[p.top], 2 * mism, atol=1e-10)

    def test_gradient_direction_agrees_with_dp(self, laplace_problem):
        """OTD vs DTO gradients differ in metric (quadrature weights) but
        must be strongly aligned for the smooth Laplace problem."""
        dal = LaplaceDAL(laplace_problem)
        dp = LaplaceDP(laplace_problem)
        c = laplace_problem.zero_control()
        _, gd = dal.value_and_grad(c)
        _, gp = dp.value_and_grad(c)
        cos = gd @ gp / (np.linalg.norm(gd) * np.linalg.norm(gp))
        assert cos > 0.97

    def test_gradient_larger_than_dp(self, laplace_problem):
        """The paper: 'DAL converged despite the gradients rising to very
        large values' — the continuous gradient carries no quadrature
        weights, so its norm is ~1/h larger."""
        dal = LaplaceDAL(laplace_problem)
        dp = LaplaceDP(laplace_problem)
        c = laplace_problem.zero_control()
        _, gd = dal.value_and_grad(c)
        _, gp = dp.value_and_grad(c)
        assert np.linalg.norm(gd) > 3 * np.linalg.norm(gp)

    def test_optimisation_converges(self, laplace_problem):
        dal = LaplaceDAL(laplace_problem)
        _, hist = optimize(dal, n_iterations=300, initial_lr=1e-2)
        assert hist.best_cost < 1e-5

    def test_gradient_descent_direction_reduces_cost(self, laplace_problem):
        dal = LaplaceDAL(laplace_problem)
        c = laplace_problem.zero_control()
        j0, g = dal.value_and_grad(c)
        j1 = dal.value(c - 1e-4 * g)
        assert j1 < j0


class TestNavierStokesDAL:
    @pytest.fixture(scope="class")
    def dal(self, channel_problem):
        cfg = NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5)
        return NavierStokesDAL(channel_problem, cfg, adjoint_refinements=25)

    def test_value_matches_solver(self, dal, channel_problem):
        c = channel_problem.default_control()
        st = channel_problem.solve(c, dal.config)
        assert dal.value(c) == pytest.approx(
            channel_problem.cost(st.u, st.v), rel=1e-12
        )

    def test_adjoint_dirichlet_boundaries(self, dal, channel_problem):
        c = channel_problem.default_control()
        st = channel_problem.solve(c, dal.config)
        adj = dal.solve_adjoint(st.u, st.v)
        pr = channel_problem
        for g in ("inflow", "wall_bottom", "wall_top", "blowing", "suction"):
            idx = pr.cloud.groups[g]
            np.testing.assert_allclose(adj.lx[idx], 0.0, atol=1e-9)
            np.testing.assert_allclose(adj.ly[idx], 0.0, atol=1e-9)

    def test_gradient_partially_aligned_with_dp(self, dal, channel_problem):
        """The continuous adjoint gradient is *approximately* right (it
        drives early iterations) but NOT exact — the paper's central
        observation about DAL on Navier–Stokes."""
        dp = NavierStokesDP(channel_problem, dal.config)
        c = channel_problem.default_control()
        _, gd = dal.value_and_grad(c)
        _, gp = dp.value_and_grad(c)
        cos = gd @ gp / (np.linalg.norm(gd) * np.linalg.norm(gp))
        assert 0.3 < cos < 0.999  # aligned but inexact

    def test_descent_direction_initially(self, dal, channel_problem):
        c = channel_problem.default_control()
        j0, g = dal.value_and_grad(c)
        j1 = dal.value(c - 1e-3 * g / max(np.linalg.norm(g), 1e-12))
        assert j1 < j0

    def test_default_adjoint_refinements(self, channel_problem):
        d = NavierStokesDAL(channel_problem, NSConfig(refinements=3))
        assert d.adjoint_refinements >= 15


class TestWorkspaceReuse:
    """The DAL oracles reuse their adjoint workspaces across calls; a
    call must not see state left behind by the previous one."""

    @staticmethod
    def _assert_stateless(make_oracle, c1, c2):
        fresh_j, fresh_g = make_oracle().value_and_grad(c1)
        reused = make_oracle()
        reused.value_and_grad(c1)
        reused.value_and_grad(c2)
        j, g = reused.value_and_grad(c1)
        assert j == fresh_j
        assert np.array_equal(g, fresh_g)

    @pytest.mark.parametrize("backend", ["dense", "local"])
    def test_laplace(self, backend):
        from repro.cloud.square import SquareCloud
        from repro.pde.laplace import LaplaceControlProblem

        prob = LaplaceControlProblem(SquareCloud(10), backend=backend)
        c1 = np.linspace(-0.2, 0.3, prob.n_control)
        self._assert_stateless(lambda: LaplaceDAL(prob), c1, 2.0 * c1 + 0.1)

    @pytest.mark.parametrize("backend", ["dense", "local"])
    def test_navier_stokes(self, backend):
        from repro.cloud.channel import ChannelCloud
        from repro.pde.navier_stokes import ChannelFlowProblem

        prob = ChannelFlowProblem(
            cloud=ChannelCloud(13, 7), perturbation=0.3, backend=backend
        )
        cfg = NSConfig(reynolds=100.0, refinements=3)
        c1 = prob.default_control()
        self._assert_stateless(
            lambda: NavierStokesDAL(prob, cfg, adjoint_refinements=8),
            c1,
            0.5 * c1,
        )
