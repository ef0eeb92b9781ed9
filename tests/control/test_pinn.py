"""Tests for the PINN method and the two-step omega line search.

Training budgets here are tiny (hundreds of epochs): the tests check
*mechanisms* — losses decrease, residuals respond to omega, the line
search selects by retrained cost — not paper-level accuracy, which the
benchmark suite covers at larger budgets.
"""

import numpy as np
import pytest

from repro.control.pinn import (
    LaplacePINN,
    LineSearchResult,
    NavierStokesPINN,
    PINNTrainConfig,
    omega_line_search,
)
from repro.nn.pytree import value_and_grad_tree
from repro.pde.navier_stokes import NSConfig

FAST = PINNTrainConfig(epochs=150, lr=2e-3, n_interior=80, n_boundary=12, seed=0)


def _train_on_eager_tape(monkeypatch):
    """Make the PINN trainer differentiate its loss with
    :func:`value_and_grad_tree` (the eager tape) every epoch."""
    from repro.control import pinn as pinn_mod

    monkeypatch.setattr(pinn_mod, "value_and_grad_tree", value_and_grad_tree)


@pytest.fixture(scope="module")
def lap_pinn(laplace_problem):
    return LaplacePINN(
        laplace_problem, state_hidden=(16, 16), control_hidden=(8,), config=FAST
    )


class TestLaplacePINNComponents:
    def test_init_params_structure(self, lap_pinn):
        p = lap_pinn.init_params()
        assert set(p) == {"u", "c"}
        assert p["u"][0]["W"].shape == (2, 16)
        assert p["c"][0]["W"].shape == (1, 8)

    def test_residual_loss_nonnegative(self, lap_pinn):
        p = lap_pinn.init_params()
        assert float(lap_pinn.residual_loss(p["u"]).data) >= 0.0

    def test_loss_composition(self, lap_pinn):
        p = lap_pinn.init_params()
        l0 = float(lap_pinn.loss(p, omega=0.0).data)
        l1 = float(lap_pinn.loss(p, omega=1.0).data)
        j = float(lap_pinn.cost_objective(p["u"]).data)
        assert l1 == pytest.approx(l0 + j, rel=1e-10)

    def test_training_reduces_loss(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_histories_recorded(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        assert len(run.loss_history) == FAST.epochs
        assert len(run.cost_history) == FAST.epochs
        assert len(run.residual_history) == FAST.epochs

    def test_joint_training_mode(self, laplace_problem):
        cfg = PINNTrainConfig(
            epochs=60, lr=2e-3, n_interior=50, n_boundary=10, alternating=False
        )
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(8,), control_hidden=(8,), config=cfg
        )
        run = pinn.train_pair(omega=0.1)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_retrain_state_reduces_forward_loss(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        _, hist = lap_pinn.retrain_state(run.params_c)
        assert hist[-1] < hist[0]

    def test_control_values_shape(self, lap_pinn, laplace_problem):
        run = lap_pinn.train_pair(omega=0.1)
        c = lap_pinn.control_values(run.params_c)
        assert c.shape == (laplace_problem.n_control,)

    def test_evaluate_cost_positive(self, lap_pinn):
        p = lap_pinn.init_params()
        assert lap_pinn.evaluate_cost(p["u"]) > 0.0

    def test_state_values(self, lap_pinn):
        p = lap_pinn.init_params()
        pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
        assert lap_pinn.state_values(p["u"], pts).shape == (5,)

    def test_large_omega_prioritises_cost(self, laplace_problem):
        """Mechanism behind Fig. 3c–e: larger ω trades PDE fit for cost."""
        cfg = PINNTrainConfig(epochs=400, lr=2e-3, n_interior=80, n_boundary=12)
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(16, 16), control_hidden=(8,), config=cfg
        )
        run_small = pinn.train_pair(omega=1e-3)
        run_big = pinn.train_pair(omega=1e2)
        assert run_big.cost_history[-1] < run_small.cost_history[-1]


class TestLineSearch:
    def test_structure_and_selection(self, lap_pinn):
        omegas = [1e-2, 1.0]
        ls = omega_line_search(lap_pinn, omegas)
        assert isinstance(ls, LineSearchResult)
        assert ls.best_omega in omegas
        assert len(ls.step1) == 2
        assert len(ls.step2_costs) == 2
        assert ls.best_cost == pytest.approx(min(ls.step2_costs))
        assert ls.omegas == [1e-2, 1.0]
        assert ls.failures == []

    def test_empty_omegas_raises(self, lap_pinn):
        with pytest.raises(ValueError):
            omega_line_search(lap_pinn, [])


# Module-level so worker processes resolve it under any start method.
class _FailingPINN(LaplacePINN):
    """Raises during step-1 training for one poisoned ω."""

    poisoned_omega = 1.0

    def train_pair(self, omega, config=None, seed=None, recorder=None):
        if omega == self.poisoned_omega:
            raise RuntimeError(f"poisoned omega {omega}")
        return super().train_pair(omega, config, seed=seed, recorder=recorder)


class _AllFailPINN(LaplacePINN):
    def train_pair(self, omega, config=None, seed=None, recorder=None):
        raise RuntimeError(f"poisoned omega {omega}")


class TestLineSearchParallel:
    """Serial/parallel equivalence of the ω line search (the determinism
    bugfix: per-ω seeds derived from (cfg.seed, ω), never shared RNG)."""

    CFG = PINNTrainConfig(epochs=40, lr=2e-3, n_interior=60, n_boundary=10, seed=0)
    OMEGAS = [1e-2, 1e-1, 1.0]

    def _pinn(self, laplace_problem, cls=LaplacePINN):
        return cls(
            laplace_problem, state_hidden=(8,), control_hidden=(6,),
            config=self.CFG,
        )

    @staticmethod
    def _flat(params):
        out = []
        for layer in params:
            out.append(layer["W"].ravel())
            out.append(layer["b"].ravel())
        return np.concatenate(out)

    def test_parallel_bitwise_identical_to_serial(self, laplace_problem):
        serial = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, jobs=1
        )
        pooled = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, jobs=2
        )
        assert pooled.best_omega == serial.best_omega
        assert pooled.best_cost == serial.best_cost
        assert pooled.step2_costs == serial.step2_costs
        assert np.array_equal(
            self._flat(pooled.params_u_retrained),
            self._flat(serial.params_u_retrained),
        )
        assert np.array_equal(
            self._flat(pooled.params_c), self._flat(serial.params_c)
        )
        for a, b in zip(serial.step1, pooled.step1):
            assert a.loss_history == b.loss_history
            assert a.cost_history == b.cost_history

    def test_omega_order_permutation_invariant(self, laplace_problem):
        """Regression: with sequential shared-RNG training, each ω's result
        depended on its position in the list.  Derived per-ω seeds make the
        per-candidate outcome a function of ω alone."""
        fwd = omega_line_search(self._pinn(laplace_problem), self.OMEGAS, jobs=1)
        rev = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS[::-1], jobs=2
        )
        assert dict(zip(fwd.omegas, fwd.step2_costs)) == dict(
            zip(rev.omegas, rev.step2_costs)
        )
        assert rev.best_omega == fwd.best_omega
        assert rev.best_cost == fwd.best_cost

    def test_recorder_stream_matches_serial(self, laplace_problem):
        from repro.obs import TolerancePolicy, TraceRecorder, diff_traces

        rec_s, rec_p = TraceRecorder(), TraceRecorder()
        omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, recorder=rec_s, jobs=1
        )
        omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, recorder=rec_p, jobs=2
        )
        assert len(rec_s.records) == len(rec_p.records)
        assert diff_traces(rec_s, rec_p, TolerancePolicy()) == []

    def test_failed_candidate_dropped_not_fatal(self, laplace_problem):
        ls = omega_line_search(self._pinn(laplace_problem, _FailingPINN),
                               self.OMEGAS, jobs=2)
        assert ls.omegas == [1e-2, 1e-1]
        assert len(ls.step1) == len(ls.step2_costs) == 2
        (failure,) = ls.failures
        assert failure.key == "omega=1"
        assert failure.error["type"] == "RuntimeError"
        assert ls.best_omega in ls.omegas

    def test_all_candidates_failing_raises(self, laplace_problem):
        from repro.parallel import TaskError

        pinn = self._pinn(laplace_problem, _AllFailPINN)
        with pytest.raises(TaskError, match="omega"):
            omega_line_search(pinn, [1e-2, 1.0], jobs=2)



class TestLineSearchBatched:
    """vbatch'd ω line search vs the serial loop, plus the N_ω == 1
    regression: every path (serial, batched, parallel, degenerate
    single-candidate) derives the per-ω seed from ``(cfg.seed, ω)``, so
    one candidate's result is bitwise the same everywhere it appears."""

    CFG = PINNTrainConfig(epochs=40, lr=2e-3, n_interior=60, n_boundary=10, seed=0)
    OMEGAS = [1e-2, 1e-1, 1.0]

    def _pinn(self, laplace_problem):
        return LaplacePINN(
            laplace_problem, state_hidden=(8,), control_hidden=(6,),
            config=self.CFG,
        )

    @staticmethod
    def _flat(params):
        out = []
        for layer in params:
            out.append(layer["W"].ravel())
            out.append(layer["b"].ravel())
        return np.concatenate(out)

    def _assert_same(self, a: LineSearchResult, b: LineSearchResult):
        assert b.best_omega == a.best_omega
        assert b.best_cost == a.best_cost
        assert b.step2_costs == a.step2_costs
        assert np.array_equal(
            self._flat(b.params_u_retrained), self._flat(a.params_u_retrained)
        )
        assert np.array_equal(self._flat(b.params_c), self._flat(a.params_c))
        for ra, rb in zip(a.step1, b.step1):
            assert rb.loss_history == ra.loss_history
            assert rb.cost_history == ra.cost_history
            assert rb.residual_history == ra.residual_history
            assert np.array_equal(
                self._flat(rb.params_u), self._flat(ra.params_u)
            )
            assert np.array_equal(
                self._flat(rb.params_c), self._flat(ra.params_c)
            )

    def test_batched_bitwise_identical_to_serial(self, laplace_problem):
        serial = omega_line_search(self._pinn(laplace_problem), self.OMEGAS)
        batched = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, batch=True
        )
        self._assert_same(serial, batched)

    def test_batch_composes_with_jobs(self, laplace_problem):
        serial = omega_line_search(self._pinn(laplace_problem), self.OMEGAS)
        two_level = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, batch=True, jobs=2
        )
        self._assert_same(serial, two_level)

    def test_single_candidate_bitwise_across_all_paths(self, laplace_problem):
        """Regression: the degenerate N_ω == 1 run must reuse the same
        derived ``(cfg.seed, ω)`` key as any multi-candidate run that
        includes the same ω — serial, batched, and parallel alike."""
        omega = self.OMEGAS[1]
        solo = omega_line_search(self._pinn(laplace_problem), [omega])
        solo_batch = omega_line_search(
            self._pinn(laplace_problem), [omega], batch=True
        )
        solo_jobs = omega_line_search(
            self._pinn(laplace_problem), [omega], jobs=2
        )
        self._assert_same(solo, solo_batch)
        self._assert_same(solo, solo_jobs)

        multi = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, batch=True
        )
        i = multi.omegas.index(omega)
        run_multi, run_solo = multi.step1[i], solo.step1[0]
        assert run_multi.loss_history == run_solo.loss_history
        assert multi.step2_costs[i] == solo.step2_costs[0]
        assert np.array_equal(
            self._flat(run_multi.params_c), self._flat(run_solo.params_c)
        )

    def test_batched_recorder_gets_verdict_meta(self, laplace_problem):
        from repro.obs import TraceRecorder

        rec = TraceRecorder()
        ls = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, recorder=rec, batch=True
        )
        assert rec.meta["best_omega"] == ls.best_omega
        assert rec.meta["step2_costs"] == ls.step2_costs


class TestNavierStokesPINN:
    @pytest.fixture(scope="class")
    def ns_pinn(self, channel_problem):
        cfg = PINNTrainConfig(
            epochs=120, lr=2e-3, n_interior=80, n_boundary=12, seed=0
        )
        return NavierStokesPINN(
            channel_problem,
            ns_config=NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5),
            state_hidden=(16, 16),
            control_hidden=(8,),
            config=cfg,
        )

    def test_residual_includes_all_equations(self, ns_pinn):
        p = ns_pinn.init_params()
        assert float(ns_pinn.residual_loss(p["u"]).data) > 0.0

    def test_training_reduces_loss(self, ns_pinn):
        run = ns_pinn.train_pair(omega=1.0)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_control_values_shape(self, ns_pinn, channel_problem):
        run = ns_pinn.train_pair(omega=1.0)
        assert ns_pinn.control_values(run.params_c).shape == (
            channel_problem.n_control,
        )

    def test_evaluate_cost_physical_runs_reference_solver(
        self, ns_pinn, channel_problem
    ):
        run = ns_pinn.train_pair(omega=1.0)
        j_phys = ns_pinn.evaluate_cost_physical(run.params_c)
        assert np.isfinite(j_phys) and j_phys >= 0.0

    def test_retrain_state(self, ns_pinn):
        run = ns_pinn.train_pair(omega=1.0)
        pu, hist = ns_pinn.retrain_state(run.params_c)
        assert hist[-1] < hist[0]
        assert np.isfinite(ns_pinn.evaluate_cost(pu))

    def test_batched_line_search_bitwise_equal_serial(self, channel_problem):
        """Three-output state net, NS loss terms and trackers through the
        stacked program: slice for slice the serial search."""
        cfg = PINNTrainConfig(epochs=8, lr=2e-3, n_interior=40, n_boundary=10, seed=0)

        def pinn():
            return NavierStokesPINN(
                channel_problem,
                ns_config=NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5),
                state_hidden=(8, 8), control_hidden=(5,), config=cfg,
            )

        serial = omega_line_search(pinn(), [0.1, 10.0])
        batched = omega_line_search(pinn(), [0.1, 10.0], batch=True)
        assert batched.step2_costs == serial.step2_costs
        for a, b in zip(serial.step1, batched.step1):
            assert b.loss_history == a.loss_history
            assert b.cost_history == a.cost_history
            assert b.residual_history == a.residual_history

    def test_blowing_data_nonzero_on_segment(self, ns_pinn, channel_problem):
        geo = channel_problem.geometry
        xb = ns_pinn.x_bot[:, 0]
        on = (xb > geo.seg_lo) & (xb < geo.seg_hi)
        assert np.all(ns_pinn.v_bot_data[on] > 0)
        assert np.all(ns_pinn.v_bot_data[~on] == 0)


class TestEpochWork:
    """Each epoch does each piece of work once: the trackers read the
    cost and residual the loss forward computed, and an alternating epoch
    differentiates only the network it updates."""

    CFG = PINNTrainConfig(epochs=6, lr=2e-3, n_interior=40, n_boundary=10, seed=0)

    def _pinn(self, laplace_problem, **cfg):
        from dataclasses import replace

        return LaplacePINN(
            laplace_problem, state_hidden=(8, 8), control_hidden=(6,),
            config=replace(self.CFG, **cfg),
        )

    @pytest.mark.parametrize("compile", [False, True])
    def test_aux_trackers_bitwise_equal_recomputed(self, laplace_problem, compile):
        from repro.autodiff.compile import compiled_value_and_grad_tree

        pinn = self._pinn(laplace_problem)
        make = compiled_value_and_grad_tree if compile else value_and_grad_tree
        rng = np.random.default_rng(3)
        for wrt in (None, ("u",), ("c",)):
            vg = make(lambda p: pinn.loss_terms(p, 0.3), has_aux=True, wrt=wrt)
            params = pinn.init_params(1)
            for _ in range(4):  # first call, trace, then replays on new parameters
                (val, aux), _ = vg(params)
                assert val == float(pinn.loss(params, 0.3).data)
                assert float(aux["cost"]) == float(pinn.cost_objective(params["u"]).data)
                assert float(aux["residual"]) == float(
                    pinn.residual_loss(params["u"]).data
                )
                params = {
                    k: [{n: a + 0.05 * rng.standard_normal(a.shape) for n, a in l.items()}
                        for l in v]
                    for k, v in params.items()
                }

    def test_histories_eager_equal_replay(self, laplace_problem, monkeypatch):
        replay = self._pinn(laplace_problem).train_pair(0.1)
        _train_on_eager_tape(monkeypatch)
        eager = self._pinn(laplace_problem).train_pair(0.1)
        assert replay.loss_history == eager.loss_history
        assert replay.cost_history == eager.cost_history
        assert replay.residual_history == eager.residual_history
        p0 = self._pinn(laplace_problem).init_params()
        assert eager.cost_history[0] == float(
            self._pinn(laplace_problem).cost_objective(p0["u"]).data
        )

    def test_alternating_epoch_differentiates_active_network_only(
        self, laplace_problem, monkeypatch
    ):
        """The frozen network still takes an Adam step on zero gradients."""
        from repro.control import pinn as pinn_mod

        seen = []
        step = pinn_mod.Adam.step

        def spy(self, params, grads, state, lr=None):
            seen.append({k: [np.abs(a).sum() for l in v for a in l.values()]
                         for k, v in grads.items()})
            return step(self, params, grads, state, lr=lr)

        monkeypatch.setattr(pinn_mod.Adam, "step", spy)
        self._pinn(laplace_problem).train_pair(0.1)
        for epoch, g in enumerate(seen):
            frozen = "c" if epoch % 2 == 0 else "u"
            assert not any(g[frozen]), epoch
            assert any(g["u" if frozen == "c" else "c"]), epoch


class TestTier0HistoriesGolden:
    """Step-1 loss/cost/residual histories at the tier-0 network and
    training configuration, against values recorded with the op-by-op
    network evaluation (one tape node per primitive, trackers recomputed
    after every epoch, backward through both networks).  The fused
    network node changes gradients in the last bits only.  ``replay``
    False runs the trainer on the eager tape, True as it ships (each
    gradient wrapper traces on its second epoch and replays after)."""

    @staticmethod
    def _golden():
        import json
        import os

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "goldens", "pinn_histories_tier0.json")) as f:
            return json.load(f)

    @staticmethod
    def _assert_close(run, ref):
        for name, got in (("loss", run.loss_history), ("cost", run.cost_history),
                          ("residual", run.residual_history)):
            want = np.asarray(ref[name])
            rel = np.max(np.abs(np.asarray(got) - want) / np.abs(want))
            assert len(got) == ref["epochs"] and rel <= 1e-12, (name, rel)

    @pytest.mark.parametrize("replay", [False, True])
    def test_laplace(self, laplace_problem, replay, monkeypatch):
        from repro.bench.configs import DEFAULT_SCALE

        if not replay:
            _train_on_eager_tape(monkeypatch)

        s, ref = DEFAULT_SCALE.pinn, self._golden()["laplace"]
        pinn = LaplacePINN(
            laplace_problem, state_hidden=s.laplace_hidden,
            config=PINNTrainConfig(
                epochs=ref["epochs"], lr=s.laplace_lr, n_interior=s.n_interior,
                n_boundary=s.n_boundary, seed=0,
            ),
        )
        self._assert_close(pinn.train_pair(ref["omega"]), ref)

    @pytest.mark.parametrize("replay", [False, True])
    def test_navier_stokes(self, channel_problem, replay, monkeypatch):
        from repro.bench.configs import DEFAULT_SCALE

        if not replay:
            _train_on_eager_tape(monkeypatch)

        s, ref = DEFAULT_SCALE.pinn, self._golden()["navier_stokes"]
        pinn = NavierStokesPINN(
            channel_problem,
            ns_config=NSConfig(reynolds=100.0, refinements=6, pseudo_dt=0.5),
            state_hidden=s.ns_hidden,
            config=PINNTrainConfig(
                epochs=ref["epochs"], lr=s.ns_lr, n_interior=s.n_interior,
                n_boundary=s.n_boundary, seed=0,
            ),
        )
        self._assert_close(pinn.train_pair(ref["omega"]), ref)
