"""The two single-process workloads: inputs, one operation, its checks.

Each workload is driven only through public entry points: the problem
factories in ``repro.bench.harness``, the ``control.dp`` oracles,
``control.loop.optimize`` and ``control.pinn.omega_line_search``.
The ``repro.bench.harness`` *runners* are not used because they always
wrap the run in ``tracemalloc``.

An *operation* is one optimisation run from inputs drawn from
``(seed, k)``; ``k`` counts operations within a benchmark run, so the same
seed gives the same inputs.  ``run`` is the timed part, ``check`` returns
a list of failed output checks (empty when the outputs are correct).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.bench.configs import DEFAULT_SCALE
from repro.bench.harness import make_laplace_problem, make_ns_problem
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.loop import optimize
from repro.control.pinn import LaplacePINN, PINNTrainConfig, omega_line_search
from repro.pde.navier_stokes import NSConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: Relative tolerance of the recorded J history at the default seed.  The
#: histories are deterministic with one BLAS thread; the slack covers a
#: different LAPACK build on the same instruction set.
REFERENCE_RTOL = 1e-6
#: Relative tolerance of "recomputed J equals reported J".
RECOMPUTE_RTOL = 1e-9
#: Default seed: the one whose op-0 history is compared to the reference.
DEFAULT_SEED = 0


def rng_for(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k)])


def _history_mismatch(name: str, got: List[float], ref: List[float],
                      rtol: float) -> List[str]:
    got_a, ref_a = np.asarray(got, float), np.asarray(ref, float)
    if got_a.shape != ref_a.shape:
        return [f"{name}: length {got_a.size} != reference {ref_a.size}"]
    err = float(np.max(np.abs(got_a - ref_a)) / max(np.max(np.abs(ref_a)), 1e-300))
    return [] if err <= rtol else [f"{name}: rel. error {err:.3e} > {rtol:g}"]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE) as f:
        return json.load(f)


class NsDp:
    """``ns_dp``: the default-tier channel (231 nodes, Re = 100, k = 10),
    Adam with the paper schedule from a jittered parabolic inflow."""

    #: Relative jitter on the parabolic start control.
    JITTER = 0.05
    run_span = "control.optimize"

    def __init__(self, seed: int) -> None:
        self.name = "ns_dp"
        self.seed = int(seed)
        s = DEFAULT_SCALE.ns
        self.iterations = s.iterations
        self.lr = s.lr
        self.refinements = s.refinements_dp

    def config(self) -> Dict[str, Any]:
        s = DEFAULT_SCALE.ns
        return {
            "workload": self.name, "nx": s.nx, "ny": s.ny,
            "reynolds": s.reynolds, "pseudo_dt": s.pseudo_dt,
            "refinements": self.refinements,
            "iterations": self.iterations, "lr": self.lr,
            "perturbation": s.perturbation, "backend": s.backend,
            "solver": s.solver, "jitter": self.JITTER,
        }

    def setup(self, span) -> None:
        s = DEFAULT_SCALE
        with span("pde.problem_build"):
            self.problem = make_ns_problem(s)
        self.ns_config = NSConfig(reynolds=s.ns.reynolds,
                                  refinements=self.refinements,
                                  pseudo_dt=s.ns.pseudo_dt)
        self.oracle = NavierStokesDP(self.problem, self.ns_config)

    def inputs(self, k: int) -> np.ndarray:
        base = self.problem.default_control()
        rng = rng_for(self.seed, k)
        return base * (1.0 + self.JITTER * rng.standard_normal(base.size))

    def run(self, c0: np.ndarray) -> Tuple[np.ndarray, Any]:
        return optimize(self.oracle, self.iterations, self.lr, c0=c0)

    def work(self, result) -> int:
        return len(result[1].costs)

    def gradient(self, c0: np.ndarray) -> None:
        self.oracle.value_and_grad(c0)

    def reference(self, result) -> Dict[str, Any]:
        return {"costs": list(result[1].costs)}

    def check(self, k: int, c0: np.ndarray, result) -> List[str]:
        best_c, hist = result
        fails: List[str] = []
        if len(hist.costs) != self.iterations:
            fails.append(f"stopped after {len(hist.costs)} of "
                         f"{self.iterations} iterations")
        if not np.all(np.isfinite(hist.costs)):
            fails.append("non-finite cost in the J history")
        # The best control's cost, recomputed through the NumPy forward
        # solve, must equal the best J the optimiser reported.
        state = self.problem.solve(best_c, self.ns_config)
        j = self.problem.cost(state.u, state.v)
        if not abs(j - hist.best_cost) <= RECOMPUTE_RTOL * abs(hist.best_cost):
            fails.append(f"recomputed J {j!r} != reported best J "
                         f"{hist.best_cost!r}")
        fails += self._taylor(k, c0)
        if self.seed == DEFAULT_SEED and k == 0:
            ref = load_reference()[self.name]
            fails += _history_mismatch("J history", hist.costs, ref["costs"],
                                       REFERENCE_RTOL)
        return fails

    def _taylor(self, k: int, c0: np.ndarray) -> List[str]:
        """Taylor remainder J(c+hδ) − J(c) − h⟨∇J, δ⟩ = O(h²) at the start
        control: the DP gradient is the derivative of the discrete J."""
        j0, g = self.oracle.value_and_grad(c0)
        delta = 0.1 * rng_for(self.seed, k + 1_000_000).standard_normal(c0.size)
        hs = (1e-2, 5e-3, 2.5e-3)
        rem = [abs(self.oracle.value(c0 + h * delta) - j0 - h * float(g @ delta))
               for h in hs]
        rates = [np.log(rem[i] / rem[i + 1]) / np.log(hs[i] / hs[i + 1])
                 for i in range(len(hs) - 1)]
        if not all(np.isfinite(r) and r > 1.8 for r in rates):
            return [f"Taylor remainder rates {rates} are not ~2"]
        return []


class PinnLaplace:
    """``pinn_laplace``: the tier-0 two-step ω line search (3×30 tanh MLP,
    serial).  50 step-1 and 10 step-2 epochs keep one search near 1.5 s
    on two cores, so a run holds several.

    Step 2 gets a fifth of the budget: its epochs (state net only, no
    trackers) take about 70% of a step-1 epoch, so the epoch times have
    two modes.  With 10 step-2 epochs the median falls inside the step-1
    mode; with 50 or 25 it fell on or near the gap between the modes and
    jumped from run to run.
    """

    EPOCHS = 50
    EPOCHS_STEP2 = 10
    OMEGAS = (1e-1, 1.0, 1e1)
    run_span = "control.pinn.line_search"

    def __init__(self, seed: int) -> None:
        self.name = "pinn_laplace"
        self.seed = int(seed)
        p = DEFAULT_SCALE.pinn
        self.hidden = p.laplace_hidden
        self.lr = p.laplace_lr
        self.n_interior = p.n_interior
        self.n_boundary = p.n_boundary

    def config(self) -> Dict[str, Any]:
        return {
            "workload": self.name, "nx": DEFAULT_SCALE.laplace.nx,
            "hidden": list(self.hidden), "epochs": self.EPOCHS,
            "epochs_step2": self.EPOCHS_STEP2,
            "lr": self.lr, "omegas": list(self.OMEGAS),
            "n_interior": self.n_interior, "n_boundary": self.n_boundary,
            "jobs": 1, "batch": False,
        }

    def setup(self, span) -> None:
        with span("pde.problem_build"):
            self.problem = make_laplace_problem(DEFAULT_SCALE)
        # The reference RBF physics that prices the PINN's control.
        self.physics = LaplaceDP(self.problem)

    def inputs(self, k: int) -> int:
        return int(rng_for(self.seed, k).integers(0, 2**31 - 1))

    def _pinn(self, init_seed: int) -> LaplacePINN:
        cfg = PINNTrainConfig(
            epochs=self.EPOCHS, lr=self.lr, n_interior=self.n_interior,
            n_boundary=self.n_boundary, seed=init_seed,
        )
        return LaplacePINN(self.problem, state_hidden=self.hidden, config=cfg)

    def run(self, init_seed: int):
        pinn = self._pinn(init_seed)
        step2 = replace(pinn.config, epochs=self.EPOCHS_STEP2)
        return pinn, omega_line_search(pinn, self.OMEGAS, config_step2=step2,
                                       jobs=1)

    def work(self, result) -> int:
        ls = result[1]
        return len(ls.omegas) * (self.EPOCHS + self.EPOCHS_STEP2)

    def gradient(self, init_seed: int) -> None:
        from repro.nn.pytree import value_and_grad_tree

        pinn = self._pinn(init_seed)
        vg = value_and_grad_tree(lambda p: pinn.loss(p, self.OMEGAS[0]))
        vg(pinn.init_params(init_seed))

    def check(self, k: int, init_seed: int, result) -> List[str]:
        pinn, ls = result
        fails: List[str] = []
        if list(ls.omegas) != list(self.OMEGAS):
            fails.append(f"line search ran ω {ls.omegas}, not {self.OMEGAS}")
        for run in ls.step1:
            for name in ("loss_history", "cost_history", "residual_history"):
                h = getattr(run, name)
                if len(h) != self.EPOCHS or not np.all(np.isfinite(h)):
                    fails.append(f"ω={run.omega}: {name} not {self.EPOCHS} "
                                 "finite values")
        if not np.all(np.isfinite(ls.step2_costs)):
            fails.append("non-finite step-2 cost")
        physical = self.physics.value(pinn.control_values(ls.params_c))
        if not (np.isfinite(physical) and physical > 0.0):
            fails.append(f"physical J {physical!r} is not finite and positive")
        if self.seed == DEFAULT_SEED and k == 0:
            ref = load_reference()[self.name]
            losses = [v for run in ls.step1 for v in run.loss_history]
            fails += _history_mismatch("loss history", losses, ref["losses"],
                                       REFERENCE_RTOL)
            fails += _history_mismatch("step-2 J", ls.step2_costs,
                                       ref["step2_costs"], REFERENCE_RTOL)
            fails += _history_mismatch("physical J", [physical],
                                       [ref["physical_cost"]], REFERENCE_RTOL)
        return fails

    def reference(self, result) -> Dict[str, Any]:
        pinn, ls = result
        return {
            "losses": [v for run in ls.step1 for v in run.loss_history],
            "step2_costs": list(ls.step2_costs),
            "physical_cost": self.physics.value(pinn.control_values(ls.params_c)),
        }


def make(name: str, seed: int):
    """The batch workload called ``name``."""
    if name == "ns_dp":
        return NsDp(seed)
    if name == "pinn_laplace":
        return PinnLaplace(seed)
    raise KeyError(name)
