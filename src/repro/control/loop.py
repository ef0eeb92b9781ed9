"""The shared gradient-descent loop (Adam + the paper's LR schedule).

The paper runs DAL, DP (and the PINN's network updates) through Adam with
an initial learning rate divided by 10 at 50 % completion and again at
75 %.  This module implements that loop once so the methods differ only
in their gradient oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.control.problem import CostOracle
from repro.nn.optimizers import Adam
from repro.nn.schedules import paper_schedule
from repro.obs.health import current_watchdog
from repro.obs.profile import span as _span
from repro.utils.timers import Timer


@dataclass
class OptimizationHistory:
    """Per-iteration record of an optimisation run."""

    costs: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def best_cost(self) -> float:
        """Lowest cost seen."""
        return min(self.costs) if self.costs else np.inf


def optimize(
    oracle: CostOracle,
    n_iterations: int,
    initial_lr: float,
    c0: Optional[np.ndarray] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
    grad_clip: Optional[float] = None,
    recorder=None,
) -> tuple[np.ndarray, OptimizationHistory]:
    """Run Adam with the paper's schedule on a cost oracle.

    Parameters
    ----------
    oracle:
        The method-specific gradient oracle.
    n_iterations:
        Iteration budget (the paper's "Iterations" hyperparameter).
    initial_lr:
        Initial Adam learning rate (Table 1/2 values).
    c0:
        Starting control (defaults to ``oracle.initial_control()``).
    callback:
        Optional per-iteration hook ``(iteration, control, cost)``.
    grad_clip:
        Optional global-norm gradient clip — useful for DAL on
        Navier–Stokes where the paper reports gradients "rising to very
        large values".
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder`.  When falsy
        (``None`` or the null recorder) the loop takes no timestamps and
        allocates nothing beyond the history it always kept; when live,
        each iteration emits one record with the cost, gradient norm,
        step size and grad/update phase seconds.

    Under a profiler the loop's wall time is partitioned into ``phase``
    spans: ``setup`` before the loop, then per iteration ``grad``,
    ``eval``, ``update`` and, with a recorder, ``telemetry``.

    Returns
    -------
    (best_control, history)
        The control achieving the lowest observed cost and the full
        per-iteration record.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    with _span("setup", "phase"):
        c = np.array(oracle.initial_control() if c0 is None else c0, dtype=np.float64)
        schedule = paper_schedule(initial_lr)
        opt = Adam(lr=initial_lr)
        state = opt.init(c)
        history = OptimizationHistory()
        best_c, best_j = c.copy(), np.inf
        trace = recorder if recorder else None
        # One hoisted global read; the disabled path costs one ``is not
        # None`` test per iteration (same class as the trace guards).
        wd = current_watchdog()

    with Timer() as timer:
        for it in range(n_iterations):
            if trace is not None:
                timer.mark()
            with _span("grad", "phase"):
                j, g = oracle.value_and_grad(c)
            if trace is not None:
                t_grad = timer.lap("grad")
            with _span("eval", "phase"):
                if grad_clip is not None:
                    norm = float(np.linalg.norm(g))
                    if norm > grad_clip:
                        g = g * (grad_clip / norm)
                lr = schedule(it, n_iterations)
                history.costs.append(float(j))
                history.grad_norms.append(float(np.linalg.norm(g)))
                history.learning_rates.append(lr)
                if np.isfinite(j) and j < best_j:
                    best_j, best_c = float(j), c.copy()
                if callback is not None:
                    callback(it, c, float(j))
                grad_finite = bool(np.all(np.isfinite(g)))
                if wd is not None:
                    for ev in wd.observe_iteration(
                        it, history.costs[-1], history.grad_norms[-1]
                    ):
                        if trace is not None:
                            trace.health_event(
                                ev.check, ev.severity, ev.iteration,
                                ev.value, ev.message,
                            )
            if not grad_finite:
                # Divergence (the DAL-on-NS failure mode): stop updating
                # but keep the record — the benchmark reports it.
                if trace is not None:
                    with _span("telemetry", "phase"):
                        trace.iteration(
                            it, history.costs[-1], history.grad_norms[-1], lr,
                            phases={"grad": t_grad, "update": 0.0},
                        )
                break
            with _span("update", "phase"):
                c, state = opt.step(c, g, state, lr=lr)
            if trace is not None:
                with _span("telemetry", "phase"):
                    trace.iteration(
                        it, history.costs[-1], history.grad_norms[-1], lr,
                        phases={"grad": t_grad, "update": timer.lap("update")},
                    )
    history.wall_time_s = timer.elapsed
    if trace is not None:
        trace.set_meta(
            iterations_run=len(history.costs),
            wall_time_s=timer.elapsed,
            phase_seconds=timer.laps(),
        )
    return best_c, history


def batched_cost_sweep(oracle, controls: np.ndarray) -> np.ndarray:
    """Evaluate the cost of N candidate controls in one stacked forward.

    Vectorises the oracle's tape-level cost (``_cost_tensor``) over the
    candidate axis with :func:`repro.autodiff.vbatch`: all N right-hand
    sides flow through ONE multi-RHS solve against the oracle's cached
    factorisation instead of N separate solves.  Used by restart seeding,
    the ``batch_smoke`` gate, and anywhere a population of controls must
    be scored (each entry bitwise-identical to ``oracle.value`` on the
    sparse backend for the narrow populations those callers use —
    SuperLU's multi-RHS solve is per-column bitwise up to ~50 columns).
    Oracles without a tape-level cost fall back to a per-candidate loop
    of ``oracle.value``.
    """
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2:
        raise ValueError(
            f"controls must be (N, n_control), got shape {controls.shape}"
        )
    fn = getattr(oracle, "_cost_tensor", None)
    if fn is None:
        return np.asarray([float(oracle.value(c)) for c in controls])
    from repro.autodiff.batching import vbatch

    with _span("batched_cost_sweep", "method", {"n": controls.shape[0]}):
        out = vbatch(fn)(controls)
    return np.asarray(out.data, dtype=np.float64).copy()
