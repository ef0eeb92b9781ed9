"""CI smoke benchmark: the *disabled* profiler path must stay within budget.

The span call sites threaded through the optimisation and solver loops
(``repro.obs.profile.span``) promise near-zero cost while no profiler is
installed: one module-global read plus an empty context manager each.
This gate holds them to it.  It runs the Laplace DP iteration loop at
the smallest benchmarked scale twice per repeat —

- **baseline**: a local replica of the hot loop with no span sites at
  all (the code as it would look uninstrumented), and
- **instrumented**: the real :func:`repro.control.loop.optimize` with
  profiling disabled (the default) —

and fails when the instrumented loop is more than ``--tolerance`` slower
(default 2 %, the budget promised in DESIGN §11).  Uses the same
min-pairwise-ratio statistic as :mod:`repro.bench.trace_smoke`:
alternating the two modes within each repeat cancels clock drift, and
taking the minimum over pairwise ratios rejects one-off scheduler
hiccups that make best-of times flap on loaded machines.

A final *profiled* run (live :class:`~repro.obs.profile.SpanProfiler`)
checks that enabling profiling never perturbs the numerics; its
overhead is reported for information but not gated — profiling is
opt-in, and its cost is dominated by span bookkeeping the user asked
for.

Usage::

    python -m repro.bench.profile_smoke [--nx 16] [--iters 60]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.control.loop import optimize
from repro.nn.optimizers import Adam
from repro.nn.schedules import paper_schedule
from repro.obs.profile import SpanProfiler, profiling
from repro.pde.laplace import LaplaceControlProblem


def _optimize_baseline(oracle, n_iterations: int, initial_lr: float):
    """The ``optimize`` hot loop with no instrumentation whatsoever.

    Mirrors :func:`repro.control.loop.optimize` (Adam, paper schedule,
    history/best tracking) minus the span sites, timer and recorder
    branches, so the pairwise comparison isolates the cost of having
    the instrumentation *present but disabled*.
    """
    c = np.array(oracle.initial_control(), dtype=np.float64)
    schedule = paper_schedule(initial_lr)
    opt = Adam(lr=initial_lr)
    state = opt.init(c)
    costs = []
    best_c, best_j = c.copy(), np.inf
    for it in range(n_iterations):
        j, g = oracle.value_and_grad(c)
        lr = schedule(it, n_iterations)
        costs.append(float(j))
        if np.isfinite(j) and j < best_j:
            best_j, best_c = float(j), c.copy()
        if not bool(np.all(np.isfinite(g))):
            break
        c, state = opt.step(c, g, state, lr=lr)
    return best_c, min(costs)


def _paired_times(oracle, iters: int, lr: float, repeats: int):
    """Interleaved baseline/instrumented wall times over ``repeats`` pairs."""
    pairs = []
    base = inst = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        base = _optimize_baseline(oracle, iters, lr)
        t_base = time.perf_counter() - t0

        t0 = time.perf_counter()
        inst = optimize(oracle, iters, lr)
        pairs.append((t_base, time.perf_counter() - t0))
    return pairs, base, inst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=16, help="cloud resolution")
    ap.add_argument("--iters", type=int, default=60, help="optimiser iterations")
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--repeats", type=int, default=7, help="best-of repeats")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="max allowed fractional slowdown of the disabled span path",
    )
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if args.iters < 1:
        ap.error("--iters must be >= 1")

    problem = LaplaceControlProblem(SquareCloud(args.nx))
    oracle = LaplaceDP(problem)
    # Warm caches (LU factorisation) so both modes time the same work.
    optimize(oracle, 2, args.lr)

    pairs, (c_base, j_base), (c_off, h_off) = _paired_times(
        oracle, args.iters, args.lr, args.repeats
    )

    cost_diff = abs(j_base - h_off.best_cost)
    ctrl_diff = float(np.max(np.abs(c_base - c_off)))
    t_base = min(t for t, _ in pairs)
    t_off = min(t for _, t in pairs)
    overhead = min(off / base for base, off in pairs) - 1.0

    # One profiled run: numerics must be untouched; overhead is
    # informational (profiling is opt-in).
    prof = SpanProfiler()
    with profiling(prof):
        t0 = time.perf_counter()
        c_on, h_on = optimize(oracle, args.iters, args.lr)
        t_on = time.perf_counter() - t0
    on_cost_diff = abs(h_off.best_cost - h_on.best_cost)
    on_ctrl_diff = float(np.max(np.abs(c_off - c_on)))
    n_phase_spans = sum(1 for sp in prof.spans() if sp.category == "phase")

    print(
        f"laplace-dp nx={args.nx} iters={args.iters} ({args.repeats} pairs):\n"
        f"  uninstrumented   {t_base * 1e3:9.2f} ms (best)\n"
        f"  spans disabled   {t_off * 1e3:9.2f} ms (best)   "
        f"overhead {overhead:+.2%} (min pairwise, gated)\n"
        f"  spans profiled   {t_on * 1e3:9.2f} ms          "
        f"overhead {t_on / t_base - 1.0:+.2%} (informational)\n"
        f"  |cost diff| = {max(cost_diff, on_cost_diff):.3e}   "
        f"|control diff| = {max(ctrl_diff, on_ctrl_diff):.3e}\n"
        f"  phase spans recorded: {n_phase_spans}"
    )

    scale = max(abs(h_off.best_cost), 1e-30)
    if cost_diff > 1e-10 * scale + 1e-14 or on_cost_diff > 1e-10 * scale + 1e-14:
        print("FAIL: instrumentation perturbs the final cost", file=sys.stderr)
        return 1
    if ctrl_diff > 0.0 or on_ctrl_diff > 0.0:
        print("FAIL: instrumentation perturbs the final control", file=sys.stderr)
        return 1
    if n_phase_spans != 1 + 3 * args.iters:
        print(
            f"FAIL: profiler saw {n_phase_spans} phase spans, expected "
            f"{1 + 3 * args.iters} (setup, then grad + eval + update per iteration)",
            file=sys.stderr,
        )
        return 1
    if overhead > args.tolerance:
        print(
            f"FAIL: disabled span path adds {overhead:.1%} overhead "
            f"(budget {args.tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
