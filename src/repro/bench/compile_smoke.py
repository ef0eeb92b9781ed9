"""CI smoke benchmark: compiled replay must not regress below eager.

Runs the Laplace DP iteration loop at the smallest benchmarked scale
twice — through the DP oracle, which traces and replays, and through the
eager tape (:func:`repro.autodiff.functional.value_and_grad` on the same
cost) — and compares best-of-``repeats`` wall times.  Exits nonzero when
the oracle is more than ``--tolerance`` slower than eager (default 10 %)
or when the final costs disagree — a cheap guard that keeps the replay
fast path honest on every push.

Usage::

    python -m repro.bench.compile_smoke [--nx 10] [--iters 30]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.autodiff.functional import value_and_grad
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.control.loop import optimize
from repro.pde.laplace import LaplaceControlProblem


class EagerOracle:
    """A DP oracle's (``LaplaceDP``, ``NavierStokesDP``) cost,
    differentiated on the eager tape every call."""

    def __init__(self, dp) -> None:
        self._vg = value_and_grad(dp._cost_tensor)
        self.initial_control = dp.initial_control

    def value_and_grad(self, c: np.ndarray):
        return self._vg(np.asarray(c, dtype=np.float64))


def _best_time(oracle, iters: int, lr: float, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = optimize(oracle, iters, lr)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=10, help="cloud resolution")
    ap.add_argument("--iters", type=int, default=30, help="optimiser iterations")
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="max allowed fractional slowdown of compiled vs eager",
    )
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if args.iters < 1:
        ap.error("--iters must be >= 1")

    problem = LaplaceControlProblem(SquareCloud(args.nx))
    t_eager, (c_e, h_e) = _best_time(
        EagerOracle(LaplaceDP(problem)), args.iters, args.lr, args.repeats
    )
    t_comp, (c_c, h_c) = _best_time(
        LaplaceDP(problem), args.iters, args.lr, args.repeats
    )

    cost_diff = abs(h_e.best_cost - h_c.best_cost)
    ctrl_diff = float(np.max(np.abs(c_e - c_c)))
    speedup = t_eager / t_comp if t_comp > 0 else float("inf")
    print(
        f"laplace-dp nx={args.nx} iters={args.iters} (best of {args.repeats}):\n"
        f"  eager    {t_eager * 1e3:9.2f} ms\n"
        f"  compiled {t_comp * 1e3:9.2f} ms   speedup {speedup:.2f}x\n"
        f"  |cost diff| = {cost_diff:.3e}   |control diff| = {ctrl_diff:.3e}"
    )

    scale = max(abs(h_e.best_cost), 1e-30)
    if cost_diff > 1e-10 * scale + 1e-14:
        print("FAIL: compiled final cost deviates from eager", file=sys.stderr)
        return 1
    if t_comp > t_eager * (1.0 + args.tolerance):
        print(
            f"FAIL: compiled is {t_comp / t_eager - 1.0:.1%} slower than eager "
            f"(tolerance {args.tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
