"""One workload process: set up, run operations for a window, report JSON.

Started by ``run.py`` (one fresh process per set-up sample and per
measured window) as::

    python3 perfbench/child.py --workload W --seed N --seconds S \
        --mode {setup,measure,trace} --t0 T --out-dir DIR

``--t0`` is the parent's ``time.perf_counter()`` just before it spawned
this process; on Linux that clock is CLOCK_MONOTONIC, shared by every
process, so ``ready - t0`` is set-up time from process start, interpreter
start-up and imports included.  The result is the last line of stdout.
"""

from __future__ import annotations

import time

T_IMPORT0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from common import ROOT, environment, percentile, vm_hwm_kib  # noqa: E402


class IterationClock:
    """A run-health watchdog that only timestamps iterations.

    ``control.loop.optimize`` and the PINN epoch loop both call the
    installed watchdog once per iteration, so the gaps between calls are
    per-iteration latencies.  The PINN loop computes one gradient norm per
    epoch for it (well under 1% of an epoch).
    """

    def __init__(self) -> None:
        self.stamps = []

    def observe_iteration(self, it, cost, grad_norm):
        self.stamps.append((it, time.perf_counter()))
        return ()

    def gaps(self, lo: int, hi: int):
        s = self.stamps[lo:hi]
        return [b[1] - a[1] for a, b in zip(s, s[1:]) if b[0] == a[0] + 1]


def _op(w, k, inp):
    """Run + check one operation; returns (wall, result, failures)."""
    t = time.perf_counter()
    try:
        result = w.run(inp)
    except Exception as exc:  # noqa: BLE001 — a raising run is a failure
        return None, None, [f"run raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t
    try:
        fails = w.check(k, inp, result)
    except Exception as exc:  # noqa: BLE001 — so is a raising check
        fails = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, result, fails


def batch_measure(w, args, ready: float) -> dict:
    """Operations until the window closes.  Rates and iteration-time
    percentiles are taken per operation, and the median over operations
    is reported: a burst of host contention that slows one or two
    operations does not move the result."""
    from repro.obs.health import set_watchdog

    clock = IterationClock()
    set_watchdog(clock)
    deadline = ready + args.seconds
    ops, k = [], 0
    try:
        while k == 0 or time.perf_counter() < deadline:
            mark = len(clock.stamps)
            wall, result, fails = _op(w, k, w.inputs(k))
            ops.append({"ok": not fails, "wall_s": wall,
                        "work": w.work(result) if result is not None else 0,
                        "gaps": clock.gaps(mark, len(clock.stamps)),
                        "failures": fails})
            k += 1
    finally:
        set_watchdog(None)
    good = [o for o in ops if o["ok"]]

    def median(f):
        return statistics.median(f(o) for o in good) if good else 0.0

    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": [f for o in ops for f in o["failures"]],
        "metrics": {
            "iters_per_s": median(lambda o: o["work"] / o["wall_s"]),
            "throughput_rps": median(lambda o: 1.0 / o["wall_s"]),
            "latency_p50_ms": median(lambda o: 1e3 * percentile(o["gaps"], 50)),
            "latency_p95_ms": median(lambda o: 1e3 * percentile(o["gaps"], 95)),
            "peak_rss_mib": vm_hwm_kib() / 1024.0,
        },
        "samples": {"ops": len(good),
                    "iterations": sum(len(o["gaps"]) for o in good)},
    }


def batch_trace(w, args, tr, import_s: float, setup: dict) -> dict:
    """Untraced and traced operations in turn, on the inputs of op 0, so
    that both see the same phases of a shared host.

    The first failing operation ends the run; its numbers are not used.
    """
    import tracer as T

    inp = w.inputs(0)
    failures, untraced, traced = [], [], []  # traced: (run span, counts)
    end = time.perf_counter() + args.seconds
    while not failures and (not traced or time.perf_counter() < end):
        wall, _, failures = _op(w, 0, inp)
        if failures:
            break
        untraced.append(wall)
        T.install_batch_layers(tr)
        try:
            with tr.span("bench.op"):
                before = tr.counts.copy()
                with tr.span(w.run_span) as run_id:
                    result = w.run(inp)
                counts = dict(tr.counts - before)
                with tr.span("bench.check"):
                    failures = w.check(0, inp, result)
        except Exception as exc:  # noqa: BLE001 — a raising op fails
            failures = [f"traced op raised {type(exc).__name__}: {exc}"]
        finally:
            tr.uninstall()
        if not failures:
            traced.append((run_id, counts))
    out = {"attempted": len(untraced) + len(traced) + bool(failures),
           "failed": int(bool(failures)), "failures": failures, "metrics": {},
           "samples": {"untraced_ops": len(untraced),
                       "traced_ops": len(traced)}}
    if failures:
        return out

    tracemalloc.start()
    w.gradient(inp)
    tape_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics, problems = batch_layer_metrics(tr, traced, setup, untraced,
                                            import_s)
    metrics["autodiff.tape_peak_mib"] = tape_peak / 2**20
    out.update(metrics=metrics, failures=problems, failed=int(bool(problems)))
    return out


def batch_layer_metrics(tr, traced, setup, untraced, import_s):
    """Per-layer numbers for one traced op (seconds averaged over the
    traced ops, counts from the first and required to repeat exactly)."""
    import tracer as T

    by_id = {s[0]: s for s in tr.spans}
    problems = []
    setup_rows = T.summarize(T.subtree(tr.spans, setup["span"]))

    def setup_secs(name):
        return setup_rows.get(name, {}).get("total_s", 0.0)

    per_op = []
    for run_id, counts in traced:
        # The run span itself is left out: its self time is the part of
        # the run that no wrapped layer function covers.
        spans = T.subtree(tr.spans, run_id)
        rows = T.summarize(spans)
        wall = by_id[run_id][3] - by_id[run_id][2]
        layers = {L: 0.0 for L in T.LAYERS}
        for name, row in rows.items():
            layers[T.layer_of(name)] += row["self_s"]
        flops = sum(2.0 * s[6]["n"] ** 3 / 3.0 for s in spans
                    if s[1] == "kernel.lu_factor")
        per_op.append((rows, counts, wall, layers, flops))

    def calls(rows, name):
        return rows.get(name, {}).get("calls", 0)

    def secs(name):
        return statistics.fmean(r.get(name, {}).get("total_s", 0.0)
                                for r, *_ in per_op)

    exact = []
    for rows, counts, _, _, flops in per_op:
        exact.append(({n: r["calls"] for n, r in rows.items()}, counts, flops))
    if any(e != exact[0] for e in exact[1:]):
        problems.append("call counts differ between traced ops on equal inputs")
    rows0, counts0, _, _, flops0 = per_op[0]
    wall = statistics.fmean(p[2] for p in per_op)
    layer_self = {L: statistics.fmean(p[3][L] for p in per_op)
                  for L in T.LAYERS}
    covered = sum(layer_self.values())
    coverage = covered / wall
    if coverage < 0.95:
        problems.append(f"wrapped layer functions cover {coverage:.3f} of "
                        "the traced wall time")
    setup_counts = setup["counts"]
    kd = setup["kdtree"]
    m = {
        "kernel.lu_factor.calls": calls(rows0, "kernel.lu_factor"),
        "kernel.lu_factor_s": secs("kernel.lu_factor"),
        "kernel.lu_factor.gflop": flops0 / 1e9,
        "kernel.lu_solve.calls": calls(rows0, "kernel.lu_solve"),
        "kernel.lu_solve_s": secs("kernel.lu_solve"),
        "pde.ns.momentum.calls": calls(rows0, "pde.ns.momentum"),
        "pde.ns.momentum_s": secs("pde.ns.momentum"),
        "pde.ns.solve_ad_s": secs("pde.ns.solve_ad"),
        "pde.problem_build_s": setup_secs("pde.problem_build"),
        "autodiff.backward.calls": calls(rows0, "autodiff.backward"),
        "autodiff.backward_s": secs("autodiff.backward"),
        "autodiff.forward_s": secs("control.grad") - secs("autodiff.backward"),
        "autodiff.tape_nodes": counts0.get("autodiff.tape_nodes", 0),
        "autodiff.ad_solve.calls": calls(rows0, "autodiff.ad_solve"),
        "autodiff.ad_solve_s": secs("autodiff.ad_solve"),
        "autodiff.lusolver.factorizations": (
            setup_counts.get("autodiff.lusolver.factorizations", 0)
            + counts0.get("autodiff.lusolver.factorizations", 0)),
        "nn.derivatives.calls": calls(rows0, "nn.derivatives"),
        "nn.derivatives_s": secs("nn.derivatives"),
        "nn.mlp_apply_s": secs("nn.mlp_apply"),
        "nn.adam.steps": calls(rows0, "nn.adam"),
        "nn.adam_s": secs("nn.adam"),
        "control.grad.calls": calls(rows0, "control.grad"),
        "control.grad_s": secs("control.grad"),
        "control.pinn.tracker_s": secs("control.pinn.tracker"),
        "cloud.build_s": setup_secs("cloud.build"),
        "cloud.neighbors.calls": setup_counts.get("cloud.neighbors", 0),
        "cloud.kdtree.reuse_ratio": kd[0] / (kd[0] + kd[1]) if sum(kd) else 0.0,
        "rbf.operators_s": setup_secs("rbf.operators"),
        "rbf.solve.calls": calls(rows0, "rbf.solve") + calls(setup_rows, "rbf.solve"),
        "rbf.solve_s": secs("rbf.solve") + setup_secs("rbf.solve"),
        "obs.span.calls": counts0.get("obs.span", 0),
        "bench.trace_overhead_ratio": wall / statistics.median(untraced),
        "bench.self_time_coverage": coverage,
        "bench.unattributed_s": wall - covered,
        "bench.import_s": import_s,
        "bench.traced_wall_s": wall,
    }
    for L in T.LAYERS:
        m[f"layer.{L}.self_s"] = layer_self[L]
    return m, problems


def run_batch(args, t0: float) -> dict:
    import workloads

    w = workloads.make(args.workload, args.seed)
    import_s = time.perf_counter() - T_IMPORT0
    if args.mode == "trace":
        import tracer as T

        from repro.cloud import neighbors

        tr = T.Tracer()
        T.install_batch_layers(tr)
        kd0 = (neighbors.cache_stats["hits"], neighbors.cache_stats["misses"])
        before = tr.counts.copy()
        with tr.span("bench.setup") as setup_span:
            w.setup(tr.span)
        setup = {
            "span": setup_span,
            "counts": dict(tr.counts - before),
            "kdtree": (neighbors.cache_stats["hits"] - kd0[0],
                       neighbors.cache_stats["misses"] - kd0[1]),
        }
        tr.uninstall()
    else:
        w.setup(lambda name: nullcontext())
    ready = time.perf_counter()
    out = {"setup_s": ready - t0}
    if args.mode == "setup":
        return out
    out["environment"] = environment(w.config(), processes=1)
    if args.mode == "measure":
        out.update(batch_measure(w, args, ready))
    else:
        res = batch_trace(w, args, tr, import_s, setup)
        out.update(res)
        path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tr.dump(path, meta={"workload": args.workload, "seed": args.seed,
                            "metrics": res["metrics"],
                            "environment": out["environment"]})
        out["trace_file"] = os.path.relpath(path, ROOT)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    if args.workload == "serve_mix":
        import serve_load

        out = serve_load.run(args)
    else:
        out = run_batch(args, args.t0)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
