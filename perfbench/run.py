"""Repository benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload {ns_dp,pinn_laplace,serve_mix}
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` (default) measures the end-to-end metrics with no tracing:
several fresh processes time set-up, then one fresh process runs the
workload for ``--seconds`` and checks every output.  ``--trace 1`` runs
the workload untraced and with the outside-in tracer (``tracer.py``)
and reports the per-layer metrics; spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the sample counts and the environment.  See
``perfbench/README.md`` for what each workload and metric means.

Only the standard library is imported here: the workload processes load
the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT, THREAD_VARS

SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("ns_dp", "pinn_laplace", "serve_mix")
#: Set-up samples per untraced run (fresh processes; median reported).
SETUP_SAMPLES = 5
#: One BLAS thread per compute process: the single-process workloads use
#: 1 x 1 thread and serve_mix 2 workers x 1 thread, within nproc = 2.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """The workload processes' environment: program on the path, the
    thread budget set, and no ``REPRO_*`` switch leaking in, so every run
    measures the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def spawn(args, mode: str, seconds: float) -> dict:
    """One fresh workload process; returns its JSON result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode, "--t0", repr(t0),
           "--out-dir", OUT_DIR]
    # A session of its own, so a timeout can stop the child together with
    # anything it started (the service and its workers).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} {mode} process timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {args.workload} {mode} process failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def measure(args) -> dict:
    samples = [spawn(args, "setup", 0.0)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, "measure", args.seconds)
    samples.append(res["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(samples)
    res["samples"]["setup"] = len(samples)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.relpath(SRC)}/repro; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    res = spawn(args, "trace", args.seconds) if args.trace else measure(args)
    # A per-layer metric of a layer the workload never reaches reads 0.
    metrics = {name: res["metrics"].get(name, 0) if args.trace
               else res["metrics"][name] for name in units}

    attempted, failed = res["attempted"], res["failed"]
    env = res.get("environment", {})
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# samples {json.dumps(res.get('samples', {}), sort_keys=True)}")
    if res.get("trace_file"):
        print(f"# spans written to {res['trace_file']}")
    for f in res.get("failures", [])[:10]:
        print(f"# FAILED: {f}")
    print(f"# fail_ratio {failed / attempted:.4f} ({failed} of {attempted} "
          "operations)")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
