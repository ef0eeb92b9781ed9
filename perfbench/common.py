"""Helpers shared by the benchmark's processes (standard library only
at import time)."""

from __future__ import annotations

import os
import platform

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Thread variables that the thread budget sets (recorded as seen).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def vm_hwm_kib(pid="self") -> int:
    """OS high-water RSS of a process (``VmHWM``, KiB); 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(config: dict, processes: int) -> dict:
    """What produced the numbers: machine, libraries, threads, config."""
    import numpy
    import scipy

    from repro.obs.fingerprint import config_digest

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except Exception as exc:  # noqa: BLE001 — record, never fail on it
        blas = {"error": repr(exc)}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_budget": {"compute_processes": processes,
                          "blas_threads": int(threads) if threads else None},
        "git_sha": git_sha(ROOT),
        "config": config,
        "config_digest": config_digest(config),
    }


def percentile(xs, q: float) -> float:
    """Linear-interpolated percentile (the p-th of sorted samples)."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
