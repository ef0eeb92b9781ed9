"""``serve_mix``: ``python -m repro.serve`` under a closed-loop request mix.

The service runs in its own process at its own defaults (2 warm workers,
10 ms coalesce window) with a scratch result store.  This process is the
load generator: 2 connections, each sending its next request only after
the previous reply (a closed loop).  Each connection draws its requests
from ``(seed, connection)`` in blocks of ten, shuffled:

- 7 Laplace ``evaluate`` requests with random controls (coalescible);
- 2 Laplace ``solve`` requests, dealt from a seeded shuffle of the four
  classes DP/DAL x 5/40 iterations, so every two blocks hold each class
  once;
- 1 byte-identical re-submit of a request this connection completed
  earlier (a result-store read beside the computed writes).

The 40-iteration solves are a tenth of the requests and take about twice
as long as an evaluate, so the p95 latency falls inside that one class
instead of on the border between several.  The window is cut into
``SUBWINDOWS`` equal parts by request start time; the throughput, rate
and latency metrics are medians over the parts, so a stall of a few
seconds moves one part, not the result.

Set-up time runs from spawning the service until every worker has
answered one warm-up request.  ``/healthz`` answers about 0.03 s after
the socket binds, before any worker has built a problem, so it is not
the end of set-up.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from common import HERE, ROOT, environment, percentile, vm_hwm_kib
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_request, request_digest
from repro.serve.worker import WorkerState, execute_job

CONNECTIONS = 2
BLOCK = ("evaluate",) * 7 + ("solve",) * 2 + ("resubmit",)
SOLVE_CLASSES = (("dp", 5), ("dal", 5), ("dp", 40), ("dal", 40))
SUBWINDOWS = 7
#: Responses re-computed in-process through ``repro.serve.worker``.
PARITY_EVERY = 10
PARITY_MAX = 30
PARITY_RTOL = 1e-9
#: Seeds of the warm-up solves; far from any seed the mix draws.
WARMUP_SEED = 2**40


class Service:
    """One service process (plain, or the tracing launcher)."""

    def __init__(self, store_dir: str, spans_out: Optional[str] = None) -> None:
        args = ["--port", "0", "--store-dir", store_dir]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   spans_out, *args]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.worker_pids: List[int] = []
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.client = ServeClient("127.0.0.1", self.port)

    def warm(self) -> float:
        """Send concurrent warm-up solves until every worker has built the
        Laplace system (one LU factorisation each); returns set-up time.
        Sets ``n_control`` from a warm-up reply."""
        workers = int(self.client.healthz()["workers"])
        replies: List[dict] = []

        def solve(seed: int) -> None:
            replies.append(self.client.control(
                family="laplace", kind="solve", method="dp", iterations=1,
                seed=seed))

        for round_ in range(10):
            threads = [
                threading.Thread(target=solve,
                                 args=(WARMUP_SEED + round_ * workers + i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            m = self.client.metrics()["metrics"]
            if m.get("cache.lu-cache.misses", {}).get("value", 0) >= workers:
                break
        else:
            raise RuntimeError("workers did not all answer a warm-up request")
        ready = time.perf_counter()
        self.worker_pids = children_of(self.proc.pid)
        self.n_control = len(replies[0]["result"]["control"])
        return ready - self.t0

    def peak_rss_kib(self) -> int:
        return max([vm_hwm_kib(self.proc.pid)]
                   + [vm_hwm_kib(p) for p in self.worker_pids])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure nothing is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 5.0
        for pid in self.worker_pids:
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if alive(pid):
                os.kill(pid, signal.SIGKILL)


def children_of(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def _connection(client, seed: int, conn: int, n_control: int,
                deadline: float, out: List[dict]) -> None:
    rng = np.random.default_rng([seed, conn])
    done: List[dict] = []   # computed, successful requests of this connection
    pending: List[str] = []
    solves: List[tuple] = []
    while time.perf_counter() < deadline:
        if not pending:
            pending = [BLOCK[i] for i in rng.permutation(len(BLOCK))]
        kind = pending.pop()
        if kind == "resubmit" and not done:
            kind = "evaluate"
        origin = None
        if kind == "resubmit":
            origin = done[int(rng.integers(len(done)))]
            body = origin["body"]
        elif kind == "evaluate":
            body = {"family": "laplace", "kind": "evaluate",
                    "control": [float(v) for v in rng.normal(0.0, 0.5, n_control)]}
        else:
            if not solves:
                solves = [SOLVE_CLASSES[i]
                          for i in rng.permutation(len(SOLVE_CLASSES))]
            method, iterations = solves.pop()
            body = {"family": "laplace", "kind": "solve", "method": method,
                    "iterations": iterations,
                    "seed": int(rng.integers(2**31))}
        rec = {"conn": conn, "kind": kind, "body": body, "origin": origin,
               "status": None, "store": "", "payload": b"", "error": None}
        t = time.perf_counter()
        try:
            status, headers, payload = client.post_control_raw(body)
            rec.update(status=status, store=headers.get("x-repro-store", ""),
                       payload=payload)
        except OSError as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["t0"], rec["t1"] = t, time.perf_counter()
        out.append(rec)
        if kind != "resubmit" and rec["status"] == 200:
            done.append(rec)


def drive(service: Service, seed: int, seconds: float, n_control: int) -> List[dict]:
    """The closed loop: CONNECTIONS threads until the window closes."""
    records: List[dict] = []
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(target=_connection, args=(
        service.client, seed, c, n_control, deadline, records))
        for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r["t0"])
    return records


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check(records: List[dict], n_control: int) -> int:
    """Mark each record with its failures (``rec["failures"]``); returns
    how many responses were re-computed for parity."""
    state = WorkerState()
    sampled = 0
    computed = [r for r in records if r["kind"] != "resubmit"]
    parity_ids = {id(r) for r in computed[::PARITY_EVERY][:PARITY_MAX]}
    for rec in records:
        fails = rec["failures"] = []
        if rec["error"] is not None:
            fails.append(rec["error"])
            continue
        if rec["status"] != 200:
            fails.append(f"HTTP {rec['status']}: {rec['payload'][:200]!r}")
            continue
        try:
            result = json.loads(rec["payload"])["result"]
        except (ValueError, KeyError) as exc:
            fails.append(f"unreadable response: {exc!r}")
            continue
        value = result.get("cost" if rec["body"]["kind"] == "evaluate"
                           else "final_cost")
        if not (isinstance(value, float) and math.isfinite(value) and value >= 0):
            fails.append(f"cost {value!r} is not finite and >= 0")
        if rec["body"]["kind"] == "solve" and len(result.get("control", ())) != n_control:
            fails.append("solve returned a control of the wrong length")
        if rec["kind"] == "resubmit":
            if rec["store"] != "hit" or rec["payload"] != rec["origin"]["payload"]:
                fails.append("re-submit was not a byte-identical store hit")
            continue
        if id(rec) not in parity_ids:
            continue
        sampled += 1
        req = parse_request(rec["body"])
        if req.kind == "evaluate":
            direct = execute_job(state, {"op": "evaluate", "requests": [req]})
            ref = direct["results"][0] if direct.get("ok") else {}
            pairs = [(value, ref.get("cost"))]
        else:
            direct = execute_job(state, {"op": "solve", "request": req,
                                         "digest": request_digest(req)})
            ref = direct.get("result") or {}
            pairs = [(value, ref.get("final_cost"))]
            pairs += list(zip(result.get("control", ()), ref.get("control", ())))
        bad = [(a, b) for a, b in pairs
               if b is None or not abs(a - b) <= PARITY_RTOL * max(abs(b), 1.0)]
        if bad or not direct.get("ok"):
            fails.append(f"parity with execute_job failed: {bad[:3]}")
    for rec in records:
        rec.pop("origin")
    return sampled


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_metrics(records: List[dict]) -> Dict[str, Any]:
    """Medians over ``SUBWINDOWS`` equal parts of the window; a request
    belongs to the part in which it started."""
    lo = min(r["t0"] for r in records)
    width = (max(r["t1"] for r in records) - lo) / SUBWINDOWS
    parts: List[List[dict]] = [[] for _ in range(SUBWINDOWS)]
    for r in records:
        if not r["failures"]:
            parts[min(int((r["t0"] - lo) / width), SUBWINDOWS - 1)].append(r)
    per_part = []
    for part in parts:
        lat = [r["t1"] - r["t0"] for r in part]
        per_part.append({
            "throughput_rps": len(part) / width,
            "iters_per_s": sum(r["body"]["iterations"] for r in part
                               if r["kind"] == "solve") / width,
            "latency_p50_ms": 1e3 * percentile(lat, 50),
            "latency_p95_ms": 1e3 * percentile(lat, 95),
        })
    return {k: statistics.median(p[k] for p in per_part)
            for k in per_part[0]}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(spans_doc: dict, records: List[dict], m0: dict, m1: dict,
                  overhead: float) -> Dict[str, float]:
    """Parent-side serve numbers over the traced load window.

    Totals are divided by the requests the window completed: a faster
    service answers more requests in the same window, which must not read
    as more protocol time or more pool calls.  None of these is an exact
    count; how requests coalesce depends on timing.
    """
    t_lo = min(r["t0"] for r in records)
    t_hi = max(r["t1"] for r in records)
    spans = [s for s in spans_doc["spans"] if s[2] >= t_lo and s[3] <= t_hi]

    def named(name):
        return [s for s in spans if s[1] == name]

    calls = named("serve.pool.call")
    evals = [s for s in calls if s[6]["op"] == "evaluate"]
    submits = named("serve.coalesce.submit")
    # Worker time each request experienced: a coalesced call is waited on
    # by every request in it.
    eval_exp = sum((s[3] - s[2]) * s[6]["width"] for s in evals)
    all_exp = eval_exp + sum(s[3] - s[2] for s in calls if s[6]["op"] == "solve")
    computed = [r for r in records if not r["failures"] and r["store"] == "miss"]
    client_s = sum(r["t1"] - r["t0"] for r in computed)

    def delta(name):
        return (m1["metrics"].get(name, {}).get("value", 0.0)
                - m0["metrics"].get(name, {}).get("value", 0.0))

    store = (m1["store"]["hits"] - m0["store"]["hits"],
             m1["store"]["misses"] - m0["store"]["misses"])
    n = len(records)
    return {
        "serve.protocol_ms": 1e3 * sum(s[3] - s[2]
                                       for s in named("serve.protocol")) / n,
        "serve.store.hit_ratio": _ratio(*store),
        "serve.coalesce.width": (sum(s[6]["width"] for s in evals) / len(evals)
                                 if evals else 0.0),
        "serve.coalesce.wait_ms": (1e3 * (sum(s[3] - s[2] for s in submits)
                                          - eval_exp) / len(submits)
                                   if submits else 0.0),
        "serve.pool.calls_per_req": len(calls) / n,
        "serve.pool.busy_ms": 1e3 * sum(s[3] - s[2] for s in calls) / n,
        "serve.pool.wait_ms": (1e3 * (client_s - all_exp) / len(computed)
                               if computed else 0.0),
        "serve.pool.replacements": spans_doc["counts"].get(
            "serve.pool.replacements", 0),
        "serve.cache.replay_hit_ratio": _ratio(
            delta("cache.compiled-replay.hits"),
            delta("cache.compiled-replay.misses")),
        "serve.cache.lu_hit_ratio": _ratio(delta("cache.lu-cache.hits"),
                                           delta("cache.lu-cache.misses")),
        "serve.requests": n,
        "bench.trace_overhead_ratio": overhead,
    }


# ----------------------------------------------------------------------
# Entry point (called by child.py)
# ----------------------------------------------------------------------
def _phase(args, seconds: float, traced: bool) -> Dict[str, Any]:
    store = os.path.join(args.out_dir, f"store-{os.getpid()}-{int(traced)}")
    spans_out = (os.path.join(args.out_dir, f"serve-spans-{os.getpid()}.json")
                 if traced else None)
    service = Service(store, spans_out)
    try:
        setup_s = service.warm()
        out: Dict[str, Any] = {"setup_s": setup_s}
        if seconds <= 0:
            return out
        n_control = service.n_control
        m0 = service.client.metrics()
        out["records"] = drive(service, args.seed, seconds, n_control)
        out["metrics_end"] = service.client.metrics()
        out["metrics_start"] = m0
        out["peak_rss_kib"] = service.peak_rss_kib()
        out["n_control"] = n_control
    finally:
        service.stop()
        shutil.rmtree(store, ignore_errors=True)
    if spans_out is not None:
        with open(spans_out) as f:
            out["spans"] = json.load(f)
        os.remove(spans_out)
    return out


def run(args) -> Dict[str, Any]:
    config = {"workload": "serve_mix", "connections": CONNECTIONS,
              "mix": list(BLOCK), "solve_classes": list(SOLVE_CLASSES),
              "subwindows": SUBWINDOWS,
              "service": "python -m repro.serve (defaults)",
              "parity_every": PARITY_EVERY, "parity_max": PARITY_MAX}
    if args.mode == "setup":
        return {"setup_s": _phase(args, 0.0, traced=False)["setup_s"]}
    env = environment(config, processes=2)
    if args.mode == "measure":
        ph = _phase(args, args.seconds, traced=False)
        recs = ph["records"]
        sampled = check(recs, ph["n_control"])
        metrics = e2e_metrics(recs)
        metrics["peak_rss_mib"] = ph["peak_rss_kib"] / 1024.0
        return _result(ph["setup_s"], recs, metrics, env, sampled)
    # Traced run: an untraced service for half the window, then the
    # tracing launcher for the other half; the throughput ratio is the
    # tracing overhead.
    plain = _phase(args, args.seconds / 2.0, traced=False)
    check(plain["records"], plain["n_control"])
    traced = _phase(args, args.seconds / 2.0, traced=True)
    recs = traced["records"]
    sampled = check(recs, traced["n_control"])
    overhead = (e2e_metrics(plain["records"])["throughput_rps"]
                / e2e_metrics(recs)["throughput_rps"])
    metrics = layer_metrics(traced["spans"], recs, traced["metrics_start"],
                            traced["metrics_end"], overhead)
    out = _result(traced["setup_s"], plain["records"] + recs, metrics, env,
                  sampled)
    path = os.path.join(args.out_dir, f"trace-serve_mix-seed{args.seed}.json")
    doc = dict(traced["spans"])
    doc["meta"] = {"workload": "serve_mix", "seed": args.seed,
                   "metrics": metrics, "environment": env}
    with open(path, "w") as f:
        json.dump(doc, f)
    out["trace_file"] = os.path.relpath(path, ROOT)
    return out


def _result(setup_s, records, metrics, env, sampled) -> Dict[str, Any]:
    failed = [r for r in records if r["failures"]]
    return {
        "setup_s": setup_s,
        "environment": env,
        "attempted": len(records),
        "failed": len(failed),
        "failures": [f for r in failed for f in r["failures"]][:20],
        "metrics": metrics,
        "samples": {"requests": len(records) - len(failed),
                    "parity_checked": sampled},
    }
