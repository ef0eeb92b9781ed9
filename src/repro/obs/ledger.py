"""The performance ledger: persistent bench history + regression verdicts.

``python -m repro.bench --ledger-dir DIR`` appends one entry per
invocation to ``DIR/<suite>.jsonl`` — an append-only record of the
repo's own performance trajectory.  Each entry carries:

- the **environment fingerprint** (git SHA, CPU count, NumPy/BLAS
  build, ``REPRO_*`` env — :mod:`repro.obs.fingerprint`),
- the **config content-digest** of the active scale tier, so the
  comparator never scores a run against a differently-shaped baseline,
- per-run **metrics** pulled from the bench harness and the
  SpanProfiler/MetricsRegistry: wall time, peak memory, final cost,
  per-phase seconds, Krylov iteration totals, cache hit rates.

On top sits a robust statistical comparator
(:func:`compare_entries`): per-metric baselines from the rolling
history using the median and the MAD-derived robust sigma
(``1.4826 * MAD``), a noise floor of
``max(z * sigma, rel_floor * |median|, abs_floor)``, and a verdict of
``improved`` / ``regressed`` / ``neutral`` per metric with
per-category directionality (wall time down is good; cache hit rate up
is good).  The wide relative floors on timing metrics are deliberate:
an honest re-run on a noisy CI box must classify *neutral* while a 2×
slowdown cleanly regresses — the ``ledger_smoke`` CI gate pins exactly
that contract.

:func:`write_snapshot` renders the rolling history into
``BENCH_<suite>.json`` — the tracked trajectory artifact at the repo
root — and ``python -m repro.obs ledger diff|report`` exposes the
comparator and an HTML sparkline view over any ledger directory.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

try:  # POSIX file locking for the snapshot rewrite; absent on Windows.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "LEDGER_SCHEMA",
    "DiffPolicy",
    "LedgerError",
    "MetricVerdict",
    "PerformanceLedger",
    "baseline_stats",
    "build_entry",
    "compare_entries",
    "flatten_metrics",
    "format_verdicts",
    "metric_direction",
    "run_metrics",
    "validate_entry",
    "write_snapshot",
]

LEDGER_SCHEMA = 1

ENTRY_KIND = "repro.ledger.entry"
SNAPSHOT_KIND = "repro.bench.snapshot"

#: Top-level keys every ledger entry must carry.
_REQUIRED_KEYS = (
    "kind", "ledger_schema", "suite", "created_unix", "fingerprint",
    "config_digest", "scale", "jobs", "runs",
)

#: Scalar per-run metrics (nested dicts ``phase_seconds`` and
#: ``cache_hit_rate`` are validated separately).
_SCALAR_METRICS = (
    "wall_time_s", "peak_mem_bytes", "final_cost", "iterations",
    "solver_iterations",
)


class LedgerError(ValueError):
    """Raised on malformed ledger entries or stores."""


# ----------------------------------------------------------------------
# Entry construction and validation
# ----------------------------------------------------------------------
def run_metrics(result: Any, obs: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Reduce one bench run to its ledger metrics.

    ``result`` is duck-typed on the :class:`~repro.control.problem.
    ControlResult` surface (``wall_time_s``, ``peak_mem_bytes``,
    ``final_cost``, ``iterations``).  ``obs`` is the optional
    observability payload the bench CLI collects per run —
    ``{"phase_seconds": ..., "metrics": <registry snapshot>}`` — from
    which the solver and cache metrics are mined.
    """
    out: Dict[str, Any] = {
        "wall_time_s": float(result.wall_time_s),
        "peak_mem_bytes": float(result.peak_mem_bytes),
        "final_cost": float(result.final_cost),
        "iterations": float(result.iterations),
    }
    if not obs:
        return out
    phases = obs.get("phase_seconds") or {}
    if phases:
        out["phase_seconds"] = {str(k): float(v) for k, v in sorted(phases.items())}
    snap = obs.get("metrics") or {}

    def _value(name: str) -> Optional[float]:
        spec = snap.get(name)
        if isinstance(spec, Mapping) and "value" in spec:
            return float(spec["value"])
        return None

    kry = _value("krylov.iterations")
    if kry is not None:
        out["solver_iterations"] = kry
    rates: Dict[str, float] = {}
    for name in snap:
        if name.startswith("cache.") and name.endswith(".hits"):
            cache = name[len("cache."):-len(".hits")]
            hits = _value(name) or 0.0
            misses = _value(f"cache.{cache}.misses") or 0.0
            total = hits + misses
            if total > 0:
                rates[cache] = hits / total
    if rates:
        out["cache_hit_rate"] = dict(sorted(rates.items()))
    return out


def build_entry(
    suite: str,
    runs: Mapping[str, Mapping[str, Any]],
    fingerprint: Mapping[str, Any],
    config_digest: str,
    scale: str,
    jobs: int = 1,
    wall_time_s: Optional[float] = None,
    created_unix: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble (and validate) one ledger entry."""
    entry = {
        "kind": ENTRY_KIND,
        "ledger_schema": LEDGER_SCHEMA,
        "suite": str(suite),
        "created_unix": float(
            time.time() if created_unix is None else created_unix
        ),
        "fingerprint": dict(fingerprint),
        "config_digest": str(config_digest),
        "scale": str(scale),
        "jobs": int(jobs),
        "runs": {str(k): dict(v) for k, v in runs.items()},
    }
    if wall_time_s is not None:
        entry["wall_time_s"] = float(wall_time_s)
    return validate_entry(entry)


def validate_entry(obj: Any) -> Dict[str, Any]:
    """Schema-check one ledger entry; returns it, raises :class:`LedgerError`."""
    if not isinstance(obj, Mapping):
        raise LedgerError(f"ledger entry must be an object, got {type(obj).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise LedgerError(f"ledger entry is missing keys: {missing}")
    if obj["kind"] != ENTRY_KIND:
        raise LedgerError(f"not a ledger entry: kind={obj['kind']!r}")
    if obj["ledger_schema"] != LEDGER_SCHEMA:
        raise LedgerError(
            f"ledger schema {obj['ledger_schema']!r} is not supported "
            f"(this build reads version {LEDGER_SCHEMA})"
        )
    if not isinstance(obj["fingerprint"], Mapping):
        raise LedgerError("ledger entry fingerprint must be an object")
    runs = obj["runs"]
    if not isinstance(runs, Mapping) or not runs:
        raise LedgerError("ledger entry needs a non-empty 'runs' mapping")
    for label, metrics in runs.items():
        if not isinstance(metrics, Mapping):
            raise LedgerError(f"run {label!r}: metrics must be an object")
        for name in _SCALAR_METRICS:
            if name in metrics and not isinstance(metrics[name], (int, float)):
                raise LedgerError(
                    f"run {label!r}: metric {name!r} must be numeric, "
                    f"got {type(metrics[name]).__name__}"
                )
        for nested in ("phase_seconds", "cache_hit_rate"):
            sub = metrics.get(nested)
            if sub is None:
                continue
            if not isinstance(sub, Mapping) or not all(
                isinstance(v, (int, float)) for v in sub.values()
            ):
                raise LedgerError(
                    f"run {label!r}: {nested!r} must map names to numbers"
                )
    return dict(obj)


# ----------------------------------------------------------------------
# The JSONL store
# ----------------------------------------------------------------------
class PerformanceLedger:
    """Append-only JSONL store of bench entries: ``<dir>/<suite>.jsonl``."""

    def __init__(self, directory: str, suite: str = "performance") -> None:
        self.directory = str(directory)
        self.suite = str(suite)
        self.path = os.path.join(self.directory, f"{self.suite}.jsonl")

    def __len__(self) -> int:
        return len(self.entries())

    def append(self, entry: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and append one entry; returns the validated entry.

        Concurrency contract: the serialised line (record + trailing
        newline) is written with a *single* ``os.write`` on an
        ``O_APPEND`` descriptor.  POSIX guarantees that appends of this
        size from concurrent writers land whole and in some order —
        buffered ``f.write`` offered no such guarantee and interleaved
        half-lines when several bench workers shared one ledger
        directory.
        """
        entry = validate_entry(entry)
        os.makedirs(self.directory, exist_ok=True)
        line = (json.dumps(entry, sort_keys=True, allow_nan=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        return entry

    def entries(self) -> List[Dict[str, Any]]:
        """All entries in append order (empty list when no file yet).

        A *torn* trailing line — the final line of the file when it
        lacks a terminating newline and does not parse — is skipped with
        a warning rather than raised: it means a writer died (or is
        still mid-write) after ``os.open`` but the prior history is
        intact.  Corrupt lines anywhere else, or a complete (newline-
        terminated) final line that fails to parse, still raise
        :class:`LedgerError` with ``path:lineno``.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as f:
            raw = f.read()
        ends_with_newline = raw.endswith("\n")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        out: List[Dict[str, Any]] = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            torn = lineno == len(lines) and not ends_with_newline
            try:
                obj = json.loads(line)
                out.append(validate_entry(obj))
            except (ValueError, LedgerError) as exc:
                if torn:
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping torn trailing "
                        f"line (no newline; writer interrupted?): {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                raise LedgerError(
                    f"{self.path}:{lineno}: "
                    + (str(exc) if isinstance(exc, LedgerError)
                       else f"invalid JSON: {exc}")
                ) from None
        return out


# ----------------------------------------------------------------------
# Robust statistics and verdicts
# ----------------------------------------------------------------------
#: Metric-name suffix -> (category, higher_is_worse).
def metric_direction(metric: str) -> Tuple[str, bool]:
    """Classify a flattened metric name into (category, higher_is_worse)."""
    name = metric.rsplit("/", 1)[-1]
    if name == "peak_mem_bytes":
        return "mem", True
    if name == "final_cost":
        return "cost", True
    if name in ("solver_iterations", "iterations"):
        return "count", True
    if "cache_hit_rate" in name:
        return "rate", False  # higher is better
    if name.endswith("_rps") or "throughput" in name:
        return "throughput", False  # higher is better
    # wall_time_s, latency percentiles, every phase_seconds.* component
    return "time", True


@dataclass(frozen=True)
class DiffPolicy:
    """Noise model of the comparator.

    The threshold for metric ``m`` with rolling history ``H`` is::

        max(z * 1.4826 * MAD(H), rel_floor[cat] * |median(H)|, abs_floor[cat])

    The relative floors encode the *measured* run-to-run noise of each
    metric category on shared CI runners; wall times on a busy box
    routinely wobble ±15–20 %, so the default ``time`` floor is 0.25 —
    honest re-runs stay neutral, a 2× slowdown (Δ = 100 %) regresses.
    """

    z: float = 3.0
    history_window: int = 20
    min_history: int = 1
    #: Minimum comparable history before the comparator will issue a
    #: non-neutral verdict.  Below it, one noisy baseline run can turn an
    #: honest re-run into a false ``regressed`` (the MAD of a singleton
    #: history is zero, so only the floors stand between signal and
    #: noise); such metrics stay ``neutral`` with an explicit
    #: ``insufficient_history`` note.
    min_window: int = 3
    match_config: bool = True
    rel_floors: Mapping[str, float] = field(default_factory=lambda: {
        "time": 0.25, "mem": 0.10, "cost": 1e-6, "count": 0.10, "rate": 0.0,
        "throughput": 0.25,
    })
    abs_floors: Mapping[str, float] = field(default_factory=lambda: {
        "time": 0.02, "mem": float(2**20), "cost": 1e-12, "count": 2.0,
        "rate": 0.02, "throughput": 0.5,
    })


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's comparison against its rolling baseline."""

    metric: str
    verdict: str  # "improved" | "regressed" | "neutral" | "new"
    value: float
    baseline: Optional[float] = None  # median of the history
    sigma: Optional[float] = None     # robust sigma (1.4826 * MAD)
    threshold: Optional[float] = None
    n_history: int = 0
    note: Optional[str] = None  # e.g. "insufficient_history"

    @property
    def delta(self) -> Optional[float]:
        return None if self.baseline is None else self.value - self.baseline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "verdict": self.verdict,
            "value": self.value,
            "baseline": self.baseline,
            "sigma": self.sigma,
            "threshold": self.threshold,
            "n_history": self.n_history,
            "note": self.note,
        }


def flatten_metrics(entry: Mapping[str, Any]) -> Dict[str, float]:
    """One entry's runs flattened to ``<run>/<metric>`` scalar pairs."""
    out: Dict[str, float] = {}
    for label, metrics in entry.get("runs", {}).items():
        for name, value in metrics.items():
            if isinstance(value, Mapping):
                for sub, v in value.items():
                    out[f"{label}/{name}.{sub}"] = float(v)
            elif isinstance(value, (int, float)):
                out[f"{label}/{name}"] = float(value)
    return out


def baseline_stats(values: Iterable[float]) -> Tuple[float, float]:
    """(median, robust sigma) of a history; sigma is ``1.4826 * MAD``."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("baseline_stats needs at least one value")

    def _median(xs: List[float]) -> float:
        mid = len(xs) // 2
        return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])

    med = _median(vals)
    mad = _median(sorted(abs(v - med) for v in vals))
    return med, 1.4826 * mad


def _comparable_history(
    current: Mapping[str, Any],
    history: Iterable[Mapping[str, Any]],
    policy: DiffPolicy,
) -> List[Dict[str, Any]]:
    """Prior entries the comparator may use as a baseline for ``current``."""
    out = []
    for entry in history:
        if entry.get("suite") != current.get("suite"):
            continue
        if policy.match_config and (
            entry.get("config_digest") != current.get("config_digest")
            or entry.get("scale") != current.get("scale")
        ):
            continue
        out.append(dict(entry))
    return out[-policy.history_window:]


def compare_entries(
    current: Mapping[str, Any],
    history: Iterable[Mapping[str, Any]],
    policy: Optional[DiffPolicy] = None,
) -> List[MetricVerdict]:
    """Score ``current`` against the rolling ``history`` baselines.

    Metrics with no comparable history get verdict ``"new"``.  Entries
    whose suite, config digest, or scale differ from the current entry
    are excluded from the baseline (unless ``policy.match_config`` is
    off) — a regression verdict must never be an artifact of comparing
    different experiment shapes.
    """
    policy = policy or DiffPolicy()
    usable = _comparable_history(current, history, policy)
    flat_now = flatten_metrics(current)
    flat_hist = [flatten_metrics(e) for e in usable]
    verdicts: List[MetricVerdict] = []
    for metric in sorted(flat_now):
        value = flat_now[metric]
        series = [h[metric] for h in flat_hist if metric in h]
        if len(series) < policy.min_history:
            verdicts.append(MetricVerdict(metric, "new", value))
            continue
        if len(series) < policy.min_window:
            median, sigma = baseline_stats(series)
            verdicts.append(MetricVerdict(
                metric, "neutral", value, baseline=median, sigma=sigma,
                n_history=len(series), note="insufficient_history",
            ))
            continue
        median, sigma = baseline_stats(series)
        category, higher_is_worse = metric_direction(metric)
        threshold = max(
            policy.z * sigma,
            policy.rel_floors.get(category, 0.1) * abs(median),
            policy.abs_floors.get(category, 0.0),
        )
        delta = value - median
        worse = delta if higher_is_worse else -delta
        if not math.isfinite(value):
            verdict = "regressed"
        elif worse > threshold:
            verdict = "regressed"
        elif worse < -threshold:
            verdict = "improved"
        else:
            verdict = "neutral"
        verdicts.append(MetricVerdict(
            metric, verdict, value, baseline=median, sigma=sigma,
            threshold=threshold, n_history=len(series),
        ))
    order = {"regressed": 0, "improved": 1, "neutral": 2, "new": 3}
    verdicts.sort(key=lambda v: (order[v.verdict], v.metric))
    return verdicts


def format_verdicts(verdicts: List[MetricVerdict]) -> str:
    """Human-readable verdict table (what ``ledger diff`` prints)."""
    if not verdicts:
        return "no metrics to compare"
    lines = []
    tallies: Dict[str, int] = {}
    for v in verdicts:
        tallies[v.verdict] = tallies.get(v.verdict, 0) + 1
        if v.baseline is None:
            lines.append(f"  new       {v.metric}: {v.value:.6g}")
            continue
        pct = ""
        if v.baseline:
            pct = f" ({100.0 * (v.value - v.baseline) / abs(v.baseline):+.1f}%)"
        detail = (
            f"[{v.note}, n={v.n_history}]" if v.note is not None
            else f"[threshold ±{v.threshold:.3g}, n={v.n_history}]"
        )
        lines.append(
            f"  {v.verdict:<9s} {v.metric}: {v.value:.6g} "
            f"vs median {v.baseline:.6g}{pct}  {detail}"
        )
    head = ", ".join(
        f"{tallies[k]} {k}" for k in ("regressed", "improved", "neutral", "new")
        if k in tallies
    )
    return head + "\n" + "\n".join(lines)


# ----------------------------------------------------------------------
# The tracked snapshot artifact
# ----------------------------------------------------------------------
def write_snapshot(
    path: str,
    entries: List[Mapping[str, Any]],
    verdicts: Optional[List[MetricVerdict]] = None,
    history_window: int = 20,
) -> Dict[str, Any]:
    """Write ``BENCH_<suite>.json``: latest entry + rolling history + verdicts.

    The snapshot is the repo-root trajectory artifact: small enough to
    commit, complete enough that a reviewer sees the current numbers,
    the recent series per metric, and the comparator's verdicts without
    touching the ledger directory.
    """
    if not entries:
        raise LedgerError("cannot snapshot an empty ledger")
    latest = entries[-1]
    window = entries[-history_window:]
    history: Dict[str, List[float]] = {}
    for entry in window:
        for metric, value in flatten_metrics(entry).items():
            history.setdefault(metric, []).append(value)
    doc = {
        "kind": SNAPSHOT_KIND,
        "ledger_schema": LEDGER_SCHEMA,
        "suite": latest.get("suite"),
        "n_entries": len(entries),
        "latest": dict(latest),
        "history": {k: history[k] for k in sorted(history)},
        "verdicts": [v.to_dict() for v in (verdicts or [])],
    }
    # Unlike the append path, the snapshot is a rewrite — serialise
    # concurrent writers with an advisory lock on a sidecar (the target
    # itself is replaced, so it cannot carry the lock), and publish via
    # tmp + rename so readers never observe a half-written snapshot.
    lock_path = path + ".lock"
    lock_fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.lockf(lock_fd, fcntl.LOCK_EX)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    finally:
        if fcntl is not None:
            fcntl.lockf(lock_fd, fcntl.LOCK_UN)
        os.close(lock_fd)
    return doc
