"""Process-wide metrics registry: counters, gauges, histograms.

PR 3 left cache hit/miss counting scattered across three ad-hoc per-call
dicts (``autodiff/linalg.py``, ``autodiff/sparse.py``,
``autodiff/compile.py``) and flushed them through one-off hooks.  This
module generalises that into one registry with three instrument types:

- :class:`Counter` — monotone event count (``inc``).
- :class:`Gauge` — last-written value (``set``).
- :class:`Histogram` — observations bucketed against *fixed* boundaries
  chosen at construction, plus running sum/count.  Fixed boundaries keep
  snapshots mergeable and diffs meaningful across runs.

A process-wide default registry backs the module-level helpers so hot
loops can do ``get_registry().counter("lu.solves").inc()`` without
plumbing; tests swap it with :func:`use_registry`.  Exports: a prometheus
style text rendering (:meth:`MetricsRegistry.to_text`), a plain dict
snapshot (:meth:`MetricsRegistry.snapshot`) for JSON artifacts, and
:meth:`MetricsRegistry.cache_records` which re-emits the cache gauges in
the frozen :class:`repro.obs.schema.CacheRecord` wire format so PR-3
trace consumers keep working unchanged.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.schema import CacheRecord

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "FLOP_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "counting",
    "get_registry",
    "set_registry",
    "uncounted",
    "use_registry",
]

#: Per-op wall-time buckets (seconds): 1 µs … 10 s, decade + half-decade.
TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)

#: Per-op FLOP-estimate buckets: 1e2 … 1e10.
FLOP_BUCKETS: Tuple[float, ...] = tuple(10.0 ** e for e in range(2, 11))

#: Per-op bytes-moved buckets: 64 B … 1 GiB, powers of 4.
BYTE_BUCKETS: Tuple[float, ...] = tuple(float(64 * 4 ** e) for e in range(13))


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down; reports the last write."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Observations bucketed against fixed boundaries.

    ``buckets`` are the *upper* bounds of each bucket (ascending); one
    implicit overflow bucket catches everything above the last bound.
    ``counts[i]`` is the number of observations ``<= buckets[i]`` that
    exceeded ``buckets[i-1]`` (non-cumulative, unlike Prometheus, so the
    JSON artifact diffs cleanly per bucket).
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket bound")
        if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left keeps bucket bounds inclusive (Prometheus ``le=``).
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named instruments, created on first use; thread-safe creation.

    Instrument updates themselves are plain float adds on the hot path —
    Python's GIL makes them atomic enough for counting, and the smoke
    gates hold the total instrumentation budget to 2 %.

    ``counting`` is False only on the scratch registry of
    :func:`uncounted`.
    """

    counting = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _create(self, name: str, candidate: Any) -> Any:
        # setdefault under the lock: first creator wins on a race.
        with self._lock:
            return self._metrics.setdefault(name, candidate)

    def counter(self, name: str, help: str = "") -> Counter:
        # Hit path (every hot-loop call after the first) is one dict get
        # and a kind check — no allocation.
        m = self._metrics.get(name)
        if m is None:
            m = self._create(name, Counter(name, help))
        if m.kind != "counter":
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, not counter"
            )
        return m

    def gauge(self, name: str, help: str = "") -> Gauge:
        m = self._metrics.get(name)
        if m is None:
            m = self._create(name, Gauge(name, help))
        if m.kind != "gauge":
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, not gauge"
            )
        return m

    def histogram(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""
    ) -> Histogram:
        m = self._metrics.get(name)
        if m is None:
            m = self._create(name, Histogram(name, buckets, help))
        if m.kind != "histogram":
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, not histogram"
            )
        return m

    def __iter__(self) -> Iterator[Any]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- cache-counter bridge (PR-3 wire format) -----------------------
    def record_cache(self, name: str, hits: int, misses: int) -> None:
        """Publish one cache's totals as ``cache.<name>.hits/.misses`` gauges.

        Gauges, not counters: callers report *cumulative* totals read off
        the owning solver/program, so each report overwrites the last.
        """
        self.gauge(f"cache.{name}.hits").set(hits)
        self.gauge(f"cache.{name}.misses").set(misses)

    def cache_records(self) -> List[CacheRecord]:
        """The cache gauges re-emitted as frozen :class:`CacheRecord` rows.

        Byte-compatible with the PR-3 JSONL wire format — consumers of
        ``kind: "cache"`` records never see the registry migration.
        """
        caches: Dict[str, Dict[str, int]] = {}
        for m in self:
            if m.kind == "gauge" and m.name.startswith("cache."):
                base, _, field = m.name.rpartition(".")
                if field in ("hits", "misses"):
                    caches.setdefault(base[len("cache."):], {})[field] = int(m.value)
        return [
            CacheRecord(cache=name, hits=v.get("hits", 0), misses=v.get("misses", 0))
            for name, v in sorted(caches.items())
        ]

    # -- merge (parallel worker shards) --------------------------------
    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The parallel engine gives every worker process a *fresh* registry
        and ships its snapshot back as a shard; merging sums them into
        the parent so artifacts look like one run.  Because each shard
        starts from zero, summation is the correct combination for every
        instrument kind — including gauges: a worker's ``cache.*`` gauge
        holds that task's cumulative totals and the tasks are disjoint.
        Histogram bucket boundaries must match (they are fixed at
        construction precisely so snapshots stay mergeable).
        """
        for name in sorted(snapshot):
            spec = snapshot[name]
            kind = spec.get("kind")
            if kind == "counter":
                self.counter(name).inc(float(spec.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).inc(float(spec.get("value", 0.0)))
            elif kind == "histogram":
                bounds = tuple(float(b) for b in spec.get("buckets", ()))
                h = self.histogram(name, bounds or TIME_BUCKETS)
                if bounds and bounds != h.buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket boundaries differ between "
                        f"shards ({bounds} vs {h.buckets}); snapshots are only "
                        "mergeable across identical boundaries"
                    )
                for i, c in enumerate(spec.get("counts", ())):
                    h.counts[i] += int(c)
                h.sum += float(spec.get("sum", 0.0))
                h.count += int(spec.get("count", 0))
            else:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot of every instrument (JSON-ready)."""
        return {m.name: m.snapshot() for m in self}

    def to_text(self) -> str:
        """Prometheus-flavoured text rendering (human-readable export)."""
        lines: List[str] = []
        for m in self:
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            if m.kind == "histogram":
                for bound, count in zip(m.buckets, m.counts):
                    lines.append(f'{m.name}_bucket{{le="{bound:g}"}} {count}')
                lines.append(f'{m.name}_bucket{{le="+Inf"}} {m.counts[-1]}')
                lines.append(f"{m.name}_sum {m.sum:g}")
                lines.append(f"{m.name}_count {m.count}")
            else:
                lines.append(f"{m.name} {m.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


# Process-wide default registry.  Hot loops fetch instruments from here;
# tests swap it with ``use_registry`` to observe in isolation.
_DEFAULT = MetricsRegistry()
_registry = _DEFAULT

# Guards installation/restoration of the process-wide registry.  Reads
# (``get_registry``) stay lock-free — a single global load — because the
# hot loops call it per event; only the rare install path pays for the
# lock.  An RLock so an installer may re-enter (e.g. a hook that swaps
# registries while already holding the lock via ``use_registry``).
_INSTALL_LOCK = threading.RLock()


def get_registry() -> MetricsRegistry:
    """The active process-wide registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one.

    Install and read-of-previous happen atomically under a module lock,
    so concurrent installers (e.g. task-completion callbacks on different
    threads) cannot interleave and observe each other's half-applied
    swap.
    """
    global _registry
    with _INSTALL_LOCK:
        previous = _registry
        _registry = registry
        return previous


class _UseRegistry:
    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: Optional[MetricsRegistry]):
        self._registry = registry if registry is not None else MetricsRegistry()
        self._previous = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Restore only if our install is still the active one.  If a
        # concurrent ``set_registry``/``use_registry`` replaced it while
        # this block ran, blindly restoring ``_previous`` would clobber
        # that installer's registry with a stale one — exactly the
        # interleaving bug concurrent task callbacks used to hit.  The
        # check-and-restore is atomic under the install lock.
        global _registry
        with _INSTALL_LOCK:
            if _registry is self._registry:
                _registry = self._previous
        return False


def use_registry(registry: Optional[MetricsRegistry] = None) -> _UseRegistry:
    """``with use_registry() as reg:`` — scoped (fresh) registry install.

    Reentrant: blocks may nest (each restores its own predecessor), and
    the context is safe against concurrent installs — on exit the
    previous registry is restored only if this block's registry is still
    the active one, so a stale restore can never clobber a newer install.
    """
    return _UseRegistry(registry)


def counting() -> bool:
    """False inside :func:`uncounted`: work counters held on objects
    (a solver's ``n_solves``) must not advance."""
    return _registry.counting


def uncounted() -> _UseRegistry:
    """``with uncounted():`` — run a block whose work no counter records.

    Installs a scratch registry, so registry counters advanced inside the
    block are dropped, and :func:`counting` reads False, so the solvers'
    own counters hold still too.  The replay engine validates a fresh
    program under it: a run's work counts describe the gradients it
    returned, whether they were computed eagerly or replayed.
    """
    scratch = MetricsRegistry()
    scratch.counting = False
    return _UseRegistry(scratch)
