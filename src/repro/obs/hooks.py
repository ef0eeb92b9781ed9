"""End-of-run telemetry collection from oracles and solvers.

The per-iteration hooks live inside the loops themselves; this module
handles the *cumulative* counters that only make sense once a run is
over: LU-factorisation cache behaviour, compiled-replay program cache
behaviour.  Everything is duck-typed so the collector works on any
oracle that exposes the conventional attributes, and prefers an
oracle-provided ``report_telemetry`` when one exists.

Since PR 4 these hooks publish through the process-wide metrics registry
(:mod:`repro.obs.metrics`): cache totals land as ``cache.<name>.hits`` /
``cache.<name>.misses`` gauges first, and the trace's ``cache`` records
are emitted *from the registry values*, keeping the PR-3
:class:`~repro.obs.schema.CacheRecord` wire format while making the
registry the single source of truth.  Publishing happens even with no
recorder attached, so ``--profile-dir`` metrics artifacts carry cache
stats without tracing enabled.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import get_registry


def _publish(recorder, name: str, hits: int, misses: int) -> None:
    """Registry first; then the trace record, read back off the registry."""
    reg = get_registry()
    reg.record_cache(name, hits, misses)
    if recorder:
        recorder.cache_stats(
            name,
            hits=int(reg.get(f"cache.{name}.hits").value),
            misses=int(reg.get(f"cache.{name}.misses").value),
        )


def record_solver_cache(recorder, solver: Any, name: str = "lu-cache") -> None:
    """Report a solver's factorise-once/solve-many behaviour as cache stats.

    Any object with ``n_factorizations``/``n_solves`` counters qualifies
    (:class:`~repro.autodiff.linalg.LUSolver`,
    :class:`~repro.autodiff.sparse.SparseLUSolver`, and the
    :mod:`repro.rbf.solver` classes all do).  A factorisation is a miss,
    every further solve a hit.
    """
    if solver is None:
        return
    n_fact = getattr(solver, "n_factorizations", None)
    n_solves = getattr(solver, "n_solves", None)
    if n_fact is None or n_solves is None:
        return
    _publish(recorder, name, hits=max(n_solves - n_fact, 0), misses=n_fact)


def record_compile_cache(recorder, *vgs: Any, name: str = "compiled-replay") -> None:
    """Report the summed program-cache stats of replay ``value_and_grad``
    wrappers (anything without a ``cache_info()`` is skipped).

    Replays are hits; first calls, traces and permanent-eager calls are
    misses.
    """
    infos = [vg.cache_info() for vg in vgs if callable(getattr(vg, "cache_info", None))]
    if not infos:
        return

    def total(*events: str) -> int:
        return sum(int(i.get(e, 0)) for i in infos for e in events)

    _publish(recorder, name, hits=total("replays"), misses=total("first", "traces", "eager"))


def record_oracle_telemetry(recorder, oracle: Any) -> None:
    """Collect an oracle's cumulative telemetry into ``recorder``.

    Prefers the oracle's own ``report_telemetry(recorder)`` (every control
    oracle in :mod:`repro.control` implements it); falls back to the
    conventional ``solver`` / ``_vg`` attributes otherwise.
    """
    if oracle is None:
        return
    report = getattr(oracle, "report_telemetry", None)
    if callable(report):
        report(recorder)
        return
    record_solver_cache(recorder, getattr(oracle, "solver", None))
    record_compile_cache(recorder, getattr(oracle, "_vg", None))
