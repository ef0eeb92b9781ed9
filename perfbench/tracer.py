"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces a
public function *where its caller looks it up* with a wrapper that records
a span (name, start, end, parent span, thread) or bumps a counter, and
puts every original back on :meth:`Tracer.uninstall`:

- a module attribute that callers reach as ``module.fn`` (``scipy.linalg``'s
  ``lu_factor``) is patched on that module;
- a method is patched on its class;
- a ``from x import fn`` binding is patched in every ``repro`` module that
  holds the same object (:meth:`Tracer.rebind`), so ``repro.control.pinn``'s
  own ``mlp_with_derivatives`` name is the one that gets wrapped.

Spans stay in memory and are written out once, at the end of a run.  A
span's *self time* is its duration minus the time its children cover; the
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (id, name, start, end, parent id or 0, thread id, attrs).
Span = Tuple[int, str, float, float, int, int, Optional[dict]]

#: Layers whose self time the single-process workloads report.
LAYERS = ("kernel", "pde", "autodiff", "nn", "control", "cloud", "rbf")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: "collections.Counter[str]" = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> Iterable[str]:
        """Names of the spans open on this thread, outermost first."""
        return (name for _, name in self._stack())

    def span(self, name: str, attrs: Optional[dict] = None):
        """Context manager recording one span from benchmark code."""
        return _SpanCM(self, name, attrs)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` with every call recorded as a nested span."""
        stack_of = self._stack
        ids, spans, clock = self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                              attrs(*args, **kwargs) if attrs else None))

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine ``fn`` recorded as a flat span (tasks interleave on
        one thread, so an await has no well-defined parent)."""
        ids, spans, clock = self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = next(ids)
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append((sid, name, t0, clock(), 0,
                              threading.get_ident(), None))

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted and not timed (hot, tiny calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering how to put the original back."""
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def rebind(self, original: Any, replacement: Any) -> int:
        """Patch every ``repro`` module attribute that *is* ``original``."""
        n = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)
                    n += 1
        return n

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------
    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        """Write spans and counters as JSON (once, at the end of a run)."""
        doc = {
            "meta": meta or {},
            "fields": ["id", "name", "start", "end", "parent", "thread", "attrs"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as f:
            json.dump(doc, f)


class _SpanCM:
    __slots__ = ("tr", "name", "attrs", "sid", "parent", "t0")

    def __init__(self, tr: Tracer, name: str, attrs: Optional[dict]) -> None:
        self.tr, self.name, self.attrs = tr, name, attrs

    def __enter__(self) -> int:
        stack = self.tr._stack()
        self.sid = next(self.tr._ids)
        self.parent = stack[-1][0] if stack else 0
        stack.append((self.sid, self.name))
        self.t0 = time.perf_counter()
        return self.sid

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        self.tr._stack().pop()
        self.tr.spans.append((self.sid, self.name, self.t0, t1, self.parent,
                              threading.get_ident(), self.attrs))
        return False


# ----------------------------------------------------------------------
# Layer tables: which public functions are wrapped, under which span name
# ----------------------------------------------------------------------
def _lu_attrs(a, *args, **kwargs) -> dict:
    n = int(getattr(a, "shape", (0,))[0])
    return {"n": n}


def install_batch_layers(tr: Tracer) -> None:
    """Wrap the layers the single-process workloads run through."""
    import scipy.linalg as sla

    # kernel: the repo -> SciPy boundary.  Callers use ``sla.lu_factor``,
    # so the module attribute is where they bind it.
    tr.patch(sla, "lu_factor", tr.wrap("kernel.lu_factor", sla.lu_factor,
                                       attrs=_lu_attrs))
    tr.patch(sla, "lu_solve", tr.wrap("kernel.lu_solve", sla.lu_solve))

    # pde
    from repro.pde.navier_stokes import ChannelFlowProblem as C
    tr.patch(C, "momentum_matrix_ad",
             tr.wrap("pde.ns.momentum", C.momentum_matrix_ad))
    tr.patch(C, "solve_ad", tr.wrap("pde.ns.solve_ad", C.solve_ad))

    # autodiff.  The module ``repro.autodiff.tensor`` is shadowed by the
    # ``tensor()`` function on the ``repro.autodiff`` package, so neither
    # attribute access nor ``import ... as`` reaches it; importlib does.
    tmod = importlib.import_module("repro.autodiff.tensor")
    tr.patch(tmod.Tensor, "backward",
             tr.wrap("autodiff.backward", tmod.Tensor.backward))
    tr.rebind(tmod.make_node, tr.count("autodiff.tape_nodes", tmod.make_node))
    from repro.autodiff import linalg as lin
    tr.rebind(lin.solve, tr.wrap("autodiff.ad_solve", lin.solve))
    tr.patch(lin.LUSolver, "__init__",
             tr.count("autodiff.lusolver.factorizations",
                      lin.LUSolver.__init__))

    # nn
    from repro.control import pinn
    tr.rebind(pinn.mlp_with_derivatives,
              tr.wrap("nn.derivatives", pinn.mlp_with_derivatives))
    from repro.nn import mlp
    tr.patch(mlp.MLP, "apply", tr.wrap("nn.mlp_apply", mlp.MLP.apply))
    from repro.nn import optimizers as opt
    tr.patch(opt.Adam, "step", tr.wrap("nn.adam", opt.Adam.step))

    # control
    from repro.control import dp
    for cls in (dp.NavierStokesDP, dp.LaplaceDP):
        tr.patch(cls, "value_and_grad",
                 tr.wrap("control.grad", cls.value_and_grad))
    vgt = pinn.value_and_grad_tree

    def value_and_grad_tree(*args, **kwargs):
        return tr.wrap("control.grad", vgt(*args, **kwargs))

    tr.patch(pinn, "value_and_grad_tree", value_and_grad_tree)
    for attr in ("cost_objective", "residual_loss"):
        tr.patch(pinn.LaplacePINN, attr,
                 _tracker(tr, getattr(pinn.LaplacePINN, attr)))

    # cloud, rbf
    # The cloud constructors are factory functions bound by from-imports.
    from repro.cloud import neighbors as nb
    from repro.cloud.channel import ChannelCloud
    from repro.cloud.square import SquareCloud

    for orig in (ChannelCloud, SquareCloud):
        tr.rebind(orig, tr.wrap("cloud.build", orig))
    for fn in ("kdtree", "nearest_neighbors"):
        orig = getattr(nb, fn)
        counted = tr.count("cloud.neighbors", orig)
        tr.patch(nb, fn, counted)
        tr.rebind(orig, counted)
    from repro.rbf import operators as ops
    tr.rebind(ops.build_nodal_operators,
              tr.wrap("rbf.operators", ops.build_nodal_operators))
    from repro.rbf import solver as rs

    for cls in (rs.RBFSolver, rs.LocalRBFSolver):
        for attr in ("solve", "solve_block"):
            tr.patch(cls, attr, tr.wrap("rbf.solve", getattr(cls, attr)))

    # obs: the program's own (disabled) ``span()`` calls, counted.
    from repro.obs import profile as prof

    tr.rebind(prof.span, tr.count("obs.span", prof.span))


def _tracker(tr: Tracer, fn: Callable) -> Callable:
    """PINN cost/residual terms: spanned only when called *outside* the
    loss, i.e. by the per-epoch history trackers (ROADMAP item 2)."""
    traced = tr.wrap("control.pinn.tracker", fn)

    @functools.wraps(fn)
    def tracker(*args, **kwargs):
        if "control.grad" in tr.open_names():
            return fn(*args, **kwargs)
        return traced(*args, **kwargs)

    return tracker


def _pool_attrs(self, job, *args, **kwargs) -> dict:
    return {"op": job.get("op"), "width": len(job.get("requests") or [0])}


def install_serve_layers(tr: Tracer) -> None:
    """Wrap the parent side of ``repro.serve`` (front end, coalescer,
    store, pool).  Worker processes fork from the patched parent but never
    call these, so nothing is recorded in them."""
    import repro.serve.service  # noqa: F401 — holds the bindings rebound below
    from repro.serve import coalesce as co
    from repro.serve import pool
    from repro.serve import protocol as proto
    from repro.serve import store

    for fn in ("parse_request", "request_digest", "coalesce_key"):
        tr.rebind(getattr(proto, fn),
                  tr.wrap("serve.protocol", getattr(proto, fn)))
    for attr in ("get", "put"):
        tr.patch(store.ResultStore, attr,
                 tr.wrap("serve.store", getattr(store.ResultStore, attr)))
    tr.patch(co.Coalescer, "submit",
             tr.wrap_async("serve.coalesce.submit", co.Coalescer.submit))
    tr.patch(pool.ServeWorker, "call",
             tr.wrap("serve.pool.call", pool.ServeWorker.call,
                     attrs=_pool_attrs))
    tr.patch(pool.WarmPool, "replace",
             tr.count("serve.pool.replacements", pool.WarmPool.replace))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def subtree(spans: List[Span], root_id: int) -> List[Span]:
    """Spans that descend from ``root_id`` (the root excluded)."""
    parent = {s[0]: s[4] for s in spans}
    inside: Dict[int, bool] = {root_id: True, 0: False}

    def within(sid: int) -> bool:
        chain = []
        while sid not in inside:
            chain.append(sid)
            sid = parent.get(sid, 0)
        verdict = inside[sid]
        for c in chain:
            inside[c] = verdict
        return verdict

    return [s for s in spans if s[0] != root_id and within(s[4])]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Duration minus the part covered by direct children, per span id.

    Children of one nested (same-thread, stack-ordered) span never
    overlap, so their durations add up.
    """
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in out:
            out[s[4]] -= s[3] - s[2]
    return out


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    st = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += st[s[0]]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
