"""Trace-and-replay execution for the reverse-mode tape.

The eager engine rebuilds the whole computation graph — Tensor objects,
VJP closures, fresh ndarray buffers — on *every* call, even though the DP
and PINN hot loops evaluate the same graph topology hundreds of times
with only the input values changing.  JAX (the paper's substrate)
amortises this with trace-once ``jit`` compilation; this module brings the
same execution model to the NumPy tape, and the gradient oracles of
:mod:`repro.control` always run through it:

1. **First call** — a signature's first call runs the eager tape and
   keeps nothing, so a one-shot caller pays exactly the eager price.
2. **Trace** — its second call runs eagerly too, and the tape is
   linearised into a topologically sorted op list whose VJP wiring
   (parent slots + closures) is recorded once.
3. **Replay** — later calls with same-shaped inputs never touch
   ``Tensor`` or closure construction.  New input values are copied into
   the recorded leaf buffers, each op's forward-replay closure recomputes
   its value *in place* into the node's persistent buffer, and the
   backward pass accumulates cotangents into a matching set of persistent
   gradient buffers.  Every node therefore owns a **double buffer**: a
   value half written by the forward sweep and read by the backward sweep,
   and a cotangent half written by the backward sweep — no allocation for
   either across iterations (VJP closures may still create small
   temporaries; the profiler reports both sides).
4. **Safety** — programs are keyed on the shapes/dtypes of the
   differentiated inputs (and a content digest of any baked-in constant
   arguments), so a shape or dtype change starts a fresh signature rather
   than stale-buffer reuse.  Each new program is validated against the
   eager result before it is cached; ops without a replay closure, or a
   validation mismatch, fall back to the eager path permanently for that
   key.

The replayed backward visits nodes in exactly the order the eager
``Tensor.backward`` would, and the forward closures invoke the same NumPy
kernels, so replayed results match the eager tape bit-for-bit on the
problems in this repository (the tests assert it for the DP histories on
every backend and solver).

Functions whose *structure* depends on input values (data-dependent
branching on tensor values) must not be replayed — like ``jax.jit``, the
trace freezes one execution path.  The control-loop cost functions here
are all structurally static.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.functional import Argnums, _normalize_argnums, _wrap_args
from repro.obs.metrics import get_registry, uncounted
from repro.autodiff.tensor import (
    Tensor,
    VIEW_FWD,
    _topological_order,
    asdata,
    reaching,
    tensor,
)

__all__ = [
    "CompileError",
    "CompiledProgram",
    "ReplayProfile",
    "compiled_value_and_grad",
    "compiled_value_and_grad_tree",
]


class CompileError(RuntimeError):
    """Raised when a recorded program cannot be replayed safely."""


def _bump(counters: Dict[str, int], event: str) -> None:
    """Advance a wrapper's ``cache_info()`` counter and its process-wide
    ``compile.<event>`` registry twin together."""
    counters[event] += 1
    get_registry().counter(f"compile.{event}").inc()


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
class OpStats:
    """Per-primitive replay statistics (one row of the profile report).

    ``flops`` and ``bytes_moved`` are *estimates* derived from the traced
    shapes (see :func:`_estimate_cost`): good enough to rank ops and to
    check arithmetic-intensity claims, not a hardware counter.
    """

    __slots__ = (
        "calls",
        "fwd_seconds",
        "bwd_seconds",
        "bytes_reused",
        "bytes_allocated",
        "flops",
        "bytes_moved",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.fwd_seconds = 0.0
        self.bwd_seconds = 0.0
        self.bytes_reused = 0
        self.bytes_allocated = 0
        self.flops = 0.0
        self.bytes_moved = 0.0


def _estimate_cost(op: str, out: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> Tuple[float, float]:
    """Estimated (FLOPs, bytes moved) for one forward execution of ``op``.

    Derived from the parent shapes recorded at trace time, once, on the
    first profiled replay, so the replay hot loop only adds two float
    adds per profiled step.  Conventions: a dense matmul costs
    ``2·m·k·n``; a triangular-solve pair against an ``n×n`` factorisation
    costs ``2·n²``; everything else is counted as one FLOP per output
    element.  Bytes moved = output bytes + every parent operand's bytes
    (one read of each input, one write of the output).
    """
    bytes_moved = float(out.nbytes) + 8.0 * sum(
        float(np.prod(s)) if s else 1.0 for s in shapes
    )
    if op == "matmul" and len(shapes) >= 2:
        a, b = shapes[0], shapes[1]
        m = float(a[0]) if len(a) > 1 else 1.0
        k = float(a[-1]) if a else 1.0
        n = float(b[-1]) if len(b) > 1 else 1.0
        flops = 2.0 * m * k * n
    elif "solve" in op:
        n = float(out.shape[0]) if out.ndim else 1.0
        flops = 2.0 * n * n
    else:
        flops = float(out.size)
    return flops, bytes_moved


class ReplayProfile:
    """Aggregated op-level statistics across every trace and replay.

    ``bytes_reused`` counts writes that landed in persistent buffers
    (forward values, cotangent accumulators); ``bytes_allocated`` counts
    fresh ndarrays the replay still creates (VJP temporaries, gradient
    copies handed to the caller).  The ratio is the allocation saving the
    compiled engine delivers over the eager tape, which allocates *every*
    forward and backward array anew.
    """

    def __init__(self) -> None:
        self.ops: Dict[str, OpStats] = {}
        self.n_traces = 0
        self.n_replays = 0
        self.n_eager_calls = 0
        self.persistent_bytes = 0
        self.trace_seconds = 0.0
        self.replay_seconds = 0.0

    def op(self, name: str) -> OpStats:
        """The (auto-created) stats row for primitive ``name``."""
        s = self.ops.get(name)
        if s is None:
            s = self.ops[name] = OpStats()
        return s

    @property
    def bytes_reused(self) -> int:
        """Total bytes written into persistent buffers."""
        return sum(s.bytes_reused for s in self.ops.values())

    @property
    def bytes_allocated(self) -> int:
        """Total bytes freshly allocated during replays."""
        return sum(s.bytes_allocated for s in self.ops.values())

    def report(self) -> str:
        """Human-readable per-op table plus reuse summary."""
        header = (
            f"{'op':<22}{'calls':>9}{'fwd ms':>10}{'bwd ms':>10}"
            f"{'MB reused':>12}{'MB alloc':>11}{'MFLOP':>10}{'MB moved':>11}"
        )

        def row(name: str, s: OpStats) -> str:
            return (
                f"{name:<22}{s.calls:>9d}{s.fwd_seconds * 1e3:>10.3f}"
                f"{s.bwd_seconds * 1e3:>10.3f}"
                f"{s.bytes_reused / 1e6:>12.3f}{s.bytes_allocated / 1e6:>11.3f}"
                f"{s.flops / 1e6:>10.3f}{s.bytes_moved / 1e6:>11.3f}"
            )

        # Rows widen past the header when an op name overflows its column;
        # size the rule to the widest emitted line, not a literal.
        body = [
            row(name, s)
            for name, s in sorted(
                self.ops.items(),
                key=lambda kv: kv[1].fwd_seconds + kv[1].bwd_seconds,
                reverse=True,
            )
        ]
        rule = "-" * max(len(header), *(len(r) for r in body)) if body else "-" * len(header)
        lines = [header, rule, *body]
        reused, alloc = self.bytes_reused, self.bytes_allocated
        denom = reused + alloc
        ratio = reused / denom if denom else 0.0
        lines += [
            rule,
            f"traces: {self.n_traces}   replays: {self.n_replays}   "
            f"eager fallbacks: {self.n_eager_calls}",
            f"persistent buffer pool: {self.persistent_bytes / 1e6:.3f} MB "
            f"(value + cotangent double buffers)",
            f"bytes reused: {reused / 1e6:.3f} MB   "
            f"bytes allocated: {alloc / 1e6:.3f} MB   "
            f"reuse fraction: {ratio:.3f}",
            f"trace time: {self.trace_seconds * 1e3:.2f} ms   "
            f"replay time: {self.replay_seconds * 1e3:.2f} ms",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The recorded program
# ----------------------------------------------------------------------
class CompiledProgram:
    """A linearised tape: topologically sorted ops with static VJP wiring.

    Holds the trace's node buffers (forward values) plus one preallocated
    cotangent buffer per node.  ``replay`` re-executes forward + backward
    over these buffers without constructing any graph objects.

    ``wrt`` (one bool per leaf) restricts the backward schedule to the
    nodes that reach a selected leaf; the other leaves are still replay
    *inputs* — their values are copied in and every node that depends on
    them is recomputed — but they get zero gradients and cost no VJP.
    ``aux`` lists tensors of the trace whose refreshed values
    :meth:`read_aux` returns after each replay; each must be a node of the
    program (one the root depends on), or the program is not replayable.
    """

    def __init__(
        self,
        root: Tensor,
        leaves: Sequence[Tensor],
        wrt: Optional[Sequence[bool]] = None,
        aux: Sequence[Any] = (),
    ) -> None:
        order = _topological_order(root)  # root first, leaves last
        pos = {id(n): i for i, n in enumerate(order)}
        self._root_data = root.data

        self.replayable = True
        self.unreplayable_op: Optional[str] = None
        fwd_steps: List[Tuple[np.ndarray, Callable, str]] = []
        fwd_shapes: List[List[Tuple[int, ...]]] = []
        for node in reversed(order):  # leaves first = forward schedule
            if not node._parents:
                continue  # leaves/constants: values arrive via input copy
            f = node._fwd
            if f is None:
                self.replayable = False
                self.unreplayable_op = node._op
                break
            if f is VIEW_FWD:
                continue  # aliases a parent buffer; updates for free
            fwd_steps.append((node.data, f, node._op))
            fwd_shapes.append([p.data.shape for p, _ in node._parents])
        self._fwd_steps = fwd_steps
        # Parallel to ``_fwd_steps`` so the unprofiled replay loop stays a
        # bare 3-tuple unpack; only ``_replay_profiled`` reads these.
        self._fwd_shapes = fwd_shapes
        self._fwd_costs: Optional[List[Tuple[float, float]]] = None

        # Auxiliary outputs are read straight from their node buffers,
        # which the forward sweep refreshes in place.
        self._aux_bufs: List[np.ndarray] = []
        for t in aux:
            if not isinstance(t, Tensor) or id(t) not in pos:
                self.replayable = False
                self.unreplayable_op = self.unreplayable_op or "<aux>"
                break
            self._aux_bufs.append(t.data)

        # Nodes the backward visits: all of them, or those reaching a
        # selected leaf (plus the root, whose buffer is seeded).
        if wrt is None:
            live = None
        else:
            live = reaching(order, [l for l, m in zip(leaves, wrt) if m])
            live.add(id(root))

        # Cotangent half of each visited node's double buffer.
        self._gradbufs: List[Optional[np.ndarray]] = [
            np.empty_like(n.data) if live is None or id(n) in live else None
            for n in order
        ]

        # Backward schedule, flattened at build time.  Every visited node
        # is reachable from the root through visited parent edges, so it
        # receives at least one cotangent contribution — which write is
        # the *first* (buffer initialisation via copy) versus an
        # accumulation (+=) is therefore static, and the runtime loop
        # needs no touched-flag bookkeeping at all.  Steps run in exactly
        # the order the eager backward would visit them, so accumulation
        # order — and hence floating-point bits — match eager.  A node
        # with a joint VJP contributes one step per visited parent, the
        # first of which runs the joint sweep (see :func:`_joint_steps`).
        bwd_steps: List[Tuple[np.ndarray, Callable, np.ndarray, bool, str]] = []
        initialised = {0}  # root buffer is seeded directly
        for i, node in enumerate(order):
            g = self._gradbufs[i]
            if g is None:
                continue
            ks = [
                k
                for k, (p, _) in enumerate(node._parents)
                if live is None or id(p) in live
            ]
            if node._vjp is not None:
                fns = _joint_steps(node._vjp, ks)
            else:
                fns = [node._parents[k][1] for k in ks]
            for k, vjp in zip(ks, fns):
                pi = pos[id(node._parents[k][0])]
                first = pi not in initialised
                initialised.add(pi)
                bwd_steps.append((g, vjp, self._gradbufs[pi], first, node._op))
        self._bwd_steps = bwd_steps
        self._root_grad = self._gradbufs[0]

        mask = [True] * len(leaves) if wrt is None else list(wrt)
        self._leaf_pos = [pos.get(id(l), -1) if m else -1 for l, m in zip(leaves, mask)]
        self._leaf_bufs = [l.data for l in leaves]
        self._leaf_shapes = [l.data.shape for l in leaves]
        self.buffer_bytes = sum(n.data.nbytes for n in order) + sum(
            b.nbytes for b in self._gradbufs if b is not None
        )

    def read_aux(self) -> List[np.ndarray]:
        """Copies of the auxiliary outputs as of the last replay."""
        return [np.array(b) for b in self._aux_bufs]

    # ------------------------------------------------------------------
    def replay(
        self, inputs: Sequence[np.ndarray], profile: Optional[ReplayProfile] = None
    ) -> Tuple[float, List[np.ndarray]]:
        """Run forward + backward over the recorded buffers.

        Parameters
        ----------
        inputs:
            New values for the differentiated leaves, in trace order;
            shapes must match the trace (enforced).
        profile:
            Optional stats sink; adds per-op timing overhead.

        Returns
        -------
        (value, grads)
            Scalar output value and one gradient array per input leaf
            (fresh copies — safe to hand to optimisers).
        """
        if not self.replayable:
            raise CompileError(
                f"program is not replayable (op {self.unreplayable_op!r} "
                "records no forward-replay closure)"
            )
        for buf, arr in zip(self._leaf_bufs, inputs):
            if buf.shape != arr.shape:
                raise CompileError(
                    f"input shape {arr.shape} does not match traced shape "
                    f"{buf.shape}; re-trace required"
                )
            np.copyto(buf, arr)

        if profile is not None:
            return self._replay_profiled(profile)

        for buf, f, _ in self._fwd_steps:
            f(buf)

        self._root_grad[...] = 1.0
        for g, vjp, b, first, _ in self._bwd_steps:
            if first:
                np.copyto(b, vjp(g))
            else:
                b += vjp(g)
        return float(self._root_data), self._collect_grads()

    def _collect_grads(self) -> List[np.ndarray]:
        grads = []
        for p, shape in zip(self._leaf_pos, self._leaf_shapes):
            if p >= 0:
                grads.append(self._gradbufs[p].copy())
            else:
                grads.append(np.zeros(shape))
        return grads

    def _replay_profiled(self, profile: ReplayProfile) -> Tuple[float, List[np.ndarray]]:
        from repro.obs.metrics import FLOP_BUCKETS, BYTE_BUCKETS, get_registry

        reg = get_registry()
        h_flops = reg.histogram("compile.op.flops", FLOP_BUCKETS)
        h_bytes = reg.histogram("compile.op.bytes_moved", BYTE_BUCKETS)
        if self._fwd_costs is None:
            self._fwd_costs = [
                _estimate_cost(name, buf, shapes)
                for (buf, _, name), shapes in zip(self._fwd_steps, self._fwd_shapes)
            ]
        perf = time.perf_counter
        t_start = perf()
        for (buf, f, name), (flops, moved) in zip(self._fwd_steps, self._fwd_costs):
            t0 = perf()
            f(buf)
            s = profile.op(name)
            s.fwd_seconds += perf() - t0
            s.calls += 1
            s.bytes_reused += buf.nbytes
            s.flops += flops
            s.bytes_moved += moved
            h_flops.observe(flops)
            h_bytes.observe(moved)

        self._root_grad[...] = 1.0
        for g, vjp, b, first, op in self._bwd_steps:
            t0 = perf()
            contrib = vjp(g)
            if first:
                np.copyto(b, contrib)
            else:
                b += contrib
            s = profile.op(op)
            s.bwd_seconds += perf() - t0
            s.bytes_reused += b.nbytes
            # Views (broadcast VJPs, slices of g) are not allocations.
            if isinstance(contrib, np.ndarray) and contrib.flags.owndata:
                s.bytes_allocated += contrib.nbytes

        grads = self._collect_grads()
        for arr in grads:
            profile.op("<output-grads>").bytes_allocated += arr.nbytes
        profile.n_replays += 1
        profile.replay_seconds += perf() - t_start
        return float(self._root_data), grads


def _joint_steps(joint: Callable, ks: Sequence[int]) -> List[Callable]:
    """Per-parent backward steps for a node with a joint VJP.

    The replay schedule keeps one ``(vjp, parent buffer)`` step per edge;
    for a joint node the first step runs the sweep and keeps its result,
    and each step hands out its own parent's slot ``k`` — the last one
    drops the kept result.  The sweep therefore runs once per node and
    replay, and the accumulation order matches the eager backward.
    """
    if len(ks) <= 1:
        return [lambda g, k=k: joint(g)[k] for k in ks]
    memo: list = [None]

    def head(g, k=ks[0]):
        memo[0] = out = joint(g)
        return out[k]

    def middle(g, k):
        return memo[0][k]

    def tail(g, k=ks[-1]):
        out, memo[0] = memo[0], None
        return out[k]

    return [head] + [lambda g, k=k: middle(g, k) for k in ks[1:-1]] + [tail]


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _const_key(x: Any) -> Any:
    """A hashable key component for a *baked* (non-differentiated) arg.

    Arrays are digested by content: a compiled program freezes constant
    operands at trace time, so changing them must trigger a re-trace.
    """
    if isinstance(x, Tensor):
        x = x.data
    if isinstance(x, np.ndarray):
        return ("arr", x.shape, str(x.dtype), hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest())
    if isinstance(x, (int, float, bool, str, bytes, type(None))):
        return ("lit", x)
    return ("obj", type(x).__qualname__, repr(x))


def _diff_key(x: Any) -> Tuple:
    arr = asdata(x)
    return (arr.shape, arr.dtype)  # dtype objects hash fast; str() does not


# ----------------------------------------------------------------------
# Function transforms
# ----------------------------------------------------------------------
class _Trace(NamedTuple):
    """One eager call: its results, the tape behind them (``out`` and the
    gradient ``leaves``), the backward's leaf mask ``wrt`` (``None``:
    every leaf), and the auxiliary output values, tensors and pytree def."""

    value: float
    grads: List[np.ndarray]
    out: Tensor
    leaves: List[Tensor]
    wrt: Optional[List[bool]] = None
    aux: Sequence[np.ndarray] = ()
    aux_nodes: Sequence[Any] = ()
    aux_def: Any = None


def _build_entry(trace: _Trace, prof: Optional[ReplayProfile]) -> Optional[CompiledProgram]:
    """Record ``trace`` as a program and validate one replay against it.

    The validation replay runs on the trace's inputs under
    :func:`~repro.obs.metrics.uncounted`, so work counters (solves,
    factorisations) describe the gradients callers received, however
    each was computed.  An unreplayable op or a mismatch caches ``None``:
    the signature stays on the eager tape for good.
    """
    prog = CompiledProgram(trace.out, trace.leaves, wrt=trace.wrt, aux=trace.aux_nodes)
    if not prog.replayable:
        return None
    try:
        with uncounted():
            v2, g2 = prog.replay([l.data.copy() for l in trace.leaves])
        ok = all(
            np.allclose(a, b, rtol=1e-12, atol=1e-300, equal_nan=True)
            for a, b in zip(
                [trace.value, *trace.grads, *trace.aux], [v2, *g2, *prog.read_aux()]
            )
        )
    except Exception:
        ok = False
    if not ok:
        warnings.warn(
            "compiled replay failed validation; falling back to "
            "the eager tape for this signature",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    prog.aux_def = trace.aux_def
    if prof is not None:
        prof.persistent_bytes += prog.buffer_bytes
    return prog


_MISSING = object()
_SEEN = object()  # a signature whose first call has run: its next one traces


class _ReplayCache:
    """The program cache, counters and profile of one replay wrapper.

    Per signature (cache key) the **first** call runs the eager tape and
    keeps nothing, so a one-shot caller pays exactly the eager price; the
    second runs eagerly too, then records the tape as a
    :class:`CompiledProgram` and validates it (**traces**); later calls
    **replay** it.  A signature whose program cannot be built or fails
    validation runs **eager** for good.
    """

    def __init__(self, profile: bool) -> None:
        self.programs: Dict[Any, Any] = {}
        self.profile = ReplayProfile() if profile else None
        self.counters = {"first": 0, "traces": 0, "replays": 0, "eager": 0}

    def call(self, key: Any, inputs: Callable[[], list], eager: Callable[[], _Trace]):
        """``(value, grads, aux values, aux def)`` of one call."""
        prof = self.profile
        entry = self.programs.get(key, _MISSING)
        if isinstance(entry, CompiledProgram):
            _bump(self.counters, "replays")
            value, grads = entry.replay(inputs(), prof)
            return value, grads, entry.read_aux(), entry.aux_def
        if entry is _MISSING:
            _bump(self.counters, "first")
            self.programs[key] = _SEEN
            trace = eager()
        elif entry is _SEEN:
            _bump(self.counters, "traces")
            t0 = time.perf_counter()
            trace = eager()
            self.programs[key] = _build_entry(trace, prof)
            if prof is not None:
                prof.n_traces += 1
                prof.trace_seconds += time.perf_counter() - t0
        else:
            _bump(self.counters, "eager")
            if prof is not None:
                prof.n_eager_calls += 1
            trace = eager()
        return trace.value, trace.grads, trace.aux, trace.aux_def

    def attach(self, wrapped: Callable) -> Callable:
        """Expose ``.profile``, ``.cache_info()`` and ``._cache`` on ``wrapped``."""
        c = self.counters
        wrapped.profile = self.profile
        wrapped.cache_info = lambda: {
            **c,
            "programs": sum(isinstance(v, CompiledProgram) for v in self.programs.values()),
            "hit_rate": c["replays"] / max(sum(c.values()), 1),
        }
        wrapped._cache = self.programs
        return wrapped


def compiled_value_and_grad(
    f: Callable[..., Any],
    argnums: Argnums = 0,
    profile: bool = False,
) -> Callable[..., Tuple[float, Any]]:
    """Trace-and-replay counterpart of :func:`repro.autodiff.functional.value_and_grad`.

    Returns ``g(*args) -> (f(*args), df/dargs)`` with identical semantics.
    Calls are keyed on the differentiated inputs' shapes and dtypes and a
    content digest of the other arguments; each signature runs eagerly on
    its first call, traces on its second and replays from its third (see
    :class:`_ReplayCache`).

    The returned callable exposes ``.profile`` (a :class:`ReplayProfile`
    when ``profile=True``, else ``None``) and ``.cache_info()``.
    """
    nums = _normalize_argnums(argnums)
    single = isinstance(argnums, int)
    core = _ReplayCache(profile)

    def eager(args, kwargs) -> _Trace:
        call_args, leaves = _wrap_args(args, nums)
        out_t = tensor(f(*call_args, **kwargs))
        if out_t.size != 1:
            raise ValueError(
                f"compiled_value_and_grad requires a scalar output, got shape {out_t.shape}"
            )
        out_t.backward()
        grads = [
            leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves
        ]
        return _Trace(float(out_t.data), grads, out_t, leaves)

    def wrapped(*args: Any, **kwargs: Any) -> Tuple[float, Any]:
        if single and len(args) == 1 and not kwargs:
            # The DP hot loop: one positional differentiated array.
            arr = asdata(args[0])
            key: Any = ((arr.shape, arr.dtype),)
        else:
            key = tuple(
                _diff_key(a) if i in nums else _const_key(a)
                for i, a in enumerate(args)
            ) + tuple((k, _const_key(v)) for k, v in sorted(kwargs.items()))
        value, grads, _, _ = core.call(
            key,
            lambda: [np.asarray(asdata(args[i]), dtype=np.float64) for i in nums],
            lambda: eager(args, kwargs),
        )
        return (value, grads[0]) if single else (value, tuple(grads))

    return core.attach(wrapped)


def compiled_value_and_grad_tree(
    f: Callable[..., Any],
    profile: bool = False,
    has_aux: bool = False,
    wrt: Optional[Sequence[str]] = None,
) -> Callable[..., Tuple[Any, Any]]:
    """Trace-and-replay counterpart of :func:`repro.nn.pytree.value_and_grad_tree`.

    ``f(params, *rest)`` takes a parameter pytree; the wrapper differentiates
    every leaf, or with ``wrt`` only the leaves under those top-level keys
    of a dict pytree.  Used by the PINN training loops, where the loss
    graph topology is identical across all epochs.

    With ``wrt`` the trace still records every leaf, so the other leaves
    are replayed as inputs (never baked in as constants) while the
    backward schedule visits only what reaches the selected leaves; their
    gradients come back as zeros.  With ``has_aux`` ``f`` returns
    ``(loss, aux)``, ``aux`` a pytree of tensors the loss already computes,
    and the wrapper returns ``((value, aux_values), grads)`` — on replay
    the values are read from the refreshed node buffers.
    """
    from repro.nn.pytree import split_aux, tree_flatten, tree_unflatten, wrt_mask

    core = _ReplayCache(profile)

    def eager(params, leaves, treedef, args, kwargs) -> _Trace:
        mask = wrt_mask(params, wrt)
        leaf_tensors = [Tensor(asdata(x), requires_grad=True) for x in leaves]
        out, aux = split_aux(f(tree_unflatten(treedef, leaf_tensors), *args, **kwargs), has_aux)
        out_t = out if isinstance(out, Tensor) else Tensor(out)
        if out_t.size != 1:
            raise ValueError("compiled_value_and_grad_tree requires a scalar output")
        active = [t for t, m in zip(leaf_tensors, mask) if m]
        out_t.backward(inputs=None if wrt is None else active)
        grads = [
            t.grad if t.grad is not None else np.zeros_like(t.data)
            for t in leaf_tensors
        ]
        aux_nodes, aux_def = tree_flatten(aux) if has_aux else ([], None)
        return _Trace(
            float(out_t.data), grads, out_t, leaf_tensors,
            wrt=None if wrt is None else mask,
            aux=[np.array(asdata(a)) for a in aux_nodes],
            aux_nodes=aux_nodes,
            aux_def=aux_def,
        )

    def wrapped(params: Any, *args: Any, **kwargs: Any) -> Tuple[Any, Any]:
        leaves, treedef = tree_flatten(params)
        key = (
            repr(treedef),
            tuple(_diff_key(l) for l in leaves),
            tuple(_const_key(a) for a in args),
            tuple((k, _const_key(v)) for k, v in sorted(kwargs.items())),
        )
        value, grads, aux, aux_def = core.call(
            key,
            lambda: [np.asarray(asdata(l), dtype=np.float64) for l in leaves],
            lambda: eager(params, leaves, treedef, args, kwargs),
        )
        if has_aux:
            value = (value, tree_unflatten(aux_def, aux))
        return value, tree_unflatten(treedef, grads)

    return core.attach(wrapped)
