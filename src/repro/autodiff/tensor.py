"""The :class:`Tensor` node of the reverse-mode autodiff tape.

A :class:`Tensor` wraps a ``numpy.ndarray`` together with the bookkeeping
needed to replay the chain rule backwards: the list of parent tensors and,
for each parent, a *vector-Jacobian product* (VJP) closure mapping the
cotangent of this node to the cotangent contribution of that parent.  A
node may instead carry one *joint* VJP that returns the cotangents of all
its parents at once, for primitives whose per-parent VJPs would repeat a
shared reverse sweep (a fused network evaluation, a row-affine solve).

The tape is built dynamically as operations execute (define-by-run, like
JAX's tracing of a single evaluation or PyTorch's eager autograd).  Calling
:meth:`Tensor.backward` on a scalar output topologically sorts the graph and
accumulates cotangents into ``.grad`` fields of leaf tensors created with
``requires_grad=True``.

Design notes
------------
* ``float64`` everywhere — PDE collocation matrices are ill-conditioned and
  the paper's headline DP result (final cost ~1e-9) needs full precision.
* VJP closures capture only the arrays they need, so memory behaves like the
  paper describes for DP: the *entire* computational graph of a solve is
  retained until backward, which is exactly the memory-vs-accuracy trade-off
  Table 3 reports.
* Broadcasting is handled generically by :func:`unbroadcast`.
* ``backward(inputs=...)`` differentiates with respect to a subset of the
  leaves only: edges into subgraphs that reach none of them are skipped.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED: bool = True


class _ViewFwd:
    """Sentinel marking a node whose data aliases its parent's buffer.

    Replay engines skip these nodes in the forward pass: when the parent
    buffer is updated in place, the view reflects the new values for free
    (reshape/transpose of contiguous arrays, basic-index views).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "VIEW_FWD"


VIEW_FWD = _ViewFwd()


class no_grad:
    """Context manager that disables tape construction.

    Useful for optimiser updates and metric evaluation where gradients are
    not needed; mirrors ``torch.no_grad`` / running outside a JAX trace.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def grad_enabled() -> bool:
    """Return True when new operations should be recorded on the tape."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``.

    NumPy broadcasting implicitly tiles operands; its transpose (the VJP)
    therefore *sums* over the broadcast axes.  This helper sums out leading
    added axes and any axis that was expanded from size one.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the reverse-mode autodiff graph.

    Parameters
    ----------
    data:
        Array payload; coerced to a ``float64`` ``numpy.ndarray``.
    requires_grad:
        Mark this tensor as a differentiation *leaf*: after
        :meth:`backward`, its accumulated cotangent is available in
        ``.grad``.
    parents:
        Internal — ``(parent, vjp)`` pairs recorded by primitive ops.
    op:
        Internal — primitive name, for debugging and graph inspection.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op", "_fwd", "_vjp")

    # Make NumPy defer ``ndarray <op> Tensor`` to the Tensor's reflected
    # operators instead of trying elementwise object coercion.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Optional[List[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]]] = None,
        op: str = "leaf",
        fwd: Optional[Callable[[np.ndarray], None]] = None,
        vjp: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents or []
        self._op = op
        # Forward-replay closure: recomputes this node's value *in place*
        # into the buffer passed to it (always ``self.data``), reading the
        # parent buffers it captured by reference at trace time.  ``None``
        # means the op cannot replay; ``VIEW_FWD`` means the data aliases a
        # parent buffer and needs no recomputation.  Only consulted by the
        # compiled replay engine (:mod:`repro.autodiff.compile`).
        self._fwd = fwd
        # Joint VJP: when set, ``_vjp(g)`` returns one cotangent per entry
        # of ``_parents`` (whose per-parent VJP slots are then ``None``).
        self._vjp = vjp

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Data type (always float64 in this engine)."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (differentiable)."""
        from repro.autodiff import ops

        return ops.transpose(self)

    def needs_tape(self) -> bool:
        """True when this node participates in some gradient computation."""
        return self.requires_grad or bool(self._parents)

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the raw array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(
        self,
        cotangent: Optional[np.ndarray] = None,
        inputs: Optional[Sequence["Tensor"]] = None,
    ) -> None:
        """Run reverse-mode accumulation from this node.

        Parameters
        ----------
        cotangent:
            Seed cotangent; defaults to ``1.0`` which requires this tensor
            to be scalar (the usual ``grad``-of-a-loss case).
        inputs:
            Optional leaves to differentiate with respect to.  Only edges
            into nodes that reach one of them are visited, so a subgraph
            that feeds none of them costs no VJP; the cotangents that do
            reach ``inputs`` are unchanged, bit for bit.  ``None``
            differentiates every ``requires_grad`` leaf.
        """
        if cotangent is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit cotangent requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            cotangent = np.ones_like(self.data)
        cotangent = np.asarray(cotangent, dtype=np.float64)
        if cotangent.shape != self.data.shape:
            cotangent = np.broadcast_to(cotangent, self.data.shape).copy()

        order = _topological_order(self)
        live = None if inputs is None else reaching(order, inputs)
        grads: dict[int, np.ndarray] = {id(self): cotangent}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if live is not None and id(node) not in live:
                continue
            joint = node._vjp(g) if node._vjp is not None else None
            for k, (parent, vjp) in enumerate(node._parents):
                if not parent.needs_tape():
                    continue
                if live is not None and id(parent) not in live:
                    continue
                contrib = joint[k] if joint is not None else vjp(g)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Operator overloads — defined lazily to avoid import cycles
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.div(other, self)

    def __pow__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.power(self, other)

    def __rpow__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.power(other, self)

    def __neg__(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.neg(self)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.matmul(self, other)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import ops

        return ops.matmul(other, self)

    def __getitem__(self, index) -> "Tensor":
        from repro.autodiff import ops

        return ops.getitem(self, index)

    # Convenience method forms of common primitives -------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable sum reduction."""
        from repro.autodiff import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean reduction."""
        from repro.autodiff import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        """Differentiable reshape."""
        from repro.autodiff import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def ravel(self) -> "Tensor":
        """Differentiable flatten to one dimension."""
        return self.reshape((-1,))

    # Comparisons operate on data and return plain boolean arrays; they
    # are non-differentiable by nature.
    def __lt__(self, other: ArrayLike):
        return self.data < asdata(other)

    def __le__(self, other: ArrayLike):
        return self.data <= asdata(other)

    def __gt__(self, other: ArrayLike):
        return self.data > asdata(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= asdata(other)


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return nodes reachable from ``root`` in reverse topological order.

    Iterative DFS (PDE solves create graphs deep enough to overflow Python's
    recursion limit).
    """
    order: List[Tensor] = []
    visited: set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited and parent.needs_tape():
                stack.append((parent, False))
    order.reverse()
    return order


def reaching(order: Sequence[Tensor], inputs: Sequence[Tensor]) -> set:
    """Ids of the nodes in ``order`` from which some tensor of ``inputs``
    can be reached through parent edges (the inputs included).

    ``order`` is a :func:`_topological_order` (root first), so walking it
    backwards visits every parent before its children.
    """
    live = {id(t) for t in inputs}
    for node in reversed(order):
        if id(node) not in live and any(id(p) in live for p, _ in node._parents):
            live.add(id(node))
    return live


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a leaf :class:`Tensor` (idempotent on existing tensors).

    If ``data`` is already a Tensor it is returned unchanged unless a
    gradient flag upgrade is requested, in which case a detached copy is
    created.
    """
    if isinstance(data, Tensor):
        if requires_grad and not data.requires_grad:
            return Tensor(data.data, requires_grad=True)
        return data
    return Tensor(data, requires_grad=requires_grad)


def is_tensor(x: object) -> bool:
    """True if ``x`` is a :class:`Tensor`."""
    return isinstance(x, Tensor)


def asdata(x: ArrayLike) -> np.ndarray:
    """Extract the raw float64 ndarray from a tensor or array-like."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def make_node(
    data: np.ndarray,
    parents: Iterable[Tuple[Tensor, Optional[Callable[[np.ndarray], np.ndarray]]]],
    op: str,
    fwd: Optional[Callable[[np.ndarray], None]] = None,
    vjp: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None,
) -> Tensor:
    """Create an interior tape node, respecting the global no-grad switch.

    Primitive implementations call this after computing forward values; when
    gradients are globally disabled, or no parent participates in a gradient
    computation, the result is a detached leaf (the tape is pruned eagerly,
    keeping forward-only solves as cheap as plain NumPy).

    ``fwd`` is the op's forward-replay closure (see :class:`Tensor`): it
    re-executes the forward computation into a caller-supplied output
    buffer, so a recorded tape can be replayed without rebuilding any
    Tensor or closure objects.

    ``vjp`` is an optional *joint* VJP: ``vjp(g)`` returns the cotangents
    of every parent, in order, from one reverse sweep, and the per-parent
    VJP slots are ignored.  Because pruning would misalign that list, a
    primitive passing ``vjp`` must pass only parents that are on the tape.
    """
    if vjp is not None:
        parents = [(p, None) for p, _ in parents]
        if not grad_enabled() or not parents:
            return Tensor(data)
        return Tensor(data, parents=parents, op=op, fwd=fwd, vjp=vjp)
    parents = [(p, v) for (p, v) in parents if p.needs_tape()]
    if not grad_enabled() or not parents:
        return Tensor(data)
    return Tensor(data, parents=parents, op=op, fwd=fwd)
