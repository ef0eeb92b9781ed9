"""Differentiable sparse linear algebra — the RBF-FD fast path.

The dense primitives in :mod:`repro.autodiff.linalg` lock the DP and DAL
strategies to ``O(N³)`` factorisations of the global collocation matrix.
Local RBF-FD (:mod:`repro.rbf.local`) assembles operators with a fixed
number of nonzeros per row, so the same *discretise-then-optimise* adjoint
identity

.. math::

    \\bar b = A^{-T} \\bar x, \\qquad \\bar A = -\\bar b \\, x^T

can be evaluated with one sparse ``splu`` factorisation reused for the
forward and the transposed (adjoint) solve.  Three entry points:

- :func:`sparse_solve` — one-shot solve against a *constant* sparse
  matrix, differentiable w.r.t. the right-hand side;
- :class:`SparseLUSolver` — factorise once, solve many (mirrors the dense
  :class:`~repro.autodiff.linalg.LUSolver`), used by the control loops
  where the system matrix never changes;
- :func:`sparse_pattern_solve` — solve with a matrix whose *values* live
  on the tape (fixed sparsity pattern, Tensor-valued entries).  This is
  what lets Navier–Stokes DP differentiate through the dependence of the
  momentum matrix on the previous velocity iterate without densifying:
  the VJP w.r.t. the nonzero values is ``-w[row] · x[col]`` — the sparse
  restriction of the dense ``-w xᵀ``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff.batching import primitive
from repro.autodiff.linalg import LUSolver
from repro.autodiff.tensor import ArrayLike, Tensor, make_node, tensor
from repro.obs.metrics import counting, get_registry


def _splu(A) -> spla.SuperLU:
    """Factorise a sparse matrix (any format) with SuperLU.

    Counted in ``linalg.sparse.factorizations``, the counter
    :class:`SparseLUSolver` bumps, so every sparse factorisation on the
    tape (eager or replayed) is counted once.
    """
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"sparse solve expects a square matrix, got {A.shape}")
    lu = spla.splu(A.astype(np.float64))
    get_registry().counter("linalg.sparse.factorizations").inc()
    return lu


@primitive("sparse_solve")
def sparse_solve(A, b: ArrayLike) -> Tensor:
    """Differentiable solution of ``A x = b`` for a constant sparse ``A``.

    Parameters
    ----------
    A:
        ``(n, n)`` ``scipy.sparse`` matrix.  Treated as a constant (no
        gradient); use :func:`sparse_pattern_solve` when the matrix values
        themselves depend on tape tensors.
    b:
        ``(n,)`` vector or ``(n, k)`` block of right-hand sides.

    Returns
    -------
    Tensor
        ``x`` with a VJP that solves the transposed (adjoint) system with
        the *same* factorisation.
    """
    if not sp.issparse(A):
        raise TypeError(
            "sparse_solve expects a scipy.sparse matrix; "
            "use autodiff.linalg.solve for dense systems"
        )
    lu = _splu(A)
    tb = tensor(b)
    bd = tb.data
    x = lu.solve(np.ascontiguousarray(bd))

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return lu.solve(np.ascontiguousarray(g), trans="T")

    def fwd(o: np.ndarray) -> None:
        o[...] = lu.solve(np.ascontiguousarray(bd))

    return make_node(x, [(tb, vjp_b)], "sparse_solve", fwd=fwd)


@primitive("sparse_matvec")
def sparse_matvec(M, x: ArrayLike) -> Tensor:
    """Differentiable product ``M @ x`` for a constant sparse matrix.

    The sparse counterpart of ``ops.matmul`` with a constant left factor:
    the VJP is ``Mᵀ g``, again a sparse product — nodal differentiation
    matrices stay sparse through the whole reverse pass.
    """
    if not sp.issparse(M):
        raise TypeError("sparse_matvec expects a scipy.sparse matrix")
    tx = tensor(x)
    xd = tx.data
    out = M @ xd
    MT = M.T.tocsr()

    def vjp_x(g: np.ndarray) -> np.ndarray:
        return MT @ g

    def fwd(o: np.ndarray) -> None:
        o[...] = M @ xd

    return make_node(out, [(tx, vjp_x)], "sparse_matvec", fwd=fwd)


@primitive("sparse_pattern_solve")
def sparse_pattern_solve(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    data: ArrayLike,
    b: ArrayLike,
) -> Tensor:
    """Differentiable solve where the matrix *values* are on the tape.

    ``A = csr((data, (rows, cols)), shape)`` with a fixed sparsity pattern
    ``(rows, cols)``; ``data`` may be a Tensor (e.g. assembled from the
    frozen-advection velocity), and the VJP scatters the dense adjoint
    formula ``Ā = -w xᵀ`` onto the pattern only:

    .. math::

        \\bar d_k = -w_{r_k} x_{c_k} .

    Duplicate ``(row, col)`` entries are summed by the CSR constructor,
    and each duplicate receives the same (correct) cotangent.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    td, tb = tensor(data), tensor(b)
    if td.data.shape != rows.shape:
        raise ValueError(
            f"data has shape {td.data.shape}, pattern has {rows.shape}"
        )
    dd, bd = td.data, tb.data
    A = sp.csr_matrix((dd, (rows, cols)), shape=shape)
    # One-slot holder: the forward-replay closure re-assembles and
    # re-factorises from the *current* pattern values (they live on the
    # tape and change between replays); the VJPs read through the holder
    # so the adjoint solves always use the matching factorisation.
    holder = [_splu(A)]
    x = np.asarray(holder[0].solve(np.ascontiguousarray(bd)))

    def solve_T(g: np.ndarray) -> np.ndarray:
        return holder[0].solve(np.ascontiguousarray(g), trans="T")

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return solve_T(g)

    def vjp_data(g: np.ndarray) -> np.ndarray:
        w = solve_T(g)
        if x.ndim == 1:
            return -w[rows] * x[cols]
        return -np.sum(w[rows] * x[cols], axis=1)

    def fwd(o: np.ndarray) -> None:
        holder[0] = _splu(sp.csr_matrix((dd, (rows, cols)), shape=shape))
        o[...] = holder[0].solve(np.ascontiguousarray(bd))

    return make_node(
        x, [(td, vjp_data), (tb, vjp_b)], "sparse_pattern_solve", fwd=fwd
    )


class SparseLUSolver:
    """A differentiable sparse solver with a cached ``splu`` factorisation.

    The sparse sibling of :class:`~repro.autodiff.linalg.LUSolver`: the
    control loops' system matrices are constant across iterations, so the
    symbolic + numeric factorisation happens exactly once and every
    forward *and* transposed (adjoint) solve reuses it — factorise-once,
    solve-many.  ``n_factorizations`` counts numeric factorisations and
    ``n_solves`` counts triangular solves against the cached factors, so
    regression tests (and the telemetry layer's cache records) can assert
    the cache is actually hit.
    """

    solver_name = "sparse-splu"

    def __init__(self, A) -> None:
        if not sp.issparse(A):
            raise TypeError(
                "SparseLUSolver expects a scipy.sparse matrix; "
                "use LUSolver for dense systems"
            )
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(
                f"SparseLUSolver expects a square matrix, got {A.shape}"
            )
        self.n = A.shape[0]
        self.nnz = A.nnz
        self._lu = spla.splu(A.astype(np.float64))
        self.n_factorizations = 1
        self.n_solves = 0
        get_registry().counter("linalg.sparse.factorizations").inc()

    def _solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        if counting():
            self.n_solves += 1
        get_registry().counter("linalg.sparse.solves").inc()
        return self._lu.solve(np.ascontiguousarray(b), trans=trans)

    @primitive("sparse_lu_solve")
    def __call__(self, b: ArrayLike) -> Tensor:
        """Solve ``A x = b`` differentiably w.r.t. ``b``."""
        tb = tensor(b)
        bd = tb.data
        x = self._solve(bd)

        def vjp_b(g: np.ndarray) -> np.ndarray:
            return self._solve(g, trans="T")

        def fwd(o: np.ndarray) -> None:
            o[...] = self._solve(bd)

        return make_node(x, [(tb, vjp_b)], "sparse_lu_solve", fwd=fwd)

    def solve_block(self, b_block: ArrayLike) -> Tensor:
        """Solve an ``(N, n)`` row-block of right-hand sides at once.

        One ``splu`` triangular solve against an ``(n, N)`` column block
        serves all N systems, forward and adjoint (the VJP's transposed
        solve receives the cotangent block in the same layout) — the
        sparse mirror of :meth:`~repro.autodiff.linalg.LUSolver.solve_block`
        and the arrangement the batching solve rule emits.
        """
        from repro.autodiff import ops

        return ops.transpose(self(ops.transpose(b_block)))

    def solve_numpy(self, b: np.ndarray) -> np.ndarray:
        """Plain NumPy solve (no tape)."""
        return self._solve(np.asarray(b, dtype=np.float64))

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (the adjoint system) without taping."""
        return self._solve(np.asarray(b, dtype=np.float64), trans="T")


def make_linear_solver(A, method: str = "direct", **options):
    """Build the differentiable solver matching ``A``'s storage and ``method``.

    The single dispatch point that lets the DP/DAL oracles run on any
    backend from one flag:

    ==========  ===============  =============================================
    storage     ``method``       solver
    ==========  ===============  =============================================
    dense       ``"direct"``     :class:`~repro.autodiff.linalg.LUSolver`
    sparse      ``"direct"``     :class:`SparseLUSolver`
    sparse      ``"iterative"``  :class:`~repro.autodiff.krylov.KrylovSolver`
    dense       ``"iterative"``  ``TypeError`` — the matrix-free path exists
                                 to *avoid* dense storage; densifying first
                                 would defeat it, so a wrong-backend pick
                                 fails loudly here instead of in a bench run
    ==========  ===============  =============================================

    Sparsity is decided by ``scipy.sparse.issparse`` (true for both the
    legacy ``*_matrix`` and the new ``*_array`` classes, and for every
    format — COO inputs are converted by the solver constructors).
    Objects that merely *duck-type* a sparse matrix (e.g. expose
    ``toarray``) are treated as dense operands, matching the behaviour
    of every other ``scipy.sparse`` consumer in the repository.

    All three solvers expose the same interface (``__call__`` on the
    tape with an implicit/adjoint VJP, ``solve_numpy``,
    ``solve_transposed``, ``solve_block``).  ``options`` are forwarded
    to :class:`~repro.autodiff.krylov.KrylovSolver` (tolerances,
    ``maxiter``, ``preconditioner``, ``fallback``, ``recorder``, ...)
    and must be empty for the direct backends.
    """
    if method not in ("direct", "iterative"):
        raise ValueError(
            f"method must be 'direct' or 'iterative', got {method!r}"
        )
    if method == "iterative":
        if not sp.issparse(A):
            raise TypeError(
                "the iterative (Krylov) backend requires a scipy.sparse "
                "operator; got a dense system — use method='direct' or "
                "assemble with the local RBF-FD backend"
            )
        from repro.autodiff.krylov import KrylovSolver

        return KrylovSolver(A, **options)
    if options:
        raise TypeError(
            f"unexpected options for the direct backend: {sorted(options)}"
        )
    if sp.issparse(A):
        return SparseLUSolver(A)
    return LUSolver(A)
