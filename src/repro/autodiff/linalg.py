"""Differentiable dense linear algebra.

:func:`solve` is the primitive that makes the *discretise-then-optimise*
strategy possible: differentiating ``x = A^{-1} b`` does **not** retain the
elementary operations of the factorisation.  Instead the adjoint system
``A^T w = g`` is solved in the backward pass, giving

.. math::

    \\bar b = A^{-T} \\bar x, \\qquad \\bar A = -\\bar b \\, x^T .

This is mathematically identical to the discrete adjoint method (and to
what JAX's ``jax.numpy.linalg.solve`` records), so the DP method obtains
*exact* discrete gradients at the cost of one extra triangular solve per
linear system — the property the paper calls the "gold standard".

The LU factorisation computed in the forward pass is cached on the tape
node and reused in the backward pass, halving the factorisation cost.

:func:`solve_row_affine` is the structured sibling for matrices of the
form ``A = A0 + Σ_k diag(s_k) D_k`` with constant ``A0`` and ``D_k``:
only the row scalings ``s_k`` live on the tape, so neither ``A`` nor its
cotangent is ever recorded as an ``(n, n)`` node.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla

from repro.autodiff.batching import composite, primitive
from repro.autodiff.tensor import ArrayLike, Tensor, make_node, tensor
from repro.autodiff import ops
from repro.obs.metrics import get_registry


@primitive("solve")
def solve(A: ArrayLike, b: ArrayLike, assume_a: str = "gen") -> Tensor:
    """Differentiable solution of the linear system ``A x = b``.

    Parameters
    ----------
    A:
        ``(n, n)`` matrix, dense.  May require gradients (needed for the
        Navier–Stokes DP path where the advection operator depends on the
        previous velocity iterate).
    b:
        ``(n,)`` vector or ``(n, k)`` block of right-hand sides.
    assume_a:
        Passed to ``scipy.linalg.lu_factor`` selection; only ``"gen"``
        (general LU) and ``"pos"`` (Cholesky) are supported.

    Returns
    -------
    Tensor
        ``x`` with a VJP that solves the adjoint (transposed) system.
    """
    tA, tb = tensor(A), tensor(b)
    Ad, bd = tA.data, tb.data
    if Ad.ndim != 2 or Ad.shape[0] != Ad.shape[1]:
        raise ValueError(f"solve expects a square matrix, got {Ad.shape}")

    # The factorisation lives in a one-slot holder so the replay closure
    # can refresh it when the matrix values change between replays (the
    # NS momentum matrix depends on the previous velocity iterate); the
    # VJPs read through the holder and always see the current factors.
    # Every factorisation, eager or replayed, is counted in the same
    # ``linalg.dense.factorizations`` registry counter as ``LUSolver``.
    holder: list = [None]
    if assume_a == "pos":

        def refactor() -> None:
            holder[0] = sla.cho_factor(Ad, check_finite=False)
            get_registry().counter("linalg.dense.factorizations").inc()

        def solve_T(g: np.ndarray) -> np.ndarray:
            return sla.cho_solve(holder[0], g, check_finite=False)  # symmetric

        def fwd(o: np.ndarray) -> None:
            if a_on_tape:
                refactor()
            o[...] = sla.cho_solve(holder[0], bd, check_finite=False)

        refactor()
        x = np.asarray(sla.cho_solve(holder[0], bd, check_finite=False))
    else:

        def refactor() -> None:
            holder[0] = sla.lu_factor(Ad, check_finite=False)
            get_registry().counter("linalg.dense.factorizations").inc()

        def solve_T(g: np.ndarray) -> np.ndarray:
            return sla.lu_solve(holder[0], g, trans=1, check_finite=False)

        def fwd(o: np.ndarray) -> None:
            if a_on_tape:
                refactor()
            o[...] = sla.lu_solve(holder[0], bd, check_finite=False)

        refactor()
        x = np.asarray(sla.lu_solve(holder[0], bd, check_finite=False))

    a_on_tape = tA.needs_tape()

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return solve_T(g)

    def vjp_A(g: np.ndarray) -> np.ndarray:
        w = solve_T(g)
        if x.ndim == 1:
            return -np.outer(w, x)
        return -(w @ x.T)

    return make_node(x, [(tA, vjp_A), (tb, vjp_b)], "solve", fwd=fwd)


def _row_affine_matrix(
    A0: np.ndarray, terms: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Assemble ``A0 + Σ_k diag(s_k) D_k`` into a fresh dense array.

    The one assembly of a row-affine matrix: :func:`solve_row_affine`
    and every NumPy caller that must reproduce its forward bit for bit
    (the Navier–Stokes momentum step) build ``A`` here.
    """
    A = np.array(A0, dtype=np.float64)
    scaled = np.empty_like(A)
    for s, D in terms:
        np.multiply(np.asarray(s)[:, None], D, out=scaled)
        A += scaled
    return A


@primitive("solve_row_affine")
def solve_row_affine(
    A0: np.ndarray,
    terms: Sequence[Tuple[ArrayLike, np.ndarray]],
    B: ArrayLike,
) -> Tensor:
    """Differentiable solve of ``(A0 + Σ_k diag(s_k) D_k) X = B``.

    Parameters
    ----------
    A0:
        Constant ``(n, n)`` part of the matrix.
    terms:
        ``(s_k, D_k)`` pairs: ``(n,)`` row scalings, which may be on the
        tape, and constant ``(n, n)`` operators.
    B:
        ``(n,)`` vector or ``(n, m)`` block of right-hand sides.

    The matrix is assembled by :func:`_row_affine_matrix` and factorised
    once for the whole block; the node keeps only the LU factors and
    ``X``.  With ``W = A^{-T} \\bar X`` the VJPs are

    .. math::

        \\bar B = W, \\qquad
        \\bar s_k = -\\textstyle\\sum_{\\text{cols}} W \\odot (D_k X),

    the restriction of the dense ``Ā = −W Xᵀ`` to the row scalings, so
    no ``(n, n)`` cotangent is formed.  The node's joint VJP solves for
    ``W`` once and hands it to every parent (one ``getrs`` per backward,
    not one per parent).  Replay refactorises only when some ``s_k`` is
    on the tape, the rule :func:`solve` uses for ``A``, and recomputes
    ``W`` on every replayed backward.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ValueError(f"solve_row_affine expects a square A0, got {A0.shape}")
    pairs = [(tensor(s), np.asarray(D, dtype=np.float64)) for s, D in terms]
    for t, D in pairs:
        if t.shape != A0.shape[:1] or D.shape != A0.shape:
            raise ValueError(
                f"row-affine term has scaling {t.shape} and operator "
                f"{D.shape}; A0 is {A0.shape}"
            )
    tB = tensor(B)
    Bd = tB.data
    data_terms = [(t.data, D) for t, D in pairs]

    # One-slot holder, as in :func:`solve`: replay refreshes the factors
    # from the current scalings and the VJPs read through it.
    holder: list = [None]

    def refactor() -> None:
        A = _row_affine_matrix(A0, data_terms)
        holder[0] = sla.lu_factor(A, overwrite_a=True, check_finite=False)
        get_registry().counter("linalg.dense.factorizations").inc()

    def solve_T(g: np.ndarray) -> np.ndarray:
        return sla.lu_solve(holder[0], g, trans=1, check_finite=False)

    refactor()
    X = np.asarray(sla.lu_solve(holder[0], Bd, check_finite=False))
    scaled = [(t, D) for t, D in pairs if t.needs_tape()]
    b_on_tape = tB.needs_tape()

    def vjp(g: np.ndarray) -> list:
        # One adjoint solve W = A^{-T} X̄, shared by every parent.
        W = solve_T(g)
        out = []
        for _, D in scaled:
            WDX = W * (D @ X)
            out.append(-WDX if X.ndim == 1 else -np.sum(WDX, axis=1))
        if b_on_tape:
            out.append(W)
        return out

    def fwd(o: np.ndarray) -> None:
        if scaled:
            refactor()
        o[...] = sla.lu_solve(holder[0], Bd, check_finite=False)

    parents = [(t, None) for t, _ in scaled] + ([(tB, None)] if b_on_tape else [])
    return make_node(X, parents, "solve_row_affine", fwd=fwd, vjp=vjp)


class LUSolver:
    """A differentiable solver with a *cached* LU factorisation.

    For optimal-control loops the system matrix is constant across
    iterations (Laplace: the collocation matrix never changes; NS: the
    pressure-Poisson matrix is fixed).  Factorising once and reusing the
    factors for every forward *and* backward (transposed) solve turns the
    per-iteration cost from O(n³) to O(n²) — this is what makes the scaled
    benchmark runs tractable and mirrors ``jax.scipy.linalg.lu_solve``
    composition under ``jit``.

    ``n_factorizations``/``n_solves`` mirror the counters on
    :class:`~repro.autodiff.sparse.SparseLUSolver`, so the telemetry
    layer reports factorise-once/solve-many behaviour uniformly across
    backends.
    """

    solver_name = "dense-lu"
    nnz = None  # dense storage: no sparsity to report

    def __init__(self, A: np.ndarray) -> None:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"LUSolver expects a square matrix, got {A.shape}")
        self.n = A.shape[0]
        self._lu = sla.lu_factor(A, check_finite=False)
        self.n_factorizations = 1
        self.n_solves = 0
        get_registry().counter("linalg.dense.factorizations").inc()
        # Bind LAPACK ``getrs`` once: ``scipy.linalg.lu_solve`` dispatches
        # to the same routine but re-validates inputs on every call, which
        # dominates small solves in the replay hot loop.  Results are
        # bit-identical — it is literally the same LAPACK call.
        lu_mat, self._piv = self._lu
        self._lu_f = np.asfortranarray(lu_mat)
        (self._getrs,) = sla.get_lapack_funcs(("getrs",), (self._lu_f,))

    def _solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        self.n_solves += 1
        get_registry().counter("linalg.dense.solves").inc()
        x, info = self._getrs(self._lu_f, self._piv, b, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"getrs failed with info={info}")
        return x

    @primitive("lu_solve")
    def __call__(self, b: ArrayLike) -> Tensor:
        """Solve ``A x = b`` differentiably w.r.t. ``b``."""
        tb = tensor(b)
        bd = tb.data
        x = self._solve(bd)

        def vjp_b(g: np.ndarray) -> np.ndarray:
            return self._solve(g, trans=1)

        # Constant matrix: replay re-solves with the cached factors.
        def fwd(o: np.ndarray, bd=bd) -> None:
            o[...] = self._solve(bd)

        return make_node(x, [(tb, vjp_b)], "lu_solve", fwd=fwd)

    def solve_block(self, b_block: ArrayLike) -> Tensor:
        """Solve an ``(N, n)`` row-block of right-hand sides at once.

        The block is transposed into LAPACK's native ``(n, N)`` column
        layout so ONE ``getrs`` call against the cached factors serves
        all N systems — and the adjoint pass mirrors it: the transposed
        solve in the VJP receives the cotangent block in the same layout
        and batches through a single ``getrs(trans=1)``.  This is the
        arrangement the :mod:`~repro.autodiff.batching` solve rule emits.
        """
        return ops.transpose(self(ops.transpose(b_block)))

    def solve_numpy(self, b: np.ndarray) -> np.ndarray:
        """Plain NumPy solve (no tape)."""
        return self._solve(np.asarray(b, dtype=np.float64))

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (the adjoint system) without taping."""
        return self._solve(np.asarray(b, dtype=np.float64), trans=1)


@primitive("lstsq")
def lstsq(A: ArrayLike, b: ArrayLike, rcond: Optional[float] = None) -> Tensor:
    """Differentiable least-squares solution ``argmin_x ||A x - b||``.

    Only the right-hand side ``b`` is differentiated (sufficient for the
    solver paths in this repository where collocation matrices are constant
    w.r.t. the control); the VJP solves the normal-equation adjoint
    ``(A^T A) w = g`` and maps back via ``A w``.
    """
    tA, tb = tensor(A), tensor(b)
    Ad, bd = tA.data, tb.data
    x, *_ = np.linalg.lstsq(Ad, bd, rcond=rcond)
    gram = Ad.T @ Ad

    def vjp_b(g: np.ndarray) -> np.ndarray:
        w = np.linalg.solve(gram, g)
        return Ad @ w

    def fwd(o: np.ndarray) -> None:
        o[...] = np.linalg.lstsq(Ad, bd, rcond=rcond)[0]

    return make_node(x, [(tb, vjp_b)], "lstsq", fwd=fwd)


@composite
def norm(a: ArrayLike, ord: Union[int, float] = 2) -> Tensor:
    """Differentiable vector norm (2-norm or 1-norm)."""
    if ord == 2:
        return ops.sqrt(ops.sum_(ops.square(a)))
    if ord == 1:
        return ops.sum_(ops.abs_(a))
    raise ValueError(f"unsupported norm order {ord!r}")
