"""Analytic propagation of input-derivatives through an MLP.

PINN losses contain spatial derivatives of the network output —
``∂u/∂x``, ``∂²u/∂x²`` (Laplacian), advection terms, divergence.  With JAX
one nests ``grad`` calls; here one primitive, :func:`mlp_eval`, propagates
the triple

.. math::

    (a, \\; \\partial a/\\partial x_i, \\; \\partial^2 a/\\partial x_i^2)
    \\quad i = 1..d

layer by layer:

- affine layer ``z = a W + b``:  ``z_i' = a_i' W``,  ``z_i'' = a_i'' W``;
- elementwise activation ``a = σ(z)``:
  ``a_i' = σ'(z) z_i'``,
  ``a_i'' = σ''(z) (z_i')² + σ'(z) z_i''``.

The triple rides through the network *packed*: one ``(K, batch, width)``
array with ``K = 1 + order·d`` rows (value, the ``d`` first derivatives,
the ``d`` second derivatives), so each layer is one stacked matmul whose
slices are the ``(batch, in) @ (in, out)`` GEMMs an unpacked propagation
would run, and the activation is evaluated once per layer
(:attr:`~repro.nn.activations.Activation.derivatives`).

The whole evaluation is one tape node.  Its joint VJP is a hand-written
reverse sweep that returns the cotangents of every layer's ``W`` and
``b`` (and of ``x``) at once; the second-order sweep needs ``σ'''``,
which the forward computes alongside ``σ, σ', σ''`` when the node is on
the tape.  One reverse pass therefore yields exact weight-gradients of
any residual built from ``u``, ``∇u``, ``Δu`` — precisely what PINN
training needs, without nested autodiff.  (Pure second derivatives per
coordinate suffice for every operator in the paper: Laplacian, gradient,
divergence, advection.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

import numpy as np

from repro.autodiff.batching import primitive
from repro.autodiff.tensor import (
    ArrayLike,
    Tensor,
    grad_enabled,
    make_node,
    tensor,
    unbroadcast,
)
from repro.nn.activations import Activation

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.mlp import MLP


def flat_weights(params: Any) -> Tuple[Any, ...]:
    """``(W0, b0, W1, b1, …)`` from a ``[{"W", "b"}, …]`` parameter list."""
    return tuple(v for layer in params for v in (layer["W"], layer["b"]))


def _seed_state(X: np.ndarray, order: int) -> np.ndarray:
    """Packed input state: ``x``, then ``∂x/∂x_i = e_i``, then zeros."""
    batch, d = X.shape
    S = np.zeros((1 + order * d, batch, d))
    S[0] = X
    if order:
        for i in range(d):
            S[1 + i, :, i] = 1.0
    return S


def _affine(S: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``S W + b`` on a packed state: only the value row gets the bias."""
    Z = np.matmul(S, W[..., None, :, :])
    Z[..., 0, :, :] += b[..., None, :]
    return Z


def _forward(
    X: np.ndarray,
    P: Sequence[np.ndarray],
    act: Activation,
    order: int,
    keep: bool,
) -> Tuple[np.ndarray, list]:
    """Packed output ``(…, K, batch, out)`` and, when ``keep``, the
    per-layer ``(input state, pre-activation, σ-derivatives)`` the
    reverse sweep reads.  ``P`` holds ``W (…, i, o)`` and ``b (…, o)``;
    the leading axes ``…`` (a stack of parameter sets) are shared by all
    of them, and ``X`` is shared across the stack."""
    d = X.shape[1]
    S = _seed_state(X, order)
    cache: list = []
    n_der = order + 1 if keep else order
    for l in range(len(P) // 2 - 1):
        Z = _affine(S, P[2 * l], P[2 * l + 1])
        der = act.derivatives(Z[..., 0, :, :], n_der)
        T = np.empty_like(Z)
        T[..., 0, :, :] = der[0]
        if order:
            s1 = der[1][..., None, :, :]
            dz = Z[..., 1 : 1 + d, :, :]
            np.multiply(s1, dz, out=T[..., 1 : 1 + d, :, :])
        if order == 2:
            d2z = Z[..., 1 + d :, :, :]
            T[..., 1 + d :, :, :] = der[2][..., None, :, :] * (dz * dz) + s1 * d2z
        if keep:
            cache.append((S, Z, der))
        S = T
    if keep:
        cache.append((S, None, None))
    return _affine(S, P[-2], P[-1]), cache


def _activation_vjp(
    GT: np.ndarray, Z: np.ndarray, der: Sequence[np.ndarray], order: int, d: int
) -> np.ndarray:
    """Cotangent of the packed pre-activation ``Z`` from that of the
    packed activation output ``T`` (the transpose of the two rules in the
    module docstring)."""
    G = np.empty_like(GT)
    gz = GT[..., 0, :, :] * der[1]
    if order:
        s1 = der[1][..., None, :, :]
        dz = Z[..., 1 : 1 + d, :, :]
        gda = GT[..., 1 : 1 + d, :, :]
        g_s1 = gda * dz
        gdz = G[..., 1 : 1 + d, :, :]
        np.multiply(gda, s1, out=gdz)
        if order == 2:
            d2z = Z[..., 1 + d :, :, :]
            gd2a = GT[..., 1 + d :, :, :]
            g_s1 += gd2a * d2z
            gdz += (2.0 * der[2][..., None, :, :]) * dz * gd2a
            np.multiply(gd2a, s1, out=G[..., 1 + d :, :, :])
            gz += der[3] * (gd2a * (dz * dz)).sum(axis=-3)
        gz += der[2] * g_s1.sum(axis=-3)
    G[..., 0, :, :] = gz
    return G


def _backward(
    G: np.ndarray,
    cache: list,
    P: Sequence[np.ndarray],
    order: int,
    d: int,
    need_x: bool,
) -> Tuple[Any, List[np.ndarray]]:
    """Reverse sweep: ``(x̄, [W̄0, b̄0, W̄1, …])`` from the cotangent ``G``
    of the packed output."""
    grads: List[np.ndarray] = [None] * len(P)  # type: ignore[list-item]
    gx = None
    for l in range(len(cache) - 1, -1, -1):
        S = cache[l][0]
        W = P[2 * l]
        K, batch = G.shape[-3], G.shape[-2]
        Sf = S.reshape(S.shape[:-3] + (K * batch, S.shape[-1]))
        Gf = G.reshape(G.shape[:-3] + (K * batch, G.shape[-1]))
        grads[2 * l] = np.matmul(np.swapaxes(Sf, -1, -2), Gf)
        grads[2 * l + 1] = G[..., 0, :, :].sum(axis=-2)
        if l == 0:
            if need_x:
                gx = np.matmul(G[..., 0, :, :], np.swapaxes(W, -1, -2))
            break
        GT = np.matmul(G, np.swapaxes(W, -1, -2)[..., None, :, :])
        _, Z, der = cache[l - 1]
        G = _activation_vjp(GT, Z, der, order, d)
    return gx, grads


@primitive("mlp")
def mlp_eval(
    x: ArrayLike,
    weights: Sequence[ArrayLike],
    activation: Activation,
    order: int = 0,
) -> Tensor:
    """One MLP evaluation, with input-derivatives up to ``order``, as one
    tape node.

    Parameters
    ----------
    x:
        ``(batch, in_dim)`` evaluation points.
    weights:
        ``(W0, b0, W1, b1, …)``; ``W`` is ``(…, in, out)`` and ``b``
        ``(…, out)``, where the leading axes ``…`` — empty for one
        network, ``(N,)`` for a stack of N parameter sets — are the same
        for every entry.
    activation:
        Hidden-layer activation (the output layer is affine).
    order:
        0 for the plain forward, 1 or 2 to propagate first or first and
        second derivatives.

    Returns
    -------
    Tensor
        ``(…, batch, out)`` for ``order = 0``; otherwise the packed
        ``(…, 1 + order·in_dim, batch, out)`` array of value, first and
        second derivatives.

    The node's joint VJP runs :func:`_backward` once for all parents; its
    replay closure recomputes the forward and the cached intermediates
    from the current parameter buffers.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    if len(weights) < 2 or len(weights) % 2:
        raise ValueError("weights must be a non-empty (W0, b0, W1, b1, …) sequence")
    xt = tensor(x)
    ts = [tensor(w) for w in weights]
    X = xt.data
    P = [t.data for t in ts]
    if X.ndim != 2 or X.shape[1] != P[0].shape[-2]:
        raise ValueError(
            f"x must have shape (batch, {P[0].shape[-2]}), got {X.shape}"
        )
    lead = P[0].shape[:-2]
    if any(W.shape[:-2] != lead for W in P[0::2]) or any(
        b.shape[:-1] != lead for b in P[1::2]
    ):
        raise ValueError("every W and b must share the same leading axes")
    d = X.shape[1]

    inputs = [xt] + ts
    slots = [k for k, t in enumerate(inputs) if t.needs_tape()] if grad_enabled() else []
    Y, cache = _forward(X, P, activation, order, keep=bool(slots))
    out = Y if order else Y[..., 0, :, :]
    if not slots:
        return Tensor(out)

    holder = [cache]

    def vjp(g: np.ndarray) -> List[np.ndarray]:
        G = g if order else g[..., None, :, :]
        gx, gP = _backward(G, holder[0], P, order, d, slots[0] == 0)
        if gx is not None:
            gx = unbroadcast(gx, X.shape)
        return [gx if k == 0 else gP[k - 1] for k in slots]

    def fwd(o: np.ndarray) -> None:
        Y, holder[0] = _forward(X, P, activation, order, keep=True)
        o[...] = Y if order else Y[..., 0, :, :]

    parents = [(inputs[k], None) for k in slots]
    return make_node(out, parents, "mlp", fwd=fwd, vjp=vjp)


def mlp_forward(model: MLP, params: Any, x: ArrayLike) -> Tensor:
    """Plain forward pass (alias of :meth:`MLP.apply` for symmetry)."""
    return model.apply(params, x)


def mlp_with_derivatives(
    model: MLP,
    params: Any,
    x: ArrayLike,
    need_second: bool = True,
) -> Tuple[Tensor, List[Tensor], List[Tensor]]:
    """Evaluate the network and its first/second input-derivatives.

    Parameters
    ----------
    model:
        The :class:`~repro.nn.mlp.MLP` architecture.
    params:
        Parameter pytree (arrays or tape tensors).
    x:
        ``(batch, in_dim)`` evaluation points.
    need_second:
        When False, skips the second-derivative propagation (≈30 % cheaper;
        used by first-order residual terms such as the continuity equation).

    Returns
    -------
    (u, du, d2u)
        ``u`` has shape ``(batch, out_dim)``; ``du[i]`` and ``d2u[i]`` are
        ``∂u/∂x_i`` and ``∂²u/∂x_i²`` with the same shape.  ``d2u`` is an
        empty list when ``need_second`` is False.  All are views of one
        :func:`mlp_eval` node.
    """
    xt = tensor(x)
    if xt.ndim != 2 or xt.shape[1] != model.in_dim:
        raise ValueError(
            f"x must have shape (batch, {model.in_dim}), got {xt.shape}"
        )
    d = model.in_dim
    Y = mlp_eval(xt, flat_weights(params), model.activation, 2 if need_second else 1)
    du = [Y[1 + i] for i in range(d)]
    d2u = [Y[1 + d + i] for i in range(d)] if need_second else []
    return Y[0], du, d2u


def mlp_ensemble_with_derivatives(
    model: MLP,
    params_stack: Any,
    x: ArrayLike,
    need_second: bool = True,
) -> Tuple[Tensor, List[Tensor], List[Tensor]]:
    """:func:`mlp_with_derivatives` for a *stack* of N parameter sets.

    ``params_stack`` is a parameter pytree whose leaves carry a leading
    ensemble axis of length N (e.g. the per-ω networks of a batched line
    search, stacked leafwise); the evaluation points ``x`` are shared.
    One :func:`repro.autodiff.vbatch` trace evaluates all N networks as
    one :func:`mlp_eval` node over the stacked parameters, every matmul
    covering the whole ensemble.  Each returned tensor gains a leading N
    axis — ``u`` is ``(N, batch, out_dim)``, ``du[i]``/``d2u[i]``
    likewise — and slice ``j`` is bitwise :func:`mlp_with_derivatives` of
    parameter set ``j`` (the stacked GEMMs are the per-network GEMMs).
    Gradients flow to ``params_stack`` leaves as usual.
    """
    from repro.autodiff.batching import vbatch

    def fn(params):
        u, du, d2u = mlp_with_derivatives(model, params, x, need_second)
        return [u] + du + d2u

    d = model.in_dim
    outs = vbatch(fn, in_axes=0)(params_stack)
    u = outs[0]
    du = outs[1 : 1 + d]
    d2u = outs[1 + d :] if need_second else []
    return u, du, d2u
