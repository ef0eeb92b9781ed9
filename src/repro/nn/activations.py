"""Activation functions with their derivatives.

Each activation carries a triple of callables ``(f, f', f'')`` built from
autodiff primitives, which stay differentiable w.r.t. their inputs, and
one NumPy function ``derivatives(z, k)`` returning ``(f, f', …, f⁽ᵏ⁾)``
for ``k ≤ 3`` from a single evaluation of the transcendental.  The fused
network primitive (:func:`repro.nn.derivatives.mlp_eval`) uses the NumPy
form: its forward needs up to ``f''`` and its reverse sweep one order
more.  The NumPy derivatives repeat the primitive formulas operation for
operation, so both forms give the same bits.

The paper uses ``tanh`` throughout ("infinitely differentiable tanh
activation"); the registry also carries ``sin`` and ``sigmoid`` for
experimentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import ArrayLike, Tensor


@dataclass(frozen=True)
class Activation:
    """An activation with its first two derivatives.

    Attributes
    ----------
    f, df, d2f:
        Callables mapping a tensor to σ(z), σ'(z), σ''(z) respectively.
    derivatives:
        ``derivatives(z, k)`` maps an array to the tuple
        ``(σ(z), σ'(z), …, σ⁽ᵏ⁾(z))``, ``k ≤ 3``.
    name:
        Registry key.
    """

    name: str
    f: Callable[[ArrayLike], Tensor]
    df: Callable[[ArrayLike], Tensor]
    d2f: Callable[[ArrayLike], Tensor]
    derivatives: Callable[[np.ndarray, int], Tuple[np.ndarray, ...]]


def _tanh_df(z: ArrayLike) -> Tensor:
    t = ops.tanh(z)
    return 1.0 - ops.square(t)


def _tanh_d2f(z: ArrayLike) -> Tensor:
    t = ops.tanh(z)
    return -2.0 * t * (1.0 - ops.square(t))


def _sigmoid_df(z: ArrayLike) -> Tensor:
    s = ops.sigmoid(z)
    return s * (1.0 - s)


def _sigmoid_d2f(z: ArrayLike) -> Tensor:
    s = ops.sigmoid(z)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _sin_d2f(z: ArrayLike) -> Tensor:
    return -ops.sin(z)


def _tanh_derivatives(z: np.ndarray, k: int) -> Tuple[np.ndarray, ...]:
    t = np.tanh(z)
    out = [t]
    if k >= 1:
        out.append(1.0 - t * t)
    if k >= 2:
        out.append(-2.0 * t * out[1])
    if k >= 3:
        out.append(out[1] * (6.0 * (t * t) - 2.0))
    return tuple(out)


def _sigmoid_derivatives(z: np.ndarray, k: int) -> Tuple[np.ndarray, ...]:
    s = 1.0 / (1.0 + np.exp(-z))
    out = [s]
    if k >= 1:
        out.append(s * (1.0 - s))
    if k >= 2:
        out.append(out[1] * (1.0 - 2.0 * s))
    if k >= 3:
        out.append(out[2] * (1.0 - 2.0 * s) - 2.0 * (out[1] * out[1]))
    return tuple(out)


def _sin_derivatives(z: np.ndarray, k: int) -> Tuple[np.ndarray, ...]:
    s = np.sin(z)
    if k == 0:
        return (s,)
    c = np.cos(z)
    return (s, c, -s, -c)[: k + 1]


ACTIVATIONS: Dict[str, Activation] = {
    "tanh": Activation("tanh", ops.tanh, _tanh_df, _tanh_d2f, _tanh_derivatives),
    "sigmoid": Activation(
        "sigmoid", ops.sigmoid, _sigmoid_df, _sigmoid_d2f, _sigmoid_derivatives
    ),
    "sin": Activation("sin", ops.sin, ops.cos, _sin_d2f, _sin_derivatives),
}


def get_activation(name: str) -> Activation:
    """Look up an activation triple by name."""
    try:
        return ACTIVATIONS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown activation {name!r}; available: {sorted(ACTIVATIONS)}"
        ) from exc
