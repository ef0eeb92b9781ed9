"""First-order optimisers on parameter pytrees.

The paper uses Adam for *all three* methods — not just the PINN but also
DAL and DP, where it "helped increase robustness to noisy gradients at
boundaries due to the Runge phenomenon".  The implementations are
functional: ``step`` consumes and returns explicit state, so the same
optimiser serves network weights (pytrees) and control vectors (bare
arrays, which are just single-leaf pytrees).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.nn.pytree import tree_flatten, tree_leaves, tree_map, tree_unflatten, tree_zip_map


def global_grad_norm(grads: Any) -> float:
    """Euclidean norm over all leaves of a gradient pytree."""
    total = 0.0
    for g in tree_leaves(grads):
        g = np.asarray(g)
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_grad_norm(grads: Any, max_norm: float) -> Any:
    """Rescale a gradient pytree so its global norm is at most ``max_norm``."""
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return tree_map(lambda g: np.asarray(g) * scale, grads)


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, lr: float = 1e-2, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.momentum = float(momentum)

    def init(self, params: Any) -> Any:
        """Create the velocity state (zeros like params)."""
        if self.momentum == 0.0:
            return None
        return tree_map(lambda p: np.zeros_like(np.asarray(p, dtype=np.float64)), params)

    def step(
        self, params: Any, grads: Any, state: Any, lr: Optional[float] = None
    ) -> Tuple[Any, Any]:
        """One update; returns ``(new_params, new_state)``."""
        eta = self.lr if lr is None else float(lr)
        if self.momentum == 0.0:
            new_params = tree_zip_map(
                lambda p, g: np.asarray(p, dtype=np.float64) - eta * np.asarray(g),
                params,
                grads,
            )
            return new_params, None
        new_state = tree_zip_map(
            lambda v, g: self.momentum * v + np.asarray(g), state, grads
        )
        new_params = tree_zip_map(
            lambda p, v: np.asarray(p, dtype=np.float64) - eta * v,
            params,
            new_state,
        )
        return new_params, new_state


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    State is ``(step_count, m_tree, v_tree)``.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def init(self, params: Any) -> Tuple[int, Any, Any]:
        """Create zeroed first/second-moment accumulators."""
        zeros = lambda p: np.zeros_like(np.asarray(p, dtype=np.float64))
        return (0, tree_map(zeros, params), tree_map(zeros, params))

    def step(
        self,
        params: Any,
        grads: Any,
        state: Tuple[int, Any, Any],
        lr: Optional[float] = None,
    ) -> Tuple[Any, Tuple[int, Any, Any]]:
        """One Adam update; returns ``(new_params, new_state)``.

        One flatten per tree and one pass over the leaves.
        """
        eta = self.lr if lr is None else float(lr)
        t, m, v = state
        t += 1
        p_leaves, p_def = tree_flatten(params)
        g_leaves = tree_leaves(grads)
        m_leaves, m_def = tree_flatten(m)
        v_leaves, v_def = tree_flatten(v)
        if not len(g_leaves) == len(m_leaves) == len(v_leaves) == len(p_leaves):
            raise ValueError("pytrees have mismatched structure")
        b1, b2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        new_p, new_m, new_v = [], [], []
        for p, g, mi, vi in zip(p_leaves, g_leaves, m_leaves, v_leaves):
            g = np.asarray(g)
            mi = b1 * mi + (1 - b1) * g
            vi = b2 * vi + (1 - b2) * g**2
            new_p.append(
                np.asarray(p, dtype=np.float64) - eta * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
            )
            new_m.append(mi)
            new_v.append(vi)
        return tree_unflatten(p_def, new_p), (
            t,
            tree_unflatten(m_def, new_m),
            tree_unflatten(v_def, new_v),
        )
