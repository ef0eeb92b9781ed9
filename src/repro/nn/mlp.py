"""Multilayer perceptron (the paper's PINN architecture).

The Laplace PINN uses 3 hidden layers of 30 neurons; the Navier–Stokes
PINN uses 5 hidden layers of 50 neurons; both with tanh activations.  The
class is a thin, stateless wrapper: parameters live in an explicit pytree
so they can be differentiated with
:func:`repro.nn.pytree.value_and_grad_tree` and updated by the optimisers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.autodiff.tensor import ArrayLike, Tensor
from repro.nn.activations import get_activation
from repro.nn.derivatives import flat_weights, mlp_eval
from repro.nn.init import INITIALIZERS


class MLP:
    """A fully connected network ``in_dim → hidden... → out_dim``.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.
    hidden:
        Sequence of hidden-layer widths, e.g. ``(30, 30, 30)`` for the
        paper's Laplace PINN.
    activation:
        Name of an activation registered in
        :mod:`repro.nn.activations` (default ``"tanh"``).
    init:
        Weight initialiser name (default ``"glorot_normal"``).
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        activation: str = "tanh",
        init: str = "glorot_normal",
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError("in_dim and out_dim must be positive")
        if any(h < 1 for h in hidden):
            raise ValueError("hidden widths must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.activation = get_activation(activation)
        self._init_name = init
        self.widths = (self.in_dim, *self.hidden, self.out_dim)

    @property
    def n_layers(self) -> int:
        """Number of affine layers (hidden + output)."""
        return len(self.widths) - 1

    def n_params(self) -> int:
        """Total number of scalar parameters."""
        return sum(
            self.widths[i] * self.widths[i + 1] + self.widths[i + 1]
            for i in range(self.n_layers)
        )

    def init_params(self, seed: int = 0) -> List[Dict[str, np.ndarray]]:
        """Create a parameter pytree: ``[{"W": ..., "b": ...}, ...]``."""
        rng = np.random.default_rng(seed)
        w_init = INITIALIZERS[self._init_name]
        params = []
        for i in range(self.n_layers):
            fan_in, fan_out = self.widths[i], self.widths[i + 1]
            params.append(
                {"W": w_init(rng, fan_in, fan_out), "b": np.zeros(fan_out)}
            )
        return params

    def apply(self, params: Any, x: ArrayLike) -> Tensor:
        """Forward pass; ``x`` has shape ``(batch, in_dim)``.

        ``params`` may hold raw arrays (inference) or tape tensors
        (training); the same code path serves both.  The evaluation is
        one :func:`~repro.nn.derivatives.mlp_eval` tape node.
        """
        return mlp_eval(x, flat_weights(params), self.activation, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arch = "x".join(str(w) for w in self.widths)
        return f"MLP({arch}, act={self.activation.name})"
