"""Minimal pytree utilities (JAX style) over nested lists/tuples/dicts.

Model parameters are stored as nested containers of ``numpy`` arrays.  The
helpers here flatten/unflatten those containers, map functions over leaves,
and — crucially — lift :func:`repro.autodiff.value_and_grad` to pytree
arguments via :func:`value_and_grad_tree`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, asdata


def _is_leaf(x: Any) -> bool:
    return not isinstance(x, (list, tuple, dict))


def tree_flatten(tree: Any) -> Tuple[List[Any], Any]:
    """Flatten a nested container into ``(leaves, treedef)``.

    The treedef is an opaque structure usable with :func:`tree_unflatten`.
    Dict keys are traversed in sorted order for determinism.
    """
    leaves: List[Any] = []

    def build(node: Any) -> Any:
        if isinstance(node, dict):
            keys = sorted(node.keys())
            return ("dict", keys, [build(node[k]) for k in keys])
        if isinstance(node, (list, tuple)):
            kind = "list" if isinstance(node, list) else "tuple"
            return (kind, None, [build(c) for c in node])
        leaves.append(node)
        return ("leaf", None, None)

    treedef = build(tree)
    return leaves, treedef


def tree_unflatten(treedef: Any, leaves: Sequence[Any]) -> Any:
    """Rebuild a nested container from ``treedef`` and a leaf sequence."""
    it = iter(leaves)

    def build(node: Any) -> Any:
        kind, keys, children = node
        if kind == "leaf":
            return next(it)
        if kind == "dict":
            return {k: build(c) for k, c in zip(keys, children)}
        seq = [build(c) for c in children]
        return seq if kind == "list" else tuple(seq)

    out = build(treedef)
    # Ensure all leaves were consumed.
    try:
        next(it)
    except StopIteration:
        return out
    raise ValueError("too many leaves for treedef")


def tree_leaves(tree: Any) -> List[Any]:
    """Return the flat list of leaves of ``tree``."""
    return tree_flatten(tree)[0]


def tree_map(f: Callable[[Any], Any], tree: Any) -> Any:
    """Apply ``f`` to every leaf, preserving the container structure."""
    leaves, treedef = tree_flatten(tree)
    return tree_unflatten(treedef, [f(x) for x in leaves])


def tree_zip_map(f: Callable[..., Any], *trees: Any) -> Any:
    """Apply ``f`` leafwise across same-structured trees."""
    flat = [tree_flatten(t) for t in trees]
    leaves0, treedef = flat[0]
    n = len(leaves0)
    for lv, _ in flat[1:]:
        if len(lv) != n:
            raise ValueError("pytrees have mismatched structure")
    zipped = [f(*(flat[k][0][i] for k in range(len(trees)))) for i in range(n)]
    return tree_unflatten(treedef, zipped)


def wrt_mask(params: Any, wrt: Optional[Sequence[str]]) -> List[bool]:
    """One flag per leaf of ``params`` (in :func:`tree_flatten` order):
    True for the leaves under the top-level dict keys in ``wrt``, every
    leaf when ``wrt`` is None."""
    if wrt is None:
        return [True] * len(tree_leaves(params))
    if not isinstance(params, dict):
        raise TypeError("wrt selects top-level keys of a dict parameter pytree")
    missing = sorted(set(wrt) - set(params))
    if missing:
        raise KeyError(f"wrt names keys {missing} absent from the parameters")
    return tree_leaves(
        {k: tree_map(lambda _, on=(k in wrt): on, v) for k, v in params.items()}
    )


def split_aux(out: Any, has_aux: bool) -> Tuple[Any, Any]:
    """``(loss, aux)`` from a loss function's return value."""
    if not has_aux:
        return out, None
    if not (isinstance(out, (tuple, list)) and len(out) == 2):
        raise ValueError("has_aux=True needs the function to return (loss, aux)")
    return out[0], out[1]


def value_and_grad_tree(
    f: Callable[..., Any],
    has_aux: bool = False,
    wrt: Optional[Sequence[str]] = None,
) -> Callable[..., Tuple[Any, Any]]:
    """``value_and_grad`` where the *first* argument is a parameter pytree.

    ``f(params, *rest)`` must return a scalar; the transform returns
    ``(value, grads)`` with ``grads`` a pytree of the same structure holding
    ``numpy`` arrays.  Remaining positional arguments are passed through
    unchanged (not differentiated).

    ``wrt`` names the top-level keys of a dict pytree to differentiate;
    the other leaves enter ``f`` as constants, so nothing that depends
    only on them is put on the tape, and their gradients are zeros.  With
    ``has_aux`` ``f`` returns ``(loss, aux)``, ``aux`` a pytree of values
    the loss forward already computed, and the transform returns
    ``((value, aux_values), grads)`` (JAX's convention).
    """

    def wrapped(params: Any, *args: Any, **kwargs: Any) -> Tuple[Any, Any]:
        leaves, treedef = tree_flatten(params)
        leaf_tensors = [
            Tensor(asdata(x), requires_grad=m)
            for x, m in zip(leaves, wrt_mask(params, wrt))
        ]
        wrapped_params = tree_unflatten(treedef, leaf_tensors)
        out, aux = split_aux(f(wrapped_params, *args, **kwargs), has_aux)
        out_t = out if isinstance(out, Tensor) else Tensor(out)
        if out_t.size != 1:
            raise ValueError("value_and_grad_tree requires a scalar output")
        out_t.backward()
        grads = tree_unflatten(
            treedef,
            [
                t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in leaf_tensors
            ],
        )
        value = float(out_t.data)
        if has_aux:
            value = (value, tree_map(lambda a: np.array(asdata(a)), aux))
        return value, grads

    return wrapped


def grad_tree(f: Callable[..., Any]) -> Callable[..., Any]:
    """Gradient-only counterpart of :func:`value_and_grad_tree`."""
    vg = value_and_grad_tree(f)

    def wrapped(params: Any, *args: Any, **kwargs: Any) -> Any:
        return vg(params, *args, **kwargs)[1]

    return wrapped
