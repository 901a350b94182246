"""Pairwise cost matrices between a point batch and a prototype bank.

Points are stored row-wise (N, d); prototypes column-wise (d, K).  The
builders record on the autodiff tape; under ``no_grad`` they serve as plain
numpy formulas.
"""

from __future__ import annotations

import numpy as np

from ..diffcore import Value, as_value
from ..errors import DegenerateInputError, ShapeError

NORM_FLOOR = 1e-12
_SQDIST_FLOOR = 1e-18

METRICS = ("cosine", "euclidean", "sqeuclidean")


def _check_pair(points: np.ndarray, protos: np.ndarray) -> None:
    if points.ndim != 2 or protos.ndim != 2:
        raise ShapeError(
            f"expected points (N, d) and prototypes (d, K), got {points.shape} and {protos.shape}"
        )
    if points.shape[1] != protos.shape[0]:
        raise ShapeError(
            f"dimension mismatch: points are {points.shape[1]}-dimensional, "
            f"prototypes are {protos.shape[0]}-dimensional"
        )


def degenerate_sq_norms(sq_norms: np.ndarray) -> np.ndarray:
    """Which squared norms the cosine cost cannot normalize by: below
    ``NORM_FLOOR**2``, or overflowed to inf (a coordinate above about 1e154)."""
    return (sq_norms < NORM_FLOOR**2) | (sq_norms == np.inf)


def _guard_norms(sq_norms: np.ndarray, what: str) -> None:
    bad = degenerate_sq_norms(sq_norms)
    if bad.any():
        idx = int(np.argmax(bad))
        why = (f"norm below {NORM_FLOOR:g}" if sq_norms[idx] < NORM_FLOOR**2 else
               "a squared norm that overflows a float")
        raise DegenerateInputError(f"{what} {idx} has {why}; cosine cost is undefined for it")


def cosine_cost_value(points, protos) -> Value:
    """C[i, k] = 1 - cos(x_i, b_k), clamped to [0, 2]; operands may be Values.

    Invariant to a positive scaling of either argument.  A vector the cost
    cannot normalize by, of norm below 1e-12 or whose squared norm overflows,
    raises ``DegenerateInputError``.
    """
    x = as_value(points)
    b = as_value(protos)
    _check_pair(x.data, b.data)
    x_sq = (x * x).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=0, keepdims=True)
    _guard_norms(x_sq.data.reshape(-1), "point")
    _guard_norms(b_sq.data.reshape(-1), "prototype column")
    cos = (x / x_sq.sqrt()) @ (b / b_sq.sqrt())
    return (1.0 - cos).clip(0.0, 2.0)


def euclidean_cost_value(points, protos, squared: bool = False) -> Value:
    x = as_value(points)
    b = as_value(protos)
    _check_pair(x.data, b.data)
    x_sq = (x * x).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=0, keepdims=True)
    sq = (x_sq + b_sq - 2.0 * (x @ b)).clip(0.0, None)
    if squared:
        return sq
    # floor keeps the sqrt gradient finite when a point sits on a prototype
    return sq.clip(_SQDIST_FLOOR, None).sqrt()


def build_cost_value(points, protos, metric: str) -> Value:
    if metric == "cosine":
        return cosine_cost_value(points, protos)
    if metric == "euclidean":
        return euclidean_cost_value(points, protos)
    if metric == "sqeuclidean":
        return euclidean_cost_value(points, protos, squared=True)
    raise ShapeError(f"unknown cost metric {metric!r}")
