"""Marginal vectors for transport problems and simplex utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import Value
from ..errors import InvalidMarginalsError

SIMPLEX_FLOOR = 1e-8
_SUM_TOL = 1e-8


def _validate_simplex(w: np.ndarray, name: str) -> None:
    if w.ndim != 1:
        raise InvalidMarginalsError(f"{name} must be 1-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise InvalidMarginalsError(f"{name} contains non-finite entries")
    if np.any(w <= 0.0):
        raise InvalidMarginalsError(f"{name} must be strictly positive")
    s = w.sum()
    if abs(s - 1.0) > _SUM_TOL:
        raise InvalidMarginalsError(f"{name} sums to {s!r}, expected 1 within {_SUM_TOL:g}")


@dataclass(frozen=True)
class Marginals:
    """Row and column marginals of a transport problem, both on the simplex."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        _validate_simplex(self.a, "row marginal a")
        _validate_simplex(self.b, "column marginal b")


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise InvalidMarginalsError(f"need at least one atom, got {n}")
    return np.full(n, 1.0 / n)


def floor_simplex_value(w: Value, floor: float = SIMPLEX_FLOOR) -> Value:
    """Clamp entries to at least ``floor`` and renormalize to sum 1."""
    clipped = w.clip(floor, None)
    return clipped / clipped.sum()
