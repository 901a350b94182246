"""Permutation-invariant set encoders producing prototype weights.

A set is encoded elementwise, pooled over the element axis, and mapped to a
simplex vector of prototype weights.  The supervised variant shares the pooled
representation between that simplex head and a task prediction head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffcore import Value
from .errors import ConfigError, DomainError, ShapeError
from .nn import MLP

POOLINGS = ("mean", "sum", "max")


def _as_widths(value, name: str) -> tuple:
    widths = (value,) if isinstance(value, int) else tuple(value)
    if not widths or any(not isinstance(w, int) or w < 1 for w in widths):
        raise ConfigError(f"{name} must be a positive int or tuple of them, got {value!r}")
    return widths


@dataclass
class SetBatch:
    """One set: points (N, d) row-wise plus an optional label/truth record."""

    points: np.ndarray
    set_id: int = -1
    label: object | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ShapeError(f"set points must be (N, d), got shape {self.points.shape}")
        if self.points.shape[0] < 1:
            raise DomainError("a set needs at least one point")
        if not np.isfinite(self.points).all():
            raise DomainError(f"set {self.set_id} contains non-finite points")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SummaryNetConfig:
    """Architecture for the set encoder.

    ``n_prototypes`` sizes the simplex head.  ``output_dim`` switches on the
    supervised variant and sizes its prediction head.
    """

    input_dim: int
    n_prototypes: int
    encoder_widths: tuple = (128, 128, 128)
    activation: str = "elu"
    pooling: str = "mean"
    head_hidden: int | tuple = 128  # hidden widths of the simplex head
    output_dim: Optional[int] = None
    predict_hidden: int | tuple | None = None  # prediction head widths; defaults to head_hidden

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if self.n_prototypes < 1:
            raise ConfigError(f"n_prototypes must be positive, got {self.n_prototypes}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if not self.encoder_widths:
            raise ConfigError("encoder_widths must name at least one layer")
        if self.output_dim is not None and self.output_dim < 1:
            raise ConfigError(f"output_dim must be positive, got {self.output_dim}")
        object.__setattr__(self, "head_hidden", _as_widths(self.head_hidden, "head_hidden"))
        fallback = self.head_hidden if self.predict_hidden is None else self.predict_hidden
        object.__setattr__(self, "predict_hidden", _as_widths(fallback, "predict_hidden"))

    @property
    def feature_dim(self) -> int:
        return self.encoder_widths[-1]


class SummaryNet:
    """DeepSets-style encoder with a simplex head and optional prediction head."""

    def __init__(self, config: SummaryNetConfig, rng: np.random.Generator):
        self.config = config
        self.encoder = MLP(
            (config.input_dim, *config.encoder_widths), config.activation, rng
        )
        p = config.feature_dim
        self.simplex_head = MLP(
            (p, *config.head_hidden, config.n_prototypes), config.activation, rng
        )
        if config.output_dim is None:
            self.predict_head = None
        else:
            self.predict_head = MLP(
                (p, *config.predict_hidden, config.output_dim), config.activation, rng
            )

    # -- forward pieces ---------------------------------------------------------

    def encode_elements(self, points) -> Value:
        """Per-element features: (N, d) -> (N, p)."""
        pts = points.points if isinstance(points, SetBatch) else np.asarray(points, np.float64)
        if pts.ndim != 2:
            raise ShapeError(f"points must be (N, d), got {pts.shape}")
        if pts.shape[0] < 1:
            raise DomainError("cannot encode an empty set")
        if pts.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"points are {pts.shape[1]}-dimensional, encoder expects {self.config.input_dim}"
            )
        return self.encoder(Value(pts))

    def pool(self, features: Value) -> Value:
        """Collapse the element axis: (N, p) -> (1, p)."""
        kind = self.config.pooling
        if kind == "mean":
            return features.mean(axis=0, keepdims=True)
        if kind == "sum":
            return features.sum(axis=0, keepdims=True)
        return features.max(axis=0, keepdims=True)

    def pooled_representation(self, points) -> Value:
        return self.pool(self.encode_elements(points))

    def summarize(self, points) -> Value:
        """Prototype weights on the simplex: (N, d) -> (K,)."""
        z = self.pooled_representation(points)
        logits = self.simplex_head(z).reshape(self.config.n_prototypes)
        return logits.softmax(axis=0)

    def summarize_with_prediction(self, points) -> tuple[Value, Value]:
        """Supervised variant: shared pooled features feed both heads."""
        if self.predict_head is None:
            raise ConfigError("this summary net was built without a prediction head")
        z = self.pooled_representation(points)
        logits = self.simplex_head(z).reshape(self.config.n_prototypes)
        weights = logits.softmax(axis=0)
        prediction = self.predict_head(z).reshape(self.config.output_dim)
        return weights, prediction

    # -- parameters ---------------------------------------------------------------

    def parameters(self) -> list[Value]:
        out = self.encoder.parameters() + self.simplex_head.parameters()
        if self.predict_head is not None:
            out += self.predict_head.parameters()
        return out

    def named_parameters(self) -> dict[str, Value]:
        out = self.encoder.named_parameters("encoder")
        out.update(self.simplex_head.named_parameters("simplex_head"))
        if self.predict_head is not None:
            out.update(self.predict_head.named_parameters("predict_head"))
        return out
