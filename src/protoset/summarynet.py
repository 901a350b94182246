"""Permutation-invariant set encoders producing prototype weights.

A set is encoded elementwise and pooled over the element axis in
``pooled_representation``, and the pooled features are mapped to a simplex
vector of prototype weights.  The supervised variant shares the pooled
representation between that simplex head and a task prediction head.

The encoder's last layer is affine (an ``MLP`` ends without an activation),
so mean pooling commutes with it: mean_i(h_i W + b) = (mean_i h_i) W + b,
and a sum is n times that.  Mean and sum pooling therefore run only the
hidden layers on each point, pool those rows, and apply the last layer once
to the pooled row.  That equals encoding every point first up to rounding.
Max does not commute with an affine map, so max pooling encodes every point
fully and then pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffcore import Value
from .errors import ConfigError, DomainError, ShapeError, bounded, check_bound, check_fields
from .nn import ACTIVATIONS, MLP

POOLINGS = ("mean", "sum", "max")


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
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SummaryNetConfig:
    """Architecture for the set encoder.

    ``n_prototypes`` sizes the simplex head.  ``output_dim`` switches on the
    supervised variant and sizes its prediction head.
    """

    input_dim: int = bounded("positive")
    n_prototypes: int = bounded("positive")
    encoder_widths: tuple = bounded("widths", (128, 128, 128))
    activation: str = bounded(tuple(ACTIVATIONS), "elu")
    pooling: str = bounded(POOLINGS, "mean")
    head_hidden: int | tuple = bounded("widths", (128,))  # hidden widths of the simplex head
    output_dim: Optional[int] = bounded("positive", None, optional=True)
    predict_hidden: int | tuple = ()  # prediction head widths; empty reuses head_hidden

    def __post_init__(self):
        check_fields(self)
        predict = check_bound("predict_hidden", self.predict_hidden or self.head_hidden, "widths")
        object.__setattr__(self, "predict_hidden", predict)

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

    # -- forward ------------------------------------------------------------------

    def pooled_representation(self, points) -> Value:
        """Encode each point and pool over the set: (N, d) -> (1, p).

        Mean and sum pool the hidden rows and run the encoder's last layer once,
        on the pooled row (see the module docstring).  Points of another rank are
        refused here, since a one-layer encoder's only ``Linear`` sees the pooled
        row; the encoder's first ``Linear`` refuses another width.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape[:1] == (0,):  # pooled, no rows would give a valid-looking summary
            raise DomainError("cannot encode an empty set")
        if pts.ndim != 2:
            raise ShapeError(f"set points must be (N, d), got shape {pts.shape}")
        kind = self.config.pooling
        if kind == "max":
            return self.encoder(Value(pts)).max(axis=0, keepdims=True)
        hidden = self.encoder.hidden(Value(pts)).mean(axis=0, keepdims=True)
        mean = self.encoder.layers[-1](hidden)
        return mean if kind == "mean" else mean * float(pts.shape[0])

    def _weights(self, z: Value) -> Value:
        """The simplex head on pooled features: (1, p) -> (K,)."""
        return self.simplex_head(z).reshape(self.config.n_prototypes).softmax(axis=0)

    def summarize(self, points) -> Value:
        """Prototype weights on the simplex: (N, d) -> (K,)."""
        return self._weights(self.pooled_representation(points))

    def summarize_with_prediction(self, points) -> tuple[Value, Value]:
        """Supervised variant: shared pooled features feed both heads."""
        if self.predict_head is None:
            raise ConfigError("this summary net was built without a prediction head")
        z = self.pooled_representation(points)
        return self._weights(z), self.predict_head(z).reshape(self.config.output_dim)

    # -- parameters ---------------------------------------------------------------

    def parameters(self) -> list[Value]:
        return list(self.named_parameters().values())

    def named_parameters(self) -> dict[str, Value]:
        out = self.encoder.named_parameters("encoder")
        out.update(self.simplex_head.named_parameters("simplex_head"))
        if self.predict_head is not None:
            out.update(self.predict_head.named_parameters("predict_head"))
        return out
