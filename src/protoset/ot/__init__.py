"""Optimal transport: cost construction and the Sinkhorn solver."""

from .cost import build_cost_value, cosine_cost_value, euclidean_cost_value
from .marginals import Marginals, floor_simplex_value, uniform_weights
from .sinkhorn import (
    SinkhornConfig,
    differentiable_transport_loss,
    entropic_objective,
    plan_entropy,
    sinkhorn,
    transport_cost,
)

__all__ = [
    "Marginals",
    "SinkhornConfig",
    "build_cost_value",
    "cosine_cost_value",
    "differentiable_transport_loss",
    "entropic_objective",
    "euclidean_cost_value",
    "floor_simplex_value",
    "plan_entropy",
    "sinkhorn",
    "transport_cost",
    "uniform_weights",
]
