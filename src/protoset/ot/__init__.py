"""Optimal transport: cost construction and the Sinkhorn solver."""

from .cost import (
    METRICS,
    NORM_FLOOR,
    build_cost_value,
    cosine_cost_value,
    euclidean_cost_value,
)
from .marginals import SIMPLEX_FLOOR, Marginals, floor_simplex_value, uniform_weights
from .sinkhorn import (
    GRAD_MODES,
    SinkhornConfig,
    TransportPlan,
    differentiable_transport_loss,
    entropic_objective,
    plan_entropy,
    sinkhorn,
    transport_cost,
)

__all__ = [
    "GRAD_MODES",
    "METRICS",
    "Marginals",
    "NORM_FLOOR",
    "SIMPLEX_FLOOR",
    "SinkhornConfig",
    "TransportPlan",
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
