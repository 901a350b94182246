"""Optimal transport: cost construction and the Sinkhorn solver."""

from .cost import build_cost_value, cosine_cost_value, euclidean_cost_value
from .marginals import Marginals, floor_simplex_value, uniform_weights
from .sinkhorn import SinkhornConfig, differentiable_transport_loss, sinkhorn

__all__ = [
    "Marginals",
    "SinkhornConfig",
    "build_cost_value",
    "cosine_cost_value",
    "differentiable_transport_loss",
    "euclidean_cost_value",
    "floor_simplex_value",
    "sinkhorn",
    "uniform_weights",
]
