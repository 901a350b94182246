"""Minimal reverse-mode autodiff used by every model in the package."""

from .gradcheck import check_gradients
from .optim import SGD, Adam, make_optimizer
from .value import Value, as_value, concat, no_grad, reduce_axis, zero_grad

__all__ = [
    "Adam",
    "SGD",
    "Value",
    "as_value",
    "check_gradients",
    "concat",
    "make_optimizer",
    "no_grad",
    "reduce_axis",
    "zero_grad",
]
