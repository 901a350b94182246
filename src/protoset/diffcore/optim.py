"""First-order optimizers over Value parameters.

Both optimizers read ``param.grad`` as left by ``backward`` and update
``param.data`` in place.  A parameter whose grad is None is skipped, so its
data (and its Adam state) stay untouched.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ConfigError, check_bound
from .value import Value, zero_grad

OPTIMIZERS = ("adam", "sgd")


class SGD:
    """Plain gradient descent: p <- p - lr * g."""

    def __init__(self, params: Iterable[Value], lr: float):
        check_bound("lr", lr, "positive and finite")
        self.params = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        zero_grad(self.params)


class Adam:
    """Adam with bias correction.

    Moment estimates and the step counter are tracked per parameter, so a
    parameter that only starts receiving gradients later is still corrected
    as if freshly started.
    """

    def __init__(
        self,
        params: Iterable[Value],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        check_bound("lr", lr, "positive and finite")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        check_bound("eps", eps, "positive and finite")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = [0] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.t[i] += 1
            t = self.t[i]
            m = self.m[i]
            v = self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        zero_grad(self.params)


def make_optimizer(kind: str, params: Iterable[Value], lr: float):
    if kind == "adam":
        return Adam(params, lr=lr)
    if kind == "sgd":
        return SGD(params, lr=lr)
    raise ConfigError(f"unknown optimizer {kind!r} (expected one of {OPTIMIZERS})")
