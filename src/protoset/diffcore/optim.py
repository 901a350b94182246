"""First-order optimizers over Value parameters.

Both optimizers read ``param.grad`` as left by ``backward`` and update
``param.data`` in place.  A parameter whose grad is None is skipped, so its
data (and its Adam state) stay untouched.

``Adam`` copies its parameters into one contiguous float64 vector, and each
parameter's ``data`` becomes a view into it; the moments ``m[i]`` and
``v[i]`` are views into two more vectors of that layout.  A step is then a
few whole-vector ufuncs per run of consecutive parameters with a gradient
and one step count, not a dozen per array.  So a parameter belongs to one
``Adam``: a second would re-point its ``data`` and leave the first updating
a vector that nothing reads.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

import numpy as np

from ..errors import ConfigError, check_bound
from .value import Value, zero_grad

# Adam's moment decays and denominator offset, the textbook values
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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

    def __init__(self, params: Iterable[Value], lr: float = 0.001):
        check_bound("lr", lr, "positive and finite")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ConfigError("Adam got a parameter twice; it keeps one view of each")
        self.lr = float(lr)
        self._ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        # the moments apart from the parameters, which outlive the optimizer
        self._flat, (self._m, self._v) = np.empty(self._ends[-1]), np.zeros((2, self._ends[-1]))
        self.m, self.v = [], []
        for p, lo, hi in zip(self.params, self._ends, self._ends[1:]):
            self._flat[lo:hi] = p.data.reshape(-1)
            p.data = self._flat[lo:hi].reshape(p.data.shape)
            self.m.append(self._m[lo:hi].reshape(p.data.shape))
            self.v.append(self._v[lo:hi].reshape(p.data.shape))
        self.t = [0] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is not None:
                self.t[i] += 1
        # runs of consecutive parameters with a gradient and one step count t >= 1
        for t, run in groupby(range(len(self.params)),
                              lambda i: self.params[i].grad is not None and self.t[i]):
            if t:
                run = list(run)
                self._update(run[0], run[-1] + 1, t)

    def _update(self, first: int, stop: int, t: int) -> None:
        """The textbook recursion over parameters first .. stop - 1, in place."""
        lo, hi = self._ends[first], self._ends[stop]
        p, m, v = self._flat[lo:hi], self._m[lo:hi], self._v[lo:hi]
        # the gradients and one scratch vector live for the step alone, so they
        # add nothing to the memory that the graph holds during backward
        g = np.concatenate([q.grad.reshape(-1) for q in self.params[first:stop]])
        s = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += s
        g *= g
        g *= 1.0 - BETA2
        v *= BETA2
        v += g
        # the gradient is spent: g holds the denominator and s the step
        np.divide(v, 1.0 - BETA2**t, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, 1.0 - BETA1**t, out=s)
        s *= self.lr
        s /= g
        p -= s

    def zero_grad(self) -> None:
        zero_grad(self.params)


OPTIMIZERS = {"adam": Adam, "sgd": SGD}  # optim.kind's values; TrainConfig checks it


def make_optimizer(kind: str, params: Iterable[Value], lr: float):
    return OPTIMIZERS[kind](params, lr=lr)
