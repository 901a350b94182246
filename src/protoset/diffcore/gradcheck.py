"""Central finite-difference verification of reverse-mode gradients.

The pattern: the caller hands over a zero-argument closure that rebuilds the
loss from the current contents of each parameter's ``data`` buffer, plus the
parameters themselves.  We run backward once for the analytic gradients, then
perturb sampled entries in place and re-evaluate the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .value import Value, no_grad, zero_grad


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: int
    worst_index: int
    checks: int

    def __str__(self) -> str:
        return (
            f"max relative error {self.max_rel_err:.3e} over {self.checks} entries "
            f"(param {self.worst_param}, flat index {self.worst_index})"
        )


def _loss_scalar(fn: Callable[[], Value]) -> float:
    with no_grad():
        return fn().item()


def relative_error(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_gradients(
    fn: Callable[[], Value],
    params: Sequence[Value],
    rng: np.random.Generator,
    samples_per_param: int = 10,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic and central-difference gradients on sampled entries."""
    zero_grad(params)
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    worst_param = -1
    worst_index = -1
    checks = 0
    for pi, p in enumerate(params):
        n = p.data.size
        take = min(samples_per_param, n)
        idx = rng.choice(n, size=take, replace=False)
        flat = p.data.reshape(-1)
        for i in idx:
            saved = flat[i]
            flat[i] = saved + step
            up = _loss_scalar(fn)
            flat[i] = saved - step
            down = _loss_scalar(fn)
            flat[i] = saved
            fd = (up - down) / (2.0 * step)
            ad = float(analytic[pi].reshape(-1)[i])
            rel = relative_error(fd, ad)
            checks += 1
            if rel > worst or np.isnan(rel):  # a NaN entry must not pass
                worst = rel
                worst_param = pi
                worst_index = int(i)
    zero_grad(params)
    return GradCheckReport(worst, worst_param, worst_index, checks)
