"""Central finite-difference verification of reverse-mode gradients.

The pattern: the caller hands over a zero-argument closure that rebuilds the
loss from the current contents of each parameter's ``data`` buffer, plus the
parameters themselves.  We run backward once for the analytic gradients, then
perturb sampled entries in place and re-evaluate the closure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .value import Value, no_grad, zero_grad


def _loss_scalar(fn: Callable[[], Value]) -> float:
    with no_grad():
        return fn().item()


def check_gradients(
    fn: Callable[[], Value],
    params: Sequence[Value],
    rng: np.random.Generator,
    samples_per_param: int = 10,
    step: float = 1e-5,
) -> float:
    """The largest relative error |fd - ad| / max(|fd|, |ad|, 1e-6 * max(1, |loss|))
    between analytic and central-difference gradients on sampled entries (the
    floor grows with the loss, as fd's roundoff does); NaN if any entry is NaN."""
    zero_grad(params)
    loss = fn()
    loss.backward()
    floor = 1e-6 * max(1.0, abs(loss.item()))
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
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
            rel = abs(fd - ad) / max(abs(fd), abs(ad), floor)
            if rel > worst or np.isnan(rel):  # a NaN entry must not pass
                worst = rel
    zero_grad(params)
    return worst
