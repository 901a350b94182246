"""Amortized mixture-of-Gaussians clustering task.

Each set is drawn from a random spherical-Gaussian mixture in the plane; the
model reads the whole set and must output mixture parameters for it in one
shot. Training minimizes the negative log likelihood of the input set under
the predicted parameters, so no ground-truth assignment is ever needed; the
generating parameters are kept only to score the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffcore import Value, as_value, no_grad
from ..errors import ConfigError, ShapeError, bounded, check_box, check_fields
from ..summarynet import SetBatch

LOG_2PI = float(np.log(2.0 * np.pi))
VAR_FLOOR = 1e-4


@dataclass(frozen=True)
class MoGTaskSpec:
    """Generator settings: C components in R^2, means uniform in a box."""

    components: int = bounded("positive", 4)
    n_min: int = 100
    n_max: int = bounded("positive", 500)
    mean_low: float = bounded("finite", -4.0)
    mean_high: float = bounded("finite", 4.0)
    sigma: float = bounded("positive and finite", 0.3)

    def __post_init__(self):
        check_fields(self)
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError(f"n_min must be in [1, n_max={self.n_max}], got {self.n_min}")
        check_box(self)
        if not 0 < self.sigma * self.sigma < math.inf:  # the variance sigma**2
            raise ConfigError(f"sigma must square to a positive finite float, got {self.sigma}")


@dataclass(frozen=True)
class MoGParams:
    """The mixture that ``sample_mog_params`` draws from a checked ``MoGTaskSpec``."""

    weights: np.ndarray  # (C,) simplex
    means: np.ndarray  # (C, 2)
    variances: np.ndarray  # (C, 2) positive

    @property
    def components(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }


def sample_mog_params(spec: MoGTaskSpec, rng: np.random.Generator) -> MoGParams:
    c = spec.components
    means = rng.uniform(spec.mean_low, spec.mean_high, size=(c, 2))
    weights = rng.dirichlet(np.ones(c))
    variances = np.full((c, 2), spec.sigma**2)
    return MoGParams(weights, means, variances)


def sample_mog_set(params: MoGParams, n: int, rng: np.random.Generator) -> np.ndarray:
    assignments = rng.choice(params.components, size=n, p=params.weights)
    noise = rng.normal(size=(n, 2)) * np.sqrt(params.variances[assignments])
    return params.means[assignments] + noise


def gen_mog_corpus(spec: MoGTaskSpec, count: int, seed: int):
    """Draw `count` sets, each from its own random mixture.

    Returns a list of (SetBatch, MoGParams) pairs; the params are the exact
    generating parameters for that set.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        params = sample_mog_params(spec, rng)
        n = int(rng.integers(spec.n_min, spec.n_max + 1))
        points = sample_mog_set(params, n, rng)
        corpus.append((SetBatch(points, set_id=i), params))
    return corpus


# -- prediction head -----------------------------------------------------------


def head_width(components: int) -> int:
    # pi logits, 2 mean coords, 2 variance coords per component
    return components * 5


def mog_head_value(raw: Value, components: int):
    """Differentiable head split: (log-weights, means, variances).

    ``raw`` is one head output, of length 5*C, or a stack of them with the
    head output on the last axis; the split keeps the leading axes.
    """
    c = components
    lead = raw.shape[:-1]
    logits = raw[..., :c]
    log_weights = logits - logits.logsumexp(axis=-1, keepdims=True)
    means = raw[..., c : 3 * c].reshape(lead + (c, 2))
    variances = raw[..., 3 * c :].softplus().reshape(lead + (c, 2)) + VAR_FLOOR
    return log_weights, means, variances


# -- likelihood ----------------------------------------------------------------

# rows x components per likelihood pass of mean_set_loglik, so each (rows, C, 2)
# temporary takes at most 128 KiB (larger ones glibc malloc maps fresh); at C = 4,
# 500 sets of 100-500 points scored fastest from 8192 up (1024 took 1.8x as long)
LOGLIK_BLOCK = 8192


def mog_point_loglik(log_weights: Value, means: Value, variances: Value, points) -> Value:
    """Differentiable (n,) log likelihood of each of the n `points` under its mixture.

    The mixture is one for all points, of shapes (C,), (C, 2) and (C, 2), or
    one per point, the same shapes with a leading axis of length n.
    """
    pts = as_value(points)
    c = log_weights.shape[-1]
    diff = pts.reshape((-1, 1, 2)) - means.reshape((-1, c, 2))
    var = variances.reshape((-1, c, 2))
    log_comp = ((diff * diff / var) + var.log() + LOG_2PI).sum(axis=2) * -0.5
    scores = log_comp + log_weights.reshape((-1, c))
    return scores.logsumexp(axis=1)


def mog_nll_value(log_weights: Value, means: Value, variances: Value, points) -> Value:
    """Differentiable mean NLL of `points` under the predicted mixture."""
    return -mog_point_loglik(log_weights, means, variances, points).mean()


def mog_task_loss(prediction: Value, batch: SetBatch) -> Value:
    """Task loss for joint training: NLL of the input set under the head output."""
    if prediction.data.size % 5 != 0:
        raise ShapeError(f"head output length {prediction.data.size} is not 5*C")
    c = prediction.data.size // 5
    log_w, mu, var = mog_head_value(prediction.reshape((5 * c,)), c)
    return mog_nll_value(log_w, mu, var, batch.points)


# -- evaluation ----------------------------------------------------------------


def mean_set_loglik(sets, log_weights, means, variances) -> float:
    """Mean over `sets` of each set's mean per-point log likelihood under its own mixture.

    Set i's mixture is ``log_weights[i]``, ``means[i]`` and ``variances[i]``,
    arrays of shapes (S, C), (S, C, 2) and (S, C, 2).  The points of
    consecutive sets are scored in one pass of up to ``LOGLIK_BLOCK`` rows x
    components, each point under its set's mixture, and each set's mean is
    taken over its own slice: every value is the one a pass per set gives.
    """
    if not sets:
        raise ConfigError("corpus is empty")
    sizes = [len(batch.points) for batch in sets]
    rows_max = LOGLIK_BLOCK // log_weights.shape[-1]
    total, start = 0.0, 0
    with no_grad():
        while start < len(sets):
            stop, rows = start + 1, sizes[start]
            while stop < len(sets) and rows + sizes[stop] <= rows_max:
                rows += sizes[stop]
                stop += 1
            counts = sizes[start:stop]
            mixture = [Value(np.repeat(part[start:stop], counts, axis=0))
                       for part in (log_weights, means, variances)]
            points = np.concatenate([batch.points for batch in sets[start:stop]])
            loglik = mog_point_loglik(*mixture, points).data
            ends = np.cumsum(counts)
            for lo, hi in zip(ends - counts, ends):
                total += float(loglik[lo:hi].mean())
            start = stop
    return total / len(sets)


def oracle_mean_loglik(pairs) -> float:
    """Mean per-point log likelihood of each set under its generating parameters.

    ``pairs`` is what ``gen_mog_corpus`` returns: (SetBatch, MoGParams).
    """
    params = [p for _, p in pairs]
    return mean_set_loglik([batch for batch, _ in pairs],
                           np.log([p.weights for p in params]),
                           np.array([p.means for p in params]),
                           np.array([p.variances for p in params]))
