"""Amortized mixture-of-Gaussians clustering task.

Each set is drawn from a random spherical-Gaussian mixture in the plane; the
model reads the whole set and must output mixture parameters for it in one
shot. Training minimizes the negative log likelihood of the input set under
the predicted parameters, so no ground-truth assignment is ever needed; the
generating parameters are kept only to score the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import Value, as_value, no_grad
from ..errors import ConfigError, ShapeError
from ..summarynet import SetBatch

LOG_2PI = float(np.log(2.0 * np.pi))
VAR_FLOOR = 1e-4


@dataclass(frozen=True)
class MoGTaskSpec:
    """Generator settings: C components in R^2, means uniform in a box."""

    components: int = 4
    n_min: int = 100
    n_max: int = 500
    mean_low: float = -4.0
    mean_high: float = 4.0
    sigma: float = 0.3
    dim: int = 2

    def __post_init__(self):
        if self.components < 1:
            raise ConfigError("components must be >= 1")
        if not (1 <= self.n_min <= self.n_max):
            raise ConfigError("need 1 <= n_min <= n_max")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.dim != 2:
            raise ConfigError("only planar mixtures are supported")


@dataclass(frozen=True)
class MoGParams:
    weights: np.ndarray  # (C,) simplex
    means: np.ndarray  # (C, 2)
    variances: np.ndarray  # (C, 2) positive

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or m.shape != (w.size, 2) or v.shape != (w.size, 2):
            raise ShapeError(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, "
                f"variances {v.shape}"
            )
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-8:
            raise ConfigError("weights must lie on the simplex")
        if np.any(v <= 0):
            raise ConfigError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

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
    if count < 1:
        raise ConfigError("count must be >= 1")
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


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def mog_head(raw: np.ndarray, components: int) -> MoGParams:
    """Map a flat head output to valid mixture parameters."""
    raw = np.asarray(raw, dtype=np.float64).reshape(-1)
    if raw.size != head_width(components):
        raise ShapeError(
            f"head output has {raw.size} entries, expected {head_width(components)}"
        )
    c = components
    logits = raw[:c]
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    means = raw[c : 3 * c].reshape(c, 2)
    variances = _softplus(raw[3 * c :]).reshape(c, 2) + VAR_FLOOR
    return MoGParams(weights, means, variances)


def mog_head_value(raw: Value, components: int):
    """Differentiable head split: (log-weights, means, variances)."""
    c = components
    if raw.shape != (head_width(c),):
        raise ShapeError(
            f"head output has shape {raw.shape}, expected ({head_width(c)},)"
        )
    logits = raw[:c]
    log_weights = logits - logits.logsumexp()
    means = raw[c : 3 * c].reshape((c, 2))
    variances = raw[3 * c :].softplus().reshape((c, 2)) + VAR_FLOOR
    return log_weights, means, variances


# -- likelihood ----------------------------------------------------------------


def mog_nll(params: MoGParams, points: np.ndarray) -> float:
    """Mean negative log likelihood per point, via logsumexp."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError(f"points must be (n, 2), got {points.shape}")
    diff = points[:, None, :] - params.means[None, :, :]  # (n, C, 2)
    var = params.variances[None, :, :]
    log_comp = -0.5 * ((diff * diff / var) + np.log(var) + LOG_2PI).sum(axis=2)
    scores = log_comp + np.log(params.weights)[None, :]
    m = scores.max(axis=1, keepdims=True)
    ll = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
    return float(-ll.mean())


def mog_nll_value(log_weights: Value, means: Value, variances: Value, points) -> Value:
    """Differentiable mean NLL of `points` under the predicted mixture."""
    pts = as_value(points)
    n = pts.shape[0]
    c = log_weights.shape[0]
    diff = pts.reshape((n, 1, 2)) - means.reshape((1, c, 2))
    var = variances.reshape((1, c, 2))
    log_comp = ((diff * diff / var) + var.log() + LOG_2PI).sum(axis=2) * -0.5
    scores = log_comp + log_weights.reshape((1, c))
    return -scores.logsumexp(axis=1).mean()


def mog_task_loss(prediction: Value, batch: SetBatch) -> Value:
    """Task loss for joint training: NLL of the input set under the head output."""
    if prediction.data.size % 5 != 0:
        raise ShapeError(f"head output length {prediction.data.size} is not 5*C")
    c = prediction.data.size // 5
    log_w, mu, var = mog_head_value(prediction.reshape((5 * c,)), c)
    return mog_nll_value(log_w, mu, var, batch.points)


# -- evaluation ----------------------------------------------------------------


def eval_mog_loglik(net, corpus, encode_cap: int | None = None, seed: int = 0) -> float:
    """Mean per-point log likelihood of predicted parameters over a corpus.

    encode_cap bounds how many points the encoder reads per set (matching the
    training subsample size); the likelihood is always scored on the full set.
    """
    from ..protolearn import subsample_points

    rng = np.random.default_rng(seed)
    total = 0.0
    with no_grad():
        for batch, _ in corpus:
            pts = batch.points
            if encode_cap is not None:
                pts = subsample_points(pts, encode_cap, rng)
            _, prediction = net.summarize_with_prediction(pts)
            c = prediction.data.size // 5
            params = mog_head(prediction.data, c)
            total += -mog_nll(params, batch.points)
    return total / len(corpus)


def oracle_mean_loglik(spec: MoGTaskSpec, n_sets: int, seed: int) -> float:
    """Mean per-point log likelihood of the generating parameters themselves."""
    total = 0.0
    for batch, params in gen_mog_corpus(spec, n_sets, seed):
        total += -mog_nll(params, batch.points)
    return total / n_sets
