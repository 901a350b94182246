"""Episodic few-shot classification with a prototype-transport regularizer.

A point embedding f maps R^d to R^M.  Each episode's class prototype is the
mean embedded support point; queries score against prototypes by negative
squared distance.  The optional regularizer treats each class's embedded
support points as a uniform empirical measure and transports it onto a
trainable bank of embedding-space centers, weighted by a simplex head g
applied to the class prototype.  The n_way class problems share one shape,
k_shot points against the bank, so ``protolearn.transport_objective`` builds
them as one stack (one cost, one floored softmax of the head rows, one
transport node) whose (n_way,) losses are averaged and joined with the task
loss by ``protolearn.joint_objective``, as for set tasks.  Classification
always uses the prototypes alone; the transport term only shapes the
embedding.  An episode is the array it is drawn as, class-blocked, so its
query labels follow from the layout, and evaluation embeds and scores a
block of drawn episodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from .diffcore import Value, as_value, no_grad
from .errors import ConfigError, NumericalError, bounded, check_bound, check_box, check_fields
from .nn import ACTIVATIONS, MLP
# unused here, but perfbench's tracer wraps both by name as attributes of this module
from .ot import build_cost_value, differentiable_transport_loss  # noqa: F401
from .protolearn import (PrototypeBank, TrainConfig, fit_objective, joint_objective,
                         transport_objective)

SPLITS = ("base", "novel")
# episodes per embedding pass of eval_fewshot, measured in perfbench's fewshot-ot eval: 4
# beat 3 (more passes) and 5-8 (temporaries over 128 KiB, which glibc malloc maps fresh)
EVAL_BLOCK = 4


@dataclass(frozen=True)
class FewShotConfig:
    """The episode shape and recipe and the model shape; the training knobs are a ``TrainConfig``.

    An episode is one array of shape (n_way, k_shot + q_queries, dim): class
    j's ``k_shot`` support points are ``[j, :k_shot]`` and its ``q_queries``
    query points ``[j, k_shot:]``, so the labels of the class-blocked queries
    are ``query_labels``.  ``encoder_widths`` lists the embedding MLP's hidden
    widths with the embedding size M last.  ``g_hidden`` shapes the simplex
    head between M and the bank size; empty picks M // 2.  Class means for the
    synthetic generator are drawn once per class from U[mean_low, mean_high]^dim
    with points of standard deviation ``sigma`` around them; base and novel
    pools never share a class.
    """

    n_way: int = bounded("positive", 5)
    k_shot: int = bounded("positive", 5)
    q_queries: int = bounded("positive", 5)
    dim: int = bounded("positive", 20)
    encoder_widths: tuple = bounded("widths", (64, 32))
    g_hidden: tuple = ()
    bank_size: int = bounded("positive", 16)
    activation: str = bounded(tuple(ACTIVATIONS), "relu")
    mean_low: float = bounded("finite", -5.0)
    mean_high: float = bounded("finite", 5.0)
    sigma: float = bounded("positive and finite", 1.0)
    n_base_classes: int = 64
    n_novel_classes: int = 20
    class_seed: int = bounded("nonnegative", 0)

    def __post_init__(self):
        check_fields(self)
        if self.g_hidden:
            object.__setattr__(self, "g_hidden", check_bound("g_hidden", self.g_hidden, "widths"))
        if self.embed_dim < 2:
            raise ConfigError(
                f"encoder_widths must end in an embedding size of at least 2, got {self.embed_dim}"
            )
        check_box(self)
        # a drawn point is a class mean plus sigma times normal draws in dim coordinates;
        # as mog refuses a sigma whose square overflows, refuse a squared norm that does
        reach = max(abs(self.mean_low), abs(self.mean_high))
        if not reach * reach * self.dim < math.inf:
            raise ConfigError(f"mean_low={self.mean_low} and mean_high={self.mean_high} give "
                              f"class means whose squared norm over dim={self.dim} coordinates "
                              "overflows a float")
        if not self.sigma * self.sigma * self.dim < math.inf:
            raise ConfigError(f"sigma must square, summed over the {self.dim} coordinates of a "
                              f"point, to a finite float, got {self.sigma}")
        for name in ("n_base_classes", "n_novel_classes"):
            if getattr(self, name) < self.n_way:
                raise ConfigError(
                    f"{name} must be at least n_way={self.n_way}, got {getattr(self, name)}"
                )

    @property
    def embed_dim(self) -> int:
        return self.encoder_widths[-1]

    @property
    def g_widths(self) -> tuple:
        if self.g_hidden:
            return self.g_hidden
        return (max(self.embed_dim // 2, 2),)

    @cached_property
    def query_labels(self) -> np.ndarray:
        """The class of each of an episode's queries, class-blocked: (n_way * q_queries,)."""
        return np.repeat(np.arange(self.n_way), self.q_queries)


class FewShotModel:
    """Embedding network, simplex head over the bank, and the bank itself."""

    def __init__(self, config: FewShotConfig, rng: np.random.Generator):
        self.config = config
        d = config.dim
        m = config.embed_dim
        self.embed_net = MLP((d, *config.encoder_widths), config.activation, rng)
        # head is relu regardless of the encoder activation; softmax applied at use
        self.simplex_head = MLP((m, *config.g_widths, config.bank_size), "relu", rng)
        cols = rng.normal(size=(m, config.bank_size))
        cols = cols / np.linalg.norm(cols, axis=0, keepdims=True)
        self.bank = PrototypeBank(Value(cols, requires_grad=True))

    def embed(self, points) -> Value:
        return self.embed_net(as_value(points))

    def parameters(self) -> list[Value]:
        return list(self.named_parameters().values())

    def named_parameters(self) -> dict[str, Value]:
        out = self.embed_net.named_parameters("embed")
        out.update(self.simplex_head.named_parameters("g"))
        out["bank"] = self.bank.matrix
        return out


def class_mean_pools(config: FewShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Base and novel class means, disjoint by a single partitioned draw."""
    rng = np.random.default_rng(config.class_seed)
    total = config.n_base_classes + config.n_novel_classes
    means = rng.uniform(config.mean_low, config.mean_high, size=(total, config.dim))
    return means[: config.n_base_classes], means[config.n_base_classes :]


def _draw(rng: np.random.Generator, pool: np.ndarray, sigma: float, out: np.ndarray):
    """Fill ``out``, (B, n_way, k_shot + q_queries, dim), with the stream's next B episodes.

    Each episode draws its class ids and then the normals of all its points, so
    a block holds the episodes that one draw each would.
    """
    ids = np.empty(out.shape[:2], dtype=np.intp)
    for i in range(len(out)):
        ids[i] = rng.choice(len(pool), size=out.shape[1], replace=False)
        rng.standard_normal(out=out[i])
    out *= sigma
    out += pool[ids][:, :, None, :]
    return out


def gen_episodes(
    config: FewShotConfig,
    split: str,
    seed: int,
    count: int,
) -> Iterator[np.ndarray]:
    """Deterministic stream of ``count`` episodes over one class pool."""
    check_bound("split", split, SPLITS)
    pool, rng = class_mean_pools(config)[SPLITS.index(split)], np.random.default_rng(seed)
    shape = (1, config.n_way, config.k_shot + config.q_queries, config.dim)
    for _ in range(count):
        yield _draw(rng, pool, config.sigma, np.empty(shape))[0]


def support_embeddings(embed: Callable[[np.ndarray], Value], support: np.ndarray) -> Value:
    """Embedded support points, (n_way, k_shot, dim) -> class-blocked rows (n_way * k_shot, M)."""
    return embed(support.reshape(-1, support.shape[-1]))


def _means_per_class(embedded: Value, n_way: int) -> Value:
    """Class means of class-blocked rows: (n_way * k_shot, M) -> (n_way, M)."""
    return embedded.reshape(n_way, -1, embedded.shape[-1]).mean(axis=1)


def _logits(queries: Value, prototypes: Value) -> Value:
    """-||q - c||^2 over any leading axes: (..., n, M) against (..., w, M) -> (..., n, w)."""
    *lead, n, m = queries.shape
    diff = queries.reshape(*lead, n, 1, m) - prototypes.reshape(*lead, 1, prototypes.shape[-2], m)
    return -(diff * diff).sum(axis=-1)


def query_logits(
    embed: Callable[[np.ndarray], Value], queries: np.ndarray, prototypes: Value
) -> Value:
    """logit(q, j) = -||f(x_q) - c_j||^2 of (n_way, q_queries, dim) queries, class-blocked:
    (n_way * q_queries, n_way)."""
    return _logits(embed(queries.reshape(-1, queries.shape[-1])), prototypes)


def protonet_loss(logits: Value, labels: np.ndarray) -> Value:
    """Mean cross-entropy of the query points over the episode's classes."""
    n, w = logits.shape
    onehot = np.eye(w)[np.asarray(labels, dtype=np.intp)]
    picked = (logits * onehot).sum(axis=1)
    return (logits.logsumexp(axis=1) - picked).mean()


def query_accuracy(logits: Value, labels: np.ndarray):
    """Fraction of queries whose highest logit is their label, over any leading axes."""
    return (logits.data.argmax(axis=-1) == np.asarray(labels)).mean(axis=-1)


def episode_objective(
    model: FewShotModel, episode: np.ndarray, config: TrainConfig
) -> tuple[Value, float, Optional[float]]:
    """Training loss for one episode: (loss, task value, ot value).

    Embeddings and prototypes are computed once and shared between the
    classification loss and the class-mean transport term, joined by
    ``joint_objective`` at lambda_ot (unset reads 0).
    """
    k = model.config.k_shot
    embedded = support_embeddings(model.embed, episode[:, :k])
    prototypes = _means_per_class(embedded, len(episode))
    logits = query_logits(model.embed, episode[:, k:], prototypes)
    task = protonet_loss(logits, model.config.query_labels)

    def transport() -> Value:
        weights = model.simplex_head(prototypes).softmax(axis=1)  # (n_way, K)
        terms = transport_objective(embedded, weights, model.bank, config.metric, config.sinkhorn)
        return terms.sum() * (1.0 / len(episode))

    lam = 0.0 if config.lambda_ot is None else float(config.lambda_ot)
    return joint_objective(task, transport, lam)


def train_fewshot(model: FewShotModel, config: TrainConfig) -> dict:
    """``config.steps`` episodes over base classes; the transport term joins when set.

    The optimizer holds every model parameter; with lambda_ot unset (or 0) no
    loss reaches the head and bank, so they stay at their initial values and
    the run is bit-identical to plain episodic training of the embedding alone.
    """
    guard_rng = np.random.default_rng(config.seed + 1)  # drawn from only on column collapse
    stream = gen_episodes(model.config, "base", seed=config.seed, count=config.steps)

    def objective():
        return episode_objective(model, next(stream), config)

    return fit_objective(config, model.parameters(), objective, model.bank, guard_rng, "episode")


def eval_fewshot(model: FewShotModel, seed: int, count: int) -> dict:
    """Mean query accuracy over ``count`` novel-class episodes of ``seed``, with a 95% normal
    interval, JSON-ready.

    The episodes of ``gen_episodes(model.config, "novel", seed, count)`` are
    drawn EVAL_BLOCK at a time into one (EVAL_BLOCK, n_way, k_shot + q_queries,
    dim) array, embedded in one pass over its rows as drawn and scored with the
    class means and distances that training uses, over a leading block axis.
    A row of a matrix product with more than one row is bit for bit the row
    that a smaller product gives (the tests check this against the
    per-episode loop), and the means and distances reduce the axes one
    episode's do, so every accuracy is the per-episode one.  An episode whose
    logits are not finite, from an embedding that overflowed, raises
    NumericalError.
    """
    check_bound("count", count, "positive")
    c = model.config
    pool, rng = class_mean_pools(c)[1], np.random.default_rng(seed)
    buf = np.empty((EVAL_BLOCK, c.n_way, c.k_shot + c.q_queries, c.dim))
    accuracies = []
    with no_grad():
        for start in range(0, count, EVAL_BLOCK):
            block = _draw(rng, pool, c.sigma, buf[: count - start])
            b, w, n, d = block.shape
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite logit raises below
                embedded = model.embed(block.reshape(b * w * n, d)).reshape(b, w, n, -1)
                queries = embedded[:, :, c.k_shot :].reshape(b, w * c.q_queries, -1)
                logits = _logits(queries, embedded[:, :, : c.k_shot].mean(axis=2))
            if not np.isfinite(logits.data).all():
                first = np.argmin(np.isfinite(logits.data).all(axis=(1, 2)))
                raise NumericalError(f"eval episode {start + first} of seed {seed} has "
                                     "non-finite query logits")
            accuracies.append(query_accuracy(logits, c.query_labels))
    arr = np.concatenate(accuracies)
    ci95 = 1.96 * arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
    return {
        "mean_accuracy": float(arr.mean()),
        "ci95": float(ci95),
        "n_episodes": int(arr.size),
    }
