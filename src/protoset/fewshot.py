"""Episodic few-shot classification with a prototype-transport regularizer.

A point embedding f maps R^d to R^M.  Each episode's class prototype is the
mean embedded support point; queries score against prototypes by negative
squared distance.  The optional regularizer treats each class's embedded
support points as a uniform empirical measure and transports it onto a
trainable bank of embedding-space centers, weighted by a simplex head g
applied to the class prototype.  Classification always uses the prototypes
alone; the transport term only shapes the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .diffcore import Value, as_value, no_grad
from .errors import ConfigError, ShapeError
from .nn import ACTIVATIONS, MLP
from .ot import SinkhornConfig, floor_simplex_value
from .ot.cost import build_cost_value
from .ot.sinkhorn import differentiable_transport_loss
from .protolearn import PrototypeBank, TrainConfig, TrainTrace, fit
from .summarynet import _as_widths

SPLITS = ("base", "novel")


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of one few-shot task."""

    n_way: int = 5
    k_shot: int = 5
    q_queries: int = 5
    dim: int = 20

    def __post_init__(self):
        for name in ("n_way", "k_shot", "q_queries", "dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class Episode:
    """One task: class-blocked support points plus labeled query points."""

    support: np.ndarray  # (n_way, k_shot, dim)
    query: np.ndarray  # (n_queries, dim)
    query_labels: np.ndarray  # (n_queries,) ints in [0, n_way)
    class_ids: np.ndarray  # (n_way,) indices into the generator's class pool

    def __post_init__(self):
        if self.support.ndim != 3:
            raise ShapeError(f"support must be (n_way, k_shot, dim), got {self.support.shape}")
        w = self.support.shape[0]
        if self.query.ndim != 2 or self.query.shape[1] != self.support.shape[2]:
            raise ShapeError(
                f"query shape {self.query.shape} does not match support {self.support.shape}"
            )
        if self.query_labels.shape != (self.query.shape[0],):
            raise ShapeError("one label per query point required")
        counts = np.bincount(self.query_labels, minlength=w)
        if counts.size != w or not np.all(counts == counts[0]) or counts[0] == 0:
            raise ShapeError(
                f"every class needs the same positive query count, got {counts.tolist()}"
            )
        if self.class_ids.shape != (w,):
            raise ShapeError(f"need one class id per way, got shape {self.class_ids.shape}")

    @property
    def n_way(self) -> int:
        return self.support.shape[0]

    @property
    def k_shot(self) -> int:
        return self.support.shape[1]

    @property
    def q_queries(self) -> int:
        return self.query.shape[0] // self.n_way

    @property
    def dim(self) -> int:
        return self.support.shape[2]


@dataclass(frozen=True)
class FewShotConfig:
    """Episode recipe and model shape; the training knobs are a ``TrainConfig``.

    ``encoder_widths`` lists the embedding MLP's hidden widths with the
    embedding size M last.  ``g_hidden`` shapes the simplex head between M and
    the bank size; empty picks M // 2.  Class means for the synthetic generator
    are drawn once per class from U[mean_low, mean_high]^dim with unit-variance
    points around them; base and novel pools never share a class.
    """

    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    encoder_widths: tuple = (64, 32)
    g_hidden: tuple = ()
    bank_size: int = 16
    activation: str = "relu"
    mean_low: float = -5.0
    mean_high: float = 5.0
    sigma: float = 1.0
    n_base_classes: int = 64
    n_novel_classes: int = 20
    class_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", _as_widths(self.encoder_widths, "encoder_widths"))
        if self.g_hidden:
            object.__setattr__(self, "g_hidden", _as_widths(self.g_hidden, "g_hidden"))
        if self.embed_dim < 2:
            raise ConfigError(
                f"encoder_widths must end in an embedding size of at least 2, got {self.embed_dim}"
            )
        if self.bank_size < 1:
            raise ConfigError(f"bank_size must be positive, got {self.bank_size}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}"
            )
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.mean_low > self.mean_high:
            raise ConfigError(
                f"mean_low must not exceed mean_high, got [{self.mean_low}, {self.mean_high}]"
            )
        for name in ("n_base_classes", "n_novel_classes"):
            if getattr(self, name) < self.episode.n_way:
                raise ConfigError(
                    f"{name} must be at least n_way={self.episode.n_way}, "
                    f"got {getattr(self, name)}"
                )
        if self.class_seed < 0:
            raise ConfigError(f"class_seed must be nonnegative, got {self.class_seed}")

    @property
    def embed_dim(self) -> int:
        return self.encoder_widths[-1]

    @property
    def g_widths(self) -> tuple:
        if self.g_hidden:
            return self.g_hidden
        return (max(self.embed_dim // 2, 2),)


class FewShotModel:
    """Embedding network, simplex head over the bank, and the bank itself."""

    def __init__(self, config: FewShotConfig, rng: np.random.Generator):
        self.config = config
        d = config.episode.dim
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
        return self.embed_net.parameters() + self.simplex_head.parameters() + [self.bank.matrix]

    def named_parameters(self) -> dict[str, Value]:
        out = self.embed_net.named_parameters("embed")
        out.update(self.simplex_head.named_parameters("g"))
        out["bank"] = self.bank.matrix
        return out


def class_mean_pools(config: FewShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Base and novel class means, disjoint by a single partitioned draw."""
    rng = np.random.default_rng(config.class_seed)
    total = config.n_base_classes + config.n_novel_classes
    means = rng.uniform(config.mean_low, config.mean_high, size=(total, config.episode.dim))
    return means[: config.n_base_classes], means[config.n_base_classes :]


def gen_episodes(
    config: FewShotConfig,
    split: str,
    seed: int,
    count: Optional[int] = None,
) -> Iterator[Episode]:
    """Deterministic episode stream over one class pool (endless when count is None)."""
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
    base, novel = class_mean_pools(config)
    pool = base if split == "base" else novel
    spec = config.episode
    w, k, q, d = spec.n_way, spec.k_shot, spec.q_queries, spec.dim
    rng = np.random.default_rng(seed)
    produced = 0
    while count is None or produced < count:
        ids = rng.choice(pool.shape[0], size=w, replace=False)
        support = np.empty((w, k, d))
        query = np.empty((w * q, d))
        for j, cid in enumerate(ids):
            pts = pool[cid] + config.sigma * rng.standard_normal(size=(k + q, d))
            support[j] = pts[:k]
            query[j * q : (j + 1) * q] = pts[k:]
        labels = np.repeat(np.arange(w), q)
        yield Episode(support, query, labels, ids)
        produced += 1


def support_embeddings(embed: Callable[[np.ndarray], Value], episode: Episode) -> Value:
    """Embedded support points, class-blocked rows: (n_way * k_shot, M)."""
    flat = episode.support.reshape(episode.n_way * episode.k_shot, episode.dim)
    return embed(flat)


def _means_per_class(embedded: Value, episode: Episode) -> Value:
    w, k = episode.n_way, episode.k_shot
    return embedded.reshape(w, k, embedded.shape[1]).mean(axis=1)


def class_prototypes(embed: Callable[[np.ndarray], Value], episode: Episode) -> Value:
    """Per-class mean of the embedded support points: (n_way, M)."""
    return _means_per_class(support_embeddings(embed, episode), episode)


def query_logits(
    embed: Callable[[np.ndarray], Value], episode: Episode, prototypes: Value
) -> Value:
    """logit(q, j) = -||f(x_q) - c_j||^2, shape (n_queries, n_way)."""
    q = embed(episode.query)
    nq, m = q.shape
    w = prototypes.shape[0]
    diff = q.reshape(nq, 1, m) - prototypes.reshape(1, w, m)
    return -(diff * diff).sum(axis=2)


def protonet_loss(logits: Value, labels: np.ndarray) -> Value:
    """Mean cross-entropy of the query points over the episode's classes."""
    n, w = logits.shape
    onehot = np.eye(w)[np.asarray(labels, dtype=np.intp)]
    picked = (logits * onehot).sum(axis=1)
    return (logits.logsumexp(axis=1) - picked).mean()


def query_accuracy(logits: Value, labels: np.ndarray) -> float:
    predicted = logits.data.argmax(axis=1)
    return float((predicted == np.asarray(labels)).mean())


def _class_transport(
    embedded_support: Value,
    prototypes: Value,
    head: MLP,
    bank: PrototypeBank,
    metric: str,
    sinkhorn: SinkhornConfig,
) -> Value:
    """Mean over classes of the transport loss onto the head-weighted bank."""
    if bank.dim != embedded_support.shape[1]:
        raise ShapeError(
            f"bank lives in R^{bank.dim} but embeddings are in R^{embedded_support.shape[1]}"
        )
    w = prototypes.shape[0]
    k = embedded_support.shape[0] // w
    head_rows = head(prototypes)  # (n_way, K), softmaxed per class below
    total = None
    for j in range(w):
        points = embedded_support[j * k : (j + 1) * k]
        weights = floor_simplex_value(head_rows[j].softmax())
        cost = build_cost_value(points, bank.matrix, metric)
        term = differentiable_transport_loss(cost, weights, sinkhorn)
        total = term if total is None else total + term
    return total * (1.0 / w)


def episode_objective(
    model: FewShotModel, episode: Episode, config: TrainConfig
) -> tuple[Value, float, Optional[float]]:
    """Training loss for one episode: (loss, task value, ot value).

    Embeddings and prototypes are computed once and shared between the
    classification loss and the transport term, which joins at lambda_ot > 0.
    """
    embedded = support_embeddings(model.embed, episode)
    prototypes = _means_per_class(embedded, episode)
    task = protonet_loss(query_logits(model.embed, episode, prototypes), episode.query_labels)
    lam = 0.0 if config.lambda_ot is None else float(config.lambda_ot)
    if lam > 0:
        ot = _class_transport(
            embedded, prototypes, model.simplex_head, model.bank, config.metric, config.sinkhorn
        )
        return task + ot * lam, task.item(), ot.item()
    return task, task.item(), None


def train_fewshot(model: FewShotModel, config: TrainConfig) -> TrainTrace:
    """``config.steps`` episodes over base classes; the transport term joins when set.

    With lambda_ot unset (or 0) the head and bank receive no gradient and stay
    at their initial values, so the run is bit-identical to plain episodic
    training of the embedding alone.
    """
    lam = 0.0 if config.lambda_ot is None else float(config.lambda_ot)
    params = model.embed_net.parameters()
    if lam > 0:
        params = params + model.simplex_head.parameters() + [model.bank.matrix]
    guard_rng = np.random.default_rng(config.seed + 1)  # drawn from only on column collapse
    guard_bank = model.bank if lam > 0 and config.metric == "cosine" else None
    stream = gen_episodes(model.config, "base", seed=config.seed)

    def objective():
        return episode_objective(model, next(stream), config)

    return fit(config, params, objective, guard_bank, guard_rng, "episode")


def eval_fewshot(model: FewShotModel, episodes: Iterable[Episode]) -> dict:
    """Mean query accuracy with a 95% normal interval, JSON-ready."""
    accuracies = []
    with no_grad():
        for episode in episodes:
            prototypes = class_prototypes(model.embed, episode)
            logits = query_logits(model.embed, episode, prototypes)
            accuracies.append(query_accuracy(logits, episode.query_labels))
    if not accuracies:
        raise ConfigError("no episodes to evaluate")
    arr = np.asarray(accuracies)
    ci95 = 1.96 * arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
    return {
        "mean_accuracy": float(arr.mean()),
        "ci95": float(ci95),
        "n_episodes": int(arr.size),
    }
