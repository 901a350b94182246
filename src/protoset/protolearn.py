"""Global prototype bank and the training loops that shape it.

The bank is a (d, K) matrix of prototype columns living either in data space
or in an encoder's embedding space.  Training minimizes the entropy-regularized
transport cost between each minibatch (uniform weights) and the bank weighted
by the summary network's simplex output — alone, or added to a task loss.

One backward pass per step computes gradients for the bank and the network
together; both are then updated from it.  ``apply_update`` is that update for
every loop in the package, and ``fit`` the step loop of every loop with one
optimizer, so no two loops can drift apart.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .diffcore import Value, make_optimizer
from .diffcore.optim import OPTIMIZERS
from .errors import ConfigError, DomainError, NumericalError, TrainingDivergedError
from .ot import (
    SinkhornConfig,
    build_cost_value,
    floor_simplex_value,
    differentiable_transport_loss,
)
from .ot.cost import METRICS, NORM_FLOOR
from .summarynet import SetBatch, SummaryNet

logger = logging.getLogger(__name__)


@dataclass
class PrototypeBank:
    """Trainable prototype columns, one per prototype."""

    matrix: Value

    def __post_init__(self):
        if not isinstance(self.matrix, Value):
            self.matrix = Value(np.asarray(self.matrix, dtype=np.float64), requires_grad=True)
        if self.matrix.ndim != 2:
            raise ConfigError(f"bank matrix must be (d, K), got shape {self.matrix.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_points(cls, points: np.ndarray, k: int, rng: np.random.Generator) -> "PrototypeBank":
        """Initialize columns by sampling k points from a pool (rows)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ConfigError(f"need a (n, d) pool of points, got shape {points.shape}")
        if k < 1:
            raise ConfigError(f"K must be positive, got {k}")
        n = points.shape[0]
        idx = rng.choice(n, size=k, replace=n < k)
        return cls(Value(points[idx].T.copy(), requires_grad=True))

    def guard_cosine_columns(self, rng: np.random.Generator) -> int:
        """Re-randomize any column whose norm fell below the cosine floor.

        Returns the number of columns touched (normally zero).
        """
        norms = np.sqrt((self.matrix.data**2).sum(axis=0))
        bad = np.flatnonzero(norms < NORM_FLOOR)
        for col in bad:
            fresh = rng.normal(size=self.dim)
            self.matrix.data[:, col] = fresh / np.linalg.norm(fresh)
            logger.warning("prototype column %d collapsed to zero norm; re-randomized", col)
        return int(bad.size)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of ``fit``, the step loop of ``train_prototypes`` and ``train_fewshot``.

    metagan's transport step reads only its optimizer, lr, metric and solver.
    """

    steps: int = 1000
    lr: float = 0.001
    lr_final: Optional[float] = None  # linear decay target; None keeps lr constant
    optimizer: str = "adam"
    batch_sets: int = 1
    batch_points: int = 100
    metric: str = "cosine"
    lambda_ot: Optional[float] = None
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    seed: int = 0
    log_every: int = 0  # 0 disables progress logging

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.batch_sets < 1:
            raise ConfigError(f"batch_sets must be positive, got {self.batch_sets}")
        if self.batch_points < 1:
            raise ConfigError(f"batch_points must be positive, got {self.batch_points}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.lambda_ot is not None and self.lambda_ot < 0:
            raise ConfigError(f"lambda_ot must be nonnegative, got {self.lambda_ot}")
        if self.lr_final is not None and self.lr_final <= 0:
            raise ConfigError(f"lr_final must be positive, got {self.lr_final}")
        if self.log_every < 0:
            raise ConfigError(f"log_every must be nonnegative, got {self.log_every}")


@dataclass
class TrainTrace:
    """Per-step losses recorded during a loop."""

    steps: list = field(default_factory=list)
    ot_losses: list = field(default_factory=list)
    task_losses: list = field(default_factory=list)

    def append(self, step: int, ot_loss: Optional[float], task_loss: Optional[float]):
        self.steps.append(step)
        self.ot_losses.append(ot_loss)
        self.task_losses.append(task_loss)


def transport_objective(
    points: np.ndarray,
    weights: Value,
    bank: PrototypeBank,
    metric: str,
    sinkhorn_config: SinkhornConfig,
) -> Value:
    """Differentiable transport loss between a point batch and the weighted bank."""
    cost = build_cost_value(points, bank.matrix, metric)
    cols = floor_simplex_value(weights)
    return differentiable_transport_loss(cost, cols, sinkhorn_config)


def subsample_points(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """At most m rows drawn without replacement (all rows if the set is smaller)."""
    n = points.shape[0]
    if n <= m:
        return points
    idx = rng.choice(n, size=m, replace=False)
    return points[idx]


@contextmanager
def diverges_on_failure(step: int):
    """Surface a forward pass that fails on corrupted parameters as divergence."""
    try:
        yield
    except (DomainError, NumericalError) as exc:
        raise TrainingDivergedError(f"forward pass failed at step {step}: {exc}") from exc


def apply_update(
    optimizer,
    loss: Value,
    value: float,
    step: int,
    what: str,
    guard_bank: Optional[PrototypeBank] = None,
    guard_rng: Optional[np.random.Generator] = None,
) -> None:
    """The one parameter update of every training loop in the package.

    A non-finite ``value`` (the loss as a float) raises before any parameter
    moves.  Otherwise: zero_grad, backward, step, then re-randomize any
    collapsed cosine column of ``guard_bank`` from ``guard_rng``.
    """
    if not np.isfinite(value):
        raise TrainingDivergedError(
            f"{what} loss became non-finite at step {step} (value {value!r})"
        )
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    if guard_bank is not None:
        guard_bank.guard_cosine_columns(guard_rng)


def set_objective(
    batch: SetBatch,
    net: SummaryNet,
    bank: PrototypeBank,
    config: TrainConfig,
    task_loss_fn: Optional[Callable[[Value, SetBatch], Value]] = None,
) -> tuple[Value, Optional[float], Optional[float]]:
    """Training loss on one subsampled set: (loss, task value, transport value).

    The loss is the transport term alone, or with ``task_loss_fn`` the task loss
    plus lambda_ot (default 1) times the transport term, which at lambda_ot = 0
    is not built and reads None.
    """
    points, metric, sk = batch.points, config.metric, config.sinkhorn
    if task_loss_fn is None:
        loss = transport_objective(points, net.summarize(points), bank, metric, sk)
        return loss, None, loss.item()
    weights, prediction = net.summarize_with_prediction(points)
    task = task_loss_fn(prediction, batch)
    lam = 1.0 if config.lambda_ot is None else float(config.lambda_ot)
    if lam == 0:
        return task, task.item(), None
    transport = transport_objective(points, weights, bank, metric, sk)
    return task + transport * lam, task.item(), transport.item()


def fit(
    config: TrainConfig,
    params: list,
    objective: Callable[[], tuple[Value, Optional[float], Optional[float]]],
    guard_bank: Optional[PrototypeBank],
    guard_rng: Optional[np.random.Generator],
    what: str,
) -> TrainTrace:
    """The one single-optimizer step loop: ``config.steps`` updates of ``params``.

    ``objective()`` draws the step's data and returns (loss, task value,
    transport value); the values go into the trace.  The learning rate is
    constant, or decays linearly to ``lr_final`` at the last step.
    """
    optimizer = make_optimizer(config.optimizer, params, config.lr)
    trace = TrainTrace()
    for step in range(config.steps):
        if config.lr_final is not None:
            frac = step / max(config.steps - 1, 1)
            optimizer.lr = config.lr + (config.lr_final - config.lr) * frac
        with diverges_on_failure(step):
            loss, task_value, ot_value = objective()
            apply_update(optimizer, loss, loss.item(), step, what, guard_bank, guard_rng)
        trace.append(step, ot_value, task_value)
        if config.log_every and step % config.log_every == 0:
            logger.info("%s step %d task %s transport %s", what, step, task_value, ot_value)
    return trace


def train_prototypes(
    corpus: Sequence[SetBatch],
    net: SummaryNet,
    bank: PrototypeBank,
    config: TrainConfig,
    task_loss_fn: Optional[Callable[[Value, SetBatch], Value]] = None,
) -> TrainTrace:
    """Prototype training on randomly drawn sets, with an optional task loss.

    Each step's loss is the mean of ``set_objective`` over ``batch_sets``
    subsampled sets.  Without ``task_loss_fn`` the net needs no prediction
    head and lambda_ot must stay unset.  At lambda_ot = 0 the run is
    bit-identical to a plain supervised loop and the bank never moves.
    """
    if task_loss_fn is None and config.lambda_ot is not None:
        raise ConfigError("lambda_ot does not apply to unsupervised training; leave it unset")
    if not corpus:
        raise ConfigError("corpus is empty")
    lam = 1.0 if config.lambda_ot is None else float(config.lambda_ot)
    rng = np.random.default_rng(config.seed)  # draws the data, and columns on collapse
    params = list(net.parameters())
    if lam > 0:
        params = [bank.matrix] + params
    guard_bank = bank if lam > 0 and config.metric == "cosine" else None
    scale = 1.0 / config.batch_sets

    def objective():
        total = None
        task_value = None if task_loss_fn is None else 0.0
        ot_value = 0.0 if lam > 0 else None
        for _ in range(config.batch_sets):
            batch = corpus[int(rng.integers(len(corpus)))]
            points = subsample_points(batch.points, config.batch_points, rng)
            sub = SetBatch(points, set_id=batch.set_id, label=batch.label)
            term, task, transport = set_objective(sub, net, bank, config, task_loss_fn)
            if task is not None:
                task_value += task * scale
            if transport is not None:
                ot_value += transport * scale
            total = term if total is None else total + term
        if config.batch_sets > 1:
            total = total * scale
        if task_loss_fn is None:  # the loss itself, not a sum of per-set values
            ot_value = total.item()
        return total, task_value, ot_value

    return fit(config, params, objective, guard_bank, rng, "training")
