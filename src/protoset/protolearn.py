"""Global prototype bank and the training loops that shape it.

The bank is a (d, K) matrix of prototype columns living either in data space
or in an encoder's embedding space.  Training minimizes the entropy-regularized
transport cost between each minibatch (uniform weights) and the bank weighted
by the summary network's simplex output, ``transport_objective`` for a set or
a stack of sets: alone, or joined with a task loss by ``joint_objective``.

One backward pass per step computes gradients for the bank and the network
together; both are then updated from it.  ``apply_update`` is that update for
every loop in the package, with the one rule for guarding a cosine bank, and
``fit`` the step loop of every trainer, so no two loops can drift apart.  Each
trainer names its own trace columns in the row its step returns;
``fit_objective`` is the step of the trainers with one optimizer and one
objective.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .diffcore import Value, make_optimizer
from .diffcore.optim import OPTIMIZERS
from .errors import (ConfigError, DomainError, NumericalError, TrainingDivergedError, bounded,
                     check_bound, check_fields)
from .ot import (
    SinkhornConfig,
    build_cost_value,
    floor_simplex_value,
    differentiable_transport_loss,
)
from .ot.cost import METRICS, degenerate_sq_norms
from .summarynet import SetBatch, SummaryNet

logger = logging.getLogger(__name__)


@dataclass
class PrototypeBank:
    """Trainable prototype columns, one per prototype."""

    matrix: Value

    def __post_init__(self):
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
        check_bound("K", k, "positive")
        n = points.shape[0]
        idx = rng.choice(n, size=k, replace=n < k)
        return cls(Value(points[idx].T.copy(), requires_grad=True))

    def guard_cosine_columns(self, rng: np.random.Generator) -> int:
        """Re-randomize any column the cosine cost cannot normalize by.

        Returns the number of columns touched (normally zero).
        """
        with np.errstate(over="ignore"):  # an overflowed squared norm is a degenerate one
            bad = np.flatnonzero(degenerate_sq_norms((self.matrix.data**2).sum(axis=0)))
        for col in bad:
            fresh = rng.normal(size=self.dim)
            self.matrix.data[:, col] = fresh / np.linalg.norm(fresh)
            logger.warning("prototype column %d left the cosine norm range; re-randomized", col)
        return int(bad.size)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of ``fit_objective``, the step of ``train_prototypes`` and ``train_fewshot``.

    metagan's transport step reads only its optimizer, lr, metric and solver.
    """

    steps: int = bounded("positive", 1000)
    lr: float = bounded("positive and finite", 0.001)
    # linear decay target; None keeps lr constant
    lr_final: Optional[float] = bounded("positive and finite", None, optional=True)
    optimizer: str = bounded(tuple(OPTIMIZERS), "adam")
    batch_sets: int = bounded("positive", 1)
    batch_points: int = bounded("positive", 100)
    metric: str = bounded(METRICS, "cosine")
    lambda_ot: Optional[float] = bounded("nonnegative and finite", None, optional=True)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    seed: int = 0
    log_every: int = bounded("nonnegative", 0)  # 0 disables progress logging

    __post_init__ = check_fields


def transport_objective(
    points: np.ndarray,
    weights: Value,
    bank: PrototypeBank,
    metric: str,
    sinkhorn_config: SinkhornConfig,
) -> Value:
    """Differentiable transport loss between points and the weighted bank.

    With (K,) ``weights`` the points are one set and the loss is a scalar.
    With (B, K) weights the rows of ``points`` are B equal blocks of
    consecutive rows, block b weighted by row b, and the (B,) losses come from
    one stacked transport node (Cuturi 2013, §4).
    """
    cost = build_cost_value(points, bank.matrix, metric)
    if weights.ndim == 2:
        cost = cost.reshape(weights.shape[0], -1, cost.shape[-1])
    cols = floor_simplex_value(weights)
    return differentiable_transport_loss(cost, cols, sinkhorn_config)


def joint_objective(
    task: Value, transport: Callable[[], Value], lam: float
) -> tuple[Value, float, Optional[float]]:
    """The task loss plus ``lam`` times ``transport()``: (loss, task value, transport value).

    At lam = 0 the transport term is never built and its value reads None.
    """
    if lam == 0:
        return task, task.item(), None
    term = transport()
    return task + term * lam, task.item(), term.item()


def subsample_points(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """At most m rows drawn without replacement (all rows if the set is smaller)."""
    n = points.shape[0]
    if n <= m:
        return points
    idx = rng.choice(n, size=m, replace=False)
    return points[idx]


def apply_update(
    optimizer,
    loss: Value,
    step: int,
    what: str,
    bank: Optional[PrototypeBank] = None,
    metric: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """The one parameter update of every training loop in the package.

    Returns the loss as a float; a non-finite one raises before any parameter
    moves.  Otherwise: zero_grad, backward, step, then, when the loss gave
    ``bank``'s matrix a gradient (no optimizer moves a parameter without one)
    under the cosine ``metric``, re-randomize any collapsed column of it from
    ``rng``.  This is the one place that rule is decided.
    """
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDivergedError(
            f"{what} loss became non-finite at step {step} (value {value!r})"
        )
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    if metric == "cosine" and bank.matrix.grad is not None:
        bank.guard_cosine_columns(rng)
    return value


def set_objective(
    points: np.ndarray,
    label,
    net: SummaryNet,
    bank: PrototypeBank,
    config: TrainConfig,
    task_loss_fn: Optional[Callable[[Value, np.ndarray, object], Value]] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Value, Optional[float], Optional[float]]:
    """Training loss on one set of ``points`` and ``label``: (loss, task value, transport value).

    With ``rng`` the points are first subsampled to ``config.batch_points``,
    and the subsample is used as drawn.  The loss is the transport term alone,
    for which lambda_ot must stay unset, or with
    ``task_loss_fn(prediction, points, label)`` their ``joint_objective`` at
    lambda_ot (unset reads 1).
    """
    if rng is not None:
        points = subsample_points(points, config.batch_points, rng)
    metric, sk = config.metric, config.sinkhorn
    if task_loss_fn is None:
        if config.lambda_ot is not None:
            raise ConfigError("lambda_ot does not apply to unsupervised training; leave it unset")
        loss = transport_objective(points, net.summarize(points), bank, metric, sk)
        return loss, None, loss.item()
    weights, prediction = net.summarize_with_prediction(points)
    lam = 1.0 if config.lambda_ot is None else float(config.lambda_ot)
    return joint_objective(task_loss_fn(prediction, points, label),
                           lambda: transport_objective(points, weights, bank, metric, sk), lam)


def fit(steps: int, step: Callable[[int], dict], log_every: int, what: str) -> dict:
    """The one step loop of the package: ``step(i)`` for i in 0 .. steps - 1.

    ``step(i)`` makes step i's updates through ``apply_update`` and returns its
    row as {column: value}.  The result maps ``"step"`` and then each column to
    its values in step order, the layout of ``trace.csv``.  A forward pass that
    fails on corrupted parameters (``DomainError``, ``NumericalError``) raises
    ``TrainingDivergedError`` naming the step.
    """
    trace: dict = {"step": []}
    for i in range(steps):
        try:
            row = step(i)
        except (DomainError, NumericalError) as exc:
            raise TrainingDivergedError(f"forward pass failed at step {i}: {exc}") from exc
        trace["step"].append(i)
        for column, value in row.items():
            trace.setdefault(column, []).append(value)
        if log_every and i % log_every == 0:
            logger.info("%s step %d %s", what, i, " ".join(f"{k} {v}" for k, v in row.items()))
    return trace


def fit_objective(
    config: TrainConfig,
    params: list,
    objective: Callable[[], tuple[Value, Optional[float], Optional[float]]],
    bank: PrototypeBank,
    rng: np.random.Generator,
    what: str,
) -> dict:
    """``config.steps`` updates of ``params`` by one optimizer, through ``fit``.

    ``objective()`` draws the step's data and returns (loss, task value,
    transport value); the values are the row's ``task_loss`` and
    ``transport_loss``.  The learning rate is constant, or decays linearly to
    ``lr_final`` at the last step.  ``bank`` and ``rng`` serve
    ``apply_update``'s guard under ``config.metric``.
    """
    optimizer = make_optimizer(config.optimizer, params, config.lr)

    def step(i: int) -> dict:
        if config.lr_final is not None:
            frac = i / max(config.steps - 1, 1)
            optimizer.lr = config.lr + (config.lr_final - config.lr) * frac
        with np.errstate(over="ignore", invalid="ignore"):  # apply_update checks the loss
            loss, task_value, ot_value = objective()
        apply_update(optimizer, loss, i, what, bank, config.metric, rng)
        return {"transport_loss": ot_value, "task_loss": task_value}

    return fit(config.steps, step, config.log_every, what)


def train_prototypes(
    corpus: Sequence[SetBatch],
    net: SummaryNet,
    bank: PrototypeBank,
    config: TrainConfig,
    task_loss_fn: Optional[Callable[[Value, np.ndarray, object], Value]] = None,
) -> dict:
    """Prototype training on randomly drawn sets, with an optional task loss.

    Each step's loss is the mean of ``set_objective`` over ``batch_sets``
    subsampled sets, and the optimizer holds the bank and every net
    parameter.  Without ``task_loss_fn`` the net needs no prediction head.
    At lambda_ot = 0 no loss reaches the bank, so it never moves and the run
    is bit-identical to a plain supervised loop.
    """
    if not corpus:
        raise ConfigError("corpus is empty")
    rng = np.random.default_rng(config.seed)  # draws the data, and columns on collapse
    scale = 1.0 / config.batch_sets

    def mean(values):  # of per-set values, None where the term was not built
        return None if values[0] is None else sum(value * scale for value in values)

    def objective():
        rows = []
        for _ in range(config.batch_sets):
            batch = corpus[int(rng.integers(len(corpus)))]
            rows.append(set_objective(batch.points, batch.label, net, bank, config,
                                      task_loss_fn, rng))
        losses, tasks, transports = zip(*rows)
        total = sum(losses[1:], losses[0])
        if config.batch_sets > 1:
            total = total * scale
        if task_loss_fn is None:  # the loss itself, not a sum of per-set values
            return total, None, total.item()
        return total, mean(tasks), mean(transports)

    return fit_objective(config, [bank.matrix] + net.parameters(), objective, bank, rng,
                         "training")
