"""Entropy-regularized transport: log-domain Sinkhorn and its differentiable form.

The regularized objective for a plan T is  <T, C> - eps * H(T)  with
H(T) = -sum T log T (0 log 0 = 0).  The solver alternates exact potential
updates in the log domain:

    f_i <- eps * (log a_i - LSE_k((g_k - C_ik) / eps))
    g_k <- eps * (log b_k - LSE_i((f_i - C_ik) / eps))

and the plan is T = exp((f + g - C) / eps) (outer sum of potentials).  Small
eps therefore underflows gracefully instead of overflowing a kernel matrix.

The differentiable path comes in two modes.  "unrolled" replays exactly
``unroll_iters`` of those updates on the tape.  "envelope" solves to
convergence outside the graph and wires the stationary quantities back in:
the gradient w.r.t. the cost is the plan itself, the gradient w.r.t. the
column marginal is the dual potential g centered to zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffcore import Value, as_value
from ..errors import ConfigError, NumericalError, ShapeError
from .marginals import Marginals

GRAD_MODES = ("unrolled", "envelope")


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.1
    tol: float = 1e-6
    max_iters: int = 500
    unroll_iters: int = 50
    grad_mode: str = "unrolled"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.unroll_iters < 1:
            raise ConfigError(f"unroll_iters must be at least 1, got {self.unroll_iters}")
        if self.grad_mode not in GRAD_MODES:
            raise ConfigError(
                f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}"
            )


@dataclass
class TransportPlan:
    """Solver output: the plan, dual potentials, and convergence bookkeeping."""

    plan: np.ndarray
    u: np.ndarray  # row potential (f), log-domain
    v: np.ndarray  # column potential (g), log-domain
    iterations: int
    residual: float
    converged: bool


def _cost_array(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {arr.shape}")
    return arr


def _lse(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(m - mx), axis=axis)) + np.squeeze(mx, axis=axis)
    return out


def sinkhorn(cost, marginals: Marginals, config: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Solve the entropy-regularized problem; iterate until the worst marginal
    violation falls below ``tol`` or ``max_iters`` is reached.

    A non-finite residual stops the iteration at once and raises NumericalError.
    """
    C = _cost_array(cost)
    a, b = marginals.a, marginals.b
    if C.shape != (a.size, b.size):
        raise ShapeError(
            f"cost shape {C.shape} does not match marginals ({a.size}, {b.size})"
        )
    eps = config.epsilon
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    iterations = 0
    residual = np.inf
    converged = False
    for it in range(1, config.max_iters + 1):
        f = eps * (log_a - _lse((g[None, :] - C) / eps, axis=1))
        g = eps * (log_b - _lse((f[:, None] - C) / eps, axis=0))
        T = np.exp((f[:, None] + g[None, :] - C) / eps)
        residual = max(
            float(np.abs(T.sum(axis=1) - a).max()),
            float(np.abs(T.sum(axis=0) - b).max()),
        )
        iterations = it
        if residual <= config.tol:
            converged = True
            break
        if not math.isfinite(residual):
            break  # potentials are non-finite; more iterations cannot recover
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise NumericalError("sinkhorn potentials became non-finite")
    T = np.exp((f[:, None] + g[None, :] - C) / eps)
    return TransportPlan(T, f, g, iterations, residual, converged)


def transport_cost(plan, cost) -> float:
    """<T, C>: the unregularized cost of moving mass along the plan."""
    T = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=np.float64)
    C = _cost_array(cost)
    return float((T * C).sum())


def plan_entropy(plan) -> float:
    """H(T) = -sum T log T with the 0 log 0 = 0 convention."""
    T = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=np.float64)
    mask = T > 0.0
    return float(-(T[mask] * np.log(T[mask])).sum())


def entropic_objective(plan, cost, epsilon: float) -> float:
    """<T, C> - eps * H(T): the quantity the solver minimizes."""
    return transport_cost(plan, cost) - epsilon * plan_entropy(plan)


def differentiable_transport_loss(
    cost: Value,
    col_weights: Value,
    config: SinkhornConfig = SinkhornConfig(),
    row_weights: np.ndarray | None = None,
) -> Value:
    """Entropy-regularized transport loss as a graph node.

    ``cost`` is an (N, K) Value, ``col_weights`` a strictly positive simplex
    Value of length K.  Row weights are fixed to uniform unless given.  The
    returned scalar evaluates to  <T, C> - eps * H(T)  for the plan implied by
    the configured mode.
    """
    cost = as_value(cost)
    col_weights = as_value(col_weights)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    n, k = cost.shape
    if col_weights.shape != (k,):
        raise ShapeError(
            f"column weights must have shape ({k},), got {col_weights.shape}"
        )
    if np.any(col_weights.data <= 0.0):
        raise NumericalError("column weights must be strictly positive (floor them first)")
    a = np.full(n, 1.0 / n) if row_weights is None else np.asarray(row_weights, np.float64)

    if config.grad_mode == "unrolled":
        return _unrolled_loss(cost, col_weights, a, config)
    return _envelope_loss(cost, col_weights, a, config)


def _unrolled_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    n, k = cost.shape
    eps = config.epsilon
    log_a = Value(np.log(a))
    log_b = b.log()
    scaled_neg_cost = cost * (-1.0 / eps)  # (f + g - C)/eps with scaled potentials
    u = Value(np.zeros(n))
    v = Value(np.zeros(k))
    for _ in range(config.unroll_iters):
        u = log_a - (scaled_neg_cost + v.reshape(1, k)).logsumexp(axis=1)
        v = log_b - (scaled_neg_cost + u.reshape(n, 1)).logsumexp(axis=0)
    plan = (scaled_neg_cost + u.reshape(n, 1) + v.reshape(1, k)).exp()
    # <T, C> + eps <T, log T> collapses to eps * (<u, T 1> + <v, T' 1>)
    return ((u * plan.sum(axis=1)).sum() + (v * plan.sum(axis=0)).sum()) * eps


def _envelope_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    solved = sinkhorn(cost.data, Marginals(a, b.data / b.data.sum()), config)
    plan = solved.plan
    g_centered = solved.v - solved.v.mean()
    value = entropic_objective(solved, cost.data, config.epsilon)
    offset = value - float((plan * cost.data).sum()) - float(g_centered @ b.data)
    return (cost * plan).sum() + (b * g_centered).sum() + offset
