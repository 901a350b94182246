"""Entropy-regularized transport: log-domain Sinkhorn and its differentiable form.

The regularized objective for a plan T is  <T, C> - eps * H(T)  with
H(T) = -sum T log T (0 log 0 = 0).  The solver alternates exact potential
updates in the log domain, on the scaled potentials u = f / eps and
v = g / eps over the scaled negative cost -C / eps, computed once:

    u_i <- log a_i - LSE_k(v_k - C_ik / eps)
    v_k <- log b_k - LSE_i(u_i - C_ik / eps)

and the plan is T = exp(u + v - C / eps) (outer sum of potentials).  Small
eps therefore underflows gracefully instead of overflowing a kernel matrix.
Each half-iteration adds one potential into one reused (N, K) buffer and
takes its log-sum-exp in place, so an iteration makes two N x K
exponential passes and allocates no N x K temporary.

After a v-update the plan's columns sum to b exactly.  Its rows sum to
a * exp(u - u_next), where u_next is the next u-update, so the solver
computes u_next, reads the worst marginal violation |a * expm1(u - u_next)|
in O(N), and returns the (u, v) it was measured on once that is within
``tol``; otherwise u_next starts the next iteration.  The plan is
exponentiated once, on exit, and the returned potentials are f = eps * u
and g = eps * v.

The differentiable path comes in two modes.  "unrolled" runs exactly
``unroll_iters`` of those updates as one graph node whose backward sweeps
back through them.  "envelope" solves to
convergence outside the graph and wires the stationary quantities back in:
the gradient w.r.t. the cost is the plan itself, the gradient w.r.t. the
column marginal is the dual potential g centered to zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffcore import Value, as_value
from ..diffcore.value import _accumulate, recording
from ..errors import ConfigError, DomainError, NumericalError, ShapeError
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
            raise ConfigError(f"max_iters must be positive, got {self.max_iters}")
        if self.unroll_iters < 1:
            raise ConfigError(f"unroll_iters must be positive, got {self.unroll_iters}")
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


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp of the 2-D ``x`` along ``axis``; ``x`` is overwritten."""
    mx = np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(np.subtract(x, mx, out=x), out=x)
    return np.log(np.add.reduce(x, axis=axis)) + mx.reshape(-1)


def sinkhorn(cost, marginals: Marginals, config: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Solve the entropy-regularized problem; iterate until the worst marginal
    violation falls below ``tol`` or ``max_iters`` is reached.

    A non-finite potential stops the iteration at once and raises NumericalError.
    """
    C = _cost_array(cost)
    a, b = marginals.a, marginals.b
    if C.shape != (a.size, b.size):
        raise ShapeError(
            f"cost shape {C.shape} does not match marginals ({a.size}, {b.size})"
        )
    n, k = C.shape
    eps = config.epsilon
    log_a = np.log(a)
    log_b = np.log(b)
    neg_cost = C * (-1.0 / eps)
    buf = np.empty((n, k))
    v = np.zeros(k)
    u = log_a - _lse(np.add(neg_cost, v.reshape(1, k), out=buf), axis=1)
    iterations = 0
    residual = np.inf
    converged = False
    for it in range(1, config.max_iters + 1):
        v = log_b - _lse(np.add(neg_cost, u.reshape(n, 1), out=buf), axis=0)
        iterations = it
        if not np.isfinite(v).all():
            break  # more iterations cannot recover; raised below
        u_next = log_a - _lse(np.add(neg_cost, v.reshape(1, k), out=buf), axis=1)
        # the columns of exp(neg_cost + u + v) sum to b, its rows to a * exp(u - u_next)
        residual = float(np.abs(a * np.expm1(u - u_next)).max())
        if residual <= config.tol:
            converged = True
            break
        if it == config.max_iters or not math.isfinite(residual):
            break
        u = u_next
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericalError("sinkhorn potentials became non-finite")
    T = np.add(neg_cost, u.reshape(n, 1), out=buf)
    T += v.reshape(1, k)
    np.exp(T, out=T)
    return TransportPlan(T, eps * u, eps * v, iterations, residual, converged)


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
    """``unroll_iters`` scaled-potential updates and the loss of their plan, as
    one graph node over ``cost`` and ``b``.

    While a graph is recorded, each half-iteration keeps its shifted
    exponentials exp(x - max) and their sums, i.e. the softmax weights of its
    log-sum-exp; the backward sweeps the iterations in reverse with them.
    Otherwise every half-iteration reuses one buffer and nothing is kept.
    """
    n, k = cost.shape
    eps = config.epsilon
    iters = config.unroll_iters
    log_a = np.log(a)
    log_b = np.log(b.data)
    neg_cost = cost.data * (-1.0 / eps)  # (f + g - C)/eps with scaled potentials
    slots = iters if recording((cost, b)) else 1
    # one block for both stacks: at 100x50 and 50 iterations two separate 2 MB
    # blocks went back to the OS when a step's graph was freed and were paged
    # in again on the next step (about 480 page faults a step)
    e_row, e_col = np.empty((2, slots, n, k))
    s_row, s_col = np.empty((slots, n)), np.empty((slots, k))
    u = np.zeros(n)
    v = np.zeros(k)
    for t in range(iters):
        i = t % slots
        lse = _shifted_lse(np.add(neg_cost, v.reshape(1, k), out=e_row[i]), 1, s_row[i])
        u = log_a - lse
        lse = _shifted_lse(np.add(neg_cost, u.reshape(n, 1), out=e_col[i]), 0, s_col[i])
        v = log_b - lse
    plan = np.exp(neg_cost + u.reshape(n, 1) + v.reshape(1, k))
    row, col = plan.sum(axis=1), plan.sum(axis=0)
    # <T, C> + eps <T, log T> collapses to eps * (<u, T 1> + <v, T' 1>)
    data = np.asarray(((u * row).sum() + (v * col).sum()) * eps)

    def backward(g, acc):
        scale = g * eps
        g_neg_cost = scale * (u.reshape(n, 1) + v.reshape(1, k)) * plan
        gu = scale * row + g_neg_cost.sum(axis=1)
        gv = scale * col + g_neg_cost.sum(axis=0)
        g_log_b = np.zeros(k)
        # an LSE input x gets -softmax(x) * (the LSE's gradient), softmax being
        # the kept exps over their sums; the sweep needs only its sums over the
        # reduced axis (matrix-vector products), so the (N, K) terms are added
        # once at the end from the per-iteration factors q and r
        q, r = np.empty((iters, k)), np.empty((iters, n))
        for t in reversed(range(iters)):
            # v = log_b - LSE_0(x) with x = neg_cost + u
            g_log_b += gv
            q[t] = gv / s_col[t]
            gu = gu - e_col[t] @ q[t]
            # u = log_a - LSE_1(x) with x = neg_cost + v; the previous u reaches
            # the loss only through the previous v
            r[t] = gu / s_row[t]
            gv = -(r[t] @ e_row[t])
            gu = 0.0
        g_neg_cost -= np.einsum("tnk,tk->nk", e_col, q)
        g_neg_cost -= np.einsum("tnk,tn->nk", e_row, r)
        _accumulate(acc, cost, g_neg_cost * (-1.0 / eps))
        _accumulate(acc, b, g_log_b / b.data)

    return Value._from_op(data, (cost, b), backward)


def _shifted_lse(x: np.ndarray, axis: int, sums: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp of ``x`` along ``axis``.

    ``x`` is overwritten with exp(x - max) and ``sums`` with its sums.
    """
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    if math.isnan(np.maximum.reduce(m, axis=None)):  # max propagates any NaN in x
        raise DomainError("logsumexp of NaN input")
    np.exp(np.subtract(x, m, out=x), out=x)
    np.add.reduce(x, axis=axis, out=sums)
    return np.log(sums) + m.reshape(sums.shape)


def _envelope_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    solved = sinkhorn(cost.data, Marginals(a, b.data / b.data.sum()), config)
    plan = solved.plan
    g_centered = solved.v - solved.v.mean()
    value = entropic_objective(solved, cost.data, config.epsilon)
    offset = value - float((plan * cost.data).sum()) - float(g_centered @ b.data)
    return (cost * plan).sum() + (b * g_centered).sum() + offset
