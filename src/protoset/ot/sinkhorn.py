"""Entropy-regularized transport: stabilized-scaling Sinkhorn and its differentiable form.

The regularized objective for a plan T is  <T, C> - eps * H(T)  with
H(T) = -sum T log T (0 log 0 = 0).  Sinkhorn's iteration alternates exact
updates of the scaled potentials u = f / eps and v = g / eps over the scaled
negative cost -C / eps, computed once:

    u_i <- log a_i - LSE_k(v_k - C_ik / eps)
    v_k <- log b_k - LSE_i(u_i - C_ik / eps)

and the plan is T = exp(u + v - C / eps) (outer sum of potentials).

The iterates are computed in stabilized-scaling form (Schmitzer 2019,
*Stabilized sparse scaling algorithms for entropy regularized transport
problems*, section 3; Peyre & Cuturi 2019, *Computational Optimal Transport*,
section 4.4).  The potentials are split as u = alpha + log(su) and
v = beta + log(sv): alpha and beta stay in the log domain, and the scalings
su, sv act on the stabilized kernel K = exp(-C / eps + alpha + beta) (outer
sum), so the plan is diag(su) K diag(sv) and each update is one
matrix-vector product:

    su <- a / (K sv),    sv <- b / (K' su).

When a new scaling exceeds TAU = 1e50, or is not finite because a row or
column of K underflowed, that half-iteration is made in the log domain
instead (absorption): the other scaling is folded into its potential, the
update is a max-shifted log-sum-exp, and its exponentials, scaled to the
marginal, are the new kernel, with both scalings back at one.  An
absorption is one N x K exponential pass: small eps still underflows
gracefully instead of overflowing a kernel matrix, and an iteration without
absorption makes no exponential pass at all.  Every solve
starts with one log-domain u-update and one v-update, so the first kernel is
the plan after one iteration.

After a v-update the plan's columns sum to b.  Its rows sum to su * (K sv),
where K sv is the product the next u-update divides by, so the solver reads
the worst marginal violation |su * (K sv) - a| in O(N), and returns the
iterate it was measured on once that is within ``tol``.  The returned
potentials are f = eps * u and g = eps * v.

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
TAU = 1e50  # a scaling above TAU is absorbed into its potential


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.1
    tol: float = 1e-6
    max_iters: int = 500
    unroll_iters: int = 50
    grad_mode: str = "unrolled"

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
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


def _lse(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp of the 2-D ``x`` along ``axis``, dims kept.

    ``x`` is overwritten with exp(x - max); returns the LSE and the sums of x.
    """
    mx = np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(np.subtract(x, mx, out=x), out=x)
    sums = np.add.reduce(x, axis=axis, keepdims=True)
    return np.log(sums) + mx, sums


def _scale(left: np.ndarray, right: np.ndarray, marginal: np.ndarray):
    """A half-iteration in scaling form: marginal / (left @ right), and the product.

    The new scaling is None when it exceeds TAU or is not finite; the caller
    then makes the half-iteration in the log domain instead.  No lower bound
    is needed: kernel entries are at most one and the other scaling at most
    TAU, so a scaling stays above marginal / (TAU * size), and a product that
    underflows makes the next scaling exceed TAU.
    """
    prod = left @ right
    scaling = marginal / prod
    if np.maximum.reduce(scaling, axis=None) <= TAU:
        return scaling, prod
    return None, prod


class _Stabilized:
    """A Sinkhorn iterate in stabilized-scaling form.

    The scaled potentials are u = alpha + log(su) and v = beta + log(sv), and
    the plan is diag(su) K diag(sv) with the kernel K = exp(neg_cost + alpha + beta).
    Row vectors are (N, 1) and column vectors (1, K) arrays.  Kernels are built
    in ``out``; without it every absorption allocates, so earlier kernels can
    be kept.
    """

    def __init__(self, neg_cost: np.ndarray, a: np.ndarray, b: np.ndarray, out=None):
        n, k = neg_cost.shape
        self.neg_cost, self.a, self.b, self.out = neg_cost, a, b, out
        self.log_a, self.log_b = np.log(a), np.log(b)
        self.alpha, self.beta = np.zeros((n, 1)), np.zeros((1, k))
        self.su, self.sv = np.ones((n, 1)), np.ones((1, k))
        self.kernel = None

    def update_rows(self, su) -> None:
        """Take the row scaling ``su``; None makes the u-update in the log domain."""
        if su is None:
            self.beta = self.beta + np.log(self.sv)
            self.alpha = self._log_update(self.beta, self.a, self.log_a, 1)
        else:
            self.su = su

    def update_cols(self, sv) -> None:
        """Take the column scaling ``sv``; None makes the v-update in the log domain."""
        if sv is None:
            self.alpha = self.alpha + np.log(self.su)
            self.beta = self._log_update(self.alpha, self.b, self.log_b, 0)
        else:
            self.sv = sv

    def _log_update(self, other, marginal, log_marginal, axis: int) -> np.ndarray:
        """log_marginal - LSE_axis(neg_cost + other), with the scalings absorbed
        into ``other``; the LSE's exps times marginal over their sums are the
        kernel of the new potentials, and both scalings restart at one."""
        x = np.add(self.neg_cost, other, out=self.out)
        lse, sums = _lse(x, axis)
        x *= marginal / sums
        self.kernel = x
        self.su, self.sv = np.ones_like(self.su), np.ones_like(self.sv)
        return log_marginal - lse

    def finite(self) -> bool:
        """Whether the potentials are finite (in-bounds scalings always are)."""
        return bool(np.isfinite(self.alpha).all() and np.isfinite(self.beta).all())

    def potentials(self) -> tuple[np.ndarray, np.ndarray]:
        return self.alpha + np.log(self.su), self.beta + np.log(self.sv)


@np.errstate(divide="ignore", over="ignore")  # a zero or infinite scaling is absorbed
def sinkhorn(cost, marginals: Marginals, config: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Solve the entropy-regularized problem; iterate until the worst marginal
    violation falls below ``tol`` or ``max_iters`` is reached.

    Non-finite potentials raise NumericalError, after the first iteration at once.
    """
    C = _cost_array(cost)
    if C.shape != (marginals.a.size, marginals.b.size):
        raise ShapeError(
            f"cost shape {C.shape} does not match marginals "
            f"({marginals.a.size}, {marginals.b.size})"
        )
    n, k = C.shape
    eps = config.epsilon
    a, b = marginals.a.reshape(n, 1), marginals.b.reshape(1, k)
    state = _Stabilized(C * (-1.0 / eps), a, b, np.empty((n, k)))
    state.update_rows(None)
    state.update_cols(None)
    if not state.finite():  # a NaN or infinite cost: more iterations cannot recover
        raise NumericalError("sinkhorn potentials became non-finite")
    converged = False
    for iterations in range(1, config.max_iters + 1):
        if iterations > 1:
            state.update_cols(_scale(state.su.reshape(1, n), state.kernel, b)[0])
        su, prod = _scale(state.kernel, state.sv.reshape(k, 1), a)
        # the columns of diag(su) K diag(sv) sum to b, its rows to su * (K sv)
        residual = float(np.maximum.reduce(np.abs(state.su * prod - a), axis=None))
        if residual <= config.tol:
            converged = True
            break
        if iterations == config.max_iters or not math.isfinite(residual):
            break
        state.update_rows(su)
    if not state.finite():  # a log-domain update overflowed, and the residual with it
        raise NumericalError("sinkhorn potentials became non-finite")
    u, v = state.potentials()
    plan = state.kernel
    plan *= state.su
    plan *= state.sv
    return TransportPlan(
        plan, eps * u.reshape(n), eps * v.reshape(k), iterations, residual, converged
    )


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


@np.errstate(divide="ignore", over="ignore")  # a zero or infinite scaling is absorbed
def _unrolled_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    """``unroll_iters`` Sinkhorn iterations and the loss of their plan, as one
    graph node over ``cost`` and ``b``.

    The iterations are made in stabilized-scaling form, the first one and
    every absorption in the log domain (see the module docstring); a NaN or
    infinite cost raises DomainError after the first.  The backward sweeps the
    log-domain updates in reverse.  The softmax weights of a u-update are
    diag(1 / (K sv)) K diag(sv), with the scaling sv it read, and those of a
    v-update diag(su) K diag(1 / (K' su)); a log-domain update has the same
    form with the scaling it read at one.  So each update's backward is two
    matrix-vector products, and the (N, K) cost gradient of one kernel is
    K * (U' Q + R' V): two (N, T)(T, K) products of the sweep's per-update
    vectors.  While a graph is recorded the node keeps, per update, the scaling
    it read and its product (O(N + K)), and one kernel per absorption;
    otherwise it keeps nothing and builds every kernel in one buffer.
    """
    n, k = cost.shape
    eps = config.epsilon
    iters = config.unroll_iters
    a = a.reshape(n, 1)
    b_row = b.data.reshape(1, k)
    keep = recording((cost, b))
    state = _Stabilized(cost.data * (-1.0 / eps), a, b_row, None if keep else np.empty((n, k)))
    state.update_rows(None)
    first = state.kernel
    state.update_cols(None)
    if not state.finite():
        raise DomainError("Sinkhorn potentials of a NaN or infinite cost are not finite")
    if keep:
        # u-update t: the sv it read and K sv; v-update t: the su it read and su' K;
        # two more rows of in_u for the final plan's own term, set by the backward
        in_v, prod_u = np.ones((iters, k)), np.empty((iters, n))
        in_u, prod_v = np.ones((iters + 2, n)), np.empty((iters, k))
        prod_u[0], prod_v[0] = a[:, 0], b_row[0]
        # per absorption: its kernel and its first half-iteration, 2t or 2t + 1
        kernels, starts = [first, state.kernel], [0, 1]
    for t in range(1, iters):
        su, prod = _scale(state.kernel, state.sv.reshape(k, 1), a)
        state.update_rows(su)
        if keep:
            in_v[t], prod_u[t] = state.sv, (a if su is None else prod)[:, 0]
            if su is None:
                kernels.append(state.kernel)
                starts.append(2 * t)
        sv, prod = _scale(state.su.reshape(1, n), state.kernel, b_row)
        state.update_cols(sv)
        if keep:
            in_u[t], prod_v[t] = state.su[:, 0], (b_row if sv is None else prod)
            if sv is None:
                kernels.append(state.kernel)
                starts.append(2 * t + 1)
    u, v = state.potentials()
    su, sv, kernel = state.su, state.sv, state.kernel
    row = su * (kernel @ sv.reshape(k, 1))
    col = sv * (su.reshape(1, n) @ kernel)
    # <T, C> + eps <T, log T> collapses to eps * (<u, T 1> + <v, T' 1>)
    data = np.asarray(((u * row).sum() + (v * col).sum()) * eps)

    def backward(g, acc):
        scale = g * eps
        u1, v1, su1, sv1 = u.reshape(n), v.reshape(k), su.reshape(n), sv.reshape(k)
        # the final plan P's own gradient w.r.t. neg_cost is scale * (u + v) * P:
        # its row and column sums, and kernel * (U' Q) over two more rows
        gu = scale * (row.reshape(n) * (1.0 + u1) + su1 * (kernel @ (sv1 * v1)))
        gv = scale * (col.reshape(k) * (1.0 + v1) + sv1 * ((su1 * u1) @ kernel))
        q_rows, r_rows = np.empty((iters + 2, k)), np.empty((iters, n))
        in_u[iters], q_rows[iters] = -scale * su1 * u1, sv1
        in_u[iters + 1], q_rows[iters + 1] = -scale * su1, sv1 * v1
        g_log_b = np.zeros(k)
        s = len(starts) - 1
        for j in reversed(range(2 * iters)):
            if j < starts[s]:
                s -= 1
            t = j >> 1
            if j & 1:
                # v = log_b - LSE_0(neg_cost + u)
                g_log_b += gv
                q = q_rows[t] = gv / prod_v[t]
                gu = gu - in_u[t] * (kernels[s] @ q)
            else:
                # u = log_a - LSE_1(neg_cost + v); the previous u reaches the
                # loss only through the previous v
                r = r_rows[t] = gu / prod_u[t]
                gv = -(in_v[t] * (r @ kernels[s]))
                gu = 0.0
        g_neg_cost = np.zeros((n, k))
        ends = starts[1:] + [2 * iters]
        for kernel_s, j0, j1 in zip(kernels, starts, ends):
            rows = slice((j0 + 1) // 2, (j1 + 1) // 2)
            cols = slice(j0 // 2, iters + 2 if j1 == 2 * iters else j1 // 2)
            g_neg_cost -= kernel_s * (in_u[cols].T @ q_rows[cols] + r_rows[rows].T @ in_v[rows])
        _accumulate(acc, cost, g_neg_cost * (-1.0 / eps))
        _accumulate(acc, b, g_log_b / b.data)

    return Value._from_op(data, (cost, b), backward)


def _envelope_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    solved = sinkhorn(cost.data, Marginals(a, b.data / b.data.sum()), config)
    plan = solved.plan
    g_centered = solved.v - solved.v.mean()
    value = entropic_objective(solved, cost.data, config.epsilon)
    offset = value - float((plan * cost.data).sum()) - float(g_centered @ b.data)
    return (cost * plan).sum() + (b * g_centered).sum() + offset
