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

The convergent solver ``sinkhorn`` over-relaxes these updates (Lehmann et
al. 2022, *A note on overrelaxation in the Sinkhorn algorithm*).  Its first
WARMUP = 20 iterations are plain; the residual's contraction rate r over the
last RATE_SPAN = 10 of them sets omega = min(OMEGA_MAX, 2 / (1 + sqrt(1 - r))),
with OMEGA_MAX = 1.8, and every later half-iteration is relaxed,

    su <- su * (a / (K sv) / su)^omega,    and the same for sv,

if that raises the dual objective  <u, a> + <v, b> - sum(plan)  over the
current scaling; otherwise it is plain (the safeguard of Thibault et al.
2017, *Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
transport*).  The change of the dual is O(N) from the product in hand, and a
relaxed half-iteration costs one log and one exp of a scaling more than a
plain one.  An absorbed half-iteration keeps the relaxed iterate: the log-domain
update is plain, and the relaxation beyond it is the new scaling.

The plan diag(su) K diag(sv) sums to su * (K sv) along its rows and to
sv * (su' K) along its columns: K sv is the product the next u-update divides
by, and su' K the one the last v-update divided by, which makes the columns
exactly b unless it was relaxed.  So the solver reads the worst marginal
violation, max(|su * (K sv) - a|, |sv * (su' K) - b|), in O(N + K), the
column part only when the row part is within ``tol`` or the budget is spent,
and returns the iterate it was measured on once that is within ``tol``.
The returned potentials are f = eps * u and g = eps * v.

The differentiable path comes in two modes.  "unrolled" runs exactly
``unroll_iters`` of those updates as one graph node whose backward sweeps
back through them.  It checks its plain updates against TAU once per block
of BLOCK iterations, over the whole block (and stack), not once per
half-iteration.  It makes the first block out of bounds again from its
start, and makes and checks it and every later half-iteration on its own,
absorbing where one is out of bounds, so at most one block per sweep is made
twice, and the iterates are those of a check after each half-iteration.  "envelope" solves to
convergence outside the graph and wires the stationary quantities back in:
the gradient w.r.t. the cost is the plan itself, the gradient w.r.t. the
column marginal is the dual potential g centered to zero mean.

Both modes also take a stack of problems of one shape: a (B, N, K) cost and
(B, K) column weights give the (B,) losses as one node (Cuturi 2013,
*Sinkhorn distances*, section 4).  The stabilized iterate, its updates and
the unrolled node are written over leading stack axes, reducing along the
last two and multiplying with ``np.matmul``, so a 2-D cost runs the same
operations at the same ranks as without them, and a stack runs each
half-iteration as one batched product.  A stack absorbs as a whole when any
of its scalings exceeds TAU, which gives every problem the same iterates up
to rounding.  The envelope mode solves each problem on its own, since their
iteration counts and relaxation factors differ, and wires the stacked plans
and potentials into one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffcore import Value, as_value
from ..diffcore.value import _accumulate
from ..errors import DomainError, NumericalError, ShapeError, bounded, check_fields
from .marginals import Marginals

GRAD_MODES = ("unrolled", "envelope")
TAU = 1e50  # a scaling above TAU is absorbed into its potential
WARMUP = 20  # plain iterations before the solver over-relaxes
RATE_SPAN = 10  # the last iterations of the warm-up that estimate its contraction rate
OMEGA_MAX = 1.8  # the largest over-relaxation factor
BLOCK = 8  # unrolled iterations between two TAU checks, until the first absorption


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = bounded("positive and finite", 0.1)
    tol: float = bounded("positive and finite", 1e-6)
    max_iters: int = bounded("positive", 500)
    unroll_iters: int = bounded("positive", 50)
    grad_mode: str = bounded(GRAD_MODES, "unrolled")

    __post_init__ = check_fields


@dataclass
class TransportPlan:
    """Solver output: the plan, dual potentials, convergence bookkeeping, and
    the plan's objective.  eps * H(T) is ``transport_cost - entropic_value``."""

    plan: np.ndarray
    u: np.ndarray  # row potential f = eps * u, in cost units
    v: np.ndarray  # column potential g = eps * v, in cost units
    iterations: int
    residual: float
    converged: bool
    transport_cost: float  # <T, C>
    entropic_value: float  # <T, C> - eps * H(T), H(T) = -sum T log T with 0 log 0 = 0


def _cost_array(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {arr.shape}")
    return arr


def _lse(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp of ``x`` along ``axis`` (-1 or -2), dims kept.

    ``x`` is overwritten with exp(x - max); returns the LSE and the sums of x.
    """
    mx = np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(np.subtract(x, mx, out=x), out=x)
    sums = np.add.reduce(x, axis=axis, keepdims=True)
    return np.log(sums) + mx, sums


def _scale(prod: np.ndarray, marginal: np.ndarray):
    """A half-iteration in scaling form: marginal / prod, where prod is the
    kernel times the other scaling.

    None when the new scaling exceeds TAU or is not finite; the caller then
    makes the half-iteration in the log domain instead.  No lower bound is
    needed: kernel entries are at most one and the other scaling at most TAU,
    so a scaling stays above marginal / (TAU * size), and a product that
    underflows makes the next scaling exceed TAU.
    """
    scaling = marginal / prod
    return scaling if _within(scaling) else None


def _within(scalings: np.ndarray) -> bool:
    """Whether every scaling is at most TAU, so also finite."""
    return np.maximum.reduce(scalings, axis=None) <= TAU


def _relaxed(scaling, prod, sums, marginal, log_marginal, omega: float):
    """The half-iteration over-relaxed by omega: scaling * (plain / scaling)^omega,
    with plain = marginal / prod the update of ``_scale``.

    The relaxed step is taken only if it raises the dual objective over the
    current scaling (Thibault et al. 2017's safeguard); otherwise, and always
    at omega = 1, the plain step is.  With the plan's current marginal
    sums = scaling * prod and delta = log(marginal / sums) = log(plain / scaling),
    the dual changes by  omega <marginal, delta> - <sums, exp(omega delta) - 1>.

    Returns (new scaling, None), or (None, rest) when the new scaling exceeds
    TAU or is not finite: the half-iteration is then made in the log domain,
    and ``rest`` is the scaling exp((omega - 1) delta) that over-relaxes that
    plain update, or None for the plain step.
    """
    if omega != 1.0:
        w = np.log(sums)
        np.subtract(log_marginal, w, out=w)
        w *= omega
        gain = np.vdot(marginal, w)
        np.expm1(w, out=w)
        gain -= np.vdot(w, sums)
        if gain > 0.0:
            w += 1.0
            relaxed = w * scaling
            if _within(relaxed):
                return relaxed, None
            w *= sums / marginal
            return None, w if _within(w) else None
    return _scale(prod, marginal), None


def _omega(rate: float) -> float:
    """The over-relaxation factor for plain iterations that contract the
    residual by ``rate`` each: 2 / (1 + sqrt(1 - rate)), at most OMEGA_MAX
    (Lehmann et al. 2022, *A note on overrelaxation in the Sinkhorn algorithm*)."""
    return min(OMEGA_MAX, 2.0 / (1.0 + math.sqrt(1.0 - rate))) if rate < 1.0 else OMEGA_MAX


class _Stabilized:
    """A Sinkhorn iterate in stabilized-scaling form.

    The scaled potentials are u = alpha + log(su) and v = beta + log(sv), and
    the plan is diag(su) K diag(sv) with the kernel K = exp(neg_cost + alpha + beta).
    Row vectors are (..., N, 1) and column vectors (..., 1, K) arrays over the
    cost's leading stack axes.  Kernels are built in ``out``; without it every
    absorption allocates, so earlier kernels can be kept.
    """

    def __init__(self, neg_cost: np.ndarray, a: np.ndarray, b: np.ndarray, out=None):
        *lead, n, k = neg_cost.shape
        self.neg_cost, self.a, self.b, self.out = neg_cost, a, b, out
        self.log_a, self.log_b = np.log(a), np.log(b)
        self.alpha, self.beta = np.zeros((*lead, n, 1)), np.zeros((*lead, 1, k))
        self.su, self.sv = np.ones((*lead, n, 1)), np.ones((*lead, 1, k))
        self.kernel = None

    def update_rows(self, su, rest=None) -> None:
        """Take the row scaling ``su``; None makes the u-update in the log
        domain, and the row scaling is then ``rest`` if given."""
        if su is None:
            self.beta = self.beta + np.log(self.sv)
            self.alpha = self._log_update(self.beta, self.a, self.log_a, -1)
            su = rest
        if su is not None:
            self.su = su

    def update_cols(self, sv, rest=None) -> None:
        """Take the column scaling ``sv``; None makes the v-update in the log
        domain, and the column scaling is then ``rest`` if given."""
        if sv is None:
            self.alpha = self.alpha + np.log(self.su)
            self.beta = self._log_update(self.alpha, self.b, self.log_b, -2)
            sv = rest
        if sv is not None:
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


# a zero or infinite scaling is absorbed, a relaxation of NaN gain refused
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
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
    converged, omega, col_prod = False, 1.0, b
    for iterations in range(1, config.max_iters + 1):
        if iterations > 1:
            col_prod = state.su.reshape(1, n) @ state.kernel
            sv, rest = _relaxed(state.sv, col_prod, state.sv * col_prod, b, state.log_b, omega)
            state.update_cols(sv, rest)
            if sv is None:  # a log-domain v-update: the new kernel's columns sum to b
                col_prod = b
        prod = state.kernel @ state.sv.reshape(k, 1)
        # diag(su) K diag(sv) has rows su * (K sv) and columns sv * (su' K);
        # it cannot stop while its rows are off by more than tol, so the
        # columns are read only when it may
        rows = state.su * prod
        residual = float(np.maximum.reduce(np.abs(rows - a), axis=None))
        last = iterations == config.max_iters or not math.isfinite(residual)
        if residual <= config.tol or last:
            col = np.maximum.reduce(np.abs(state.sv * col_prod - b), axis=None)
            residual = max(residual, float(col))
            if residual <= config.tol:
                converged = True
                break
        if last:
            break
        if iterations == WARMUP - RATE_SPAN:
            early = residual
        elif iterations == WARMUP:
            omega = _omega((residual / early) ** (1.0 / RATE_SPAN))
        state.update_rows(*_relaxed(state.su, prod, rows, a, state.log_a, omega))
    if not state.finite():  # a log-domain update overflowed, and the residual with it
        raise NumericalError("sinkhorn potentials became non-finite")
    u, v = state.potentials()
    plan = state.kernel
    plan *= state.su
    plan *= state.sv
    transport = float((plan * C).sum())  # NaN for an infinite cost entry
    mask = plan > 0.0
    entropy = float(-(plan[mask] * np.log(plan[mask])).sum())
    return TransportPlan(
        plan, eps * u.reshape(n), eps * v.reshape(k), iterations, residual, converged,
        transport, transport - eps * entropy,
    )


def differentiable_transport_loss(
    cost: Value, col_weights: Value, config: SinkhornConfig = SinkhornConfig()
) -> Value:
    """Entropy-regularized transport loss as a graph node.

    ``cost`` is an (N, K) Value, ``col_weights`` a strictly positive simplex
    Value of length K.  The row weights are uniform: a set's measure is the
    empirical distribution of its N points.  The returned scalar evaluates to
    <T, C> - eps * H(T)  for the plan implied by the configured mode.

    A stack of problems is a (B, N, K) cost with (B, K) column weights, and
    returns the (B,) vector of their losses from one node.
    """
    cost = as_value(cost)
    col_weights = as_value(col_weights)
    if cost.ndim < 2:
        raise ShapeError(f"cost must be (N, K) or a stack (B, N, K), got shape {cost.shape}")
    *lead, n, k = cost.shape
    if col_weights.shape != (*lead, k):
        raise ShapeError(
            f"column weights must have shape {(*lead, k)}, got {col_weights.shape}"
        )
    if np.any(col_weights.data <= 0.0):
        raise NumericalError("column weights must be strictly positive (floor them first)")
    a = np.full(n, 1.0 / n)
    if config.grad_mode == "unrolled":
        return _unrolled_loss(cost, col_weights, a, config)
    return _envelope_loss(cost, col_weights, a, config)


# a zero or infinite scaling is absorbed, and the iterates after it in its block,
# which may be NaN, are discarded
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _unrolled_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    """``unroll_iters`` Sinkhorn iterations and the loss of their plan, as one
    graph node over ``cost`` and ``b``, for one problem or a stack.

    The iterations are made in stabilized-scaling form, the first one and
    every absorption in the log domain (see the module docstring); a NaN or
    infinite cost raises DomainError after the first.  Plain updates are
    written straight into the per-update vectors below and checked against
    TAU once per block of BLOCK iterations; the first block with a scaling out
    of bounds is made again from its start, and it and the rest of the sweep
    are made and checked one half-iteration at a time, absorbing each one out
    of bounds, so at most one block is made twice.
    The backward sweeps the log-domain updates in reverse.  The softmax
    weights of a u-update are
    diag(1 / (K sv)) K diag(sv), with the scaling sv it read, and those of a
    v-update diag(su) K diag(1 / (K' su)); a log-domain update has the same
    form with the scaling it read at one.  So each update's backward is two
    matrix-vector products, and the (N, K) cost gradient of one kernel is
    K * (U' Q + R' V): two (N, T)(T, K) products of the sweep's per-update
    vectors.  The node keeps, per update, the scaling it read and its product
    (O(N + K)), and one kernel per absorption.
    """
    *lead, n, k = cost.shape
    eps = config.epsilon
    iters = config.unroll_iters
    a = a.reshape(n, 1)
    b_row = b.data.reshape(*lead, 1, k)
    # a scaling's transpose, for the products K sv and su' K
    col_shape, row_shape = (*lead, k, 1), (*lead, 1, n)
    state = _Stabilized(cost.data * (-1.0 / eps), a, b_row)
    state.update_rows(None)
    first = state.kernel
    state.update_cols(None)
    if not state.finite():
        raise DomainError("Sinkhorn potentials of a NaN or infinite cost are not finite")
    # u-update t: the sv it read (in_v[t]) and K sv; v-update t: the su it read
    # (in_u[t]) and su' K, and the sv it made (in_v[t + 1], which u-update t + 1
    # reads); two more rows of in_u for the final plan's own term, set by the backward
    in_v, prod_u = np.ones((iters + 1, *lead, 1, k)), np.empty((iters, *lead, n, 1))
    in_u, prod_v = np.ones((iters + 2, *lead, n, 1)), np.empty((iters, *lead, 1, k))
    prod_u[0], prod_v[0] = a, b_row
    # per absorption: its kernel and its first half-iteration, 2t or 2t + 1
    kernels, starts = [first, state.kernel], [0, 1]

    def plain(j: int) -> np.ndarray:
        """Half-iteration j as a scaling update, written into its rows; returns the new scaling."""
        t = j >> 1
        if j & 1:
            np.matmul(in_u[t].reshape(row_shape), state.kernel, out=prod_v[t])
            return np.divide(b_row, prod_v[t], out=in_v[t + 1])
        np.matmul(state.kernel, in_v[t].reshape(col_shape), out=prod_u[t])
        return np.divide(a, prod_u[t], out=in_u[t])

    def absorb(j: int) -> None:
        """Half-iteration j in the log domain instead: the scaling it read is
        folded into its potential, and both scalings restart at one."""
        t = j >> 1
        if j & 1:
            state.su = in_u[t]
            state.update_cols(None)
            in_u[t], prod_v[t], in_v[t + 1] = 1.0, b_row, 1.0
        else:
            state.sv = in_v[t]
            state.update_rows(None)
            in_v[t], prod_u[t], in_u[t] = 1.0, a, 1.0
        kernels.append(state.kernel)
        starts.append(j)

    # plain iterations in blocks of BLOCK, each block checked once; from the
    # start of the first block out of bounds, every half-iteration is made
    # again and checked on its own (a plain update is deterministic, so the
    # ones before the first out of bounds come out bit-identical)
    t = 1
    while t < iters:
        stop = min(t + BLOCK, iters)
        for j in range(2 * t, 2 * stop):
            plain(j)
        if _within(in_u[t:stop]) and _within(in_v[t + 1:stop + 1]):
            t = stop
            continue
        for j in range(2 * t, 2 * iters):
            if not _within(plain(j)):
                absorb(j)
        break
    state.su, state.sv = in_u[iters - 1], in_v[iters]
    u, v = state.potentials()
    su, sv, kernel = state.su, state.sv, state.kernel
    row = su * (kernel @ sv.reshape(col_shape))
    col = sv * (su.reshape(row_shape) @ kernel)
    # <T, C> + eps <T, log T> collapses to eps * (<u, T 1> + <v, T' 1>)
    data = np.asarray(((u * row).sum(axis=(-2, -1)) + (v * col).sum(axis=(-2, -1))) * eps)

    def backward(g, acc):
        scale = np.reshape(g * eps, (*lead, 1, 1))
        # the sweep keeps v-side vectors as (..., K, 1) columns, so that each
        # update's products are a kernel, or its transpose, times a column
        kernels_t = [kernel_s.swapaxes(-1, -2) for kernel_s in kernels]
        v_c, sv_c, col_c = v.reshape(col_shape), sv.reshape(col_shape), col.reshape(col_shape)
        in_v_c = in_v[:iters].reshape(iters, *col_shape)
        prod_v_c = prod_v.reshape(iters, *col_shape)
        # the final plan P's own gradient w.r.t. neg_cost is scale * (u + v) * P:
        # its row and column sums, and kernel * (U' Q) over two more rows
        gu = scale * (row * (1.0 + u) + su * (kernel @ (sv_c * v_c)))
        gv = scale * (col_c * (1.0 + v_c) + sv_c * (kernels_t[-1] @ (su * u)))
        q_rows, r_rows = np.empty((iters + 2, *col_shape)), np.empty((iters, *lead, n, 1))
        in_u[iters], q_rows[iters] = -scale * su * u, sv_c
        in_u[iters + 1], q_rows[iters + 1] = -scale * su, sv_c * v_c
        g_log_b = np.zeros(col_shape)
        s = len(starts) - 1
        for j in reversed(range(2 * iters)):
            if j < starts[s]:
                s -= 1
            t = j >> 1
            if j & 1:
                # v = log_b - LSE_0(neg_cost + u)
                g_log_b += gv
                q = q_rows[t] = gv / prod_v_c[t]
                gu = gu - in_u[t] * (kernels[s] @ q)
            else:
                # u = log_a - LSE_1(neg_cost + v); the previous u reaches the
                # loss only through the previous v
                r = r_rows[t] = gu / prod_u[t]
                gv = -(in_v_c[t] * (kernels_t[s] @ r))
                gu = 0.0
        # each problem's per-update vectors as (N, T) and (T, K) matrices
        rows_n, rows_k = (-1, *lead, n), (-1, *lead, k)
        d = len(lead) + 1
        by_update, transposed = (*range(1, d), 0, d), (*range(1, d), d, 0)
        g_neg_cost = np.zeros(cost.shape)
        ends = starts[1:] + [2 * iters]
        for kernel_s, j0, j1 in zip(kernels, starts, ends):
            rows = slice((j0 + 1) // 2, (j1 + 1) // 2)
            cols = slice(j0 // 2, iters + 2 if j1 == 2 * iters else j1 // 2)
            g_neg_cost -= kernel_s * (
                in_u[cols].reshape(rows_n).transpose(transposed)
                @ q_rows[cols].reshape(rows_k).transpose(by_update)
                + r_rows[rows].reshape(rows_n).transpose(transposed)
                @ in_v[rows].reshape(rows_k).transpose(by_update)
            )
        _accumulate(acc, cost, g_neg_cost * (-1.0 / eps))
        _accumulate(acc, b, g_log_b.reshape(b.shape) / b.data)

    return Value._from_op(data, (cost, b), backward)


def _envelope_loss(cost: Value, b: Value, a: np.ndarray, config: SinkhornConfig) -> Value:
    """The converged loss of each problem as one node whose gradients are the
    plan (w.r.t. the cost) and the centered column potential (w.r.t. ``b``)."""
    C, w = cost.data, b.data
    plans, g_centered, data = np.empty(C.shape), np.empty(w.shape), np.empty(w.shape[:-1])
    for i in np.ndindex(data.shape):  # one problem, at index (), for a 2-D cost
        solved = sinkhorn(C[i], Marginals(a, w[i] / w[i].sum()), config)
        plans[i] = solved.plan
        g_centered[i] = solved.v - solved.v.mean()
        data[i] = solved.entropic_value

    def backward(g, acc):
        g = np.asarray(g)
        _accumulate(acc, cost, g.reshape(*g.shape, 1, 1) * plans)
        _accumulate(acc, b, g.reshape(*g.shape, 1) * g_centered)

    return Value._from_op(data, (cost, b), backward)
