"""Sinkhorn solver, objective accounting, differentiable path, exact oracle.

The independent references here: a dense kernel-domain fixed-point iteration
(safe at moderate eps), brute-force permutation enumeration, central finite
differences, and the unrolled updates composed from Value primitives.
"""

import importlib
import inspect
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients, no_grad, zero_grad
from protoset.errors import ConfigError, DomainError, InvalidMarginalsError, ShapeError
from protoset.ot import (
    Marginals,
    SinkhornConfig,
    differentiable_transport_loss,
    floor_simplex_value,
    sinkhorn,
    uniform_weights,
)

# the package attribute protoset.ot.sinkhorn is the function, not the module
sinkhorn_module = importlib.import_module("protoset.ot.sinkhorn")
WARMUP, RATE_SPAN, OMEGA_MAX = (
    sinkhorn_module.WARMUP, sinkhorn_module.RATE_SPAN, sinkhorn_module.OMEGA_MAX
)
RNG = np.random.default_rng(11)
MAX_ORACLE_SIZE = 7


def exact_uniform_ot(C) -> float:
    """Exact transport between uniform marginals on a square cost matrix.

    The polytope's vertices are the permutation matrices, so the optimum is
    the best assignment averaged over n.  Enumeration is factorial, hence the
    size cap.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ShapeError(f"oracle needs a square cost matrix, got shape {C.shape}")
    n = C.shape[0]
    if n > MAX_ORACLE_SIZE:
        raise DomainError(f"permutation oracle refuses n={n} > {MAX_ORACLE_SIZE}")
    rows = np.arange(n)
    return float(min(C[rows, perm].sum() for perm in permutations(range(n)))) / n


def floor_simplex(w):
    return floor_simplex_value(Value(np.asarray(w, dtype=np.float64))).data


def tape_exp(v: Value) -> Value:
    """exp(v) recorded on the tape with the gradient g * exp(v): the reference tapes
    below need it, and no library op does."""
    data = np.exp(v.data)
    return v._unary(data, lambda g: g * data)


def unrolled_loss_tape(cost, b, a, config, starts=None):
    """The unrolled loss built from Value primitives, a few nodes a half-iteration.

    The fused node's stabilized-scaling iterations, absorptions included, with
    the same numpy operations in the same order, so the forward is bit-equal
    and the tape's backward is an independent gradient.  Each half-iteration
    is checked against TAU as it is made; ``starts``, if given, receives the
    half-iterations made in the log domain, 2t for a u-update and 2t + 1 for
    a v-update.
    """
    n, k = cost.shape
    eps = config.epsilon
    a = Value(a.reshape(n, 1))
    b = b.reshape(1, k)
    neg_cost = cost * (-1.0 / eps)
    ones_n, ones_k = Value(np.ones((n, 1))), Value(np.ones((1, k)))

    def log_update(other, marginal, axis):
        # marginal's log minus LSE_axis(neg_cost + other), and the kernel
        # exp(neg_cost + other + that) as the LSE's exps times marginal / sums
        x = neg_cost + other
        mx = Value(np.maximum.reduce(x.data, axis=axis, keepdims=True))
        e = tape_exp(x - mx)
        sums = e.sum(axis=axis, keepdims=True)
        return marginal.log() - (sums.log() + mx), e * (marginal / sums)

    def scale(left, right, marginal):
        prod = left @ right
        if (prod.data == 0.0).any():
            return None  # the node's marginal / 0 is out of bounds
        scaling = marginal / prod
        return scaling if scaling.data.max() <= sinkhorn_module.TAU else None

    alpha, beta, su, sv = Value(np.zeros((n, 1))), Value(np.zeros((1, k))), ones_n, ones_k
    for t in range(config.unroll_iters):
        new = None if t == 0 else scale(kernel, sv.reshape(k, 1), a)
        if new is None:
            beta = beta + sv.log()
            alpha, kernel = log_update(beta, a, 1)
            su, sv = ones_n, ones_k
            if starts is not None:
                starts.append(2 * t)
        else:
            su = new
        new = None if t == 0 else scale(su.reshape(1, n), kernel, b)
        if new is None:
            alpha = alpha + su.log()
            beta, kernel = log_update(alpha, b, 0)
            su, sv = ones_n, ones_k
            if starts is not None:
                starts.append(2 * t + 1)
        else:
            sv = new
    u, v = alpha + su.log(), beta + sv.log()
    row = su * (kernel @ sv.reshape(k, 1))
    col = sv * (su.reshape(1, n) @ kernel)
    return ((u * row).sum() + (v * col).sum()) * eps


def log_domain_loss_tape(cost, b, a, config):
    """The unrolled loss as log-domain potential updates from Value primitives,
    about 8 nodes an iteration: the definition the kernel form computes."""
    n, k = cost.shape
    eps = config.epsilon
    log_a = Value(np.log(a))
    log_b = b.log()
    scaled_neg_cost = cost * (-1.0 / eps)
    u = Value(np.zeros(n))
    v = Value(np.zeros(k))
    for _ in range(config.unroll_iters):
        u = log_a - (scaled_neg_cost + v.reshape(1, k)).logsumexp(axis=1)
        v = log_b - (scaled_neg_cost + u.reshape(n, 1)).logsumexp(axis=0)
    plan = tape_exp(scaled_neg_cost + u.reshape(n, 1) + v.reshape(1, k))
    return ((u * plan.sum(axis=1)).sum() + (v * plan.sum(axis=0)).sum()) * eps


def graph_size(root):
    """Number of nodes reachable from ``root`` through recorded parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def dense_reference(C, a, b, eps, iters=5000):
    """Kernel-domain fixed point u = a / (K v), v = b / (K' u)."""
    K = np.exp(-C / eps)
    u = np.ones_like(a)
    v = np.ones_like(b)
    for _ in range(iters):
        u = a / (K @ v)
        v = b / (K.T @ u)
    return u[:, None] * K * v[None, :]


def three_pass_reference(C, a, b, config):
    """The solver's iteration on unscaled log-domain potentials, each iteration
    building the whole plan to sum its marginals.

    The first WARMUP iterations are plain.  Then every update is over-relaxed,
    f <- f + omega (f_plain - f), by the factor that the residual's contraction
    over the last RATE_SPAN warm-up iterations gives, if that raises the dual
    objective  <f, a> + <g, b> - eps sum(plan); else it is plain.  Returns
    (plan, iterations, residual, converged).
    """
    eps = config.epsilon

    def lse(m, axis):
        mx = np.max(m, axis=axis, keepdims=True)
        return np.log(np.sum(np.exp(m - mx), axis=axis)) + np.squeeze(mx, axis=axis)

    def plan(f, g):
        return np.exp((f[:, None] + g[None, :] - C) / eps)

    def relax(old, plain, marginal, dual_gain):
        new = old + omega * (plain - old)
        return new if omega != 1.0 and marginal @ (new - old) - eps * dual_gain(new) > 0 else plain

    f, g = np.zeros(a.size), np.zeros(b.size)
    omega, residuals, converged, it = 1.0, [], False, 0
    for it in range(1, config.max_iters + 1):
        f_plain = eps * (np.log(a) - lse((g[None, :] - C) / eps, axis=1))
        f = relax(f, f_plain, a, lambda new: (plan(new, g) - plan(f, g)).sum())
        g_plain = eps * (np.log(b) - lse((f[:, None] - C) / eps, axis=0))
        g = relax(g, g_plain, b, lambda new: (plan(f, new) - plan(f, g)).sum())
        T = plan(f, g)
        residuals.append(max(np.abs(T.sum(axis=1) - a).max(), np.abs(T.sum(axis=0) - b).max()))
        if residuals[-1] <= config.tol:
            converged = True
            break
        if it == WARMUP:
            rate = (residuals[-1] / residuals[-1 - RATE_SPAN]) ** (1.0 / RATE_SPAN)
            omega = min(OMEGA_MAX, 2.0 / (1.0 + np.sqrt(1.0 - rate))) if rate < 1.0 else OMEGA_MAX
    return plan(f, g), it, residuals[-1], converged


# -- marginals -------------------------------------------------------------------


def test_marginals_validation():
    with pytest.raises(InvalidMarginalsError):
        Marginals(np.array([0.5, 0.5]), np.array([0.7, 0.2]))  # sums to 0.9
    with pytest.raises(InvalidMarginalsError):
        Marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]))  # zero entry
    with pytest.raises(InvalidMarginalsError):
        Marginals(np.array([[0.5, 0.5]]), np.array([0.5, 0.5]))  # not 1-D


def test_floor_simplex():
    h = np.array([1.0, 0.0, 0.0])
    f = floor_simplex(h)
    assert np.all(f > 0)
    assert np.isclose(f.sum(), 1.0)
    assert f[0] > 0.999

    hv = Value(np.array([0.7, 0.3, 0.0]), requires_grad=True)
    fv = floor_simplex_value(hv)
    assert np.all(fv.data > 0) and np.isclose(fv.data.sum(), 1.0)
    fv.sum().backward()  # renormalized sum is constant, so grads ~ 0
    assert np.abs(hv.grad).max() < 1e-12


def test_uniform_weights():
    u = uniform_weights(4)
    assert np.allclose(u, 0.25)
    with pytest.raises(InvalidMarginalsError):
        uniform_weights(0)


# -- solver ----------------------------------------------------------------------


def test_symmetric_two_by_two_small_eps():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    res = sinkhorn(C, m, SinkhornConfig(epsilon=0.05))
    assert res.converged
    assert res.plan[0, 1] < 1e-8 and res.plan[1, 0] < 1e-8
    assert abs(res.plan[0, 0] - 0.5) < 1e-8
    assert res.transport_cost < 1e-7


def test_matches_dense_fixed_point_reference():
    rng = np.random.default_rng(2)
    C = rng.uniform(0, 2, (7, 5))
    a = uniform_weights(7)
    b = rng.dirichlet(np.ones(5))
    res = sinkhorn(C, Marginals(a, b), SinkhornConfig(epsilon=0.2, tol=1e-12, max_iters=5000))
    ref = dense_reference(C, a, b, 0.2)
    assert np.abs(res.plan - ref).max() < 1e-10


def random_instance(seed):
    """A cost of 2-29 rows and 2-11 columns, uniform on [0, 2], with uniform
    row weights and floored Dirichlet column weights."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 30)), int(rng.integers(2, 12))
    C = rng.uniform(0, 2, (n, k))
    return C, Marginals(uniform_weights(n), floor_simplex(rng.dirichlet(np.ones(k))))


@given(st.integers(0, 10**6))
@example(588)  # n=5, k=11: not converged in 500 plain iterations
@example(386)  # n=11, k=4: likewise
@settings(max_examples=20, deadline=None)
def test_marginal_satisfaction_random_instances(seed):
    C, m = random_instance(seed)
    res = sinkhorn(C, m, SinkhornConfig(epsilon=0.1))
    assert res.converged, f"did not converge in {res.iterations} iterations"
    assert np.abs(res.plan.sum(axis=1) - m.a).max() <= 1e-6
    assert np.abs(res.plan.sum(axis=0) - m.b).max() <= 1e-6
    assert res.plan.min() > 0.0  # entropic plans are strictly positive


def test_random_instances_converge_at_the_default_config():
    # a fixed scan of the property test's instances
    failed = []
    for seed in range(500):
        C, m = random_instance(seed)
        res = sinkhorn(C, m)
        if not res.converged:
            failed.append((seed, res.residual))
    assert failed == []


def test_residual_reported_honestly():
    # the residual is derived from the next potential update, not summed from
    # the plan, so check it against the plan's marginals both when the budget
    # runs out and at convergence
    rng = np.random.default_rng(5)
    C = rng.uniform(0, 2, (20, 6))
    m = Marginals(uniform_weights(20), floor_simplex(rng.dirichlet(np.ones(6))))
    for max_iters, converged in ((3, False), (5000, True)):
        res = sinkhorn(C, m, SinkhornConfig(epsilon=0.01, max_iters=max_iters))
        assert res.converged is converged
        assert res.iterations == max_iters or converged
        recomputed = max(
            np.abs(res.plan.sum(axis=1) - m.a).max(),
            np.abs(res.plan.sum(axis=0) - m.b).max(),
        )
        assert np.isclose(res.residual, recomputed, rtol=1e-10)


def test_residual_reads_both_marginals_while_relaxing():
    # a relaxed v-update leaves the columns off b, here by more than the rows
    # are off a: stopped by the budget and at convergence, both past the warm-up
    rng = np.random.default_rng(17)
    C = rng.uniform(0, 2, (100, 50))
    m = Marginals(uniform_weights(100), floor_simplex(rng.dirichlet(np.ones(50))))
    for tol, converged in ((1e-9, False), (1e-6, True)):
        res = sinkhorn(C, m, SinkhornConfig(epsilon=0.03, tol=tol, max_iters=WARMUP + 40))
        assert res.converged is converged and res.iterations > WARMUP
        recomputed = max(
            np.abs(res.plan.sum(axis=1) - m.a).max(),
            np.abs(res.plan.sum(axis=0) - m.b).max(),
        )
        assert np.isclose(res.residual, recomputed, rtol=1e-10)


# uniform-marginal costs whose solves at eps 1e-3 make one v-update in the log
# domain inside the loop: a plain one, and an over-relaxed one
LOG_V_COSTS = {
    "plain": [[0.5, 0.4, 0.2], [0.9, 0.0, 0.2], [0.7, 0.6, 0.0], [0.9, 0.3, 0.3]],
    "relaxed": [[0.8, 0.0], [0.2, 0.2], [0.5, 0.3]],
}


@pytest.mark.parametrize("kind", sorted(LOG_V_COSTS))
def test_residual_after_a_log_domain_v_update_in_the_loop(kind, monkeypatch):
    # the kernel of a log-domain v-update has columns summing to b, so the
    # solver takes b as the column sums; check that against the plan, at
    # convergence and stopped in the iteration of that update
    updates = []
    real_update_cols = sinkhorn_module._Stabilized.update_cols

    def update_cols(state, sv, rest=None):
        updates.append((sv is None, rest is not None))
        return real_update_cols(state, sv, rest)

    monkeypatch.setattr(sinkhorn_module._Stabilized, "update_cols", update_cols)
    C = np.asarray(LOG_V_COSTS[kind])
    m = Marginals(uniform_weights(C.shape[0]), uniform_weights(C.shape[1]))
    res = sinkhorn(C, m, SinkhornConfig(epsilon=1e-3))
    # update 0 starts the solve in the log domain; update i >= 1 is iteration i + 1's
    in_log = [(i + 1, relaxed) for i, (log, relaxed) in enumerate(updates) if log and i]
    assert updates[0] == (True, False)
    assert [relaxed for _, relaxed in in_log] == [kind == "relaxed"]
    stopped = sinkhorn(C, m, SinkhornConfig(epsilon=1e-3, max_iters=in_log[0][0]))
    assert res.converged and not stopped.converged
    for result in (res, stopped):
        recomputed = max(
            np.abs(result.plan.sum(axis=1) - m.a).max(),
            np.abs(result.plan.sum(axis=0) - m.b).max(),
        )
        assert np.isclose(result.residual, recomputed, rtol=1e-10)


@pytest.mark.parametrize("eps,max_iters", [(0.01, 500), (0.03, 500), (0.1, 500), (0.01, 40)])
def test_matches_three_pass_reference(eps, max_iters):
    rng = np.random.default_rng(17)
    C = rng.uniform(0, 2, (100, 50))
    a = uniform_weights(100)
    b = floor_simplex(rng.dirichlet(np.ones(50)))
    config = SinkhornConfig(epsilon=eps, max_iters=max_iters)
    res = sinkhorn(C, Marginals(a, b), config)
    plan, iterations, residual, converged = three_pass_reference(C, a, b, config)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.abs(res.plan - plan).max() <= 1e-15
    assert abs(res.residual - residual) <= 1e-9 * residual


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        sinkhorn(np.zeros((3, 2)), Marginals(uniform_weights(2), uniform_weights(2)))


def test_config_validation():
    with pytest.raises(ConfigError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SinkhornConfig(max_iters=0)
    with pytest.raises(ConfigError):
        SinkhornConfig(grad_mode="implicit")
    with pytest.raises(ConfigError):
        SinkhornConfig(tol=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            SinkhornConfig(epsilon=bad)
        with pytest.raises(ConfigError, match="tol must be positive and finite"):
            SinkhornConfig(tol=bad)


# -- objective accounting ----------------------------------------------------------


def test_entropy_convention_zero_times_log_zero():
    # exp(-100 / 0.05) underflows: the off-diagonal entries are exact zeros,
    # and they add nothing to H(T) instead of 0 * log 0 = NaN
    C = np.array([[0.0, 100.0], [100.0, 0.0]])
    m = Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    res = sinkhorn(C, m, SinkhornConfig(epsilon=0.05))
    assert res.plan[0, 1] == 0.0 and res.plan[1, 0] == 0.0
    assert res.transport_cost == 0.0
    assert np.isclose(res.entropic_value, -0.05 * (-2 * 0.5 * np.log(0.5)))


def test_objective_decomposition():
    rng = np.random.default_rng(8)
    C = rng.uniform(0, 2, (6, 4))
    b = floor_simplex(rng.dirichlet(np.ones(4)))
    res = sinkhorn(C, Marginals(uniform_weights(6), b), SinkhornConfig(epsilon=0.1, tol=1e-10))
    obj = res.entropic_value
    T = res.plan
    assert np.isclose(res.transport_cost, (T * C).sum())
    assert np.isclose(obj, (T * C).sum() + 0.1 * (T * np.log(T)).sum())
    # duality identity at convergence: objective equals <f, a> + <g, b>
    dual = res.u @ res.plan.sum(axis=1) + res.v @ res.plan.sum(axis=0)
    assert abs(obj - dual) < 1e-9


# -- exact oracle -------------------------------------------------------------------


def test_oracle_hand_instance():
    # best assignment is the anti-diagonal: (0+0)/2
    C = np.array([[5.0, 0.0], [0.0, 5.0]])
    assert exact_uniform_ot(C) == 0.0
    C2 = np.array([[1.0, 2.0], [3.0, 0.5]])
    assert np.isclose(exact_uniform_ot(C2), (1.0 + 0.5) / 2)


def test_oracle_refuses_large_and_nonsquare():
    with pytest.raises(DomainError):
        exact_uniform_ot(np.zeros((8, 8)))
    with pytest.raises(ShapeError):
        exact_uniform_ot(np.zeros((3, 4)))


def test_epsilon_monotonicity_and_oracle_limit():
    rng = np.random.default_rng(13)
    for _ in range(3):
        n = 6
        C = rng.uniform(0, 2, (n, n))
        m = Marginals(uniform_weights(n), uniform_weights(n))
        costs = []
        for eps in (1.0, 0.1, 0.01, 0.005):
            res = sinkhorn(C, m, SinkhornConfig(epsilon=eps, tol=1e-9, max_iters=50000))
            costs.append(res.transport_cost)
        assert all(costs[i] >= costs[i + 1] - 1e-9 for i in range(len(costs) - 1)), costs
        oracle = exact_uniform_ot(C)
        assert abs(costs[-1] - oracle) <= 0.02 * max(oracle, 1e-12)


# -- differentiable path -------------------------------------------------------------


def test_unrolled_matches_converged_objective():
    rng = np.random.default_rng(4)
    C = Value(rng.uniform(0, 2, (8, 3)))
    b = Value(floor_simplex(rng.dirichlet(np.ones(3))))
    loss = differentiable_transport_loss(C, b, SinkhornConfig(epsilon=0.1, unroll_iters=300))
    solved = sinkhorn(
        C.data,
        Marginals(uniform_weights(8), b.data),
        SinkhornConfig(epsilon=0.1, tol=1e-13, max_iters=20000),
    )
    assert abs(loss.item() - solved.entropic_value) < 1e-10


def test_envelope_value_equals_converged_objective():
    rng = np.random.default_rng(6)
    C = Value(rng.uniform(0, 2, (7, 4)), requires_grad=True)
    b = Value(floor_simplex(rng.dirichlet(np.ones(4))), requires_grad=True)
    cfg = SinkhornConfig(epsilon=0.1, grad_mode="envelope", tol=1e-12, max_iters=20000)
    loss = differentiable_transport_loss(C, b, cfg)
    solved = sinkhorn(C.data, Marginals(uniform_weights(7), b.data), cfg)
    assert abs(loss.item() - solved.entropic_value) < 1e-9


def test_envelope_gradients_are_plan_and_centered_potential():
    rng = np.random.default_rng(9)
    C = Value(rng.uniform(0, 2, (6, 3)), requires_grad=True)
    b = Value(floor_simplex(rng.dirichlet(np.ones(3))), requires_grad=True)
    cfg = SinkhornConfig(epsilon=0.1, grad_mode="envelope", tol=1e-12, max_iters=20000)
    differentiable_transport_loss(C, b, cfg).backward()
    solved = sinkhorn(C.data, Marginals(uniform_weights(6), b.data), cfg)
    assert np.allclose(C.grad, solved.plan, atol=1e-12)
    centered = solved.v - solved.v.mean()
    assert np.allclose(b.grad, centered, atol=1e-12)
    assert abs(b.grad.mean()) < 1e-12


def test_grad_modes_agree_on_cost_gradient():
    rng = np.random.default_rng(10)
    C0 = rng.uniform(0, 2, (8, 3))
    b0 = floor_simplex(rng.dirichlet(np.ones(3)))

    C = Value(C0.copy(), requires_grad=True)
    b = Value(b0.copy())
    differentiable_transport_loss(
        C, b, SinkhornConfig(epsilon=0.1, unroll_iters=400)
    ).backward()
    unrolled = C.grad.copy()

    zero_grad([C])
    differentiable_transport_loss(
        C, b, SinkhornConfig(epsilon=0.1, grad_mode="envelope", tol=1e-12, max_iters=20000)
    ).backward()
    envelope = C.grad.copy()

    rel = np.abs(unrolled - envelope).max() / np.abs(envelope).max()
    assert rel < 1e-2, rel


def test_unrolled_finite_difference():
    rng = np.random.default_rng(12)
    C = Value(rng.uniform(0.2, 1.8, (8, 3)), requires_grad=True)
    b = Value(floor_simplex(rng.dirichlet(np.ones(3))), requires_grad=True)
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=50)
    err = check_gradients(
        lambda: differentiable_transport_loss(C, b, cfg),
        [C, b],
        np.random.default_rng(0),
        samples_per_param=10,
    )
    assert err < 1e-4, err


def test_small_epsilon_stays_finite_in_log_domain():
    rng = np.random.default_rng(14)
    C = rng.uniform(0, 2, (10, 4))
    b = floor_simplex(rng.dirichlet(np.ones(4)))
    res = sinkhorn(C, Marginals(uniform_weights(10), b), SinkhornConfig(epsilon=0.005, max_iters=20000, tol=1e-8))
    assert np.isfinite(res.plan).all()
    assert res.converged


def test_column_weight_positivity_enforced():
    C = Value(np.ones((3, 2)))
    from protoset.errors import NumericalError

    with pytest.raises(NumericalError):
        differentiable_transport_loss(C, Value(np.array([1.0, 0.0])))


def fused_and_tapes(C0, b0, cfg):
    """(loss, cost gradient, weight gradient) of the fused node, the kernel-form
    tape and the log-domain tape, all with uniform row weights."""
    a = uniform_weights(C0.shape[0])
    results = []
    for build in (
        lambda C, b: differentiable_transport_loss(C, b, cfg),
        lambda C, b: unrolled_loss_tape(C, b, a, cfg),
        lambda C, b: log_domain_loss_tape(C, b, a, cfg),
    ):
        C = Value(C0.copy(), requires_grad=True)
        b = Value(b0.copy(), requires_grad=True)
        loss = build(C, b)
        loss.backward()
        results.append((loss.item(), C.grad, b.grad))
    return results


def rel_err(x, ref):
    return np.abs(np.asarray(x) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize(
    "n,k,eps,iters", [(100, 50, 0.1, 50), (5, 16, 0.1, 20), (8, 3, 0.01, 50), (12, 4, 0.1, 30)]
)
def test_fused_unrolled_matches_tape(n, k, eps, iters):
    rng = np.random.default_rng(n * k)
    C0 = rng.uniform(0, 2, (n, k))
    b0 = floor_simplex(rng.dirichlet(np.ones(k)))
    cfg = SinkhornConfig(epsilon=eps, unroll_iters=iters)
    (fused, gC, gb), (tape, gC_ref, gb_ref), (log_loss, gC_log, gb_log) = fused_and_tapes(
        C0, b0, cfg
    )
    assert fused == tape  # same operations in the same order
    assert rel_err(gC, gC_ref) <= 1e-10
    assert rel_err(gb, gb_ref) <= 1e-10
    # the same iterates as the log-domain updates, up to rounding
    assert rel_err(fused, log_loss) <= 1e-13
    assert rel_err(gC, gC_log) <= 1e-13
    assert rel_err(gb, gb_log) <= 1e-13


def test_absorption_matches_log_domain(monkeypatch):
    # costs up to 60 at eps 0.1 move the potentials by more than log(TAU) = 115,
    # so both modes must absorb; the log-domain references
    # round potentials of size max|C| / eps, a relative error of that times the
    # float64 epsilon in every plan entry and softmax weight
    rng = np.random.default_rng(3)
    n, k, eps = 30, 7, 0.1
    C0 = rng.uniform(0, 60, (n, k))
    b0 = floor_simplex(rng.dirichlet(np.ones(k)))
    a = uniform_weights(n)
    tol = 10 * (C0.max() / eps) * np.finfo(np.float64).eps
    calls, relaxed_absorbed = [], []
    real_lse, real_relaxed = sinkhorn_module._lse, sinkhorn_module._relaxed
    monkeypatch.setattr(
        sinkhorn_module, "_lse", lambda x, axis: calls.append(axis) or real_lse(x, axis)
    )

    def relaxed(*args):
        scaling, rest = real_relaxed(*args)
        relaxed_absorbed.append(rest is not None)
        return scaling, rest

    monkeypatch.setattr(sinkhorn_module, "_relaxed", relaxed)

    # the solve absorbs a relaxed u-update in iteration 100; by 500 it stalls
    # where a plain absorption would have stalled too, so check it at 150 as well
    for max_iters in (150, 500):
        calls.clear()
        relaxed_absorbed.clear()
        config = SinkhornConfig(epsilon=eps, max_iters=max_iters)
        res = sinkhorn(C0, Marginals(a, b0), config)
        assert len(calls) > 2  # the two log-domain updates of the start, and absorptions
        assert any(relaxed_absorbed)
        plan, iterations, _, converged = three_pass_reference(C0, a, b0, config)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert rel_err(res.plan, plan) <= tol

    calls.clear()
    cfg = SinkhornConfig(epsilon=eps, unroll_iters=100)
    (fused, gC, gb), (tape, gC_ref, gb_ref), (log_loss, gC_log, gb_log) = fused_and_tapes(
        C0, b0, cfg
    )
    assert len(calls) > 2  # the fused node's; the tapes build their own
    assert fused == tape
    assert rel_err(gC, gC_ref) <= 1e-10
    assert rel_err(gb, gb_ref) <= 1e-10
    assert rel_err(fused, log_loss) <= tol
    assert rel_err(gC, gC_log) <= tol
    assert rel_err(gb, gb_log) <= tol


def test_fused_unrolled_nan_cost_raises():
    C = np.ones((4, 3))
    C[2, 1] = np.nan
    with pytest.raises(DomainError, match="NaN"):
        differentiable_transport_loss(
            Value(C, requires_grad=True), Value(uniform_weights(3), requires_grad=True)
        )


def test_fused_unrolled_records_nothing_under_no_grad():
    C = Value(RNG.uniform(0, 2, (6, 3)), requires_grad=True)
    b = Value(uniform_weights(3), requires_grad=True)
    with no_grad():
        loss = differentiable_transport_loss(C, b)
    assert loss._backward is None and loss._parents == ()


def test_fused_unrolled_graph_size_does_not_grow_with_iterations():
    C0 = RNG.uniform(0, 2, (6, 3))
    sizes = []
    for iters in (1, 50):
        C = Value(C0.copy(), requires_grad=True)
        b = Value(uniform_weights(3), requires_grad=True)
        loss = differentiable_transport_loss(C * 2.0, b, SinkhornConfig(unroll_iters=iters))
        sizes.append(graph_size(loss))
    assert sizes[0] == sizes[1]


# -- the unrolled node's block check ------------------------------------------------


def absorbing_problem(shape=(60, 30), seed=0):
    """Costs on [0, 100] and cubed uniform weights: at eps 1e-3 the potentials
    move by about 1e5, so the unrolled node absorbs every eight iterations."""
    rng = np.random.default_rng(seed)
    C0 = rng.uniform(0, 100, shape)
    w = rng.uniform(1e-6, 1, (*shape[:-2], shape[-1])) ** 3
    return C0, w / w.sum(axis=-1, keepdims=True)


def node_run(C0, b0, cfg):
    """(losses, cost gradient, weight gradient, absorption starts) of the fused
    node, with every RuntimeWarning raised: an iterate that is discarded after
    a scaling out of bounds must not warn either."""
    C, b = Value(C0.copy(), requires_grad=True), Value(b0.copy(), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        losses = differentiable_transport_loss(C, b, cfg)
        starts = list(inspect.getclosurevars(losses._backward).nonlocals["starts"])
        (losses * np.arange(1.0, losses.data.size + 1.0)).sum().backward()
    return losses.data, C.grad, b.grad, starts


def block_invariant_run(monkeypatch, C0, b0, cfg):
    """The node's result, asserted bit-equal for blocks of 1, 2 and 8
    iterations and for one block over the whole sweep."""
    runs = []
    for block in (1, 2, 8, cfg.unroll_iters):
        monkeypatch.setattr(sinkhorn_module, "BLOCK", block)
        runs.append(node_run(C0, b0, cfg))
    for run in runs[1:]:
        for got, ref in zip(run, runs[0]):
            assert np.array_equal(got, ref)
    return runs[0]


def assert_matches_checked_tape(C0, b0, cfg, result):
    """The node's loss and absorptions are those of the kernel-form tape,
    which checks every half-iteration as it makes it, and its gradients agree."""
    loss, gC, gb, starts = result
    tape_starts = []
    C, b = Value(C0.copy(), requires_grad=True), Value(b0.copy(), requires_grad=True)
    tape = unrolled_loss_tape(C, b, uniform_weights(C0.shape[0]), cfg, tape_starts)
    tape.backward()
    assert starts == [0, 1] + tape_starts[2:]
    assert tape_starts[:2] == [0, 1]
    assert loss == tape.item()
    assert rel_err(gC, C.grad) <= 1e-10
    assert rel_err(gb, b.grad) <= 1e-10


def test_block_check_absorbs_where_each_half_iteration_would(monkeypatch):
    # six absorptions, the first at half-iteration 16, inside the first block
    # of the default size, whose half-iteration 17 is then discarded and remade
    first_block = range(2, 2 * (1 + sinkhorn_module.BLOCK))
    C0, b0 = absorbing_problem()
    cfg = SinkhornConfig(epsilon=1e-3, unroll_iters=50)
    result = block_invariant_run(monkeypatch, C0, b0, cfg)
    assert result[3] == [0, 1, 16, 32, 48, 64, 80, 96]
    assert 16 in first_block and 17 in first_block
    assert_matches_checked_tape(C0, b0, cfg, result)


@pytest.mark.parametrize(
    "tau,shape,seed,eps,first_starts",
    [
        # the sweep's first half-iterations absorb in turn, u after v after u,
        # the first of them the block's first; later only u-updates do
        (3.0, (20, 10), 0, 0.3, [0, 1, 2, 3, 4, 5, 6, 8]),
        # a v-update absorbs first, inside the second block
        (1e3, (5, 40), 4, 0.01, [0, 1, 19, 37]),
    ],
)
def test_block_check_absorbs_u_and_v_updates_in_turn(
    monkeypatch, tau, shape, seed, eps, first_starts
):
    monkeypatch.setattr(sinkhorn_module, "TAU", tau)
    C0, b0 = absorbing_problem(shape, seed)
    cfg = SinkhornConfig(epsilon=eps, unroll_iters=20)
    result = block_invariant_run(monkeypatch, C0, b0, cfg)
    assert result[3][:len(first_starts)] == first_starts
    assert_matches_checked_tape(C0, b0, cfg, result)


def test_block_check_absorbs_a_stack_as_a_whole(monkeypatch):
    C0, b0 = absorbing_problem((3, 60, 30))
    cfg = SinkhornConfig(epsilon=1e-3, unroll_iters=50)
    losses, gC, gb, starts = block_invariant_run(monkeypatch, C0, b0, cfg)
    assert starts == [0, 1, 20, 40, 60, 82]
    # absorbing with the others changes a problem's iterates only by rounding
    tol = 10 * (C0.max() / cfg.epsilon) * np.finfo(np.float64).eps
    (ref, gC_ref, gb_ref) = stacked_and_sliced(C0, b0, cfg)[1]
    for i in range(3):
        assert rel_err(losses[i], ref[i]) <= tol
        assert rel_err(gC[i], gC_ref[i]) <= tol
        assert rel_err(gb[i], gb_ref[i]) <= tol


# -- stacked problems: one node for B problems of one shape ---------------------------


def stacked_and_sliced(C0, b0, cfg):
    """(losses, cost gradient, weight gradient) of the (B, N, K) stack as one
    node, and the same stacked from each slice run as its own 2-D node.  Loss b
    is weighted by b + 1, so every problem's backward starts from another scale."""
    coeffs = np.arange(1.0, C0.shape[0] + 1.0)
    C, b = Value(C0.copy(), requires_grad=True), Value(b0.copy(), requires_grad=True)
    losses = differentiable_transport_loss(C, b, cfg)
    (losses * coeffs).sum().backward()
    stacked = (losses.data, C.grad, b.grad)
    parts = []
    for C_i, b_i, c in zip(C0, b0, coeffs):
        C, b = Value(C_i.copy(), requires_grad=True), Value(b_i.copy(), requires_grad=True)
        loss = differentiable_transport_loss(C, b, cfg)
        (loss * c).backward()
        parts.append((loss.item(), C.grad, b.grad))
    return stacked, tuple(np.array(x) for x in zip(*parts))


def random_stack(rng, shape, high=2.0):
    B, n, k = shape
    C0 = rng.uniform(0, high, shape)
    b0 = np.stack([floor_simplex(rng.dirichlet(np.ones(k))) for _ in range(B)])
    return C0, b0


@pytest.mark.parametrize("shape,iters", [((5, 5, 16), 20), ((3, 12, 4), 30)])
def test_stacked_unrolled_matches_each_slice(shape, iters):
    rng = np.random.default_rng(sum(shape))
    C0, b0 = random_stack(rng, shape)
    cfg = SinkhornConfig(epsilon=0.1, unroll_iters=iters)
    (losses, gC, gb), (ref, gC_ref, gb_ref) = stacked_and_sliced(C0, b0, cfg)
    assert losses.shape == (shape[0],)
    assert rel_err(losses, ref) <= 1e-13
    assert rel_err(gC, gC_ref) <= 1e-12
    assert rel_err(gb, gb_ref) <= 1e-12


def test_stack_absorbs_as_a_whole(monkeypatch):
    # costs on [0, 60] at eps 0.1 absorb; those on [0, 2] do not on their own,
    # but are absorbed with them in one stack, which changes their iterates only
    # by rounding: the tolerance of test_absorption_matches_log_domain
    rng = np.random.default_rng(3)
    n, k, eps = 30, 7, 0.1
    C0 = np.stack([rng.uniform(0, 60, (n, k)), rng.uniform(0, 2, (n, k))])
    b0 = np.stack([floor_simplex(rng.dirichlet(np.ones(k))) for _ in range(2)])
    tol = 10 * (C0.max() / eps) * np.finfo(np.float64).eps
    cfg = SinkhornConfig(epsilon=eps, unroll_iters=100)
    calls = []
    real_lse = sinkhorn_module._lse
    monkeypatch.setattr(
        sinkhorn_module, "_lse", lambda x, axis: calls.append(axis) or real_lse(x, axis)
    )
    differentiable_transport_loss(Value(C0[1]), Value(b0[1]), cfg)
    assert len(calls) == 2  # the two log-domain updates of the start only
    calls.clear()
    differentiable_transport_loss(Value(C0), Value(b0), cfg)
    assert len(calls) > 2
    (losses, gC, gb), (ref, gC_ref, gb_ref) = stacked_and_sliced(C0, b0, cfg)
    for i in range(2):
        assert rel_err(losses[i], ref[i]) <= tol
        assert rel_err(gC[i], gC_ref[i]) <= tol
        assert rel_err(gb[i], gb_ref[i]) <= tol


def test_stacked_envelope_equals_each_slice():
    # the envelope solves each problem on its own, with the same operations
    C0, b0 = random_stack(np.random.default_rng(17), (4, 6, 3))
    cfg = SinkhornConfig(epsilon=0.1, grad_mode="envelope")
    stacked, sliced = stacked_and_sliced(C0, b0, cfg)
    for got, ref in zip(stacked, sliced):
        assert np.array_equal(got, ref)


def test_stacked_weight_shape_must_match_the_cost():
    C = Value(np.ones((3, 4, 2)))
    for w in (np.full((2, 2), 0.5), np.full((3, 3), 1.0 / 3), np.full(2, 0.5)):
        with pytest.raises(ShapeError, match="column weights"):
            differentiable_transport_loss(C, Value(w))
    with pytest.raises(ShapeError, match="cost"):
        differentiable_transport_loss(Value(np.ones(2)), Value(np.full(2, 0.5)))


def test_stacked_records_nothing_under_no_grad():
    C0, b0 = random_stack(RNG, (3, 6, 4))
    C, b = Value(C0, requires_grad=True), Value(b0, requires_grad=True)
    for grad_mode in ("unrolled", "envelope"):
        with no_grad():
            losses = differentiable_transport_loss(C, b, SinkhornConfig(grad_mode=grad_mode))
        assert losses.shape == (3,)
        assert losses._backward is None and losses._parents == ()


@pytest.mark.parametrize("grad_mode", ["unrolled", "envelope"])
def test_stacked_finite_difference(grad_mode):
    # weights through a softmax, as the fewshot head makes them: the envelope's
    # centered potential is the gradient along the simplex only
    rng = np.random.default_rng(21)
    C = Value(rng.uniform(0.2, 1.8, (3, 6, 4)), requires_grad=True)
    logits = Value(rng.normal(size=(3, 4)), requires_grad=True)
    coeffs = np.array([1.0, 2.0, 3.0])
    cfg = SinkhornConfig(
        epsilon=0.1, unroll_iters=50, grad_mode=grad_mode, tol=1e-12, max_iters=20000
    )
    err = check_gradients(
        lambda: (differentiable_transport_loss(C, logits.softmax(axis=1), cfg) * coeffs).sum(),
        [C, logits],
        np.random.default_rng(0),
        samples_per_param=10,
    )
    assert err < 1e-4, err
