"""Sinkhorn solver, objective accounting, differentiable path, exact oracle.

The independent references here: a dense kernel-domain fixed-point iteration
(safe at moderate eps), brute-force permutation enumeration, and central
finite differences.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients, zero_grad
from protoset.errors import ConfigError, DomainError, InvalidMarginalsError, ShapeError
from protoset.ot import (
    Marginals,
    SinkhornConfig,
    differentiable_transport_loss,
    entropic_objective,
    floor_simplex_value,
    plan_entropy,
    sinkhorn,
    transport_cost,
    uniform_weights,
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


def dense_reference(C, a, b, eps, iters=5000):
    """Kernel-domain fixed point u = a / (K v), v = b / (K' u)."""
    K = np.exp(-C / eps)
    u = np.ones_like(a)
    v = np.ones_like(b)
    for _ in range(iters):
        u = a / (K @ v)
        v = b / (K.T @ u)
    return u[:, None] * K * v[None, :]


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
    assert transport_cost(res, C) < 1e-7


def test_matches_dense_fixed_point_reference():
    rng = np.random.default_rng(2)
    C = rng.uniform(0, 2, (7, 5))
    a = uniform_weights(7)
    b = rng.dirichlet(np.ones(5))
    res = sinkhorn(C, Marginals(a, b), SinkhornConfig(epsilon=0.2, tol=1e-12, max_iters=5000))
    ref = dense_reference(C, a, b, 0.2)
    assert np.abs(res.plan - ref).max() < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_marginal_satisfaction_random_instances(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 30)), int(rng.integers(2, 12))
    C = rng.uniform(0, 2, (n, k))
    b = floor_simplex(rng.dirichlet(np.ones(k)))
    res = sinkhorn(C, Marginals(uniform_weights(n), b), SinkhornConfig(epsilon=0.1))
    assert res.converged, f"did not converge in {res.iterations} iterations"
    assert np.abs(res.plan.sum(axis=1) - 1.0 / n).max() <= 1e-6
    assert np.abs(res.plan.sum(axis=0) - b).max() <= 1e-6
    assert res.plan.min() > 0.0  # entropic plans are strictly positive


def test_residual_reported_honestly():
    rng = np.random.default_rng(5)
    C = rng.uniform(0, 2, (20, 6))
    m = Marginals(uniform_weights(20), floor_simplex(rng.dirichlet(np.ones(6))))
    res = sinkhorn(C, m, SinkhornConfig(epsilon=0.01, max_iters=3))
    assert not res.converged
    assert res.iterations == 3
    recomputed = max(
        np.abs(res.plan.sum(axis=1) - m.a).max(),
        np.abs(res.plan.sum(axis=0) - m.b).max(),
    )
    assert np.isclose(res.residual, recomputed, rtol=1e-10)


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


# -- objective accounting ----------------------------------------------------------


def test_entropy_convention_zero_times_log_zero():
    T = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert np.isclose(plan_entropy(T), -2 * 0.5 * np.log(0.5))


def test_objective_decomposition():
    rng = np.random.default_rng(8)
    C = rng.uniform(0, 2, (6, 4))
    b = floor_simplex(rng.dirichlet(np.ones(4)))
    res = sinkhorn(C, Marginals(uniform_weights(6), b), SinkhornConfig(epsilon=0.1, tol=1e-10))
    obj = entropic_objective(res, C, 0.1)
    assert np.isclose(obj, transport_cost(res, C) - 0.1 * plan_entropy(res))
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
            costs.append(transport_cost(res, C))
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
    assert abs(loss.item() - entropic_objective(solved, C.data, 0.1)) < 1e-10


def test_envelope_value_equals_converged_objective():
    rng = np.random.default_rng(6)
    C = Value(rng.uniform(0, 2, (7, 4)), requires_grad=True)
    b = Value(floor_simplex(rng.dirichlet(np.ones(4))), requires_grad=True)
    cfg = SinkhornConfig(epsilon=0.1, grad_mode="envelope", tol=1e-12, max_iters=20000)
    loss = differentiable_transport_loss(C, b, cfg)
    solved = sinkhorn(C.data, Marginals(uniform_weights(7), b.data), cfg)
    assert abs(loss.item() - entropic_objective(solved, C.data, 0.1)) < 1e-9


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
    report = check_gradients(
        lambda: differentiable_transport_loss(C, b, cfg),
        [C, b],
        np.random.default_rng(0),
        samples_per_param=10,
    )
    assert report.max_rel_err < 1e-4, str(report)


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
