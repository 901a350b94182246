"""Optimizer semantics pinned against hand-computed updates."""

import numpy as np
import pytest

from protoset.diffcore import Adam, SGD, Value, make_optimizer
from protoset.errors import ConfigError


def test_sgd_step_formula():
    p = Value(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -1.0])
    SGD([p], lr=0.1).step()
    assert np.allclose(p.data, [1.0 - 0.05, -2.0 + 0.1])


def test_adam_first_step_magnitude_is_lr():
    # with constant gradient, bias-corrected first step is exactly lr * sign(g)
    # up to the eps correction
    p = Value(np.array([0.0, 0.0]), requires_grad=True)
    opt = Adam([p], lr=0.001)
    p.grad = np.array([3.0, -0.2])
    opt.step()
    assert np.allclose(np.abs(p.data), 0.001, rtol=1e-6)
    assert p.data[0] < 0 < p.data[1]


def test_adam_matches_reference_sequence():
    # three steps with a fixed gradient, checked against the textbook recursion
    # at the textbook betas and eps, which Adam always uses
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = np.array([0.7])
    p = Value(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr)

    ref = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    for t in range(1, 4):
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.allclose(p.data, ref, rtol=0, atol=1e-15)


def test_none_grad_leaves_param_and_state_untouched():
    p = Value(np.array([1.0]), requires_grad=True)
    q = Value(np.array([2.0]), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    q.grad = np.array([1.0])
    opt.step()
    assert np.allclose(p.data, [1.0])
    assert opt.t[0] == 0 and opt.t[1] == 1
    assert np.allclose(opt.m[0], 0.0)


def test_zero_grad_resets():
    for kind in (SGD, Adam):
        p = Value(np.array([1.0]), requires_grad=True)
        p.grad = np.array([5.0])
        opt = kind([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_nonpositive_lr_rejected(lr):
    p = Value(np.array([1.0]), requires_grad=True)
    with pytest.raises(ConfigError):
        Adam([p], lr=lr)
    with pytest.raises(ConfigError):
        SGD([p], lr=lr)


def test_make_optimizer_dispatch():
    p = Value(np.array([1.0]), requires_grad=True)
    assert isinstance(make_optimizer("adam", [p], 0.1), Adam)
    assert isinstance(make_optimizer("sgd", [p], 0.1), SGD)


SHAPES = [(3, 4), (4,), (2, 5), (5,)]


def per_array_adam(data, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-array loop that Adam ran before its flat buffer: data, m, v and t
    after every step of ``grads_per_step`` (None: no gradient that step)."""
    data = [d.copy() for d in data]
    m, v, t = [np.zeros_like(d) for d in data], [np.zeros_like(d) for d in data], [0] * len(data)
    for grads in grads_per_step:
        for i, g in enumerate(grads):
            if g is None:
                continue
            t[i] += 1
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1 ** t[i])
            v_hat = v[i] / (1.0 - b2 ** t[i])
            data[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return data, m, v, t


# which parameter has no gradient at which step (from 0): none; the second at
# every step, which splits the run; the third until step 2, so its t lags
MISSING = {"all-present": set(), "none-in-the-middle": {(s, 1) for s in range(5)},
           "late-start": {(0, 2), (1, 2)}}


@pytest.mark.parametrize("case", sorted(MISSING))
def test_adam_matches_the_per_array_loop_bit_for_bit(case):
    rng = np.random.default_rng(7)
    start = [rng.normal(size=shape) for shape in SHAPES]
    grads = [[None if (step, i) in MISSING[case] else rng.normal(size=shape) * 10.0 ** (i - 2)
              for i, shape in enumerate(SHAPES)] for step in range(5)]
    params = [Value(d.copy(), requires_grad=True) for d in start]
    opt = Adam(params, lr=0.03)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = None if g is None else g.copy()
        opt.step()
    data, m, v, t = per_array_adam(start, grads, lr=0.03)
    assert opt.t == t
    for i, p in enumerate(params):
        assert p.data.shape == SHAPES[i]
        assert p.data.tobytes() == data[i].tobytes()
        assert opt.m[i].tobytes() == m[i].tobytes() and opt.v[i].tobytes() == v[i].tobytes()


def test_a_parameter_listed_twice_is_refused():
    # a second view of its data would leave the first updating a detached copy
    p = Value(np.ones(2), requires_grad=True)
    with pytest.raises(ConfigError, match="Adam got a parameter twice"):
        Adam([p, Value(np.ones(1), requires_grad=True), p])


def test_parameters_become_views_of_one_vector_that_holds_no_moments():
    # a model outlives its optimizer, so its parameters must not keep the moments alive
    params = [Value(np.full(shape, float(i)), requires_grad=True) for i, shape in enumerate(SHAPES)]
    opt = Adam(params)
    flat = params[0].data.base
    assert all(p.data.base is flat for p in params)
    assert flat.size == sum(p.data.size for p in params)
    assert [float(p.data.reshape(-1)[0]) for p in params] == [0.0, 1.0, 2.0, 3.0]
    assert not any(np.shares_memory(flat, moment) for moment in opt.m + opt.v)
