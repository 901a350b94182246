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
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = np.array([0.7])
    p = Value(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)

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


@pytest.mark.parametrize("eps", [0.0, float("nan"), float("inf")])
def test_adam_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ConfigError, match="eps must be positive and finite"):
        Adam([Value(np.array([1.0]), requires_grad=True)], eps=eps)


def test_make_optimizer_dispatch():
    p = Value(np.array([1.0]), requires_grad=True)
    assert isinstance(make_optimizer("adam", [p], 0.1), Adam)
    assert isinstance(make_optimizer("sgd", [p], 0.1), SGD)
    with pytest.raises(ConfigError):
        make_optimizer("lbfgs", [p], 0.1)
