"""Cost matrix builders: ranges, invariances, degeneracy guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients
from protoset.errors import DegenerateInputError, ShapeError
from protoset.diffcore import no_grad
from protoset.ot import build_cost_value, cosine_cost_value, euclidean_cost_value

RNG = np.random.default_rng(7)


def cosine_cost(x, b) -> np.ndarray:
    with no_grad():
        return cosine_cost_value(x, b).data


def euclidean_cost(x, b, squared=False) -> np.ndarray:
    with no_grad():
        return euclidean_cost_value(x, b, squared=squared).data


def test_cosine_identical_vector_costs_zero():
    x = np.array([[1.0, 2.0, 3.0]])
    b = np.array([[2.0], [4.0], [6.0]])  # same direction, different scale
    c = cosine_cost(x, b)
    assert c.shape == (1, 1)
    assert abs(c[0, 0]) < 1e-12


def test_cosine_opposite_vector_costs_two():
    x = np.array([[1.0, 0.0]])
    b = np.array([[-3.0], [0.0]])
    assert np.isclose(cosine_cost(x, b)[0, 0], 2.0)


def test_cosine_orthogonal_costs_one():
    x = np.array([[1.0, 0.0]])
    b = np.array([[0.0], [5.0]])
    assert np.isclose(cosine_cost(x, b)[0, 0], 1.0)


def test_cosine_range_clamped():
    x = RNG.normal(size=(40, 5))
    b = RNG.normal(size=(5, 7))
    c = cosine_cost(x, b)
    assert c.min() >= 0.0 and c.max() <= 2.0


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_cosine_power_of_two_scaling_is_bit_exact(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 3))
    base = cosine_cost(x, b)
    for lam in (2.0, 0.5, 1024.0):
        assert np.array_equal(cosine_cost(lam * x, b), base)
        assert np.array_equal(cosine_cost(x, lam * b), base)


@given(st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_cosine_general_scaling_invariant(lam):
    x = RNG.normal(size=(5, 3)) + 0.1
    b = RNG.normal(size=(3, 4)) + 0.1
    base = cosine_cost(x, b)
    scaled = cosine_cost(lam * x, b)
    assert np.abs(scaled - base).max() < 1e-12


def test_zero_norm_point_rejected():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0], [1.0]])
    with pytest.raises(DegenerateInputError):
        cosine_cost(x, b)
    with pytest.raises(DegenerateInputError):
        cosine_cost_value(Value(x), Value(b, requires_grad=True))


def test_zero_norm_prototype_rejected():
    x = np.array([[1.0, 0.0]])
    b = np.zeros((2, 2))
    b[:, 0] = [1.0, 1.0]
    with pytest.raises(DegenerateInputError):
        cosine_cost(x, b)


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeError):
        cosine_cost(np.zeros((3, 2)), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        euclidean_cost(np.zeros((3, 2)), np.ones((3, 2)))


def test_euclidean_against_direct_norms():
    x = RNG.normal(size=(6, 3))
    b = RNG.normal(size=(3, 4))
    c = euclidean_cost(x, b)
    direct = np.linalg.norm(x[:, None, :] - b.T[None, :, :], axis=2)
    assert np.allclose(c, direct, atol=1e-12)
    csq = euclidean_cost(x, b, squared=True)
    assert np.allclose(csq, direct**2, atol=1e-12)


def test_euclidean_zero_distance_is_zero():
    x = np.array([[1.0, 2.0]])
    b = np.array([[1.0], [2.0]])
    assert euclidean_cost(x, b, squared=True)[0, 0] == 0.0
    # the distance is floored at sqrt(1e-18) so its gradient stays finite
    assert euclidean_cost(x, b)[0, 0] == np.sqrt(1e-18)


def test_value_paths_match_numpy_paths():
    x = RNG.normal(size=(9, 4)) + 0.2
    b = RNG.normal(size=(4, 5)) + 0.2
    dist = np.linalg.norm(x[:, None, :] - b.T[None, :, :], axis=2)
    cos = (x @ b) / np.linalg.norm(x, axis=1)[:, None] / np.linalg.norm(b, axis=0)[None, :]
    oracle = {"cosine": 1.0 - cos, "euclidean": dist, "sqeuclidean": dist**2}
    for metric in ("cosine", "euclidean", "sqeuclidean"):
        v_c = build_cost_value(x, Value(b), metric)
        assert np.allclose(v_c.data, oracle[metric], atol=1e-10)


@pytest.mark.parametrize("metric", ["cosine", "euclidean", "sqeuclidean"])
def test_cost_value_gradients(metric):
    x = Value(RNG.normal(size=(6, 3)) + 0.3, requires_grad=True)
    b = Value(RNG.normal(size=(3, 4)) + 0.3, requires_grad=True)
    w = RNG.normal(size=(6, 4))

    def build():
        if metric == "cosine":
            c = cosine_cost_value(x, b)
        else:
            c = euclidean_cost_value(x, b, squared=(metric == "sqeuclidean"))
        return (c * w).sum()

    err = check_gradients(build, [x, b], np.random.default_rng(1))
    assert err < 1e-4, err
