"""Gradient and semantics tests for the autodiff core.

Every differentiable op is checked against central finite differences; the
exact-arithmetic claims (accumulation, linearity, tie-breaking) are asserted
directly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients, concat, no_grad, zero_grad
from protoset.diffcore.value import CHAIN_AXIS_LIMIT, CHAIN_MIN_SIZE, _linearize, reduce_axis
from protoset.errors import DomainError, ShapeError

RNG = np.random.default_rng(20240817)


def fd_check(build, params, seed=0, tol=1e-4, samples=10):
    rng = np.random.default_rng(seed)
    err = check_gradients(build, params, rng, samples_per_param=samples)
    assert err < tol, err


# -- elementwise binaries ------------------------------------------------------


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_binary_op_gradients(op):
    x = Value(RNG.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    y = Value(RNG.uniform(0.5, 2.0, (4, 3)), requires_grad=True)
    w = RNG.normal(size=(4, 3))
    apply = {
        "add": lambda: x + y,
        "sub": lambda: x - y,
        "mul": lambda: x * y,
        "div": lambda: x / y,
    }[op]
    fd_check(lambda: (apply() * w).sum(), [x, y])


def test_broadcast_add_row_vector():
    x = Value(RNG.normal(size=(5, 3)), requires_grad=True)
    b = Value(RNG.normal(size=(3,)), requires_grad=True)
    out = x + b
    out.sum().backward()
    assert np.allclose(b.grad, np.full(3, 5.0))
    assert np.allclose(x.grad, np.ones((5, 3)))


def test_broadcast_scalar():
    x = Value(np.array([1.0, 2.0]), requires_grad=True)
    out = 3.0 * x + 1.0
    out.sum().backward()
    assert np.allclose(x.grad, [3.0, 3.0])


def test_incompatible_shapes_raise():
    x = Value(np.zeros((2, 3)))
    y = Value(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        _ = x + y


def test_division_by_zero_raises():
    with pytest.raises(DomainError):
        _ = Value(np.ones(3)) / Value(np.array([1.0, 0.0, 2.0]))


# -- elementwise unaries -------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["exp", "log", "tanh", "relu", "elu", "softplus", "sqrt"],
)
def test_unary_op_gradients(name):
    if name in ("log", "sqrt"):
        data = RNG.uniform(0.5, 3.0, (4, 3))
    else:
        # keep entries away from kinks so finite differences stay clean
        data = RNG.uniform(0.2, 2.0, (4, 3)) * RNG.choice([-1.0, 1.0], (4, 3))
    x = Value(data, requires_grad=True)
    w = RNG.normal(size=(4, 3))
    fd_check(lambda: (getattr(x, name)() * w).sum(), [x])


def test_log_domain_error():
    with pytest.raises(DomainError):
        Value(np.array([1.0, 0.0])).log()
    with pytest.raises(DomainError):
        Value(np.array([-0.5])).log()


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        Value(np.array([-1e-9])).sqrt()


def test_elu_matches_definition():
    x = Value(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    out = x.elu().data
    expect = np.where(x.data > 0, x.data, np.exp(x.data) - 1.0)
    assert np.allclose(out, expect, atol=1e-15)


def elu_select(x):
    """ELU and its derivative in select form, the reference for the branch-free op."""
    neg = np.expm1(np.minimum(x, 0.0))
    pos_mask = x > 0.0
    return np.where(pos_mask, x, neg), np.where(pos_mask, 1.0, neg + 1.0)


ELU_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    -(2.0 ** -52), np.nextafter(-(2.0 ** -52), 0.0), np.nextafter(-(2.0 ** -52), -1.0),
    2.0 ** -52, -1e-300, -745.2, -800.0, 709.0, 1e308,
])


def test_elu_equals_its_select_form_bitwise():
    x0 = np.concatenate([ELU_EDGES, np.random.default_rng(5).normal(scale=3.0, size=(500,))])
    x = Value(x0, requires_grad=True)
    g = np.random.default_rng(6).uniform(0.5, 2.0, x0.shape)
    out = x.elu()
    (out * g).sum().backward()
    data, slope = elu_select(x0)
    assert np.array_equal(out.data, data, equal_nan=True)
    assert np.array_equal(np.signbit(out.data), np.signbit(data))  # -0.0 stays -0.0
    assert np.array_equal(x.grad, g * slope, equal_nan=True)


def test_relu_equals_its_forward_mask_form_bitwise():
    # the form before the mask moved into the backward: np.maximum(x, 0) and g * (x > 0)
    x0 = np.concatenate([ELU_EDGES, np.random.default_rng(7).normal(scale=3.0, size=(500,))])
    x = Value(x0, requires_grad=True)
    g = np.random.default_rng(8).uniform(-2.0, 2.0, x0.shape)
    out = x.relu()
    (out * g).sum().backward()
    assert out.data.tobytes() == np.maximum(x0, 0.0).tobytes()
    assert x.grad.tobytes() == (g * (x0 > 0.0)).tobytes()


def test_relu_under_no_grad_makes_no_mask():
    x = Value(np.array([-1.0, 0.0, 2.0]))
    x.data = x.data.view(_Watched)
    _Watched.seen = []
    with no_grad():
        out = x.relu()
    assert _Watched.seen == ["maximum"]
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_elu_under_no_grad_makes_three_passes_into_one_array():
    x = Value(np.array([-2.0, -0.0, 0.0, 0.5, 3.0]))
    x.data = x.data.view(_Watched)
    _Watched.seen, _Watched.wrote = [], []
    with no_grad():
        out = x.elu()
    assert _Watched.seen == ["minimum", "expm1", "maximum"]
    assert set(_Watched.wrote) == {out.data.__array_interface__["data"][0]}
    assert np.array_equal(out.data, elu_select(x.data.view(np.ndarray))[0])


def test_clip_gradient_masks_outside():
    x = Value(np.array([-1.0, 0.5, 3.0]), requires_grad=True)
    y = x.clip(0.0, 2.0)
    y.sum().backward()
    assert np.allclose(y.data, [0.0, 0.5, 2.0])
    assert np.allclose(x.grad, [0.0, 1.0, 0.0])


# -- matmul / shaping ----------------------------------------------------------


def test_matmul_gradients():
    x = Value(RNG.normal(size=(4, 3)), requires_grad=True)
    y = Value(RNG.normal(size=(3, 5)), requires_grad=True)
    w = RNG.normal(size=(4, 5))
    fd_check(lambda: ((x @ y) * w).sum(), [x, y])


class _Watched(np.ndarray):
    """An array that records every ufunc, matmul included, that it takes part in:
    ``seen`` gets its name (``add.reduce`` for a method other than a call) and
    ``wrote`` the address of the buffer it wrote.  Its results are watched too."""

    seen: list = []
    wrote: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _Watched) else a

        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = np.asarray(getattr(ufunc, method)(*map(plain, inputs), **kwargs))
        _Watched.seen.append(ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}")
        _Watched.wrote.append(result.__array_interface__["data"][0])
        return result.view(_Watched)


def test_matmul_skips_the_product_of_a_constant_operand():
    x = Value(RNG.normal(size=(4, 3)))
    w = Value(RNG.normal(size=(3, 2)), requires_grad=True)
    out = x @ w
    # the constant x's gradient would be g @ w.data.T, the only product that reads w
    w.data = w.data.view(_Watched)
    _Watched.seen = []
    out.sum().backward()
    assert _Watched.seen == []
    assert np.array_equal(w.grad, x.data.T @ np.ones((4, 2)))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        _ = Value(np.zeros((2, 3))) @ Value(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        _ = Value(np.zeros(3)) @ Value(np.zeros((3, 2)))


def test_reshape_gradients():
    x = Value(RNG.normal(size=(3, 4)), requires_grad=True)
    w = RNG.normal(size=(2, 6))
    fd_check(lambda: (x.reshape(2, 6) * w).sum(), [x])


def test_getitem_gradients():
    x = Value(RNG.normal(size=(5, 4)), requires_grad=True)
    w = RNG.normal(size=(2, 4))
    fd_check(lambda: (x[1:3] * w).sum(), [x])


def test_getitem_fancy_index_accumulates():
    x = Value(np.ones(3), requires_grad=True)
    picked = x[np.array([0, 0, 2])]
    picked.sum().backward()
    assert np.allclose(x.grad, [2.0, 0.0, 1.0])


def test_getitem_refuses_an_index_its_operand_lacks():
    for data, idx in ((np.float64(1.0), slice(None, 2)), (np.zeros(3), 3), (np.zeros(3), (0, 1))):
        with pytest.raises(ShapeError):
            _ = Value(data)[idx]


def test_concat_gradients():
    x = Value(RNG.normal(size=(2, 3)), requires_grad=True)
    y = Value(RNG.normal(size=(2, 2)), requires_grad=True)
    w = RNG.normal(size=(2, 5))
    fd_check(lambda: (concat([x, y], axis=1) * w).sum(), [x, y])


# -- reductions ------------------------------------------------------------------


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
def test_sum_mean_gradients(axis, keepdims):
    x = Value(RNG.normal(size=(4, 3)), requires_grad=True)
    shape = np.sum(np.zeros((4, 3)), axis=axis, keepdims=keepdims).shape
    w = RNG.normal(size=shape)
    fd_check(lambda: (x.sum(axis=axis, keepdims=keepdims) * w).sum(), [x])
    fd_check(lambda: (x.mean(axis=axis, keepdims=keepdims) * w).sum(), [x])


def test_max_routes_to_first_tie():
    x = Value(np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 0.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    assert np.allclose(x.grad, [[0, 1, 0], [1, 0, 0]])


def test_max_gradient_fd():
    x = Value(RNG.normal(size=(4, 5)), requires_grad=True)
    w = RNG.normal(size=(4,))
    fd_check(lambda: (x.max(axis=1) * w).sum(), [x])


REDUCE_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2e-308, -2.2e-308, 1e308, -1e308])
# sizes on both sides of CHAIN_MIN_SIZE (4096) and axes on both sides of CHAIN_AXIS_LIMIT (8)
REDUCE_SHAPES = [(37, 4, 2), (585, 7), (1024, 4), (2048, 4, 2), (4096, 1), (7, 700),
                 (8, 600), (3, 700, 2), (2, 2, 1100), (512, 8), (3, 5, 2, 137)]


@given(st.sampled_from(REDUCE_SHAPES), st.integers(0, 10**6), st.booleans(),
       st.sampled_from([np.add, np.maximum]), st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_axis_equals_the_ufunc_reduce_bitwise(shape, seed, keepdims, ufunc, data):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    specials = rng.random(shape) < rng.uniform(0.0, 0.3)
    x[specials] = rng.choice(REDUCE_SPECIALS, size=int(specials.sum()))
    reduced = list(shape)
    reduced[axis] = 1
    x = np.where(rng.random(reduced) < 0.2, -0.0, x)  # whole slices of -0.0
    with np.errstate(all="ignore"):
        want = np.asarray(ufunc.reduce(x, axis=axis, keepdims=keepdims))
        got = reduce_axis(ufunc, x, axis, keepdims)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # values, sign bits and NaN payloads


@pytest.mark.parametrize("shape, axis, chained", [
    ((2048, 4, 2), 1, True), ((2048, 4, 2), -1, True), ((4096, 1), 1, True),
    ((37, 4, 2), 1, False), ((512, 8), 1, False), ((2048, 4, 2), None, False),
    ((2048, 4, 2), (1, 2), False),
])
def test_reduce_axis_chains_only_a_short_axis_of_a_large_array(shape, axis, chained):
    assert CHAIN_MIN_SIZE == 4096 and CHAIN_AXIS_LIMIT == 8
    x = np.random.default_rng(3).normal(size=shape).view(_Watched)
    _Watched.seen = []
    reduce_axis(np.add, x, axis)
    # chained: one add per slice after the first, then the +0.0 start
    assert _Watched.seen == (["add"] * shape[axis] if chained else ["add.reduce"])


def test_empty_reduction_raises():
    with pytest.raises(DomainError):
        Value(np.zeros((0, 3))).max(axis=0)


# -- stabilized composites -------------------------------------------------------


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_logsumexp_gradients(axis):
    x = Value(RNG.normal(size=(4, 3)) * 3.0, requires_grad=True)
    shape = np.sum(np.zeros((4, 3)), axis=axis).shape
    w = RNG.normal(size=shape)
    fd_check(lambda: (x.logsumexp(axis=axis) * w).sum(), [x])


def test_logsumexp_max_shift_is_stable():
    x = Value(np.array([1000.0, 1000.0]))
    out = x.logsumexp(axis=0)
    assert np.isclose(out.item(), 1000.0 + np.log(2.0))


@pytest.mark.parametrize("row, expected", [
    ([-np.inf, -np.inf], -np.inf),  # the sum of no mass
    ([np.inf, 0.0], np.inf),
    ([np.inf, 1000.0], np.inf),  # the unshifted exp(1000) overflows to inf, the answer
    ([-np.inf, 2.0], 2.0),
])
def test_logsumexp_of_infinite_inputs_is_exact_and_silent(row, expected):
    # x - max is NaN at an infinite max, so such a reduction is left unshifted
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = np.array([row, [0.0, 1.0]])
        out = Value(x).logsumexp(axis=1).data
        alone = Value(np.array(row)).logsumexp().item()
    assert out[0] == alone == expected
    assert out[1] == Value(x[1]).logsumexp().item()


@pytest.mark.parametrize("axis, keepdims", [(None, False), (0, False), (1, True), (-1, False)])
def test_logsumexp_of_finite_inputs_keeps_the_max_shift_bits(axis, keepdims):
    for shape in [(6, 5), (2048, 4, 2)]:  # reduce_axis chains the second's short axes
        x = np.random.default_rng(7).normal(scale=30.0, size=shape)
        x[0, 0], x[1] = -745.0, 700.0  # an exp that underflows; a row of equal large values
        m = np.max(x, axis=axis, keepdims=True)  # the plain max shift, as the reference
        data = np.asarray(np.log(np.sum(np.exp(x - m), axis=axis, keepdims=keepdims)))
        expected = data + (m if keepdims else m.reshape(data.shape))
        got = Value(x).logsumexp(axis=axis, keepdims=keepdims).data
        assert got.shape == expected.shape and np.array_equal(got, expected)


def test_softmax_gradients():
    x = Value(RNG.normal(size=(3, 4)) * 2.0, requires_grad=True)
    w = RNG.normal(size=(3, 4))
    fd_check(lambda: (x.softmax(axis=1) * w).sum(), [x])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_softmax_simplex_property(seed):
    rng = np.random.default_rng(seed)
    x = Value(rng.normal(size=(5,)) * rng.uniform(0.1, 50.0))
    s = x.softmax(axis=0).data
    assert np.all(s > 0.0)
    assert abs(s.sum() - 1.0) < 1e-9


def test_softmax_nan_raises():
    with pytest.raises(DomainError):
        Value(np.array([1.0, np.nan])).softmax(axis=0)
    with pytest.raises(DomainError):
        Value(np.array([1.0, np.nan])).logsumexp(axis=0)


def test_logsumexp_of_an_empty_array_raises():
    with pytest.raises(DomainError, match="logsumexp over an empty array"):
        Value(np.zeros(0)).logsumexp()


@pytest.mark.parametrize("shape, axis", [((0,), 0), ((0,), None), ((2, 0), 1)])
def test_softmax_of_an_empty_array_raises(shape, axis):
    with pytest.raises(DomainError, match="softmax over an empty array"):
        Value(np.zeros(shape)).softmax(axis=axis)


# -- backward semantics ------------------------------------------------------------


def test_backward_requires_scalar():
    x = Value(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_grad_accumulates_until_zeroed():
    x = Value(np.array([2.0]), requires_grad=True)
    (x * 3.0).sum().backward()
    (x * 3.0).sum().backward()
    assert np.allclose(x.grad, [6.0])
    zero_grad([x])
    (x * 3.0).sum().backward()
    assert np.allclose(x.grad, [3.0])


def test_backward_linearity():
    x = Value(RNG.normal(size=(3,)), requires_grad=True)

    def loss_a(v):
        return (v.exp() * np.array([1.0, -2.0, 0.5])).sum()

    def loss_b(v):
        return (v.tanh() * np.array([0.3, 1.0, -1.0])).sum()

    both = loss_a(x) + loss_b(x)
    both.backward()
    combined = x.grad.copy()

    zero_grad([x])
    loss_a(x).backward()
    ga = x.grad.copy()
    zero_grad([x])
    loss_b(x).backward()
    gb = x.grad.copy()

    assert np.allclose(combined, ga + gb, rtol=0, atol=1e-15)


def test_shared_subexpression_gradient():
    # y = x*x reused twice: d/dx (y + y) = 4x
    x = Value(np.array([3.0]), requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    assert np.allclose(x.grad, [12.0])


def backward_keeping_every_grad(root):
    """The walk that kept a gradient on every node: the reference for the leaves'."""
    flowing = {id(root): np.ones_like(root.data)}
    for node in reversed(_linearize(root)):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward is not None:
            node._backward(g, flowing)


def test_backward_keeps_gradients_on_leaves_only():
    def graph():
        # two layers, a shared subexpression, a broadcast bias and a constant operand
        w1 = Value(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
        b1 = Value(np.array([[0.1, -0.2, 0.3, 0.0]]), requires_grad=True)
        w2 = Value(np.linspace(0.5, -0.5, 8).reshape(4, 2), requires_grad=True)
        x = Value(np.random.default_rng(3).normal(size=(5, 3)))
        h = (x @ w1 + b1).elu()
        y = h @ w2
        loss = (y * y).sum() / 7.0 - h.tanh().mean() + (h - 1.0).softplus().sum()
        return loss, [w1, b1, w2]

    loss, leaves = graph()
    loss.backward()
    ref_loss, ref_leaves = graph()
    backward_keeping_every_grad(ref_loss)
    for leaf, ref in zip(leaves, ref_leaves):
        assert np.array_equal(leaf.grad, ref.grad)
    interior = [node for node in _linearize(loss) if node._backward is not None]
    assert len(interior) > 10
    assert all(node.grad is None for node in interior)


def test_deep_chain_does_not_recurse():
    x = Value(np.array([0.5]), requires_grad=True)
    out = x
    for _ in range(2000):
        out = out * 1.0001
    out.sum().backward()
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_no_grad_suppresses_graph():
    x = Value(np.ones(3), requires_grad=True)
    with no_grad():
        y = x.exp().sum()
    assert y.requires_grad is False
    assert y._parents == ()


def test_gradcheck_reports_a_nan_gradient():
    x = Value(np.array([1.0, 2.0]), requires_grad=True)
    err = check_gradients(lambda: (x * np.nan).sum(), [x], np.random.default_rng(0))
    assert np.isnan(err)


def test_float64_everywhere():
    v = Value(np.array([1, 2, 3], dtype=np.int64))
    assert v.data.dtype == np.float64
    assert (v + 1).data.dtype == np.float64
