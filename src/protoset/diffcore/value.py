"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Value`` wraps a numpy array and remembers how it was produced.  The graph
is recorded as each operation runs (define-by-run); ``backward`` linearizes it
into topological order and walks it once in reverse, accumulating the
gradients of its leaves.
All arithmetic is float64 and domain violations raise instead of producing
silent NaN.

Two kernels save passes over memory and keep numpy's bits.  ``elu`` is
``maximum(x, expm1(minimum(x, 0)))``, three ufunc passes into one array:
``expm1(x) >= x`` for ``x <= 0``, so the max picks ``x`` exactly where
``x > 0``, and its slope is read back from the output as
``minimum(out, 0) + 1``.  ``sum`` and ``logsumexp`` reduce through
``reduce_axis``: numpy reduces an axis shorter than 8 from left to right, add
starting from +0.0, so on a large array such an axis is reduced as that same
chain of whole-array ufuncs, one per slice, instead of in numpy's many short
inner loops.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, ShapeError

_grad_enabled = True

# the limits of reduce_axis's chain: below CHAIN_MIN_SIZE entries one reduce is faster
CHAIN_AXIS_LIMIT = 8
CHAIN_MIN_SIZE = 4096


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _asarray(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def reduce_axis(ufunc, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """``ufunc.reduce(x, axis, keepdims=keepdims)`` as an array, bit for bit, for
    ``np.add`` and ``np.maximum``.

    numpy reduces an axis shorter than 8 from left to right, add from +0.0, in
    many short inner loops.  On an array of at least ``CHAIN_MIN_SIZE`` entries,
    an int ``axis`` shorter than ``CHAIN_AXIS_LIMIT`` is reduced as that same
    chain of whole-array ufuncs, one per slice, several times faster.
    """
    if (type(axis) is not int or x.size < CHAIN_MIN_SIZE or not -x.ndim <= axis < x.ndim
            or x.shape[axis] >= CHAIN_AXIS_LIMIT):
        return np.asarray(ufunc.reduce(x, axis=axis, keepdims=keepdims))
    parts = np.moveaxis(x, axis, 0)
    out = parts[0].copy() if len(parts) == 1 else ufunc(parts[0], parts[1])
    for part in parts[2:]:
        ufunc(out, part, out=out)
    if ufunc is np.add:
        out += 0.0  # the reduce's +0.0 start: a slice of all -0.0 sums to +0.0
    return np.expand_dims(out, axis) if keepdims else out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Value:
    """A node in the differentiation graph holding a float64 array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward) -> "Value":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if recording(parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element Value, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise binary ---------------------------------------------------

    def __add__(self, other):
        other = as_value(other)
        data = _broadcast_op(self, other, np.add)
        xs, ys = self.data.shape, other.data.shape

        def backward(g, acc):
            if self.requires_grad:
                _accumulate(acc, self, _unbroadcast(g, xs))
            if other.requires_grad:
                _accumulate(acc, other, _unbroadcast(g, ys))

        return Value._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_value(other)
        data = _broadcast_op(self, other, np.subtract)
        xs, ys = self.data.shape, other.data.shape

        def backward(g, acc):
            if self.requires_grad:
                _accumulate(acc, self, _unbroadcast(g, xs))
            if other.requires_grad:
                _accumulate(acc, other, _unbroadcast(-g, ys))

        return Value._from_op(data, (self, other), backward)

    def __rsub__(self, other):
        return as_value(other).__sub__(self)

    def __mul__(self, other):
        other = as_value(other)
        data = _broadcast_op(self, other, np.multiply)
        x, y = self, other

        def backward(g, acc):
            if x.requires_grad:
                _accumulate(acc, x, _unbroadcast(g * y.data, x.data.shape))
            if y.requires_grad:
                _accumulate(acc, y, _unbroadcast(g * x.data, y.data.shape))

        return Value._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_value(other)
        if np.any(other.data == 0.0):
            raise DomainError("division by zero")
        data = _broadcast_op(self, other, np.divide)
        x, y = self, other

        def backward(g, acc):
            if x.requires_grad:
                _accumulate(acc, x, _unbroadcast(g / y.data, x.data.shape))
            if y.requires_grad:
                _accumulate(acc, y, _unbroadcast(-g * data / y.data, y.data.shape))

        return Value._from_op(data, (self, other), backward)

    def __neg__(self):
        def backward(g, acc):
            _accumulate(acc, self, -g)

        return Value._from_op(-self.data, (self,), backward)

    # -- elementwise unary ----------------------------------------------------

    def exp(self):
        data = np.exp(self.data)

        def backward(g, acc):
            _accumulate(acc, self, g * data)

        return Value._from_op(data, (self,), backward)

    def log(self):
        if np.any(self.data <= 0.0):
            raise DomainError("log of a non-positive value")
        data = np.log(self.data)

        def backward(g, acc):
            _accumulate(acc, self, g / self.data)

        return Value._from_op(data, (self,), backward)

    def sqrt(self):
        if np.any(self.data < 0.0):
            raise DomainError("sqrt of a negative value")
        data = np.sqrt(self.data)

        def backward(g, acc):
            _accumulate(acc, self, g * (0.5 / np.maximum(data, np.finfo(np.float64).tiny)))

        return Value._from_op(data, (self,), backward)

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g, acc):
            _accumulate(acc, self, g * (1.0 - data * data))

        return Value._from_op(data, (self,), backward)

    def relu(self):
        data = np.maximum(self.data, 0.0)

        def backward(g, acc):  # the mask is made here, so a no_grad forward skips it
            _accumulate(acc, self, g * (self.data > 0.0))

        return Value._from_op(data, (self,), backward)

    def elu(self):
        # alpha fixed at 1.0; expm1(x) >= x for x <= 0, so the max selects without a mask
        data = np.minimum(self.data, 0.0)
        np.expm1(data, out=data)
        np.maximum(self.data, data, out=data)

        def backward(g, acc):  # the slope exp(x) is the output plus 1 where x <= 0
            slope = np.minimum(data, 0.0)
            slope += 1.0
            _accumulate(acc, self, np.multiply(g, slope, out=slope))

        return Value._from_op(data, (self,), backward)

    def softplus(self):
        x = self.data
        data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

        def backward(g, acc):
            _accumulate(acc, self, g * _sigmoid(x))

        return Value._from_op(data, (self,), backward)

    def clip(self, lo: float | None, hi: float | None):
        """Clamp entries to [lo, hi]; gradient is zero outside the open interval."""
        data = np.clip(self.data, lo, hi)
        inside = np.ones(self.data.shape, dtype=bool)
        if lo is not None:
            inside &= self.data > lo
        if hi is not None:
            inside &= self.data < hi

        def backward(g, acc):
            _accumulate(acc, self, g * inside)

        return Value._from_op(data, (self,), backward)

    # -- linear algebra ---------------------------------------------------------

    def __matmul__(self, other):
        other = as_value(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul needs two 2-D operands, got {self.data.shape} @ {other.data.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul inner dimensions differ: {self.data.shape} @ {other.data.shape}"
            )
        data = self.data @ other.data
        x, y = self, other

        def backward(g, acc):
            if x.requires_grad:
                _accumulate(acc, x, g @ y.data.T)
            if y.requires_grad:
                _accumulate(acc, y, x.data.T @ g)

        return Value._from_op(data, (self, other), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = reduce_axis(np.add, self.data, axis, keepdims)
        shape = self.data.shape

        def backward(g, acc):
            _accumulate(acc, self, np.broadcast_to(_restore_axes(g, shape, axis, keepdims), shape).copy())

        return Value._from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = _reduce_count(self.data.shape, axis)
        data = np.asarray(self.data.mean(axis=axis, keepdims=keepdims))
        shape = self.data.shape

        def backward(g, acc):
            spread = np.broadcast_to(_restore_axes(g, shape, axis, keepdims), shape)
            _accumulate(acc, self, spread / count)

        return Value._from_op(data, (self,), backward)

    def max(self, axis: int, keepdims: bool = False):
        if self.data.size == 0:
            raise DomainError("max over an empty array")
        data = np.asarray(self.data.max(axis=axis, keepdims=keepdims))
        idx = np.expand_dims(np.argmax(self.data, axis=axis), axis)  # first on ties
        shape = self.data.shape

        def backward(g, acc):
            full = np.zeros(shape)
            np.put_along_axis(full, idx, _restore_axes(g, shape, axis, keepdims), axis)
            _accumulate(acc, self, full)

        return Value._from_op(data, (self,), backward)

    # -- stabilized composites kept primitive for speed --------------------------

    def logsumexp(self, axis=None, keepdims: bool = False):
        x = self.data
        if x.size == 0:
            raise DomainError("logsumexp over an empty array")
        if np.isnan(x).any():
            raise DomainError("logsumexp of NaN input")
        m = reduce_axis(np.maximum, x, axis, keepdims=True)
        # shift by a finite max only: x - inf is NaN, and unshifted, a reduction whose
        # max is -inf sums to 0 and one whose max is +inf to inf, whose logs are the answer
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore", over="ignore"):  # only those two can warn
            data = np.asarray(np.log(reduce_axis(np.add, np.exp(x - m), axis, keepdims)))
        data = data + (m if keepdims else m.reshape(data.shape))
        shape = x.shape

        def backward(g, acc):
            out_full = _restore_axes(np.asarray(data), shape, axis, keepdims)
            g_full = _restore_axes(np.asarray(g), shape, axis, keepdims)
            _accumulate(acc, self, g_full * np.exp(x - out_full))

        return Value._from_op(data, (self,), backward)

    def softmax(self, axis=None):
        x = self.data
        if x.size == 0:
            raise DomainError("softmax over an empty array")
        if np.isnan(x).any():
            raise DomainError("softmax of NaN input")
        m = np.max(x, axis=axis, keepdims=True)
        e = np.exp(x - m)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward(g, acc):
            inner = (g * data).sum(axis=axis, keepdims=True)
            _accumulate(acc, self, data * (g - inner))

        return Value._from_op(data, (self,), backward)

    # -- shaping ------------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            data = self.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(str(exc)) from None
        data = np.ascontiguousarray(data)
        orig = self.data.shape

        def backward(g, acc):
            _accumulate(acc, self, g.reshape(orig))

        return Value._from_op(data, (self,), backward)

    def __getitem__(self, idx):
        try:
            data = np.array(self.data[idx])
        except IndexError as exc:
            raise ShapeError(str(exc)) from None
        shape = self.data.shape

        def backward(g, acc):
            full = np.zeros(shape)
            np.add.at(full, idx, g)
            _accumulate(acc, self, full)

        return Value._from_op(data, (self,), backward)

    # -- backward ------------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf that requires gradients.

        Only leaves (Values that no recorded op produced, such as parameters)
        keep a ``grad``; an interior node's gradient flows to its parents and
        is dropped.  Repeated calls accumulate; use ``zero_grad`` between steps.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _linearize(self)
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = flowing.pop(id(node))  # every node below the root got one from a child
            if node._backward is not None:
                node._backward(g, flowing)
            elif node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g


def recording(parents: Sequence[Value]) -> bool:
    """Whether an op over ``parents`` is recorded on the graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _linearize(root: Value) -> list[Value]:
    """Topological order of the graph below ``root`` (parents before children)."""
    order: list[Value] = []
    visited = {id(root)}
    stack: list[tuple[Value, Iterable[Value]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _accumulate(acc: dict, node: Value, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    key = id(node)
    held = acc.get(key)
    acc[key] = g if held is None else held + g


def _broadcast_op(x: Value, y: Value, ufunc) -> np.ndarray:
    try:
        return ufunc(x.data, y.data)
    except ValueError:
        raise ShapeError(
            f"operands are not broadcastable: {x.data.shape} vs {y.data.shape}"
        ) from None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reduce_count(shape: tuple, axis) -> float:
    if axis is None:
        return float(int(np.prod(shape)))
    if isinstance(axis, int):
        return float(shape[axis])
    return float(int(np.prod([shape[a] for a in axis])))


def _restore_axes(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts back over ``shape``."""
    g = np.asarray(g)
    if axis is None:
        return g.reshape((1,) * len(shape))
    if keepdims:
        return g
    return np.expand_dims(g, axis)


def as_value(x) -> Value:
    """Wrap scalars / arrays as constant Values; pass Values through."""
    if isinstance(x, Value):
        return x
    return Value(x)


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    """Concatenate Values along an existing axis."""
    vals = [as_value(v) for v in values]
    try:
        data = np.concatenate([v.data for v in vals], axis=axis)
    except ValueError as exc:
        raise ShapeError(str(exc)) from None
    sizes = [v.data.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def backward(g, acc):
        for v, lo, hi in zip(vals, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(acc, v, np.ascontiguousarray(g[tuple(sl)]))

    return Value._from_op(data, tuple(vals), backward)


def zero_grad(params: Iterable[Value]) -> None:
    for p in params:
        p.grad = None
