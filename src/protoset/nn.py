"""Small fully-connected building blocks shared by every model.

Weights use uniform fan-balanced init (+-sqrt(6 / (fan_in + fan_out))), biases
start at zero.  Layers operate on row-batches: input (N, in) -> output (N, out).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .diffcore import Value
from .diffcore.value import _accumulate
from .errors import ShapeError

ACTIVATIONS: dict[str, Callable[[Value], Value]] = {
    "relu": lambda v: v.relu(),
    "elu": lambda v: v.elu(),
    "tanh": lambda v: v.tanh(),
    "softplus": lambda v: v.softplus(),
}


def fan_balanced_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Affine map x @ W + b with trainable W (in, out) and b (out,).

    The map is one tape node: its forward adds the bias into the product in
    place, and its backward takes the products and the bias sum that ``@``
    and ``+`` would, skipping each one whose operand records no gradient.
    The values are bit for bit those of ``x @ W + b``.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Value(fan_balanced_uniform(rng, in_dim, out_dim), requires_grad=True)
        self.bias = Value(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Value) -> Value:
        w, b = self.weight, self.bias
        if x.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"Linear expects a (batch, {w.shape[0]}) input, got shape {x.shape}")
        data = x.data @ w.data
        data += b.data

        def backward(g, acc):
            if x.requires_grad:
                _accumulate(acc, x, g @ w.data.T)
            if w.requires_grad:
                _accumulate(acc, w, x.data.T @ g)
            if b.requires_grad:
                _accumulate(acc, b, g.sum(axis=0))

        return Value._from_op(data, (x, w, b), backward)


class MLP:
    """Stack of Linear layers with a fixed activation between them.

    ``dims`` lists every width including input and output; the final layer is
    linear (no activation) so heads can shape their own output.
    """

    def __init__(self, dims: Sequence[int], activation: str, rng: np.random.Generator):
        self.dims = tuple(int(d) for d in dims)
        self._act = ACTIVATIONS[activation]
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def __call__(self, x: Value) -> Value:
        return self.layers[-1](self.hidden(x))

    def hidden(self, x: Value) -> Value:
        """Every layer but the last, each followed by the activation: (N, in) -> (N, dims[-2])."""
        for layer in self.layers[:-1]:
            x = self._act(layer(x))
        return x

    def parameters(self) -> list[Value]:
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]

    def named_parameters(self, prefix: str) -> dict[str, Value]:
        out: dict[str, Value] = {}
        for i, layer in enumerate(self.layers):
            out[f"{prefix}.{i}.weight"] = layer.weight
            out[f"{prefix}.{i}.bias"] = layer.bias
        return out
