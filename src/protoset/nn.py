"""Small fully-connected building blocks shared by every model.

Weights use uniform fan-balanced init (+-sqrt(6 / (fan_in + fan_out))), biases
start at zero.  Layers operate on row-batches: input (N, in) -> output (N, out).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .diffcore import Value
from .errors import ConfigError

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
    """Affine map x @ W + b with trainable W (in, out) and b (out,)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Value(fan_balanced_uniform(rng, in_dim, out_dim), requires_grad=True)
        self.bias = Value(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Value) -> Value:
        return x @ self.weight + self.bias

    def parameters(self) -> list[Value]:
        return [self.weight, self.bias]


class MLP:
    """Stack of Linear layers with a fixed activation between them.

    ``dims`` lists every width including input and output; the final layer is
    linear (no activation) so heads can shape their own output.
    """

    def __init__(self, dims: Sequence[int], activation: str, rng: np.random.Generator):
        if len(dims) < 2:
            raise ConfigError(f"MLP needs at least input and output widths, got {dims}")
        if any(d < 1 for d in dims):
            raise ConfigError(f"MLP widths must be positive, got {dims}")
        if activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {activation!r} (expected one of {sorted(ACTIVATIONS)})"
            )
        self.dims = tuple(int(d) for d in dims)
        self._act = ACTIVATIONS[activation]
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def __call__(self, x: Value) -> Value:
        out = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            out = layer(out)
            if i != last:
                out = self._act(out)
        return out

    def parameters(self) -> list[Value]:
        return [p for layer in self.layers for p in layer.parameters()]

    def named_parameters(self, prefix: str) -> dict[str, Value]:
        out: dict[str, Value] = {}
        for i, layer in enumerate(self.layers):
            out[f"{prefix}.{i}.weight"] = layer.weight
            out[f"{prefix}.{i}.bias"] = layer.bias
        return out
