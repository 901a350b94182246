"""Digit-sum set regression.

Each element is a noisy one-hot encoding of a digit 0-9; the label is the sum
of the digits. Training sets stay small (at most M elements) while test sets
grow past anything seen in training, probing length generalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import Value
from ..errors import bounded, check_fields
from ..summarynet import SetBatch

DIGIT_DIM = 10


@dataclass(frozen=True)
class DigitSumSpec:
    max_train_size: int = bounded("positive", 10)
    test_sizes: tuple = bounded("widths", (10, 25, 50, 100))
    noise_sigma: float = bounded("nonnegative and finite", 0.1)

    __post_init__ = check_fields


def _encode_digits(digits: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    points = np.zeros((digits.size, DIGIT_DIM))
    points[np.arange(digits.size), digits] = 1.0
    if sigma > 0:
        points += sigma * rng.normal(size=points.shape)
    return points


def _make_set(size: int, sigma: float, rng: np.random.Generator, set_id: int) -> SetBatch:
    digits = rng.integers(0, 10, size=size)
    return SetBatch(_encode_digits(digits, sigma, rng), set_id=set_id, label=int(digits.sum()))


def gen_digit_corpus(spec: DigitSumSpec, count: int, seed: int):
    """Training corpus of ``count`` sets: sizes uniform in [1, max_train_size]."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        size = int(rng.integers(1, spec.max_train_size + 1))
        corpus.append(_make_set(size, spec.noise_sigma, rng, i))
    return corpus


def gen_digit_test_corpora(spec: DigitSumSpec, count: int, seed: int):
    """One corpus of ``count`` sets per test size, as {size: [SetBatch, ...]}."""
    rng = np.random.default_rng(seed)
    corpora = {}
    for size in spec.test_sizes:
        corpora[size] = [_make_set(size, spec.noise_sigma, rng, i) for i in range(count)]
    return corpora


def digit_sum_loss(prediction: Value, batch: SetBatch) -> Value:
    """L1 distance between the scalar prediction and the integer sum."""
    diff = prediction.reshape((1,)) - float(batch.label)
    return (diff.relu() + (-diff).relu()).sum()


def digit_sum_accuracy(prediction: float, label: int) -> float:
    """1.0 if ``prediction`` rounds (half to even) to ``label``; a NaN or an
    infinity rounds to no whole number, so it misses."""
    return 1.0 if float(np.rint(prediction)) == int(label) else 0.0
