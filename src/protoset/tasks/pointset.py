"""Point-cloud classification over synthetic geometric primitives in R^3.

Eight shape families, each sampled as N surface points, randomly rotated and
jittered. The classifier never sees the same cloud twice; it must read shape
from the set as a whole, at whatever resolution N provides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import Value
from ..errors import ConfigError, bounded, check_fields
from ..summarynet import SetBatch

@dataclass(frozen=True)
class PointSetClassSpec:
    n_points: int = 32
    noise_sigma: float = bounded("nonnegative and finite", 0.02)
    count_per_class: int = bounded("positive", 60)
    rotate: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.n_points < 8:
            raise ConfigError(f"n_points must be at least 8, got {self.n_points}")


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _sphere(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _cube(n, rng):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    rows, axis = np.arange(n), face % 3
    others = np.array([[1, 2], [0, 2], [0, 1]])[axis]  # the other two axes, in order
    pts[rows, axis] = np.where(face < 3, 1.0, -1.0)
    pts[rows, others[:, 0]], pts[rows, others[:, 1]] = uv[:, 0], uv[:, 1]
    return pts


def _plane(n, rng):
    pts = np.zeros((n, 3))
    pts[:, :2] = rng.uniform(-1.0, 1.0, size=(n, 2))
    return pts


def _helix(n, rng):
    t = rng.uniform(0.0, 4.0 * np.pi, size=n)
    return np.stack([np.cos(t), np.sin(t), t / (2.0 * np.pi) - 1.0], axis=1)


def _torus(n, rng):
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = 1.0 + 0.35 * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), 0.35 * np.sin(v)], axis=1)


def _two_blob(n, rng):
    side = rng.integers(0, 2, size=n) * 2 - 1
    centers = np.zeros((n, 3))
    centers[:, 0] = 0.8 * side
    return centers + 0.15 * rng.normal(size=(n, 3))


def _segment(n, rng):
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    return pts


def _spiral(n, rng):
    theta = rng.uniform(0.0, 6.0 * np.pi, size=n)
    r = theta / (6.0 * np.pi)
    return np.stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)], axis=1)


_SAMPLERS = {
    "sphere_shell": _sphere,
    "cube_shell": _cube,
    "plane_patch": _plane,
    "helix": _helix,
    "torus": _torus,
    "two_blob": _two_blob,
    "line_segment": _segment,
    "spiral_disc": _spiral,
}
POINTSET_CLASSES = tuple(_SAMPLERS)  # a class's label is its index


def sample_primitive(name: str, n: int, rng: np.random.Generator,
                     noise_sigma: float = 0.0, rotate: bool = True) -> np.ndarray:
    if name not in _SAMPLERS:
        raise ConfigError(f"unknown primitive {name!r}; choose from {POINTSET_CLASSES}")
    pts = _SAMPLERS[name](n, rng)
    if rotate:
        pts = pts @ _rotation(rng).T
    if noise_sigma > 0:
        pts = pts + noise_sigma * rng.normal(size=pts.shape)
    return pts


def gen_pointset_corpus(spec: PointSetClassSpec, seed: int):
    """Balanced corpus: count_per_class sets per primitive, labels are class indices."""
    rng = np.random.default_rng(seed)
    corpus = []
    set_id = 0
    for rep in range(spec.count_per_class):
        for label, name in enumerate(POINTSET_CLASSES):
            pts = sample_primitive(name, spec.n_points, rng, spec.noise_sigma, spec.rotate)
            corpus.append(SetBatch(pts, set_id=set_id, label=label))
            set_id += 1
    return corpus


def xent_loss(logits: Value, points, label) -> Value:
    """Cross entropy of the integer ``label`` under softmax(logits)."""
    flat = logits.reshape((logits.data.size,))
    return flat.logsumexp() - flat[int(label)]
