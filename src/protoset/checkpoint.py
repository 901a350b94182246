"""Versioned JSON checkpoints: named parameter arrays, step and config.

A checkpoint holds what eval rebuilds a model from and nothing else: no
optimizer state, so training cannot resume from one.

The payload is a single JSON object with sorted keys and no whitespace, so a
save -> load -> save round trip reproduces the file byte for byte (floats are
written in shortest round-trip form).  Arrays are stored flat with an explicit
shape; loading restores float64 exactly, and an entry that is not a finite
number makes the checkpoint corrupt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffcore import Value
from .errors import CheckpointError, CheckpointVersionError, read_text

FORMAT_VERSION = 2


def _array_record(array: np.ndarray) -> dict:
    a = np.asarray(array, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def _array_from_record(name: str, record) -> np.ndarray:
    if not isinstance(record, dict) or "shape" not in record or "data" not in record:
        raise CheckpointError(f"array {name!r} is missing shape or data")
    shape = record["shape"]
    data = record["data"]
    if not isinstance(shape, list) or not all(isinstance(s, int) and s >= 0 for s in shape):
        raise CheckpointError(f"array {name!r} has a malformed shape {shape!r}")
    expected = int(np.prod(shape)) if shape else 1
    if not isinstance(data, list) or len(data) != expected:
        raise CheckpointError(
            f"array {name!r} carries {len(data) if isinstance(data, list) else '?'} "
            f"values but its shape {tuple(shape)} needs {expected}"
        )
    try:
        array = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != 1:  # a word, an object or a nested list
        raise CheckpointError(f"array {name!r} holds an entry that is not a number")
    if not np.isfinite(array).all():  # NaN, Infinity, or null, which reads as NaN
        raise CheckpointError(f"array {name!r} holds an entry that is not a finite number")
    return array.reshape(shape)


@dataclass
class Checkpoint:
    """Loaded checkpoint contents."""

    params: dict  # name -> np.ndarray
    step: int
    config: dict  # resolved config in JSON form
    config_hash: str
    format_version: int = FORMAT_VERSION


def save_checkpoint(path, params: dict, step: int, config: dict, config_hash: str) -> None:
    """Write a checkpoint; parameter values may be arrays or Value nodes."""
    if step < 0:
        raise CheckpointError(f"step must be nonnegative, got {step}")
    arrays = {}
    for name, p in params.items():
        arrays[name] = _array_record(p.data if isinstance(p, Value) else p)
    payload = {
        "format_version": FORMAT_VERSION,
        "step": int(step),
        "config": config,
        "config_hash": str(config_hash),
        "params": arrays,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")


_REQUIRED = ("format_version", "step", "config", "config_hash", "params")


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises FileNotFoundError when the path is missing, CheckpointVersionError
    on a format we do not read, and CheckpointError on anything malformed.
    """
    path = Path(path)
    text = read_text(path, CheckpointError)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path.name} is not a checkpoint: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path.name} is not a checkpoint: expected an object")
    version = payload.get("format_version")
    if version is None:
        raise CheckpointError(f"{path.name} is missing format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path.name} uses checkpoint format {version!r}; this build reads {FORMAT_VERSION}"
        )
    for key in _REQUIRED:
        if key not in payload:
            raise CheckpointError(f"{path.name} is missing field {key!r}")
    raw_params = payload["params"]
    if not isinstance(raw_params, dict):
        raise CheckpointError(f"{path.name} params must be a name -> array mapping")
    params = {name: _array_from_record(name, rec) for name, rec in raw_params.items()}
    step = payload["step"]
    if not isinstance(step, int) or step < 0:
        raise CheckpointError(f"{path.name} has a malformed step {step!r}")
    if not isinstance(payload["config"], dict):
        raise CheckpointError(f"{path.name} config must be an object")
    return Checkpoint(
        params=params,
        step=step,
        config=payload["config"],
        config_hash=payload["config_hash"],
        format_version=version,
    )


def assign_parameters(named: dict, saved: dict) -> None:
    """Copy saved arrays into live Value parameters, matching names exactly."""
    missing = sorted(set(named) - set(saved))
    extra = sorted(set(saved) - set(named))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise CheckpointError("parameter names do not match: " + "; ".join(parts))
    for name, value in named.items():
        array = saved[name]
        if value.data.shape != array.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {value.data.shape} "
                f"but the checkpoint stores {array.shape}"
            )
        value.data[...] = array
