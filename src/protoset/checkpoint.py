"""Versioned JSON checkpoints: named parameter arrays, step and config.

A checkpoint holds what eval rebuilds a model from and nothing else: no
optimizer state, so training cannot resume from one.

The payload is a single JSON object with sorted keys and no whitespace, so the
config, its hash and the step stay readable and a save -> load -> save round
trip reproduces the file byte for byte.  Each array is stored as an
``arraycodec`` record: its shape and the standard base64 of its C-order
little-endian float64 bytes, so every value comes back bit for bit.  Loading is
strict: a record the codec refuses makes the checkpoint corrupt.  Saving
refuses a non-finite parameter before anything is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .arraycodec import ArrayRecordError, decode_array, encode_array
from .diffcore import Value
from .errors import CheckpointError, CheckpointVersionError, read_text, strict_json

FORMAT_VERSION = 4


@dataclass
class Checkpoint:
    """Loaded checkpoint contents."""

    params: dict  # name -> np.ndarray
    step: int
    config: dict  # resolved config in JSON form
    config_hash: str


def save_checkpoint(path, params: dict, step: int, config: dict, config_hash: str) -> None:
    """Write a checkpoint; parameter values may be arrays or Value nodes."""
    arrays = {}
    for name, p in params.items():
        arrays[name] = encode_array(p.data if isinstance(p, Value) else p, f"parameter {name!r}")
    payload = {
        "format_version": FORMAT_VERSION,
        "step": int(step),
        "config": config,
        "config_hash": str(config_hash),
        "params": arrays,
    }
    text = strict_json(payload, "the checkpoint config", separators=(",", ":"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    params = {}
    for name, record in raw_params.items():
        try:
            params[name] = decode_array(record)
        except ArrayRecordError as exc:
            raise CheckpointError(f"array {name!r} {exc}") from None
    step = payload["step"]
    if type(step) is not int or step < 0:  # JSON true is no step
        raise CheckpointError(f"{path.name} has a malformed step {step!r}")
    if not isinstance(payload["config"], dict):
        raise CheckpointError(f"{path.name} config must be an object")
    return Checkpoint(
        params=params,
        step=step,
        config=payload["config"],
        config_hash=payload["config_hash"],
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
