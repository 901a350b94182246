"""The one array codec: a float64 array as its shape and the base64 of its bytes.

A record is ``{"shape": [...], "data": "..."}``, where ``data`` is the
standard base64 of the array's C-order little-endian float64 bytes.  Every
value comes back bit for bit, and writing or reading it takes a fraction of
the time that the same values take as decimal JSON numbers.  Checkpoints store
their parameters this way, and corpora their sets' points.

Decoding is strict: a shape that is not a list of non-negative integers (a
JSON ``true`` is none), data that is not a base64 string, decodes to a byte
count other than 8 per element of the shape, or holds a NaN or an infinity
raises ArrayRecordError, which each caller turns into its own error.  Encoding
refuses a non-finite array, since nothing in the opaque bytes would show it.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .errors import NumericalError

FLOAT = np.dtype("<f8")  # the stored element: little-endian float64


class ArrayRecordError(ValueError):
    """A record that is not the base64 of finite float64 values of its shape."""


def encode_array(array, what: str) -> dict:
    """The record of ``array``; a NaN or an infinity raises NumericalError naming ``what``."""
    a = np.asarray(array, dtype=FLOAT)
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} holds a NaN or an infinity; nothing written")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(record) -> np.ndarray:
    """A writable float64 array read from ``record``; the error says what is wrong with it."""
    if not isinstance(record, dict) or "shape" not in record or "data" not in record:
        raise ArrayRecordError("is missing shape or data")
    shape = record["shape"]
    data = record["data"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ArrayRecordError(f"has a malformed shape {shape!r}")
    if not isinstance(data, str):
        raise ArrayRecordError("data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ArrayRecordError("data is not valid base64") from None
    expected = FLOAT.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise ArrayRecordError(
            f"carries {len(raw)} bytes but its shape {tuple(shape)} needs {expected}"
        )
    array = np.frombuffer(raw, dtype=FLOAT).astype(np.float64)  # a writable copy
    if not np.isfinite(array).all():
        raise ArrayRecordError("holds an entry that is not a finite number")
    return array.reshape(shape)
