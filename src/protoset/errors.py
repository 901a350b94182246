"""Exception types shared across the package.

Every failure mode callers are expected to handle gets its own class so the
CLI can map them onto distinct exit codes.  ``read_text`` is the one reader of
input files, so that bytes that are not UTF-8 become one of them too, and
``strict_json`` the writer of corpus, checkpoint and report JSON, so that a
NaN or an infinity in them is a NumericalError, not a non-standard token.
"""

import json
from pathlib import Path


class ProtosetError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ProtosetError, ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ProtosetError, ValueError):
    """An input lies outside an operation's mathematical domain."""


class ConfigError(ProtosetError, ValueError):
    """A configuration key, value, or combination is invalid."""


class DegenerateInputError(ProtosetError, ValueError):
    """An input vector is numerically degenerate (e.g. zero norm under cosine cost)."""


class InvalidMarginalsError(ProtosetError, ValueError):
    """A marginal vector is not a valid strictly positive probability vector."""


class NumericalError(ProtosetError, ArithmeticError):
    """A computation produced non-finite intermediates it cannot recover from."""


class TrainingDivergedError(ProtosetError, ArithmeticError):
    """A training loss became non-finite; carries diagnostics in the message."""


class CheckpointError(ProtosetError, ValueError):
    """A checkpoint file is missing fields or cannot be parsed."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""


def read_text(path, error: type = ConfigError) -> str:
    """The UTF-8 text of ``path``; bytes that do not decode raise ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def strict_json(payload, what: str, **dumps) -> str:
    """``json.dumps`` with sorted keys, raising NumericalError naming ``what`` on a NaN or inf."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **dumps)
    except ValueError:
        pass
    raise NumericalError(f"{what} holds a NaN or infinite value, which JSON cannot hold")
