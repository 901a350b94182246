"""Exception types shared across the package.

Every failure mode callers are expected to handle gets its own class, and
each class carries the CLI's exit code for it in ``exit_code``: 2, or 4 for a
corrupt checkpoint, 5 for a checkpoint format mismatch and 6 for a numerical
failure.  ``read_text`` is the one reader of
input files, so that bytes that are not UTF-8 become one of them too, and
``strict_json`` the writer of corpus, checkpoint and report JSON, so that a
NaN or an infinity in them is a NumericalError, not a non-standard token.
``check_bound`` is the one check of a value against its declared bound: the
``bounded`` fields of the config dataclasses and the config keys that no
dataclass holds share its words and its messages; ``check_box`` is the one
check of a mean box, which the mog and fewshot recipes draw from.
"""

import json
import math
import numbers
from dataclasses import MISSING, field, fields
from pathlib import Path


class ProtosetError(Exception):
    """Base class for all package-specific errors: bad configuration or input, exit 2."""

    exit_code = 2


class ShapeError(ProtosetError, ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ProtosetError, ValueError):
    """An input lies outside an operation's mathematical domain."""


class ConfigError(ProtosetError, ValueError):
    """A configuration key, value, or combination is invalid."""


class DegenerateInputError(DomainError):
    """An input vector is numerically degenerate (e.g. zero norm under cosine cost)."""


class InvalidMarginalsError(ProtosetError, ValueError):
    """A marginal vector is not a valid strictly positive probability vector."""


class NumericalError(ProtosetError, ArithmeticError):
    """A computation produced non-finite intermediates it cannot recover from."""

    exit_code = 6


class TrainingDivergedError(ProtosetError, ArithmeticError):
    """A training loss became non-finite; carries diagnostics in the message."""

    exit_code = 6


class CheckpointError(ProtosetError, ValueError):
    """A checkpoint file is missing fields or cannot be parsed."""

    exit_code = 4


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""

    exit_code = 5


# the bound words of numbers: "positive" and "nonnegative" bound ints
BOUNDS = {
    "positive": lambda v: v >= 1,
    "nonnegative": lambda v: v >= 0,
    "positive and finite": lambda v: 0 < v < math.inf,
    "nonnegative and finite": lambda v: 0 <= v < math.inf,
    "finite": math.isfinite,
}


def check_bound(name: str, value, bound, optional: bool = False):
    """``value``, or a ConfigError ``{name} must be ..., got ...`` if it breaks ``bound``.

    ``bound`` is a word of BOUNDS, a tuple of the allowed values, or "widths":
    one positive int or a nonempty tuple of them, returned as a tuple.  None
    passes only an ``optional`` bound.
    """
    if value is None and optional:
        return value
    if isinstance(bound, tuple):
        if value not in bound:
            raise ConfigError(f"{name} must be one of {bound}, got {value!r}")
        return value
    if bound == "widths":
        widths = (value,) if isinstance(value, int) else tuple(value)
        if not widths or any(not isinstance(w, int) or w < 1 for w in widths):
            raise ConfigError(f"{name} must be a positive int or tuple of them, got {value!r}")
        return widths
    try:
        ok = BOUNDS[bound](value)
    except TypeError:  # None, or no number
        ok = False
    if not ok:
        shown = value if isinstance(value, numbers.Real) else repr(value)
        raise ConfigError(f"{name} must be {bound}, got {shown}")
    return value


def bounded(bound, default=MISSING, optional: bool = False):
    """A dataclass field that ``check_fields`` holds to ``bound`` (see ``check_bound``)."""
    return field(default=default, metadata={"bound": bound, "optional": optional})


def check_fields(obj) -> None:
    """Check the ``bounded`` fields of the dataclass ``obj`` in order; widths become tuples."""
    for f in fields(obj):
        if "bound" in f.metadata:
            value = check_bound(f.name, getattr(obj, f.name), **f.metadata)
            object.__setattr__(obj, f.name, value)


def check_box(obj) -> None:
    """Refuse the box [``obj.mean_low``, ``obj.mean_high``] of a config dataclass
    whose bounds are out of order or whose width is no finite float, which
    numpy's uniform draw cannot take."""
    low, high = obj.mean_low, obj.mean_high
    if low > high:
        raise ConfigError(f"mean_low={low} must not exceed mean_high={high}")
    if not math.isfinite(high - low):
        raise ConfigError(f"mean_low={low} and mean_high={high} are further apart than "
                          f"the largest float")


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
