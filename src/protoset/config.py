"""Flat key=value configuration for the command line tools.

One schema covers every experiment: dotted names group related knobs
(``sinkhorn.epsilon``, ``model.k``) but the file format stays a flat list of
``key = value`` lines.  Unknown keys are rejected by name, values are parsed
by declared type, and the resolved result hashes canonically so artifacts can
record exactly what produced them.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .metagan import CONDITIONING_MODES, FAMILIES
from .nn import ACTIVATIONS
from .ot.cost import METRICS
from .ot.sinkhorn import GRAD_MODES
from .summarynet import POOLINGS

TASKS = ("mog", "digitsum", "pointset", "fewshot", "metagan")
OPTIMIZERS = ("adam", "sgd")
ACTIVATION_NAMES = tuple(ACTIVATIONS)
TRAIN_MODES = ("supervised", "unsupervised")


@dataclass(frozen=True)
class ConfigField:
    """One schema entry: how to parse and validate a key's value."""

    kind: str  # int | float | str | bool | int_list | opt_float
    default: object
    choices: Optional[tuple] = None
    minimum: Optional[float] = None
    exclusive: bool = False  # minimum is a strict bound
    help: str = ""


def _field(kind, default, choices=None, minimum=None, exclusive=False, help=""):
    return ConfigField(kind, default, choices, minimum, exclusive, help)


# help of the shared train.* keys that fewshot and metagan never read
_ENCODER_ONLY = "read by mog, digitsum, pointset only"

SCHEMA: dict[str, ConfigField] = {
    # run-level
    "task": _field("str", "mog", choices=TASKS, help="which experiment to run"),
    "seed": _field("int", 0, minimum=0, help="training seed"),
    "out": _field("str", "runs", help="artifact directory"),
    "corpus": _field("str", "", help="input corpus path; empty generates in process"),
    "count": _field("int", 1000, minimum=1, help="sets to generate"),
    "eval.count": _field("int", 0, minimum=0, help="eval corpus size; 0 picks a task default"),
    "eval.seed": _field("int", 1000, minimum=0, help="seed for eval data"),
    # entropic solver
    "sinkhorn.epsilon": _field("float", 0.1, minimum=0.0, exclusive=True),
    "sinkhorn.tol": _field("float", 1e-6, minimum=0.0, exclusive=True),
    "sinkhorn.max_iters": _field("int", 500, minimum=1),
    "sinkhorn.unroll_iters": _field("int", 50, minimum=1),
    "sinkhorn.grad_mode": _field("str", "unrolled", choices=GRAD_MODES),
    # optimizer
    "optim.kind": _field("str", "adam", choices=OPTIMIZERS),
    "optim.lr": _field("float", 0.001, minimum=0.0, exclusive=True),
    "optim.lr_final": _field("opt_float", None, minimum=0.0, exclusive=True),
    # shared training knobs
    "train.steps": _field("int", 1000, minimum=1, help=_ENCODER_ONLY),
    "train.batch_sets": _field("int", 1, minimum=1, help=_ENCODER_ONLY),
    "train.batch_points": _field("int", 100, minimum=1, help=_ENCODER_ONLY),
    "train.metric": _field("str", "cosine", choices=METRICS, help=_ENCODER_ONLY),
    "train.lambda_ot": _field("opt_float", None, minimum=0.0),
    "train.log_every": _field("int", 0, minimum=0),
    "train.mode": _field("str", "supervised", choices=TRAIN_MODES, help=_ENCODER_ONLY),
    # set encoder (mog, digitsum, pointset)
    "model.k": _field("int", 50, minimum=1, help="number of prototypes"),
    "model.encoder_widths": _field("int_list", (128, 128, 128)),
    "model.activation": _field("str", "elu", choices=ACTIVATION_NAMES),
    "model.pooling": _field("str", "mean", choices=POOLINGS),
    "model.head_hidden": _field("int_list", (128,)),
    "model.predict_hidden": _field("int_list", (), help="empty reuses head_hidden"),
    # mixture regression
    "mog.components": _field("int", 4, minimum=1),
    "mog.n_min": _field("int", 100, minimum=1),
    "mog.n_max": _field("int", 500, minimum=1),
    "mog.sigma": _field("float", 0.3, minimum=0.0, exclusive=True),
    "mog.mean_low": _field("float", -4.0),
    "mog.mean_high": _field("float", 4.0),
    "mog.encode_cap": _field("int", 0, minimum=0, help="0 encodes full sets at eval"),
    # digit sums
    "digitsum.size": _field("int", 0, minimum=0, help="0 mixes training sizes"),
    "digitsum.max_train_size": _field("int", 10, minimum=1),
    "digitsum.test_sizes": _field("int_list", (10, 25, 50, 100)),
    "digitsum.noise_sigma": _field("float", 0.1, minimum=0.0),
    # shape classification
    "pointset.n_points": _field("int", 32, minimum=8),
    "pointset.noise_sigma": _field("float", 0.02, minimum=0.0),
    "pointset.count_per_class": _field("int", 60, minimum=1),
    "pointset.rotate": _field("bool", True),
    # episodic classification
    "fewshot.n_way": _field("int", 5, minimum=1),
    "fewshot.k_shot": _field("int", 5, minimum=1),
    "fewshot.q_queries": _field("int", 5, minimum=1),
    "fewshot.dim": _field("int", 20, minimum=1),
    "fewshot.encoder_widths": _field("int_list", (64, 32)),
    "fewshot.g_hidden": _field("int_list", (), help="empty picks the default head"),
    "fewshot.bank": _field("int", 16, minimum=1),
    "fewshot.episodes": _field("int", 10000, minimum=1),
    "fewshot.n_base": _field("int", 64, minimum=1),
    "fewshot.n_novel": _field("int", 20, minimum=1),
    "fewshot.sigma": _field("float", 1.0, minimum=0.0, exclusive=True),
    "fewshot.mean_low": _field("float", -5.0),
    "fewshot.mean_high": _field("float", 5.0),
    "fewshot.class_seed": _field("int", 0, minimum=0),
    "fewshot.activation": _field("str", "relu", choices=ACTIVATION_NAMES),
    "fewshot.metric": _field("str", "cosine", choices=METRICS),
    # conditional generation
    "metagan.family": _field("str", "gauss1d", choices=FAMILIES),
    "metagan.n_points": _field("int", 0, minimum=0, help="0 picks the family default"),
    "metagan.k": _field("int", 2, minimum=1, help="summary dimension"),
    "metagan.summary_widths": _field("int_list", (64, 64, 64)),
    "metagan.noise_dim": _field("int", 2, minimum=1),
    "metagan.generator_widths": _field("int_list", (64, 64, 64, 64)),
    "metagan.critic_widths": _field("int_list", (64, 64, 64, 64)),
    "metagan.conditioning": _field("str", "generator-only", choices=CONDITIONING_MODES),
    "metagan.eta_critic": _field("int", 1, minimum=1),
    "metagan.batch": _field("int", 50, minimum=1),
    "metagan.iterations": _field("int", 2000, minimum=1),
    "metagan.lr_generator": _field("float", 0.001, minimum=0.0, exclusive=True),
    "metagan.lr_critic": _field("float", 0.001, minimum=0.0, exclusive=True),
    "metagan.non_saturating": _field("bool", False),
    "metagan.mse_weight": _field("opt_float", None, minimum=0.0),
    "metagan.use_ot": _field("bool", True),
    "metagan.metric": _field("str", "euclidean", choices=METRICS),
}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {text!r}") from None


def parse_value(key: str, text: str):
    """Parse one raw string according to the schema; raises naming the key."""
    field = SCHEMA.get(key)
    if field is None:
        raise ConfigError(_unknown_key_message(key))
    text = text.strip()
    if field.kind == "int":
        return _parse_int(key, text)
    if field.kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key} expects a number, got {text!r}") from None
    if field.kind == "str":
        return text
    if field.kind == "bool":
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key} expects true or false, got {text!r}")
    if field.kind == "int_list":
        if not text:
            return ()
        return tuple(_parse_int(key, part) for part in text.split(","))
    if field.kind == "opt_float":
        if not text or text.lower() == "none":
            return None
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key} expects a number or none, got {text!r}") from None
    raise ConfigError(f"{key} has unhandled kind {field.kind!r}")  # pragma: no cover


def validate_value(key: str, value) -> None:
    field = SCHEMA[key]
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"{key} must be one of {field.choices}, got {value!r}")
    if field.minimum is not None and value is not None and field.kind != "int_list":
        if field.exclusive:
            if value <= field.minimum:
                raise ConfigError(f"{key} must be greater than {field.minimum}, got {value}")
        elif value < field.minimum:
            if field.kind == "int" and field.minimum == 1:
                raise ConfigError(f"{key} must be positive, got {value}")
            if field.kind == "int" and field.minimum == 0:
                raise ConfigError(f"{key} must be nonnegative, got {value}")
            raise ConfigError(f"{key} must be at least {field.minimum}, got {value}")
    if field.kind == "int_list" and any(w < 1 for w in value):
        raise ConfigError(f"{key} widths must be positive, got {value}")


def _unknown_key_message(key: str) -> str:
    close = difflib.get_close_matches(key, SCHEMA.keys(), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown config key {key!r}{hint}"


def render_value(value) -> str:
    """Inverse of parse_value, so resolved configs can be written back out."""
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ResolvedConfig:
    """Fully typed configuration with every key present."""

    def __init__(self, values: dict):
        self._values = dict(values)

    def __getitem__(self, key: str):
        if key not in self._values:
            raise ConfigError(_unknown_key_message(key))
        return self._values[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, ResolvedConfig) and self._values == other._values

    def as_dict(self) -> dict:
        """JSON-ready copy (tuples become lists)."""
        return {
            k: list(v) if isinstance(v, tuple) else v for k, v in sorted(self._values.items())
        }

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def header_lines(self) -> list[str]:
        """Comment block recording the resolved config, one key per line."""
        return [f"# {k} = {render_value(v)}" for k, v in sorted(self._values.items())]

    def with_overrides(self, overrides: dict) -> "ResolvedConfig":
        """New config with raw string overrides applied and validated."""
        values = dict(self._values)
        for key, raw in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(_unknown_key_message(key))
            value = parse_value(key, raw)
            validate_value(key, value)
            values[key] = value
        return ResolvedConfig(values)


def default_config() -> ResolvedConfig:
    return ResolvedConfig({k: f.default for k, f in SCHEMA.items()})


def read_config_file(path) -> dict[str, str]:
    """Raw key -> string pairs from a config file.

    Lines are ``key = value``; blank lines and ``#`` comment lines are
    skipped.  Duplicate keys are rejected since they are almost always typos.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    text = path.read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path.name}:{line_no}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path.name}:{line_no}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(
    file_values: dict | None = None, overrides: dict | None = None
) -> ResolvedConfig:
    """Defaults, then file values, then overrides; flags win.

    Both mappings carry raw strings.  Every key is checked against the schema
    and every value is parsed and validated.
    """
    resolved = default_config()
    if file_values:
        resolved = resolved.with_overrides(file_values)
    if overrides:
        resolved = resolved.with_overrides(overrides)
    return resolved


def config_from_json_dict(d: dict) -> ResolvedConfig:
    """Rebuild a resolved config from its as_dict form (checkpoints)."""
    values = {}
    for key, value in d.items():
        if key not in SCHEMA:
            raise ConfigError(_unknown_key_message(key))
        if isinstance(value, list):
            value = tuple(value)
        validate_value(key, value)
        values[key] = value
    for key, field in SCHEMA.items():
        values.setdefault(key, field.default)
    return ResolvedConfig(values)


def schema_help() -> str:
    """One line per key for --help output."""
    lines = []
    for key, field in sorted(SCHEMA.items()):
        extra = f"  ({field.help})" if field.help else ""
        lines.append(f"  {key} = {render_value(field.default)}{extra}")
    return "\n".join(lines)
