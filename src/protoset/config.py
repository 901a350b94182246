"""Flat key=value configuration for the command line tools.

One schema covers every experiment: dotted names group related knobs
(``sinkhorn.epsilon``, ``model.k``) but the file format stays a flat list of
``key = value`` lines.  Unknown keys are rejected by name, values are parsed
by declared type, and the resolved result hashes canonically so artifacts can
record exactly what produced them.

Most keys are a field of a library dataclass, their owner, whose field gives
the default and whose ``__post_init__`` gives the bounds.  The key set is
still listed row by row: it is part of every artifact's header.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Optional

from .errors import CheckpointError, ConfigError, read_text
from .fewshot import EpisodeSpec, FewShotConfig
from .metagan import GanConfig, TaskFamilySpec
from .ot.cost import METRICS
from .ot.sinkhorn import SinkhornConfig
from .protolearn import TrainConfig
from .summarynet import SummaryNetConfig, _as_widths
from .tasks import DigitSumSpec, MoGTaskSpec, PointSetClassSpec

TASKS = ("mog", "digitsum", "pointset", "fewshot", "metagan")
TRAIN_MODES = ("supervised", "unsupervised")

_KINDS = {bool: "bool", int: "int", float: "float", str: "str", tuple: "int_list"}


@dataclass(frozen=True)
class ConfigField:
    """One schema entry: a key's kind and default, and where its bounds live.

    An owned key is field ``attr`` of dataclass ``owner``, which checks it; a
    key with no owner is checked against ``choices`` and ``minimum``.
    """

    kind: str  # int | float | str | bool | int_list | opt_float
    default: object
    choices: Optional[tuple] = None
    minimum: Optional[int] = None
    help: str = ""
    owner: Optional[type] = None
    attr: str = ""


def _field(kind, default, choices=None, minimum=None, help=""):
    """A key that no library dataclass holds."""
    return ConfigField(kind, default, choices, minimum, help)


def _of(owner, attr: str, default=MISSING, help=""):
    """The key for ``owner.attr``: default from the field, kind from the default."""
    if default is MISSING:
        default = owner.__dataclass_fields__[attr].default
    kind = "opt_float" if default is None else _KINDS[type(default)]
    return ConfigField(kind, default, help=help, owner=owner, attr=attr)


# help of the shared train.* keys that fewshot and metagan never read
_ENCODER_ONLY = "read by mog, digitsum, pointset only"
_NOT_METAGAN = "not read by metagan"

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
    "sinkhorn.epsilon": _of(SinkhornConfig, "epsilon"),
    "sinkhorn.tol": _of(SinkhornConfig, "tol"),
    "sinkhorn.max_iters": _of(SinkhornConfig, "max_iters"),
    "sinkhorn.unroll_iters": _of(SinkhornConfig, "unroll_iters"),
    "sinkhorn.grad_mode": _of(SinkhornConfig, "grad_mode"),
    # optimizer
    "optim.kind": _of(TrainConfig, "optimizer"),
    "optim.lr": _of(TrainConfig, "lr"),
    "optim.lr_final": _of(TrainConfig, "lr_final", help=_NOT_METAGAN),
    # shared training knobs
    "train.steps": _of(TrainConfig, "steps", help=_ENCODER_ONLY),
    "train.batch_sets": _of(TrainConfig, "batch_sets", help=_ENCODER_ONLY),
    "train.batch_points": _of(TrainConfig, "batch_points", help=_ENCODER_ONLY),
    "train.metric": _of(TrainConfig, "metric", help=_ENCODER_ONLY),
    "train.lambda_ot": _of(TrainConfig, "lambda_ot", help=_NOT_METAGAN),
    "train.log_every": _of(TrainConfig, "log_every"),
    "train.mode": _field("str", "supervised", choices=TRAIN_MODES, help=_ENCODER_ONLY),
    # set encoder (mog, digitsum, pointset)
    "model.k": _of(SummaryNetConfig, "n_prototypes", default=50, help="number of prototypes"),
    "model.encoder_widths": _of(SummaryNetConfig, "encoder_widths"),
    "model.activation": _of(SummaryNetConfig, "activation"),
    "model.pooling": _of(SummaryNetConfig, "pooling"),
    "model.head_hidden": _of(SummaryNetConfig, "head_hidden"),
    "model.predict_hidden": _of(
        SummaryNetConfig, "predict_hidden", help="empty reuses head_hidden"
    ),
    # mixture regression
    "mog.components": _of(MoGTaskSpec, "components"),
    "mog.n_min": _of(MoGTaskSpec, "n_min"),
    "mog.n_max": _of(MoGTaskSpec, "n_max"),
    "mog.sigma": _of(MoGTaskSpec, "sigma"),
    "mog.mean_low": _of(MoGTaskSpec, "mean_low"),
    "mog.mean_high": _of(MoGTaskSpec, "mean_high"),
    "mog.encode_cap": _field("int", 0, minimum=0, help="0 encodes full sets at eval"),
    # digit sums
    "digitsum.size": _field("int", 0, minimum=0, help="0 mixes training sizes"),
    "digitsum.max_train_size": _of(DigitSumSpec, "max_train_size"),
    "digitsum.test_sizes": _of(DigitSumSpec, "test_sizes"),
    "digitsum.noise_sigma": _of(DigitSumSpec, "noise_sigma"),
    # shape classification
    "pointset.n_points": _of(PointSetClassSpec, "n_points"),
    "pointset.noise_sigma": _of(PointSetClassSpec, "noise_sigma"),
    "pointset.count_per_class": _of(PointSetClassSpec, "count_per_class"),
    "pointset.rotate": _of(PointSetClassSpec, "rotate"),
    # episodic classification; fewshot.episodes and metric feed the TrainConfig
    # fields that train.steps and train.metric own, so they keep literal rows
    "fewshot.n_way": _of(EpisodeSpec, "n_way"),
    "fewshot.k_shot": _of(EpisodeSpec, "k_shot"),
    "fewshot.q_queries": _of(EpisodeSpec, "q_queries"),
    "fewshot.dim": _of(EpisodeSpec, "dim"),
    "fewshot.encoder_widths": _of(FewShotConfig, "encoder_widths"),
    "fewshot.g_hidden": _of(FewShotConfig, "g_hidden", help="empty picks the default head"),
    "fewshot.bank": _of(FewShotConfig, "bank_size"),
    "fewshot.episodes": _field("int", 10_000, minimum=1),
    "fewshot.n_base": _of(FewShotConfig, "n_base_classes"),
    "fewshot.n_novel": _of(FewShotConfig, "n_novel_classes"),
    "fewshot.sigma": _of(FewShotConfig, "sigma"),
    "fewshot.mean_low": _of(FewShotConfig, "mean_low"),
    "fewshot.mean_high": _of(FewShotConfig, "mean_high"),
    "fewshot.class_seed": _of(FewShotConfig, "class_seed"),
    "fewshot.activation": _of(FewShotConfig, "activation"),
    "fewshot.metric": _field("str", "cosine", choices=METRICS),
    # conditional generation; metagan.k, summary_widths, use_ot and metric feed
    # shared dataclasses whose defaults differ, so they keep literal rows
    "metagan.family": _of(TaskFamilySpec, "family"),
    "metagan.n_points": _of(TaskFamilySpec, "n_points", help="0 picks the family default"),
    "metagan.k": _field("int", 2, minimum=1, help="summary dimension"),
    "metagan.summary_widths": _field("int_list", (64, 64, 64)),
    "metagan.noise_dim": _of(GanConfig, "noise_dim"),
    "metagan.generator_widths": _of(GanConfig, "generator_widths"),
    "metagan.critic_widths": _of(GanConfig, "critic_widths"),
    "metagan.conditioning": _of(GanConfig, "conditioning"),
    "metagan.eta_critic": _of(GanConfig, "eta_critic"),
    "metagan.batch": _of(GanConfig, "batch"),
    "metagan.iterations": _of(GanConfig, "iterations"),
    "metagan.lr_generator": _of(GanConfig, "lr_generator"),
    "metagan.lr_critic": _of(GanConfig, "lr_critic"),
    "metagan.non_saturating": _of(GanConfig, "non_saturating"),
    "metagan.mse_weight": _of(GanConfig, "mse_weight"),
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


def _check_unowned(key: str, value) -> None:
    """Bounds of a key that no dataclass holds."""
    field = SCHEMA[key]
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"{key} must be one of {field.choices}, got {value!r}")
    if field.minimum is not None and value < field.minimum:
        word = "positive" if field.minimum == 1 else "nonnegative"
        raise ConfigError(f"{key} must be {word}, got {value}")
    if field.kind == "int_list":
        _as_widths(value, key)


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

    def config_hash(self) -> str:
        text = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def header_lines(self) -> list[str]:
        """Comment block recording the resolved config, one key per line."""
        return [f"# {k} = {render_value(v)}" for k, v in sorted(self._values.items())]

    def build(self, owner, **extra):
        """``owner`` from every key it owns plus ``extra`` fields.

        An error the owner raises about one of those keys' fields is re-raised
        naming the key.
        """
        keys = {f.attr: k for k, f in SCHEMA.items() if f.owner is owner and f.attr not in extra}
        try:
            return owner(**{attr: self._values[k] for attr, k in keys.items()}, **extra)
        except ConfigError as exc:
            attr, _, rest = str(exc).partition(" ")
            if attr not in keys:
                raise
            raise ConfigError(f"{keys[attr]} {rest}") from None

    def with_overrides(self, overrides: dict) -> "ResolvedConfig":
        """New config with raw string overrides applied and validated."""
        return _checked({**self._values, **_parsed(overrides)})


def _parsed(raw: dict) -> dict:
    return {key: parse_value(key, text) for key, text in raw.items()}


def _checked(values: dict) -> ResolvedConfig:
    """The defaults updated with ``values``, once every key passes, whatever the task."""
    cfg = ResolvedConfig({**default_config()._values, **values})
    for key, field in SCHEMA.items():
        if field.owner is None:
            _check_unowned(key, cfg[key])
    # each owner is built once; for fields no key sets, the task supplies
    # input_dim, and the class pools are checked against the episode's n_way
    extra = {SummaryNetConfig: {"input_dim": 1}, FewShotConfig: {"episode": cfg.build(EpisodeSpec)}}
    for owner in dict.fromkeys(f.owner for f in SCHEMA.values() if f.owner is not None):
        cfg.build(owner, **extra.get(owner, {}))
    return cfg


def default_config() -> ResolvedConfig:
    return ResolvedConfig({k: f.default for k, f in SCHEMA.items()})


def read_config_file(path) -> dict[str, str]:
    """Raw key -> string pairs from a config file.

    Lines are ``key = value``; blank lines and ``#`` comment lines are
    skipped.  Duplicate keys are rejected since they are almost always typos.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    text = read_text(path)
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
    and every value is parsed; the merged result is then validated.
    """
    return _checked({**_parsed(file_values or {}), **_parsed(overrides or {})})


def _stored_kind_ok(kind: str, value) -> bool:
    """Whether ``value`` has the JSON type that as_dict writes for a key of ``kind``."""
    if kind == "int_list":
        return isinstance(value, list) and all(type(v) is int for v in value)
    if kind == "opt_float":
        return value is None or type(value) is float
    return _KINDS.get(type(value)) == kind


def config_from_json_dict(d: dict) -> ResolvedConfig:
    """Rebuild a resolved config from its as_dict form (checkpoints).

    A missing key, or a value of a type as_dict never writes for its key, is a
    damaged or hand-made file: CheckpointError.
    """
    values = {}
    for key, value in d.items():
        if key not in SCHEMA:
            raise ConfigError(_unknown_key_message(key))
        if not _stored_kind_ok(SCHEMA[key].kind, value):
            raise CheckpointError(f"stored {key} must be {SCHEMA[key].kind}, got {value!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    missing = [key for key in SCHEMA if key not in values]
    if missing:
        raise CheckpointError(f"stored config lacks {missing}")
    return _checked(values)


def schema_help() -> str:
    """One line per key for --help output."""
    lines = []
    for key, field in sorted(SCHEMA.items()):
        extra = f"  ({field.help})" if field.help else ""
        lines.append(f"  {key} = {render_value(field.default)}{extra}")
    return "\n".join(lines)
