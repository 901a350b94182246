"""Flat key=value configuration for the command line tools.

One schema covers every experiment: dotted names group related knobs
(``sinkhorn.epsilon``, ``model.k``) but the file format stays a flat list of
``key = value`` lines.  Unknown keys are rejected by name, values are parsed
by declared type, and the resolved result hashes canonically so artifacts can
record exactly what produced them.

Most keys are a field of a library dataclass, their owner, whose field
declares the default and the bound beside it; a key with no owner declares
both in its row.  One function, ``errors.check_bound``, holds every value to
its bound.  The key set is still listed row by row: it is part of every
artifact's header.  A row also declares which tasks read its key (``reads``).
"""

from __future__ import annotations

import difflib
import hashlib
import json
import re
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Optional

from .errors import CheckpointError, ConfigError, check_bound, read_text
from .fewshot import FewShotConfig
from .metagan import GanConfig, TaskFamilySpec
from .ot.cost import METRICS
from .ot.sinkhorn import SinkhornConfig
from .protolearn import TrainConfig
from .summarynet import SummaryNetConfig
from .tasks import DigitSumSpec, MoGTaskSpec, PointSetClassSpec

TASKS = ("mog", "digitsum", "pointset", "fewshot", "metagan")
# the tasks whose model is a SummaryNet and a data-space bank, read from model.*
ENCODER_TASKS = ("mog", "digitsum", "pointset")
TRAIN_MODES = ("supervised", "unsupervised")

_KINDS = {bool: "bool", int: "int", float: "float", str: "str", tuple: "int_list"}


@dataclass(frozen=True)
class ConfigField:
    """One schema entry: a key's kind and default, where its bound lives, and who reads it.

    An owned key is field ``attr`` of dataclass ``owner``, which checks it; a
    key with no owner is held to ``bound`` (see ``errors.check_bound``).  A
    shared key is read by ``tasks``, all if empty; a key of a task's section by
    that task alone, doing for it the job of the shared key ``stands_for``, if any.
    """

    kind: str  # int | float | str | bool | int_list | opt_float
    default: object
    bound: object = None
    help: str = ""
    owner: Optional[type] = None
    attr: str = ""
    tasks: tuple = ()
    stands_for: str = ""


def _of(owner, attr: str, default=MISSING, help="", **readers):
    """The key for ``owner.attr``: default from the field, kind from the default."""
    if default is MISSING:
        default = owner.__dataclass_fields__[attr].default
    kind = "opt_float" if default is None else _KINDS[type(default)]
    return ConfigField(kind, default, help=help, owner=owner, attr=attr, **readers)


_ENCODER = {"tasks": ENCODER_TASKS}
_NOT_METAGAN = {"tasks": ENCODER_TASKS + ("fewshot",)}

SCHEMA: dict[str, ConfigField] = {
    # run-level
    "task": ConfigField("str", "mog", TASKS, help="which experiment to run"),
    "seed": ConfigField("int", 0, "nonnegative", help="training seed"),
    "count": ConfigField("int", 1000, "positive", help="sets to generate",
                         tasks=("mog", "digitsum", "metagan")),
    "eval.count": ConfigField("int", 0, "nonnegative",
                              help="eval corpus size; 0 picks a task default"),
    "eval.seed": ConfigField("int", 1000, "nonnegative", help="seed for eval data"),
    # entropic solver
    "sinkhorn.epsilon": _of(SinkhornConfig, "epsilon"),
    "sinkhorn.tol": _of(SinkhornConfig, "tol"),
    "sinkhorn.max_iters": _of(SinkhornConfig, "max_iters"),
    "sinkhorn.unroll_iters": _of(SinkhornConfig, "unroll_iters"),
    "sinkhorn.grad_mode": _of(SinkhornConfig, "grad_mode"),
    # optimizer
    "optim.kind": _of(TrainConfig, "optimizer"),
    "optim.lr": _of(TrainConfig, "lr"),
    "optim.lr_final": _of(TrainConfig, "lr_final", **_NOT_METAGAN),  # metagan's lr is constant
    # shared training knobs
    "train.steps": _of(TrainConfig, "steps", **_ENCODER),
    "train.batch_sets": _of(TrainConfig, "batch_sets", **_ENCODER),
    "train.batch_points": _of(TrainConfig, "batch_points", **_ENCODER),
    "train.metric": _of(TrainConfig, "metric", **_ENCODER),
    # metagan's transport step has no task loss to weigh
    "train.lambda_ot": _of(TrainConfig, "lambda_ot", **_NOT_METAGAN),
    "train.log_every": _of(TrainConfig, "log_every"),
    "train.mode": ConfigField("str", "supervised", TRAIN_MODES, **_ENCODER),
    # set encoder
    "model.k": _of(SummaryNetConfig, "n_prototypes", default=50, help="number of prototypes",
                   **_ENCODER),
    "model.encoder_widths": _of(SummaryNetConfig, "encoder_widths", **_ENCODER),
    "model.activation": _of(SummaryNetConfig, "activation", **_ENCODER),
    "model.pooling": _of(SummaryNetConfig, "pooling", **_ENCODER),
    "model.head_hidden": _of(SummaryNetConfig, "head_hidden", **_ENCODER),
    "model.predict_hidden": _of(SummaryNetConfig, "predict_hidden",
                                help="empty reuses head_hidden", **_ENCODER),
    # mixture regression
    "mog.components": _of(MoGTaskSpec, "components"),
    "mog.n_min": _of(MoGTaskSpec, "n_min"),
    "mog.n_max": _of(MoGTaskSpec, "n_max"),
    "mog.sigma": _of(MoGTaskSpec, "sigma"),
    "mog.mean_low": _of(MoGTaskSpec, "mean_low"),
    "mog.mean_high": _of(MoGTaskSpec, "mean_high"),
    "mog.encode_cap": ConfigField("int", 0, "nonnegative", help="0 encodes full sets at eval"),
    # digit sums
    "digitsum.size": ConfigField("int", 0, "nonnegative", help="0 mixes training sizes"),
    "digitsum.max_train_size": _of(DigitSumSpec, "max_train_size"),
    "digitsum.test_sizes": _of(DigitSumSpec, "test_sizes"),
    "digitsum.noise_sigma": _of(DigitSumSpec, "noise_sigma"),
    # shape classification
    "pointset.n_points": _of(PointSetClassSpec, "n_points"),
    "pointset.noise_sigma": _of(PointSetClassSpec, "noise_sigma"),
    "pointset.count_per_class": _of(PointSetClassSpec, "count_per_class", stands_for="count"),
    "pointset.rotate": _of(PointSetClassSpec, "rotate"),
    # episodic classification
    "fewshot.n_way": _of(FewShotConfig, "n_way"),
    "fewshot.k_shot": _of(FewShotConfig, "k_shot"),
    "fewshot.q_queries": _of(FewShotConfig, "q_queries"),
    "fewshot.dim": _of(FewShotConfig, "dim"),
    "fewshot.encoder_widths": _of(FewShotConfig, "encoder_widths"),
    "fewshot.g_hidden": _of(FewShotConfig, "g_hidden", help="empty picks the default head"),
    "fewshot.bank": _of(FewShotConfig, "bank_size"),
    "fewshot.episodes": ConfigField("int", 10_000, "positive", stands_for="train.steps"),
    "fewshot.n_base": _of(FewShotConfig, "n_base_classes"),
    "fewshot.n_novel": _of(FewShotConfig, "n_novel_classes"),
    "fewshot.sigma": _of(FewShotConfig, "sigma"),
    "fewshot.mean_low": _of(FewShotConfig, "mean_low"),
    "fewshot.mean_high": _of(FewShotConfig, "mean_high"),
    "fewshot.class_seed": _of(FewShotConfig, "class_seed"),
    "fewshot.activation": _of(FewShotConfig, "activation"),
    "fewshot.metric": ConfigField("str", "cosine", METRICS, stands_for="train.metric"),
    # conditional generation
    "metagan.family": _of(TaskFamilySpec, "family"),
    "metagan.n_points": _of(TaskFamilySpec, "n_points", help="0 picks the family default"),
    "metagan.k": ConfigField("int", 2, "positive", help="summary dimension", stands_for="model.k"),
    "metagan.summary_widths": ConfigField("int_list", (64, 64, 64), "widths",
                                          stands_for="model.encoder_widths"),
    "metagan.noise_dim": _of(GanConfig, "noise_dim"),
    "metagan.generator_widths": _of(GanConfig, "generator_widths"),
    "metagan.critic_widths": _of(GanConfig, "critic_widths"),
    "metagan.conditioning": _of(GanConfig, "conditioning"),
    "metagan.eta_critic": _of(GanConfig, "eta_critic"),
    "metagan.batch": _of(GanConfig, "batch"),
    "metagan.iterations": _of(GanConfig, "iterations", stands_for="train.steps"),
    "metagan.lr_generator": _of(GanConfig, "lr_generator"),
    "metagan.lr_critic": _of(GanConfig, "lr_critic"),
    "metagan.non_saturating": _of(GanConfig, "non_saturating"),
    "metagan.mse_weight": _of(GanConfig, "mse_weight"),
    "metagan.use_ot": ConfigField("bool", True),
    "metagan.metric": ConfigField("str", "euclidean", METRICS, stands_for="train.metric"),
}


def reads(task: str, key: str) -> bool:
    """Whether ``task`` reads ``key``: a section's key only its task, a shared key its ``tasks``."""
    section = key.partition(".")[0]
    return section == task if section in TASKS else task in (SCHEMA[key].tasks or TASKS)


# (task, shared key) -> the key of the task's section that stands for it
_STANDS_FOR = {(k.partition(".")[0], f.stands_for): k for k, f in SCHEMA.items() if f.stands_for}


def key_for(task: str, key: str) -> str:
    """The key of ``task``'s section that does shared ``key``'s job, or ``key``."""
    return _STANDS_FOR.get((task, key), key)


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse(kind: type, key: str, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} expects {what}, got {text!r}") from None


def parse_value(key: str, text: str):
    """Parse one raw string according to the schema; raises naming the key."""
    field = SCHEMA.get(key)
    if field is None:
        raise ConfigError(_unknown_key_message(key))
    text = text.strip()
    if field.kind == "int":
        return _parse(int, key, text, "an integer")
    if field.kind == "float":
        return _parse(float, key, text, "a number")
    if field.kind == "str":
        return text
    if field.kind == "bool":
        if text.lower() not in _TRUE | _FALSE:
            raise ConfigError(f"{key} expects true or false, got {text!r}")
        return text.lower() in _TRUE
    if field.kind == "int_list":
        parts = text.split(",") if text else []
        return tuple(_parse(int, key, part, "an integer") for part in parts)
    # opt_float, the last kind
    if not text or text.lower() == "none":
        return None
    return _parse(float, key, text, "a number or none")


def _unknown_key_message(key: str) -> str:
    close = difflib.get_close_matches(key, SCHEMA.keys(), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown config key {key!r}{hint}"


def render_value(value) -> str:
    """Inverse of parse_value, so resolved configs can be written back out."""
    if value is None or isinstance(value, bool):
        return str(value).lower()
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

        An error the owner raises names the keys of the fields it names: one
        that opens with a field has it renamed, and one that names fields as
        ``field=value`` has each of them renamed.
        """
        keys = {f.attr: k for k, f in SCHEMA.items() if f.owner is owner and f.attr not in extra}
        try:
            return owner(**{attr: self._values[k] for attr, k in keys.items()}, **extra)
        except ConfigError as exc:
            attr, _, rest = str(exc).partition(" ")
            if attr in keys:
                raise ConfigError(f"{keys[attr]} {rest}") from None
            named = re.sub(r"\b(\w+)=", lambda m: f"{keys.get(m[1], m[1])}=", str(exc))
            raise ConfigError(named) from None

    def with_overrides(self, overrides: dict) -> "ResolvedConfig":
        """New config with raw string overrides applied and validated."""
        return _checked({**self._values, **_parsed(overrides)})


def _parsed(raw: dict) -> dict:
    return {key: parse_value(key, text) for key, text in raw.items()}


def _checked(values: dict) -> ResolvedConfig:
    """The defaults updated with ``values``, once every key passes, whatever the task."""
    cfg = ResolvedConfig({**default_config()._values, **values})
    for key, field in SCHEMA.items():
        if field.bound is not None:
            check_bound(key, cfg[key], field.bound)
    extra = {SummaryNetConfig: {"input_dim": 1}}  # no key sets it: the task supplies it
    for owner in dict.fromkeys(f.owner for f in SCHEMA.values() if f.owner is not None):
        cfg.build(owner, **extra.get(owner, {}))  # each owner once
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

    A missing or unknown key, a value of a type as_dict never writes for its
    key, or one the config checks refuse, is a damaged or hand-made file:
    CheckpointError, naming the stored config.
    """
    values = {}
    for key, value in d.items():
        if key not in SCHEMA:
            raise CheckpointError(f"stored config: {_unknown_key_message(key)}")
        if not _stored_kind_ok(SCHEMA[key].kind, value):
            raise CheckpointError(f"stored {key} must be {SCHEMA[key].kind}, got {value!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    missing = [key for key in SCHEMA if key not in values]
    if missing:
        raise CheckpointError(f"stored config lacks {missing}")
    try:
        return _checked(values)
    except ConfigError as exc:
        raise CheckpointError(f"stored config: {exc}") from None


def schema_help() -> str:
    """One line per key for --help output, with its help and the tasks that alone read it."""
    lines = []
    for key, field in sorted(SCHEMA.items()):
        readers = f"read by {', '.join(field.tasks)} only" if field.tasks else ""
        notes = "; ".join(note for note in (field.help, readers) if note)
        extra = f"  ({notes})" if notes else ""
        lines.append(f"  {key} = {render_value(field.default)}{extra}")
    return "\n".join(lines)
