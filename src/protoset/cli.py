"""Command line harness: generate corpora, train, evaluate, solve, gradcheck.

Five verbs share one flat configuration schema (see config.py).  Every
artifact embeds the resolved configuration and seed that produced it, file
names are fixed (corpus.jsonl, trace.csv, metrics.json, checkpoint.<step>),
and nothing written depends on wall-clock time, so a rerun with the same
configuration reproduces artifacts byte for byte.

Exit codes: 0 success, 1 unexpected error, 2 bad configuration or input,
3 missing file, 4 corrupt checkpoint, 5 checkpoint format mismatch,
6 numerical failure (divergence or a failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .checkpoint import assign_parameters, load_checkpoint, save_checkpoint
from .config import (
    ResolvedConfig,
    config_from_json_dict,
    read_config_file,
    resolve_config,
    schema_help,
)
from .diffcore import Value, check_gradients, no_grad
from .errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    NumericalError,
    ProtosetError,
    TrainingDivergedError,
    read_text,
)
from .fewshot import (
    EpisodeSpec,
    FewShotConfig,
    FewShotModel,
    episode_objective,
    eval_fewshot,
    gen_episodes,
    train_fewshot,
)
from .metagan import (
    GanConfig,
    MetaGan,
    TaskFamilySpec,
    critic_objective,
    eval_generative,
    gen_task_corpus,
    generator_objective,
    train_metagan,
)
from .ot import Marginals, SinkhornConfig, entropic_objective, sinkhorn, transport_cost
from .ot.marginals import uniform_weights
from .protolearn import (
    PrototypeBank,
    TrainConfig,
    set_objective,
    subsample_points,
    train_prototypes,
)
from .summarynet import SetBatch, SummaryNet, SummaryNetConfig
from .tasks import (
    DigitSumSpec,
    MoGTaskSpec,
    PointSetClassSpec,
    digit_sum_accuracy,
    digit_sum_loss,
    gen_digit_corpus,
    gen_digit_test_corpora,
    gen_mog_corpus,
    gen_pointset_corpus,
    load_corpus,
    mog_task_loss,
    save_corpus,
    xent_loss,
)
from .tasks.mog import eval_mog_loglik, head_width, oracle_mean_loglik
from .tasks.pointset import POINTSET_CLASSES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CHECKPOINT = 4
EXIT_VERSION_MISMATCH = 5
EXIT_NUMERIC = 6

GRADCHECK_THRESHOLD = 1e-4

# ---------------------------------------------------------------------------
# configuration plumbing


def _override_strings(args, flag_map: dict) -> dict:
    """Raw override strings from --set pairs and dedicated flags (flags win)."""
    overrides: dict[str, str] = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for dest, key in flag_map.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[key] = str(value)
    return overrides


def _resolve(args, flag_map: dict) -> tuple[ResolvedConfig, set]:
    """The resolved config and the keys that the file, --set or a flag gave."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = _override_strings(args, flag_map)
    return resolve_config(file_values, overrides), set(file_values) | set(overrides)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_trace(path: Path, cfg: ResolvedConfig, trace: dict) -> None:
    """The config header, then ``fit``'s trace: its keys as columns, one row per step."""
    lines = cfg.header_lines()
    lines.append(",".join(trace))
    for step, *values in zip(*trace.values()):
        lines.append(",".join([str(step)] + [_fmt(v) for v in values]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_default(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _out_dir(out) -> Path:
    """The ``--out`` directory, checked before any work: a file in its place exits 3."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is a file, not a directory")
    return path


def _write_metrics(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the task table: what each verb does for each task


def _bank(sets, dim: int, k: int, rng) -> PrototypeBank:
    """Columns sampled from the first sets' points.

    With ``sets`` None the bank is a zero shell of the right shape, for eval to
    load a checkpoint into.
    """
    if sets is None:
        return PrototypeBank(Value(np.zeros((dim, k)), requires_grad=True))
    pool = np.vstack([batch.points for batch in sets[: min(len(sets), 64)]])
    return PrototypeBank.from_points(pool, k, rng)


class Task:
    """One experiment: its config, gen, build, train, evaluate and gradcheck.

    ``build`` returns (net, bank, checkpoint names of their parameters) for
    train, eval and gradcheck; eval passes no sets and loads the checkpoint into
    them.  Library functions are looked up in this module when a method runs, so
    a wrapper set on ``protoset.cli`` (perfbench's tracer) sees every call.
    """

    name: str
    steps_key = "train.steps"  # the config key that sets how long train runs
    unread_keys = ()  # shared keys that train never reads for this task: given, they exit 2
    metric_key = "train.metric"  # the config key of the transport cost's metric
    gradcheck_shapes: dict  # overrides that shrink model and data for gradcheck

    def train_config(self, cfg: ResolvedConfig) -> TrainConfig:
        return cfg.build(
            TrainConfig,
            steps=cfg[self.steps_key],
            metric=cfg[self.metric_key],
            sinkhorn=cfg.build(SinkhornConfig),
            seed=cfg["seed"],
        )

    def training_sets(self, cfg: ResolvedConfig):
        if cfg["corpus"]:
            _, sets, _ = load_corpus(cfg["corpus"])
            if not sets:
                raise ConfigError(f"corpus {cfg['corpus']!r} holds no sets")
            return sets
        return self.gen(cfg, cfg["count"], cfg["seed"])[0]

    def gradcheck(self, seed: int):
        """(path name, loss closure, parameters) per objective the training loop differentiates.

        The model, bank and data are what train builds from the defaults
        updated with ``gradcheck_shapes``.
        """
        overrides = {**self.gradcheck_shapes, "task": self.name, "seed": str(seed)}
        cfg = resolve_config(overrides=overrides)
        sets = self.training_sets(cfg)
        net, bank, named = self.build(cfg, sets)
        return self.objectives(cfg, net, bank, named, sets)


_ENCODER_SHAPES = {"count": "2", "model.k": "4", "model.encoder_widths": "10,8",
                   "model.head_hidden": "6", "train.batch_points": "9"}


class EncoderTask(Task):
    """A SummaryNet and a data-space bank trained by ``train_prototypes``."""

    input_dim: int
    gradcheck_shapes = _ENCODER_SHAPES

    def build(self, cfg: ResolvedConfig, sets):
        supervised = cfg["train.mode"] == "supervised"
        summary_cfg = cfg.build(
            SummaryNetConfig,
            input_dim=self.input_dim,
            output_dim=self.output_dim(cfg) if supervised else None,
        )
        net = SummaryNet(summary_cfg, np.random.default_rng(cfg["seed"]))
        bank = _bank(sets, self.input_dim, cfg["model.k"], np.random.default_rng(cfg["seed"] + 1))
        named = net.named_parameters()
        named["bank"] = bank.matrix
        return net, bank, named

    def loss_fn(self, cfg: ResolvedConfig):  # None: the transport term alone
        return self.task_loss() if cfg["train.mode"] == "supervised" else None

    def train(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank, sets):
        return train_prototypes(sets, net, bank, self.train_config(cfg), self.loss_fn(cfg))

    def objectives(self, cfg: ResolvedConfig, net, bank, named, sets):
        config, batch, rng = self.train_config(cfg), sets[0], np.random.default_rng(cfg["seed"])
        points = subsample_points(batch.points, config.batch_points, rng)
        sub = SetBatch(points, set_id=batch.set_id, label=batch.label)
        loss_fn = self.loss_fn(cfg)

        def combined() -> Value:
            return set_objective(sub, net, bank, config, loss_fn)[0]

        return [(f"{self.name}-combined", combined, list(named.values()))]

    def eval_corpus(self, cfg: ResolvedConfig):
        return load_corpus(cfg["corpus"])[1] if cfg["corpus"] else self.eval_sets(cfg)

    def evaluate(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank) -> dict:
        if cfg["train.mode"] == "supervised":
            return self.score(cfg, net)
        # the training objective, on eval sets subsampled as in training
        sets = self.eval_corpus(cfg)
        rng = np.random.default_rng(cfg["eval.seed"])
        config = self.train_config(cfg)
        total = 0.0
        with no_grad():
            for batch in sets:
                points = subsample_points(batch.points, config.batch_points, rng)
                total += set_objective(SetBatch(points), net, bank, config)[2]
        return {"mean_transport_loss": total / len(sets)}


class MogTask(EncoderTask):
    name = "mog"
    input_dim = 2

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return head_width(cfg["mog.components"])

    def task_loss(self):
        return mog_task_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_mog_corpus(cfg.build(MoGTaskSpec), count, seed)
        return [s for s, _ in pairs], [p.to_dict() for _, p in pairs]

    def eval_pairs(self, cfg: ResolvedConfig):
        """Fresh eval sets with their generating parameters, drawn once per eval."""
        return gen_mog_corpus(cfg.build(MoGTaskSpec), cfg["eval.count"] or 500, cfg["eval.seed"])

    def eval_sets(self, cfg: ResolvedConfig):
        return [batch for batch, _ in self.eval_pairs(cfg)]

    def score(self, cfg: ResolvedConfig, net: SummaryNet) -> dict:
        cap, seed = cfg["mog.encode_cap"] or None, cfg["eval.seed"]
        if cfg["corpus"]:  # provenance unknown, so no oracle
            return {"mean_loglik": eval_mog_loglik(net, self.eval_corpus(cfg), cap, seed)}
        pairs = self.eval_pairs(cfg)
        return {
            "mean_loglik": eval_mog_loglik(net, [batch for batch, _ in pairs], cap, seed),
            "oracle_mean_loglik": oracle_mean_loglik(pairs),
        }


class DigitSumTask(EncoderTask):
    name = "digitsum"
    input_dim = 10

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return 1

    def task_loss(self):
        return digit_sum_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        size = cfg["digitsum.size"]
        if size:
            spec = cfg.build(DigitSumSpec, test_sizes=(size,), test_count_per_size=count)
            return gen_digit_test_corpora(spec, seed)[size], None
        return gen_digit_corpus(cfg.build(DigitSumSpec, train_count=count), seed), None

    def _test_corpora(self, cfg: ResolvedConfig) -> dict:
        spec = cfg.build(DigitSumSpec, test_count_per_size=cfg["eval.count"] or 200)
        return gen_digit_test_corpora(spec, cfg["eval.seed"])

    def eval_sets(self, cfg: ResolvedConfig):
        return [batch for sets in self._test_corpora(cfg).values() for batch in sets]

    def score(self, cfg: ResolvedConfig, net: SummaryNet) -> dict:
        def accuracy(sets) -> float:
            hits = 0.0
            with no_grad():
                for batch in sets:
                    _, pred = net.summarize_with_prediction(batch.points)
                    hits += digit_sum_accuracy(float(pred.data.reshape(())), batch.label)
            return hits / len(sets)

        if cfg["corpus"]:
            return {"accuracy": accuracy(load_corpus(cfg["corpus"])[1])}
        by_size = {str(size): accuracy(sets) for size, sets in self._test_corpora(cfg).items()}
        return {"accuracy_by_size": by_size, "mean_accuracy": sum(by_size.values()) / len(by_size)}


class PointSetTask(EncoderTask):
    name = "pointset"
    input_dim = 3
    gradcheck_shapes = {**_ENCODER_SHAPES, "pointset.count_per_class": "1"}

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return len(POINTSET_CLASSES)

    def task_loss(self):
        return xent_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        return gen_pointset_corpus(cfg.build(PointSetClassSpec), seed), None

    def eval_sets(self, cfg: ResolvedConfig):
        spec = cfg.build(PointSetClassSpec, count_per_class=cfg["eval.count"] or 20)
        return gen_pointset_corpus(spec, cfg["eval.seed"])

    def score(self, cfg: ResolvedConfig, net: SummaryNet) -> dict:
        sets = self.eval_corpus(cfg)
        hits = 0
        with no_grad():
            for batch in sets:
                _, pred = net.summarize_with_prediction(batch.points)
                hits += int(int(np.argmax(pred.data)) == int(batch.label))
        return {"accuracy": hits / len(sets)}


# the encoder's batching, metric and mode: fewshot and metagan read their own keys
_ENCODER_ONLY_KEYS = ("train.batch_sets", "train.batch_points", "train.metric", "train.mode")


class FewShotTask(Task):
    """Episodes are drawn from the seed, so there is no corpus to write or read."""

    name = "fewshot"
    steps_key = "fewshot.episodes"
    unread_keys = ("train.steps",) + _ENCODER_ONLY_KEYS
    metric_key = "fewshot.metric"
    # unset, lambda_ot leaves the transport term out of the episode loss
    gradcheck_shapes = {"fewshot.n_way": "3", "fewshot.k_shot": "2", "fewshot.q_queries": "2",
                        "fewshot.dim": "5", "fewshot.encoder_widths": "8,6", "fewshot.bank": "4",
                        "train.lambda_ot": "1"}

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        raise ConfigError(
            "fewshot episodes are generated on the fly from the seed; there is no corpus to write"
        )

    def training_sets(self, cfg: ResolvedConfig):
        return None

    def build(self, cfg: ResolvedConfig, sets):
        if cfg["corpus"]:  # train and eval both build here
            raise ConfigError(
                "fewshot episodes are generated on the fly from the seed; corpus must be empty"
            )
        fs_cfg = cfg.build(FewShotConfig, episode=cfg.build(EpisodeSpec))
        model = FewShotModel(fs_cfg, np.random.default_rng(cfg["seed"]))
        return model, model.bank, model.named_parameters()

    def train(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank, sets):
        return train_fewshot(model, self.train_config(cfg))

    def evaluate(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank) -> dict:
        count = cfg["eval.count"] or 1000
        episodes = gen_episodes(model.config, "novel", seed=cfg["eval.seed"], count=count)
        return eval_fewshot(model, episodes)

    def objectives(self, cfg: ResolvedConfig, model: FewShotModel, bank, named, sets):
        episode = next(gen_episodes(model.config, "base", seed=cfg["seed"], count=1))
        config = self.train_config(cfg)

        def episode_loss() -> Value:
            return episode_objective(model, episode, config)[0]

        return [("fewshot-episode", episode_loss, list(named.values()))]


class MetaGanTask(Task):
    name = "metagan"
    steps_key = "metagan.iterations"
    # the transport step has no task loss to weigh, and the optimizers keep a constant lr
    unread_keys = ("train.steps", "train.lambda_ot", "optim.lr_final") + _ENCODER_ONLY_KEYS
    metric_key = "metagan.metric"
    # the conditional critic and the moment term are off by default and on
    # here, so that their gradients are checked too
    gradcheck_shapes = {"count": "2", "metagan.n_points": "12", "metagan.summary_widths": "8,6",
                        "metagan.generator_widths": "10,8", "metagan.critic_widths": "10,8",
                        "metagan.batch": "8", "metagan.conditioning": "conditional-critic",
                        "metagan.mse_weight": "0.5"}

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_task_corpus(cfg.build(TaskFamilySpec), count=count, seed=seed)
        return [s for s, _ in pairs], [p for _, p in pairs]

    def build(self, cfg: ResolvedConfig, sets):
        ot = self.train_config(cfg) if cfg["metagan.use_ot"] else None
        gan_cfg = cfg.build(GanConfig, ot=ot, seed=cfg["seed"], log_every=cfg["train.log_every"])
        spec = cfg.build(TaskFamilySpec)
        summary_cfg = SummaryNetConfig(
            input_dim=spec.dim,
            n_prototypes=cfg["metagan.k"],
            encoder_widths=cfg["metagan.summary_widths"],
        )
        summary = SummaryNet(summary_cfg, np.random.default_rng(cfg["seed"]))
        model = MetaGan(spec, gan_cfg, summary, np.random.default_rng(cfg["seed"] + 1))
        bank = _bank(sets, spec.dim, cfg["metagan.k"], np.random.default_rng(cfg["seed"] + 2))
        named = {f"summary.{k}": v for k, v in summary.named_parameters().items()}
        named.update(model.generator.named_parameters("generator"))
        named.update(model.critic.named_parameters("critic"))
        named["bank"] = bank.matrix
        return model, bank, named

    def train(self, cfg: ResolvedConfig, model: MetaGan, bank: PrototypeBank, sets):
        return train_metagan(sets, model, bank, model.config)

    def evaluate(self, cfg: ResolvedConfig, model: MetaGan, bank: PrototypeBank) -> dict:
        _, tasks = self.gen(cfg, cfg["eval.count"] or 20, cfg["eval.seed"])
        return eval_generative(model, tasks, seed=cfg["eval.seed"])

    def objectives(self, cfg: ResolvedConfig, model: MetaGan, bank, named, sets):
        """The three updates of one iteration, on data drawn as the loop draws it."""
        config = model.config
        rng = np.random.default_rng(cfg["seed"])
        h = model.summarize(sets[0].points)
        real = subsample_points(sets[0].points, config.batch, rng)
        z = rng.standard_normal((config.batch, config.noise_dim))
        critic = model.critic.parameters()
        # the generator loss reaches both nets; the critic's fakes carry no graph
        transport = [bank.matrix] + model.summary.parameters()
        return [
            ("metagan-critic", lambda: critic_objective(model, config, real, z, h), critic),
            ("metagan-generator", lambda: generator_objective(model, config, real, z, h),
             model.generator.parameters() + critic),
            ("metagan-transport",
             lambda: set_objective(SetBatch(real), model.summary, bank, config.ot)[0], transport),
        ]


# keys in config.TASKS order; gradcheck without --task runs them in this order
TASK_TABLE = {
    task.name: task
    for task in (MogTask(), DigitSumTask(), PointSetTask(), FewShotTask(), MetaGanTask())
}


# ---------------------------------------------------------------------------
# verb: gen


def cmd_gen(args) -> int:
    cfg, _ = _resolve(
        args,
        {"task": "task", "count": "count", "seed": "seed", "out": "out", "components": "mog.components"},
    )
    task = cfg["task"]
    out = _out_dir(cfg["out"])
    sets, truths = TASK_TABLE[task].gen(cfg, cfg["count"], cfg["seed"])
    path = out / "corpus.jsonl"
    meta = {"task": task, "seed": cfg["seed"], "config": cfg.as_dict()}
    save_corpus(path, sets, meta=meta, truths=truths)
    print(f"wrote {len(sets)} sets to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: train


@contextmanager
def _progress_to_stderr(log_every: int):
    """At ``log_every`` > 0, show the package's INFO records on stderr while training.

    The ``protoset`` logger is left as it was found, so that ``main`` can run
    many times in one process.
    """
    package = logging.getLogger("protoset")
    handler, level = logging.StreamHandler(sys.stderr), package.level
    if log_every:
        package.addHandler(handler)
        package.setLevel(logging.INFO)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


def cmd_train(args) -> int:
    flag_map = {
        "task": "task",
        "corpus": "corpus",
        "steps": "train.steps",
        "seed": "seed",
        "out": "out",
        "lambda_ot": "train.lambda_ot",
    }
    cfg, given = _resolve(args, flag_map)
    task = TASK_TABLE[cfg["task"]]
    flags = {key: f" (or --{dest.replace('_', '-')})" for dest, key in flag_map.items()}
    for key in task.unread_keys:
        if key in given:
            hint = f"; set {task.steps_key}" if key == "train.steps" else ""
            raise ConfigError(f"{key}{flags.get(key, '')} is not read by {task.name}{hint}")
    out = _out_dir(cfg["out"])
    sets = task.training_sets(cfg)
    net, bank, named = task.build(cfg, sets)
    with _progress_to_stderr(cfg["train.log_every"]):
        trace = task.train(cfg, net, bank, sets)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    _write_trace(trace_path, cfg, trace)
    step = len(trace["step"])
    ck_path = out / f"checkpoint.{step}"
    save_checkpoint(ck_path, named, step, cfg.as_dict(), cfg.config_hash())
    print(f"trained {task.name} for {step} steps; wrote {trace_path} and {ck_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: eval


def cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    # hash the dict as stored: a tampered value must not reach the dataclasses
    if ResolvedConfig(ck.config).config_hash() != ck.config_hash:
        raise CheckpointError("checkpoint config does not match its recorded hash")
    stored = config_from_json_dict(ck.config)
    overrides = _override_strings(
        args, {"corpus": "corpus", "seed": "eval.seed", "count": "eval.count", "out": "out"}
    )
    # fresh eval data by default; the stored corpus path was the training input
    overrides.setdefault("corpus", "")
    cfg = stored.with_overrides(overrides)
    task = cfg["task"]
    out = _out_dir(cfg["out"])
    entry = TASK_TABLE[task]
    net, bank, named = entry.build(cfg, None)
    assign_parameters(named, ck.params)
    metrics = entry.evaluate(cfg, net, bank)
    payload = {
        "task": task,
        "seed": cfg["eval.seed"],
        "config": cfg.as_dict(),
        "config_hash": cfg.config_hash(),
        "checkpoint_step": ck.step,
        "metrics": metrics,
    }
    path = out / "metrics.json"
    _write_metrics(path, payload)
    summary = ", ".join(
        f"{k}={v}"
        for k, v in sorted(metrics.items())
        if isinstance(v, (int, float, np.floating, np.integer))
    )
    print(f"eval {task} at step {ck.step}: {summary} (wrote {path})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: ot


def _parse_weights(text, n: int, name: str) -> np.ndarray:
    if text is None:
        return uniform_weights(n)
    try:
        values = np.asarray([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"--{name} expects comma-separated numbers, got {text!r}") from None
    return values


def _read_cost(path) -> np.ndarray:
    """Comma-separated rows of numbers; blank lines and ``#`` comments are skipped."""
    rows = []
    lines = read_text(path).splitlines()
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            rows.append([float(x) for x in text.split(",")])
        except ValueError:
            raise ConfigError(f"{path}:{line_no}: expected comma-separated numbers") from None
        if len(rows[-1]) != len(rows[0]):
            raise ConfigError(f"{path}:{line_no}: {len(rows[-1])} columns, expected {len(rows[0])}")
    if not rows:
        raise ConfigError(f"{path}: no cost rows")
    return np.asarray(rows, dtype=np.float64)


def cmd_ot(args) -> int:
    out = _out_dir(args.out) if args.out else None
    flag_map = {"eps": "sinkhorn.epsilon", "tol": "sinkhorn.tol", "max_iters": "sinkhorn.max_iters"}
    sk = _resolve(args, flag_map)[0].build(SinkhornConfig)
    cost = _read_cost(args.cost)
    a = _parse_weights(args.a, cost.shape[0], "a")
    b = _parse_weights(args.b, cost.shape[1], "b")
    result = sinkhorn(cost, Marginals(a, b), sk)
    if not np.isfinite(cost).all():  # nan and -inf stop the solver; +inf makes <T, C> nan
        raise NumericalError(f"{args.cost}: the cost has an infinite entry")
    report = {
        "value": transport_cost(result, cost),
        "entropic_value": entropic_objective(result.plan, cost, sk.epsilon),
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "epsilon": sk.epsilon,
    }
    print(json.dumps(report, sort_keys=True))
    if out:
        out.mkdir(parents=True, exist_ok=True)
        lines = [
            f"# cost = {args.cost}",
            f"# a = {','.join(repr(x) for x in a)}",
            f"# b = {','.join(repr(x) for x in b)}",
            f"# epsilon = {sk.epsilon!r}",
        ]
        for row in result.plan:
            lines.append(",".join(repr(float(x)) for x in row))
        (out / "plan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_metrics(out / "metrics.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: gradcheck


def cmd_gradcheck(args) -> int:
    tasks = [args.task] if args.task else list(TASK_TABLE)
    seed = _resolve(args, {"seed": "seed"})[0]["seed"]  # checked as train checks it
    results = {}
    rng = np.random.default_rng(seed)
    for task in tasks:
        for name, fn, params in TASK_TABLE[task].gradcheck(seed):
            results[name] = check_gradients(fn, params, rng, samples_per_param=3).max_rel_err
    worst = float(np.max(list(results.values())))  # NaN if any path is NaN
    print(
        json.dumps(
            {"paths": results, "max_rel_err": worst, "threshold": GRADCHECK_THRESHOLD},
            sort_keys=True,
        )
    )
    if not np.isfinite(worst) or worst >= GRADCHECK_THRESHOLD:
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoset",
        description="Prototype-transport experiment harness.",
        epilog="config keys (defaults):\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", help="artifact directory")

    p_gen = sub.add_parser("gen", help="write a corpus.jsonl")
    common(p_gen)
    p_gen.add_argument("--task")
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--components", type=int, help="mixture components (mog)")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train and write trace.csv plus a checkpoint")
    common(p_train)
    p_train.add_argument("--task")
    p_train.add_argument("--corpus", help="input corpus path")
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--lambda-ot", dest="lambda_ot", help="transport loss weight")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint and write metrics.json")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", help="eval corpus path")
    p_eval.add_argument("--seed", type=int, help="eval data seed")
    p_eval.add_argument("--count", type=int, help="eval corpus size")
    p_eval.set_defaults(func=cmd_eval)

    p_ot = sub.add_parser("ot", help="solve one transport instance from a cost CSV")
    p_ot.add_argument("--cost", required=True, help="comma-separated cost matrix file")
    p_ot.add_argument("--a", help="row marginal, comma-separated (default uniform)")
    p_ot.add_argument("--b", help="column marginal, comma-separated (default uniform)")
    p_ot.add_argument("--eps", type=float, help="entropic regularization")
    p_ot.add_argument("--tol", type=float)
    p_ot.add_argument("--max-iters", dest="max_iters", type=int)
    p_ot.add_argument("--out", help="also write plan.csv and metrics.json here")
    p_ot.set_defaults(func=cmd_ot)

    p_gc = sub.add_parser("gradcheck", help="finite-difference audit of the loss paths")
    p_gc.add_argument("--task", choices=tuple(TASK_TABLE))
    p_gc.add_argument("--seed", type=int)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return code
    try:
        return args.func(args)
    except CheckpointVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERSION_MISMATCH
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHECKPOINT
    except (NumericalError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # a directory is no file, and a file no directory
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ProtosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
