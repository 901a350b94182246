"""Command line harness: generate corpora, train, evaluate, solve, gradcheck.

Five verbs share one flat configuration schema (see config.py).  Every
artifact embeds the resolved configuration and seed that produced it, file
names are fixed (corpus.jsonl, trace.csv, metrics.json, checkpoint.<step>),
and nothing written depends on wall-clock time.  Where files are read and
written is set by the ``--corpus`` and ``--out`` flags alone, which no
artifact records, so a rerun with the same configuration reproduces
artifacts byte for byte, in any directory.

Exit codes: 0 success, 1 unexpected error, 3 missing file; a package error
exits with the code its class carries (see errors.py): 2 bad configuration or
input, 4 corrupt checkpoint, 5 checkpoint format mismatch, 6 numerical failure
(divergence or a failed gradient check).
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
    SCHEMA,
    ResolvedConfig,
    config_from_json_dict,
    key_for,
    read_config_file,
    reads,
    resolve_config,
    schema_help,
)
from .diffcore import Value, check_gradients, no_grad, reduce_axis
from .errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    NumericalError,
    ProtosetError,
    read_text,
    strict_json,
)
from .fewshot import (
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
from .ot import Marginals, SinkhornConfig, sinkhorn
from .ot.cost import NORM_FLOOR, degenerate_sq_norms
from .ot.marginals import uniform_weights
from .protolearn import (
    PrototypeBank,
    TrainConfig,
    set_objective,
    subsample_points,
    train_prototypes,
)
from .summarynet import SummaryNet, SummaryNetConfig
from .tasks import (
    DigitSumSpec,
    MoGTaskSpec,
    PointSetClassSpec,
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
from .tasks.mog import head_width, mean_set_loglik, mog_head_value, oracle_mean_loglik
from .tasks.pointset import POINTSET_CLASSES

EXIT_OK, EXIT_ERROR, EXIT_MISSING_FILE = 0, 1, 3
# the codes of the failure classes are theirs; these names read them
EXIT_CONFIG, EXIT_NUMERIC = ConfigError.exit_code, NumericalError.exit_code
EXIT_BAD_CHECKPOINT, EXIT_VERSION_MISMATCH = (CheckpointError.exit_code,
                                              CheckpointVersionError.exit_code)

GRADCHECK_THRESHOLD = 1e-4

# ---------------------------------------------------------------------------
# configuration plumbing

# every flag that sets a config key, per verb: build_parser adds these, and a
# flag's value is parsed and checked as the same key's --set value is
KEY_FLAGS = {
    "gen": {"--task": "task", "--count": "count", "--seed": "seed",
            "--components": "mog.components"},
    "train": {"--task": "task", "--steps": "train.steps", "--seed": "seed",
              "--lambda-ot": "train.lambda_ot"},
    "eval": {"--seed": "eval.seed", "--count": "eval.count"},
    "ot": {"--eps": "sinkhorn.epsilon", "--tol": "sinkhorn.tol",
           "--max-iters": "sinkhorn.max_iters"},
    "gradcheck": {"--seed": "seed"},
}


def _file_values(args) -> dict:
    """Raw strings of the --config file; none without one."""
    return read_config_file(args.config) if getattr(args, "config", None) else {}


def _override_strings(args) -> dict:
    """Raw override strings from --set pairs and the verb's key flags (flags win)."""
    overrides: dict[str, str] = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for key in KEY_FLAGS[args.verb].values():
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    return overrides


def _resolve(args) -> tuple[ResolvedConfig, set]:
    """The resolved config and the keys that the file, --set or a flag gave."""
    file_values, overrides = _file_values(args), _override_strings(args)
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


def _out_dir(out) -> Path:
    """The ``--out`` directory, checked before any work: a file in its place exits 3."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is a file, not a directory")
    return path


def _write_metrics(path: Path, payload: dict) -> None:
    text = strict_json(payload, "the report", indent=2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the task table: what each verb does for each task


def _predictions(net: SummaryNet, sets, cap: int = 0, rng=None) -> np.ndarray:
    """The prediction head's output on each of ``sets``, stacked in set order, with no graph;
    at ``cap`` > 0 the encoder reads at most ``cap`` points of each, drawn from ``rng`` in order."""
    with no_grad():
        return np.stack([net.summarize_with_prediction(
            subsample_points(batch.points, cap, rng) if cap else batch.points)[1].data
            for batch in sets])


def _share_labelled(predicted: np.ndarray, sets) -> float:
    """The share of ``sets`` whose label equals ``predicted``, compared as Python ints: an
    int64 array of labels would call 2**53 + 1 equal to the float 2**53."""
    labels = np.array([int(batch.label) for batch in sets], dtype=object)
    return np.count_nonzero(predicted == labels) / len(sets)


def _refuse_corpus(corpus, why: str) -> None:
    """A corpus given where the task reads none, ``why`` not empty, exits 2 before it is opened."""
    if corpus and why:
        raise ConfigError(f"{why}; corpus must be empty")


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
    # the keys eval may change beside eval.count and eval.seed: those of the
    # data it draws, and those that the supervised score of any sets reads; the
    # checkpoint fixes the model, and only training reads the rest
    eval_keys: tuple = ()
    score_keys: tuple = ()
    no_corpus = ""  # why eval refuses a corpus, if it does
    label_bound = None  # a corpus label must be a whole number in [0, label_bound); None: unread
    gradcheck_shapes: dict  # overrides that shrink model and data for gradcheck

    def train_config(self, cfg: ResolvedConfig) -> TrainConfig:
        """The knobs of the keys the task reads; one it never reads keeps its default."""
        knobs = {f.attr: cfg[key_for(self.name, k)] for k, f in SCHEMA.items()
                 if f.owner is TrainConfig and reads(self.name, key_for(self.name, k))}
        return TrainConfig(**knobs, sinkhorn=cfg.build(SinkhornConfig), seed=cfg["seed"])

    def refuse_unread(self, given: set, verb: str) -> None:
        """Exit 2 on the first key of ``given``, in schema order, that the task never reads.

        ``given`` holds the keys of the file, --set and the ``verb`` flags; the
        error names the key of the task's section that does the key's job, if any.
        """
        for key in SCHEMA:
            if key in given and not reads(self.name, key):
                flag = next((f" (or {f})" for f, k in KEY_FLAGS[verb].items() if k == key), "")
                instead = key_for(self.name, key)
                hint = f"; set {instead}" if instead != key else ""
                raise ConfigError(f"{key}{flag} is not read by {self.name}{hint}")

    def eval_takes(self, cfg: ResolvedConfig, corpus) -> tuple:
        """The keys eval may change; ``score_keys`` only those of a supervised model.

        A corpus replaces the drawn data and its count, so then only the score
        reads a key: the supervised score its ``score_keys``, the transport
        objective the seed of its subsample.
        """
        _refuse_corpus(corpus, self.no_corpus)  # before any key it would take
        scored = self.score_keys if cfg["train.mode"] == "supervised" else ("eval.seed",)
        if corpus:
            return scored
        return tuple(dict.fromkeys(("eval.count", "eval.seed") + self.eval_keys + scored))

    def read_corpus(self, cfg: ResolvedConfig, path):
        """The sets of the corpus at ``path``; no sets, points of another dimension
        than the task reads, or a label the task cannot read, exit 2."""
        sets = load_corpus(path)
        if not sets:
            raise ConfigError(f"corpus {path!r} holds no sets")
        dim = self.point_dim(cfg)
        if sets[0].dim != dim:  # load_corpus gives every set the first set's dimension
            raise ConfigError(f"corpus {path!r} holds {sets[0].dim}-D points, but "
                              f"{self.name} reads {dim}-D points")
        for batch in sets if self.label_bound else ():
            label = batch.label
            try:  # None or a string fails float() or the comparison, a huge int float()
                whole = float(label).is_integer() and 0 <= label < self.label_bound
            except (TypeError, ValueError, OverflowError):
                whole = False
            if isinstance(label, bool) or not whole:
                raise ConfigError(f"{path}: set {batch.set_id} has label {label!r}, "
                                  f"not a whole number in [0, {self.label_bound})")
        return sets

    def refuse_points(self, sets, where: str, cosine: bool) -> None:
        """Exit 2 on a set of ``where`` with a point whose squared norm overflows to inf (a
        coordinate above about 1e154), on which training and eval overflow; with ``cosine``,
        where the run builds a cosine transport cost on ``sets``, also on one of norm below
        ``NORM_FLOOR``: the points ``degenerate_sq_norms`` refuses for the cost itself."""
        # set by set: no array of every point (150,000 in a mog eval)
        with np.errstate(over="ignore"):  # the cost's own formula, so both agree at the floor
            for batch in sets:
                sq = reduce_axis(np.add, batch.points * batch.points, 1)
                bad = degenerate_sq_norms(sq) if cosine else sq == np.inf
                if not bad.any():
                    continue
                what = (f"of norm below {NORM_FLOOR:g}" if sq[np.argmax(bad)] < NORM_FLOOR**2
                        else "whose squared norm overflows a float (a coordinate above about 1e154)")
                why = ("for which the cosine cost is undefined" if cosine else
                       "on which the model overflows")
                raise ConfigError(f"{where}: set {batch.set_id} has a point {what}, {why}")

    def training_sets(self, cfg: ResolvedConfig, corpus):
        """The sets of the file ``corpus``, or without one, ``count`` sets drawn from the seed;
        a point that ``refuse_points`` refuses exits 2 under every metric and lambda_ot."""
        if corpus:
            sets = self.read_corpus(cfg, corpus)
        else:
            sets = self.gen(cfg, cfg[key_for(self.name, "count")], cfg["seed"])[0]
        cosine = self.transports(cfg) and cfg[key_for(self.name, "train.metric")] == "cosine"
        self.refuse_points(sets, corpus or f"the sets drawn from seed {cfg['seed']}", cosine)
        return sets

    def gradcheck(self, seed: int):
        """(path name, loss closure, parameters) per objective the training loop differentiates,
        on the model, bank and data that train builds from the defaults and ``gradcheck_shapes``."""
        overrides = {**self.gradcheck_shapes, "task": self.name, "seed": str(seed)}
        cfg = resolve_config(overrides=overrides)
        sets = self.training_sets(cfg, None)
        net, bank, named = self.build(cfg, sets)
        return self.objectives(cfg, net, bank, named, sets)


_ENCODER_SHAPES = {"count": "2", "model.k": "4", "model.encoder_widths": "10,8",
                   "model.head_hidden": "6", "train.batch_points": "9"}


class EncoderTask(Task):
    """A SummaryNet and a data-space bank trained by ``train_prototypes``."""

    input_dim: int
    gradcheck_shapes = _ENCODER_SHAPES

    def point_dim(self, cfg: ResolvedConfig) -> int:
        return self.input_dim

    def build(self, cfg: ResolvedConfig, sets):
        supervised = cfg["train.mode"] == "supervised"
        summary_cfg = cfg.build(SummaryNetConfig, input_dim=self.input_dim,
                                output_dim=self.output_dim(cfg) if supervised else None)
        net = SummaryNet(summary_cfg, np.random.default_rng(cfg["seed"]))
        bank = _bank(sets, self.input_dim, cfg["model.k"], np.random.default_rng(cfg["seed"] + 1))
        named = net.named_parameters()
        named["bank"] = bank.matrix
        return net, bank, named

    def loss_fn(self, cfg: ResolvedConfig):  # None: the transport term alone
        return self.task_loss() if cfg["train.mode"] == "supervised" else None

    def transports(self, cfg: ResolvedConfig) -> bool:
        """Whether training builds the transport cost: a zero lambda_ot leaves it out."""
        return cfg["train.mode"] == "unsupervised" or cfg["train.lambda_ot"] != 0

    def train(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank, sets):
        return train_prototypes(sets, net, bank, self.train_config(cfg), self.loss_fn(cfg))

    def objectives(self, cfg: ResolvedConfig, net, bank, named, sets):
        config, loss_fn = self.train_config(cfg), self.loss_fn(cfg)

        def combined() -> Value:  # a fresh rng: every call reads the same points
            rng = np.random.default_rng(cfg["seed"])
            return set_objective(sets[0].points, sets[0].label, net, bank, config, loss_fn, rng)[0]

        return [(f"{self.name}-combined", combined, list(named.values()))]

    def eval_checked(self, cfg: ResolvedConfig, sets, corpus=None) -> list:
        """``sets``, of the file ``corpus`` or drawn from eval.seed, once ``refuse_points``
        passes them; eval builds a cosine cost only on an unsupervised model's sets."""
        cosine = (cfg["train.mode"] == "unsupervised"
                  and cfg[key_for(self.name, "train.metric")] == "cosine")
        self.refuse_points(sets, corpus or f"the sets drawn from eval.seed {cfg['eval.seed']}",
                           cosine)
        return sets

    def evaluate(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank, sets,
                 corpus) -> dict:  # sets: those of the file corpus; None: the task's own eval data
        if sets:
            self.eval_checked(cfg, sets, corpus)
        if cfg["train.mode"] == "supervised":
            return self.score(cfg, net, sets)
        # the training objective, on eval sets subsampled as in training
        sets = sets or self.eval_sets(cfg)
        rng, config = np.random.default_rng(cfg["eval.seed"]), self.train_config(cfg)
        with no_grad():  # summed in set order
            total = sum(set_objective(batch.points, batch.label, net, bank, config, rng=rng)[2]
                        for batch in sets)
        return {"mean_transport_loss": total / len(sets)}


class MogTask(EncoderTask):
    name = "mog"
    input_dim = 2
    eval_keys = ("mog.n_min", "mog.n_max", "mog.sigma", "mog.mean_low", "mog.mean_high")
    score_keys = ("eval.seed", "mog.encode_cap")  # the seed draws the capped points

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return head_width(cfg["mog.components"])

    def task_loss(self):
        return mog_task_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_mog_corpus(cfg.build(MoGTaskSpec), count, seed)
        return [s for s, _ in pairs], [p.to_dict() for _, p in pairs]

    def eval_pairs(self, cfg: ResolvedConfig):
        """Fresh eval sets with their generating parameters, drawn once per eval."""
        pairs = gen_mog_corpus(cfg.build(MoGTaskSpec), cfg["eval.count"] or 500, cfg["eval.seed"])
        self.eval_checked(cfg, [batch for batch, _ in pairs])
        return pairs

    def eval_sets(self, cfg: ResolvedConfig):
        return [batch for batch, _ in self.eval_pairs(cfg)]

    def score(self, cfg: ResolvedConfig, net: SummaryNet, sets) -> dict:
        # the training NLL on the full set; encode_cap > 0 bounds the points the encoder reads
        cap, rng = cfg["mog.encode_cap"], np.random.default_rng(cfg["eval.seed"])
        pairs = None if sets else self.eval_pairs(cfg)  # a file's sets: no known mixture, no oracle
        sets = sets or [batch for batch, _ in pairs]
        with np.errstate(over="ignore", invalid="ignore"):  # the report refuses a non-finite score
            raw = Value(_predictions(net, sets, cap, rng))
            mixtures = mog_head_value(raw, raw.shape[-1] // 5)
            metrics = {"mean_loglik": mean_set_loglik(sets, *(part.data for part in mixtures))}
        if pairs:
            metrics["oracle_mean_loglik"] = oracle_mean_loglik(pairs)
        return metrics


class DigitSumTask(EncoderTask):
    name = "digitsum"
    input_dim = 10
    label_bound = float("inf")
    eval_keys = ("digitsum.test_sizes", "digitsum.noise_sigma")

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return 1

    def task_loss(self):
        return digit_sum_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        size = cfg["digitsum.size"]
        if size:
            spec = cfg.build(DigitSumSpec, test_sizes=(size,))
            return gen_digit_test_corpora(spec, count, seed)[size], None
        return gen_digit_corpus(cfg.build(DigitSumSpec), count, seed), None

    def _test_corpora(self, cfg: ResolvedConfig) -> dict:
        count = cfg["eval.count"] or 200
        corpora = gen_digit_test_corpora(cfg.build(DigitSumSpec), count, cfg["eval.seed"])
        self.eval_checked(cfg, [batch for sets in corpora.values() for batch in sets])
        return corpora

    def eval_sets(self, cfg: ResolvedConfig):
        return [batch for sets in self._test_corpora(cfg).values() for batch in sets]

    def score(self, cfg: ResolvedConfig, net: SummaryNet, sets) -> dict:
        def accuracy(each) -> float:  # a NaN or an infinity rounds (half to even) to no label
            return _share_labelled(np.rint(_predictions(net, each)[:, 0]), each)

        if sets:
            return {"accuracy": accuracy(sets)}
        by_size = {str(size): accuracy(each) for size, each in self._test_corpora(cfg).items()}
        return {"accuracy_by_size": by_size, "mean_accuracy": sum(by_size.values()) / len(by_size)}


class PointSetTask(EncoderTask):
    name = "pointset"
    input_dim = 3
    label_bound = len(POINTSET_CLASSES)
    eval_keys = ("pointset.n_points", "pointset.noise_sigma", "pointset.rotate")
    gradcheck_shapes = {**_ENCODER_SHAPES, "pointset.count_per_class": "1"}

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return len(POINTSET_CLASSES)

    def task_loss(self):
        return xent_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        return gen_pointset_corpus(cfg.build(PointSetClassSpec, count_per_class=count), seed), None

    def eval_sets(self, cfg: ResolvedConfig):
        return self.eval_checked(cfg, self.gen(cfg, cfg["eval.count"] or 20, cfg["eval.seed"])[0])

    def score(self, cfg: ResolvedConfig, net: SummaryNet, sets) -> dict:
        sets = sets or self.eval_sets(cfg)
        return {"accuracy": _share_labelled(np.argmax(_predictions(net, sets), axis=1), sets)}


class FewShotTask(Task):
    """The episodes are drawn from the seed, so there is no corpus to write or read."""

    name = "fewshot"
    no_corpus = "fewshot episodes are generated on the fly from the seed"
    eval_keys = ("fewshot.n_way", "fewshot.k_shot", "fewshot.q_queries", "fewshot.sigma",
                 "fewshot.mean_low", "fewshot.mean_high", "fewshot.n_base", "fewshot.n_novel",
                 "fewshot.class_seed")
    # unset, lambda_ot leaves the transport term out of the episode loss
    gradcheck_shapes = {"fewshot.n_way": "3", "fewshot.k_shot": "2", "fewshot.q_queries": "2",
                        "fewshot.dim": "5", "fewshot.encoder_widths": "8,6", "fewshot.bank": "4",
                        "train.lambda_ot": "1"}

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        raise ConfigError(f"{self.no_corpus}; there is no corpus to write")

    def training_sets(self, cfg: ResolvedConfig, corpus):
        _refuse_corpus(corpus, self.no_corpus)

    def build(self, cfg: ResolvedConfig, sets):
        model = FewShotModel(cfg.build(FewShotConfig), np.random.default_rng(cfg["seed"]))
        return model, model.bank, model.named_parameters()

    def train(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank, sets):
        return train_fewshot(model, self.train_config(cfg))

    def evaluate(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank, sets,
                 corpus) -> dict:
        return eval_fewshot(model, seed=cfg["eval.seed"], count=cfg["eval.count"] or 1000)

    def objectives(self, cfg: ResolvedConfig, model: FewShotModel, bank, named, sets):
        episode = next(gen_episodes(model.config, "base", seed=cfg["seed"], count=1))
        config = self.train_config(cfg)

        def episode_loss() -> Value:
            return episode_objective(model, episode, config)[0]

        return [("fewshot-episode", episode_loss, list(named.values()))]


class MetaGanTask(Task):
    name = "metagan"
    no_corpus = "metagan is scored on tasks generated from eval.seed"
    # the conditional critic and the moment term are off by default and on
    # here, so that their gradients are checked too
    gradcheck_shapes = {"count": "2", "metagan.n_points": "12", "metagan.summary_widths": "8,6",
                        "metagan.generator_widths": "10,8", "metagan.critic_widths": "10,8",
                        "metagan.batch": "8", "metagan.conditioning": "conditional-critic",
                        "metagan.mse_weight": "0.5"}

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_task_corpus(cfg.build(TaskFamilySpec), count=count, seed=seed)
        return [s for s, _ in pairs], [p for _, p in pairs]

    def point_dim(self, cfg: ResolvedConfig) -> int:
        return cfg.build(TaskFamilySpec).dim

    def transports(self, cfg: ResolvedConfig) -> bool:
        return cfg["metagan.use_ot"]

    def build(self, cfg: ResolvedConfig, sets):
        ot = self.train_config(cfg) if self.transports(cfg) else None
        gan_cfg = cfg.build(GanConfig, ot=ot, seed=cfg["seed"], log_every=cfg["train.log_every"])
        spec = cfg.build(TaskFamilySpec)
        summary_cfg = SummaryNetConfig(input_dim=spec.dim, n_prototypes=cfg["metagan.k"],
                                       encoder_widths=cfg["metagan.summary_widths"])
        summary = SummaryNet(summary_cfg, np.random.default_rng(cfg["seed"]))
        bank = _bank(sets, spec.dim, cfg["metagan.k"], np.random.default_rng(cfg["seed"] + 2))
        model = MetaGan(spec, gan_cfg, summary, bank, np.random.default_rng(cfg["seed"] + 1))
        return model, model.bank, model.named_parameters()

    def train(self, cfg: ResolvedConfig, model: MetaGan, bank: PrototypeBank, sets):
        return train_metagan(sets, model)

    def evaluate(self, cfg: ResolvedConfig, model: MetaGan, bank: PrototypeBank, sets,
                 corpus) -> dict:
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
            ("metagan-critic", lambda: critic_objective(model, real, z, h), critic),
            ("metagan-generator", lambda: generator_objective(model, real, z, h),
             model.generator.parameters() + critic),
            ("metagan-transport",
             lambda: set_objective(real, None, model.summary, bank, config.ot)[0], transport),
        ]


# keys in config.TASKS order; gradcheck without --task runs them in this order
TASK_TABLE = {
    task.name: task
    for task in (MogTask(), DigitSumTask(), PointSetTask(), FewShotTask(), MetaGanTask())
}


# ---------------------------------------------------------------------------
# verb: gen


def cmd_gen(args) -> int:
    cfg, given = _resolve(args)
    task = cfg["task"]
    TASK_TABLE[task].refuse_unread(given, "gen")
    out = _out_dir(args.out)
    sets, truths = TASK_TABLE[task].gen(cfg, cfg[key_for(task, "count")], cfg["seed"])
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
    cfg, given = _resolve(args)
    task = TASK_TABLE[cfg["task"]]
    task.refuse_unread(given, "train")
    out = _out_dir(args.out)
    sets = task.training_sets(cfg, args.corpus)
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
    given = {**_file_values(args), **_override_strings(args)}
    cfg = stored.with_overrides(given)
    task = stored["task"]
    entry = TASK_TABLE[task]
    takes = entry.eval_takes(stored, args.corpus)
    for key in given:
        if key not in takes:
            raise ConfigError(f"eval of {task} cannot change {key}, which the checkpoint fixes "
                              f"or eval never reads; it takes {', '.join(takes) or 'no key'}")
    out = _out_dir(args.out)
    sets = entry.read_corpus(cfg, args.corpus) if args.corpus else None  # before any model
    net, bank, named = entry.build(cfg, None)
    assign_parameters(named, ck.params)
    metrics = entry.evaluate(cfg, net, bank, sets, args.corpus)
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
        f"{k}={v}" for k, v in sorted(metrics.items()) if isinstance(v, (int, float))
    )
    print(f"eval {task} at step {ck.step}: {summary} (wrote {path})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: ot


def _parse_weights(text, n: int, name: str) -> np.ndarray:
    if text is None:
        return uniform_weights(n)
    try:
        return np.asarray([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"--{name} expects comma-separated numbers, got {text!r}") from None


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
    sk = _resolve(args)[0].build(SinkhornConfig)
    cost = _read_cost(args.cost)
    a = _parse_weights(args.a, cost.shape[0], "a")
    b = _parse_weights(args.b, cost.shape[1], "b")
    result = sinkhorn(cost, Marginals(a, b), sk)
    if not np.isfinite(cost).all():  # nan and -inf stop the solver; +inf makes <T, C> nan
        raise NumericalError(f"{args.cost}: the cost has an infinite entry")
    report = {
        "value": result.transport_cost,
        "entropic_value": result.entropic_value,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "epsilon": sk.epsilon,
    }
    print(strict_json(report, "the report"))
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
    seed = _resolve(args)[0]["seed"]  # checked as train checks it
    results = {}
    rng = np.random.default_rng(seed)
    for task in tasks:
        for name, fn, params in TASK_TABLE[task].gradcheck(seed):
            results[name] = check_gradients(fn, params, rng, samples_per_param=3)
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

    def verb(name, func, text, common=True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if common:
            p.add_argument("--config", help="key = value configuration file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key")
            p.add_argument("--out", default="runs", help="artifact directory (default: runs)")
        for flag, key in KEY_FLAGS[name].items():
            p.add_argument(flag, dest=key, metavar="VALUE", help=f"sets {key}")
        return p

    verb("gen", cmd_gen, "write a corpus.jsonl")
    p_train = verb("train", cmd_train, "train and write trace.csv plus a checkpoint")
    p_train.add_argument("--corpus", help="input corpus path (default: sets drawn from the seed)")
    p_eval = verb("eval", cmd_eval, "evaluate a checkpoint and write metrics.json")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", help="eval corpus path (default: data drawn from eval.seed)")
    p_ot = verb("ot", cmd_ot, "solve one transport instance from a cost CSV", common=False)
    p_ot.add_argument("--cost", required=True, help="comma-separated cost matrix file")
    p_ot.add_argument("--a", help="row marginal, comma-separated (default uniform)")
    p_ot.add_argument("--b", help="column marginal, comma-separated (default uniform)")
    p_ot.add_argument("--out", help="also write plan.csv and metrics.json here")
    p_gc = verb("gradcheck", cmd_gradcheck, "finite-difference audit of the loss paths",
                common=False)
    p_gc.add_argument("--task", choices=tuple(TASK_TABLE))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ProtosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    # a directory is no file, and a file no directory
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    # no bound on a size key can know the machine's memory, so numpy's refusal is the bound
    except MemoryError as exc:
        print(f"error: {args.verb}: a size in the config is too large for this machine's "
              f"memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
