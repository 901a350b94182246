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
import sys
from pathlib import Path

import numpy as np

from .checkpoint import assign_parameters, load_checkpoint, optimizer_state, save_checkpoint
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
    critic_loss,
    discriminator_logit,
    eval_generative,
    gen_task_corpus,
    generator_forward,
    generator_loss,
    train_metagan,
)
from .ot import Marginals, SinkhornConfig, entropic_objective, sinkhorn, transport_cost
from .ot.marginals import uniform_weights
from .protolearn import (
    PrototypeBank,
    TrainConfig,
    subsample_points,
    train_prototypes,
    transport_objective,
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


def _resolve(args, flag_map: dict) -> ResolvedConfig:
    file_values = read_config_file(args.config) if getattr(args, "config", None) else None
    return resolve_config(file_values, _override_strings(args, flag_map))


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_trace(path: Path, cfg: ResolvedConfig, columns, rows) -> None:
    lines = cfg.header_lines()
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row[0]) if i == 0 else _fmt(v) for i, v in enumerate(row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_default(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_metrics(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the task table: what each verb does for each task


def _sinkhorn_config(cfg: ResolvedConfig) -> SinkhornConfig:
    return SinkhornConfig(
        epsilon=cfg["sinkhorn.epsilon"],
        tol=cfg["sinkhorn.tol"],
        max_iters=cfg["sinkhorn.max_iters"],
        unroll_iters=cfg["sinkhorn.unroll_iters"],
        grad_mode=cfg["sinkhorn.grad_mode"],
    )


def _bank(sets, dim: int, k: int, rng) -> PrototypeBank:
    """Columns sampled from the first sets' points.

    With ``sets`` None the bank is a zero shell of the right shape, for eval to
    load a checkpoint into.
    """
    if sets is None:
        return PrototypeBank(Value(np.zeros((dim, k)), requires_grad=True))
    pool = np.vstack([batch.points for batch in sets[: min(len(sets), 64)]])
    return PrototypeBank.from_points(pool, k, rng, space="data-space")


class Task:
    """One experiment: its config, gen, build, train, evaluate and gradcheck.

    ``build`` returns (net, bank, checkpoint names of their parameters) for
    train and for eval; eval passes no sets and loads the checkpoint into them.
    Library functions are looked up in this module when a method runs, so a
    wrapper set on ``protoset.cli`` (perfbench's tracer) sees every call.
    """

    name: str
    columns = ("step", "transport_loss", "task_loss")

    def training_sets(self, cfg: ResolvedConfig):
        if cfg["corpus"]:
            _, sets, _ = load_corpus(cfg["corpus"])
            if not sets:
                raise ConfigError(f"corpus {cfg['corpus']!r} holds no sets")
            return sets
        return self.gen(cfg, cfg["count"], cfg["seed"])[0]


class EncoderTask(Task):
    """A SummaryNet and a data-space bank trained by ``train_prototypes``."""

    input_dim: int
    gradcheck_label = None

    def build(self, cfg: ResolvedConfig, sets):
        supervised = cfg["train.mode"] == "supervised"
        summary_cfg = SummaryNetConfig(
            input_dim=self.input_dim,
            n_prototypes=cfg["model.k"],
            encoder_widths=cfg["model.encoder_widths"],
            activation=cfg["model.activation"],
            pooling=cfg["model.pooling"],
            head_hidden=cfg["model.head_hidden"],
            output_dim=self.output_dim(cfg) if supervised else None,
            predict_hidden=cfg["model.predict_hidden"] or None,
        )
        net = SummaryNet(summary_cfg, np.random.default_rng(cfg["seed"]))
        bank = _bank(sets, self.input_dim, cfg["model.k"], np.random.default_rng(cfg["seed"] + 1))
        named = net.named_parameters()
        named["bank"] = bank.matrix
        return net, bank, named

    def train(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank, sets):
        train_cfg = TrainConfig(
            steps=cfg["train.steps"],
            lr=cfg["optim.lr"],
            lr_final=cfg["optim.lr_final"],
            optimizer=cfg["optim.kind"],
            batch_sets=cfg["train.batch_sets"],
            batch_points=cfg["train.batch_points"],
            metric=cfg["train.metric"],
            lambda_ot=cfg["train.lambda_ot"],
            sinkhorn=_sinkhorn_config(cfg),
            seed=cfg["seed"],
            log_every=cfg["train.log_every"],
        )
        loss_fn = self.task_loss() if cfg["train.mode"] == "supervised" else None
        trace = train_prototypes(sets, net, bank, train_cfg, loss_fn)
        return list(zip(trace.steps, trace.ot_losses, trace.task_losses)), trace.optimizers

    def eval_corpus(self, cfg: ResolvedConfig):
        return load_corpus(cfg["corpus"])[1] if cfg["corpus"] else self.eval_sets(cfg)

    def evaluate(self, cfg: ResolvedConfig, net: SummaryNet, bank: PrototypeBank) -> dict:
        if cfg["train.mode"] == "supervised":
            return self.score(cfg, net)
        # the training objective, on eval sets subsampled as in training
        sets = self.eval_corpus(cfg)
        rng = np.random.default_rng(cfg["eval.seed"])
        sk = _sinkhorn_config(cfg)
        total = 0.0
        with no_grad():
            for batch in sets:
                points = subsample_points(batch.points, cfg["train.batch_points"], rng)
                weights = net.summarize(points)
                loss = transport_objective(points, weights, bank, cfg["train.metric"], sk)
                total += loss.item()
        return {"mean_transport_loss": total / len(sets)}

    def gradcheck(self, seed: int):
        rng = np.random.default_rng(seed)
        # compact stand-in instance; widths kept small so checks stay quick
        net = SummaryNet(
            SummaryNetConfig(
                input_dim=self.input_dim,
                n_prototypes=4,
                encoder_widths=(10, 8),
                activation="tanh",
                head_hidden=(6,),
                output_dim=self.output_dim(resolve_config()),
                predict_hidden=(6,),
            ),
            rng,
        )
        points = rng.normal(size=(9, self.input_dim))
        batch = SetBatch(points, set_id=0, label=self.gradcheck_label)
        bank = PrototypeBank.from_points(rng.normal(size=(12, self.input_dim)), 4, rng)
        sk = SinkhornConfig(unroll_iters=10)
        loss_fn = self.task_loss()

        def combined() -> Value:
            weights, pred = net.summarize_with_prediction(batch.points)
            return loss_fn(pred, batch) + 0.5 * transport_objective(
                batch.points, weights, bank, "euclidean", sk
            )

        return [(f"{self.name}-combined", combined, net.parameters() + [bank.matrix])]


class MogTask(EncoderTask):
    name = "mog"
    input_dim = 2

    def spec(self, cfg: ResolvedConfig) -> MoGTaskSpec:
        return MoGTaskSpec(
            components=cfg["mog.components"],
            n_min=cfg["mog.n_min"],
            n_max=cfg["mog.n_max"],
            mean_low=cfg["mog.mean_low"],
            mean_high=cfg["mog.mean_high"],
            sigma=cfg["mog.sigma"],
        )

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return head_width(cfg["mog.components"])

    def task_loss(self):
        return mog_task_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_mog_corpus(self.spec(cfg), count, seed)
        return [s for s, _ in pairs], [p.to_dict() for _, p in pairs]

    def eval_sets(self, cfg: ResolvedConfig):
        return self.gen(cfg, cfg["eval.count"] or 500, cfg["eval.seed"])[0]

    def score(self, cfg: ResolvedConfig, net: SummaryNet) -> dict:
        pairs = [(batch, None) for batch in self.eval_corpus(cfg)]
        cap = cfg["mog.encode_cap"] or None
        metrics = {"mean_loglik": eval_mog_loglik(net, pairs, cap, seed=cfg["eval.seed"])}
        if not cfg["corpus"]:  # the generating parameters are known
            n = cfg["eval.count"] or 500
            metrics["oracle_mean_loglik"] = oracle_mean_loglik(self.spec(cfg), n, cfg["eval.seed"])
        return metrics


class DigitSumTask(EncoderTask):
    name = "digitsum"
    input_dim = 10
    gradcheck_label = 12

    def spec(self, cfg: ResolvedConfig, **fields) -> DigitSumSpec:
        base = dict(
            max_train_size=cfg["digitsum.max_train_size"],
            test_sizes=cfg["digitsum.test_sizes"],
            noise_sigma=cfg["digitsum.noise_sigma"],
            train_count=cfg["count"],
        )
        return DigitSumSpec(**{**base, **fields})

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return 1

    def task_loss(self):
        return digit_sum_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        size = cfg["digitsum.size"]
        if size:
            spec = self.spec(cfg, test_sizes=(size,), test_count_per_size=count)
            return gen_digit_test_corpora(spec, seed)[size], None
        return gen_digit_corpus(self.spec(cfg, train_count=count), seed), None

    def _test_corpora(self, cfg: ResolvedConfig) -> dict:
        spec = self.spec(cfg, test_count_per_size=cfg["eval.count"] or 200)
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
    gradcheck_label = 3

    def spec(self, cfg: ResolvedConfig, **fields) -> PointSetClassSpec:
        base = dict(
            n_points=cfg["pointset.n_points"],
            noise_sigma=cfg["pointset.noise_sigma"],
            count_per_class=cfg["pointset.count_per_class"],
            rotate=cfg["pointset.rotate"],
        )
        return PointSetClassSpec(**{**base, **fields})

    def output_dim(self, cfg: ResolvedConfig) -> int:
        return len(POINTSET_CLASSES)

    def task_loss(self):
        return xent_loss

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        return gen_pointset_corpus(self.spec(cfg), seed), None

    def eval_sets(self, cfg: ResolvedConfig):
        spec = self.spec(cfg, count_per_class=cfg["eval.count"] or 20)
        return gen_pointset_corpus(spec, cfg["eval.seed"])

    def score(self, cfg: ResolvedConfig, net: SummaryNet) -> dict:
        sets = self.eval_corpus(cfg)
        hits = 0
        with no_grad():
            for batch in sets:
                _, pred = net.summarize_with_prediction(batch.points)
                hits += int(int(np.argmax(pred.data)) == int(batch.label))
        return {"accuracy": hits / len(sets)}


class FewShotTask(Task):
    """Episodes are drawn from the seed, so there is no corpus to write or read."""

    name = "fewshot"

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        raise ConfigError(
            "fewshot episodes are generated on the fly from the seed; there is no corpus to write"
        )

    def training_sets(self, cfg: ResolvedConfig):
        return None

    def build(self, cfg: ResolvedConfig, sets):
        episode = EpisodeSpec(
            n_way=cfg["fewshot.n_way"],
            k_shot=cfg["fewshot.k_shot"],
            q_queries=cfg["fewshot.q_queries"],
            dim=cfg["fewshot.dim"],
        )
        fs_cfg = FewShotConfig(
            episode=episode,
            encoder_widths=cfg["fewshot.encoder_widths"],
            g_hidden=cfg["fewshot.g_hidden"] or None,
            bank_size=cfg["fewshot.bank"],
            lambda_ot=cfg["train.lambda_ot"],
            activation=cfg["fewshot.activation"],
            metric=cfg["fewshot.metric"],
            sinkhorn=_sinkhorn_config(cfg),
            episodes=cfg["fewshot.episodes"],
            lr=cfg["optim.lr"],
            lr_final=cfg["optim.lr_final"],
            optimizer=cfg["optim.kind"],
            mean_low=cfg["fewshot.mean_low"],
            mean_high=cfg["fewshot.mean_high"],
            sigma=cfg["fewshot.sigma"],
            n_base_classes=cfg["fewshot.n_base"],
            n_novel_classes=cfg["fewshot.n_novel"],
            class_seed=cfg["fewshot.class_seed"],
            seed=cfg["seed"],
            log_every=cfg["train.log_every"],
        )
        model = FewShotModel(fs_cfg, np.random.default_rng(cfg["seed"]))
        return model, model.bank, model.named_parameters()

    def train(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank, sets):
        trace = train_fewshot(model, model.config)
        return list(zip(trace.steps, trace.ot_losses, trace.task_losses)), trace.optimizers

    def evaluate(self, cfg: ResolvedConfig, model: FewShotModel, bank: PrototypeBank) -> dict:
        count = cfg["eval.count"] or 1000
        episodes = gen_episodes(model.config, "novel", seed=cfg["eval.seed"], count=count)
        return eval_fewshot(model, episodes)

    def gradcheck(self, seed: int):
        rng = np.random.default_rng(seed)
        fs_cfg = FewShotConfig(
            episode=EpisodeSpec(n_way=3, k_shot=2, q_queries=2, dim=5),
            encoder_widths=(8, 6),
            bank_size=4,
            lambda_ot=0.7,
            sinkhorn=SinkhornConfig(unroll_iters=10),
            mean_low=-1.0,
            mean_high=1.0,
            n_base_classes=8,
            n_novel_classes=4,
            episodes=1,
            seed=seed,
        )
        model = FewShotModel(fs_cfg, rng)
        episode = next(iter(gen_episodes(fs_cfg, "base", seed=seed, count=1)))

        def episode_loss() -> Value:
            return episode_objective(model, episode, fs_cfg)[0]

        return [("fewshot-episode", episode_loss, model.parameters())]


class MetaGanTask(Task):
    name = "metagan"
    columns = ("step", "critic_loss", "generator_loss", "transport_loss")

    def spec(self, cfg: ResolvedConfig) -> TaskFamilySpec:
        return TaskFamilySpec(
            family=cfg["metagan.family"],
            n_points=cfg["metagan.n_points"] or None,
            n_sets=cfg["count"],
        )

    def gen(self, cfg: ResolvedConfig, count: int, seed: int):
        pairs = gen_task_corpus(self.spec(cfg), count=count, seed=seed)
        return [s for s, _ in pairs], [p for _, p in pairs]

    def build(self, cfg: ResolvedConfig, sets):
        ot = None
        if cfg["metagan.use_ot"]:
            ot = TrainConfig(
                lr=cfg["optim.lr"],
                optimizer=cfg["optim.kind"],
                metric=cfg["metagan.metric"],
                sinkhorn=_sinkhorn_config(cfg),
            )
        gan_cfg = GanConfig(
            noise_dim=cfg["metagan.noise_dim"],
            eta_critic=cfg["metagan.eta_critic"],
            generator_widths=cfg["metagan.generator_widths"],
            critic_widths=cfg["metagan.critic_widths"],
            conditioning=cfg["metagan.conditioning"],
            batch=cfg["metagan.batch"],
            iterations=cfg["metagan.iterations"],
            lr_generator=cfg["metagan.lr_generator"],
            lr_critic=cfg["metagan.lr_critic"],
            non_saturating=cfg["metagan.non_saturating"],
            mse_weight=cfg["metagan.mse_weight"],
            ot=ot,
            seed=cfg["seed"],
            log_every=cfg["train.log_every"],
        )
        spec = self.spec(cfg)
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
        pairs = [(batch, {}) for batch in sets]
        trace = train_metagan(pairs, model, bank, model.config)
        rows = zip(trace.steps, trace.critic_losses, trace.generator_losses, trace.ot_losses)
        return list(rows), trace.optimizers

    def evaluate(self, cfg: ResolvedConfig, model: MetaGan, bank: PrototypeBank) -> dict:
        _, tasks = self.gen(cfg, cfg["eval.count"] or 20, cfg["eval.seed"])
        return eval_generative(model, tasks, seed=cfg["eval.seed"])

    def gradcheck(self, seed: int):
        rng = np.random.default_rng(seed)
        spec = TaskFamilySpec(family="gauss1d", n_points=12)
        gan_cfg = GanConfig(
            noise_dim=2,
            generator_widths=(10, 8),
            critic_widths=(10, 8),
            conditioning="conditional-critic",
            batch=8,
            iterations=1,
            seed=seed,
        )
        summary = SummaryNet(
            SummaryNetConfig(input_dim=1, n_prototypes=2, encoder_widths=(8, 6)), rng
        )
        model = MetaGan(spec, gan_cfg, summary, rng)
        real = rng.normal(size=(8, 1))
        z = rng.normal(size=(8, 2))
        h = model.summarize(real)

        def gen_path() -> Value:
            fake = generator_forward(model.generator, z, h)
            logits = discriminator_logit(model.critic, fake, h)
            return generator_loss(logits, non_saturating=True)

        def critic_path() -> Value:
            fake = generator_forward(model.generator, z, h)
            real_logits = discriminator_logit(model.critic, real, h)
            fake_logits = discriminator_logit(model.critic, fake.detach(), h)
            return critic_loss(real_logits, fake_logits)

        # the generator loss reaches both nets; the critic step detaches fakes
        # on purpose, so its check covers critic parameters only
        both = model.generator.parameters() + model.critic.parameters()
        return [
            ("metagan-generator", gen_path, both),
            ("metagan-critic", critic_path, model.critic.parameters()),
        ]


# keys in config.TASKS order; gradcheck without --task runs them in this order
TASK_TABLE = {
    task.name: task
    for task in (MogTask(), DigitSumTask(), PointSetTask(), FewShotTask(), MetaGanTask())
}


# ---------------------------------------------------------------------------
# verb: gen


def cmd_gen(args) -> int:
    cfg = _resolve(
        args,
        {"task": "task", "count": "count", "seed": "seed", "out": "out", "components": "mog.components"},
    )
    task = cfg["task"]
    sets, truths = TASK_TABLE[task].gen(cfg, cfg["count"], cfg["seed"])
    out = Path(cfg["out"])
    path = out / "corpus.jsonl"
    meta = {"task": task, "seed": cfg["seed"], "config": cfg.as_dict()}
    save_corpus(path, sets, meta=meta, truths=truths)
    print(f"wrote {len(sets)} sets to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: train


def cmd_train(args) -> int:
    cfg = _resolve(
        args,
        {
            "task": "task",
            "corpus": "corpus",
            "steps": "train.steps",
            "seed": "seed",
            "out": "out",
            "lambda_ot": "train.lambda_ot",
        },
    )
    task = TASK_TABLE[cfg["task"]]
    sets = task.training_sets(cfg)
    net, bank, named = task.build(cfg, sets)
    rows, optimizers = task.train(cfg, net, bank, sets)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    _write_trace(trace_path, cfg, task.columns, rows)
    groups: dict = {}
    for name, opt in optimizers.items():
        if opt is not None:
            groups.update(optimizer_state(opt, name))
    step = len(rows)
    ck_path = out / f"checkpoint.{step}"
    meta = {"task": task.name, "bank_space": bank.space}
    save_checkpoint(
        ck_path,
        named,
        step,
        cfg.as_dict(),
        cfg.config_hash(),
        optimizer=groups,
        meta=meta,
    )
    print(f"trained {task.name} for {step} steps; wrote {trace_path} and {ck_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb: eval


def cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    stored = config_from_json_dict(ck.config)
    if stored.config_hash() != ck.config_hash:
        raise CheckpointError("checkpoint config does not match its recorded hash")
    overrides = _override_strings(
        args, {"corpus": "corpus", "seed": "eval.seed", "count": "eval.count", "out": "out"}
    )
    # fresh eval data by default; the stored corpus path was the training input
    overrides.setdefault("corpus", "")
    cfg = stored.with_overrides(overrides)
    task = ck.meta.get("task", cfg["task"])
    if task not in TASK_TABLE:
        raise ConfigError(f"eval does not support task {task!r}")
    entry = TASK_TABLE[task]
    net, bank, named = entry.build(cfg, None)
    assign_parameters(named, ck.params)
    metrics = entry.evaluate(cfg, net, bank)
    out = Path(cfg["out"])
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
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    cost = _read_cost(args.cost)
    a = _parse_weights(args.a, cost.shape[0], "a")
    b = _parse_weights(args.b, cost.shape[1], "b")
    sk = SinkhornConfig(
        epsilon=args.eps if args.eps is not None else 0.1,
        tol=args.tol if args.tol is not None else 1e-6,
        max_iters=args.max_iters if args.max_iters is not None else 500,
    )
    result = sinkhorn(cost, Marginals(a, b), sk)
    report = {
        "value": transport_cost(result, cost),
        "entropic_value": entropic_objective(result.plan, cost, sk.epsilon),
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "epsilon": sk.epsilon,
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        out = Path(args.out)
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
    seed = args.seed if args.seed is not None else 0
    results = {}
    worst = 0.0
    rng = np.random.default_rng(seed)
    for task in tasks:
        for name, fn, params in TASK_TABLE[task].gradcheck(seed):
            report = check_gradients(fn, params, rng, samples_per_param=3)
            results[name] = report.max_rel_err
            worst = max(worst, report.max_rel_err)
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
    except FileNotFoundError as exc:
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
