"""Summary-conditioned toy GAN over families of simple distributions.

Each task is a set of i.i.d. samples from a randomly parameterized 1-D or 2-D
distribution.  A permutation-invariant summary h of the set conditions a
pushforward generator on concatenated [noise, h]; a sigmoid critic scores
samples.  The summary network and its prototype bank are trained by the
unsupervised prototype loop's transport loss and parameter update on one set,
interleaved between the critic and generator updates, and the three updates
of an iteration are one step of ``protolearn.fit``, so the trainers cannot
drift apart.  Generation quality is scored distribution-to-distribution with the
energy distance plus first/second moment errors against the true parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .diffcore import Value, as_value, concat, no_grad
from .diffcore.optim import make_optimizer
from .errors import ConfigError, NumericalError, ShapeError, bounded, check_fields
from .nn import MLP
from .protolearn import (
    PrototypeBank,
    TrainConfig,
    apply_update,
    fit,
    set_objective,
    subsample_points,
)
from .summarynet import SetBatch, SummaryNet

FAMILIES = ("gauss1d", "gauss2d", "multi1d")
FAMILY_DIM = {"gauss1d": 1, "gauss2d": 2, "multi1d": 1}
FAMILY_POINTS = {"gauss1d": 50, "gauss2d": 100, "multi1d": 100}
CONDITIONING_MODES = ("generator-only", "conditional-critic")
MULTI_KINDS = ("exp", "gauss", "laplace")

# parameter ranges for the synthetic task families
MEAN_1D = (-1.0, 1.0)
VAR_1D = (0.5, 2.0)
RATE_EXP = (0.5, 2.0)
MEAN_2D = (-5.0, 5.0)
VAR_2D = (1.0, 2.0)
COV_2D = (-0.5, 0.5)


@dataclass(frozen=True)
class TaskFamilySpec:
    """Which distribution family to draw tasks from, and at what set size."""

    family: str = bounded(FAMILIES, "gauss1d")
    n_points: int = 0  # 0 picks the family default

    def __post_init__(self):
        check_fields(self)
        if self.n_points and self.n_points < 2:
            raise ConfigError(
                f"n_points must be 0 (family default) or at least 2, got {self.n_points}"
            )

    @property
    def dim(self) -> int:
        return FAMILY_DIM[self.family]

    @property
    def points_per_set(self) -> int:
        return self.n_points or FAMILY_POINTS[self.family]


def sample_task_params(spec: TaskFamilySpec, rng: np.random.Generator) -> dict:
    """Ground-truth parameters for one task, drawn from the family's ranges."""
    if spec.family == "gauss1d":
        return {
            "family": "gauss1d",
            "mean": float(rng.uniform(*MEAN_1D)),
            "var": float(rng.uniform(*VAR_1D)),
        }
    if spec.family == "gauss2d":
        variances = rng.uniform(*VAR_2D, size=2)
        cov = float(rng.uniform(*COV_2D))  # |cov| < sqrt(v1 v2) holds by range
        return {
            "family": "gauss2d",
            "mean": rng.uniform(*MEAN_2D, size=2).tolist(),
            "cov": [[float(variances[0]), cov], [cov, float(variances[1])]],
        }
    kind = MULTI_KINDS[int(rng.integers(len(MULTI_KINDS)))]
    if kind == "exp":
        return {"family": "multi1d", "kind": "exp", "rate": float(rng.uniform(*RATE_EXP))}
    return {
        "family": "multi1d",
        "kind": kind,
        "mean": float(rng.uniform(*MEAN_1D)),
        "var": float(rng.uniform(*VAR_1D)),
    }


def sample_task_points(params: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) i.i.d. draws from the distribution described by ``params``, a
    task that ``sample_task_params`` drew.

    A ``gauss1d`` task is read as a ``multi1d`` task of kind ``gauss``.
    """
    if params["family"] == "gauss2d":
        mean = np.asarray(params["mean"], dtype=np.float64)
        cov = np.asarray(params["cov"], dtype=np.float64)
        chol = np.linalg.cholesky(cov)
        return mean + rng.standard_normal((n, 2)) @ chol.T
    kind = params.get("kind", "gauss")
    if kind == "exp":
        pts = rng.exponential(scale=1.0 / params["rate"], size=n)
    elif kind == "gauss":
        pts = params["mean"] + np.sqrt(params["var"]) * rng.standard_normal(n)
    else:  # laplace: its variance is 2 b^2, so b = sqrt(var / 2)
        pts = rng.laplace(params["mean"], np.sqrt(params["var"] / 2.0), size=n)
    return pts[:, None]


def true_moments(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and standard deviation implied by the parameters."""
    if params["family"] == "gauss2d":
        cov = np.asarray(params["cov"], dtype=np.float64)
        return np.asarray(params["mean"], dtype=np.float64), np.sqrt(np.diag(cov))
    if params.get("kind") == "exp":
        return np.array([1.0 / params["rate"]]), np.array([1.0 / params["rate"]])
    return np.array([params["mean"]]), np.array([np.sqrt(params["var"])])


def gen_task_corpus(
    spec: TaskFamilySpec, count: int, seed: int = 0
) -> list[tuple[SetBatch, dict]]:
    """Seeded corpus of ``count`` (set, ground-truth parameters) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        params = sample_task_params(spec, rng)
        points = sample_task_points(params, spec.points_per_set, rng)
        out.append((SetBatch(points, set_id=i), params))
    return out


@dataclass(frozen=True)
class GanConfig:
    """Adversarial training knobs; the transport step keeps its own config.

    ``ot`` carries the metric, solver, and learning rate of the interleaved
    transport update; None skips that step entirely so the summary network
    stays at its initialization (the no-transport ablation).
    """

    noise_dim: int = bounded("positive", 2)
    eta_critic: int = bounded("positive", 1)
    generator_widths: tuple = bounded("widths", (64, 64, 64, 64))
    critic_widths: tuple = bounded("widths", (64, 64, 64, 64))
    conditioning: str = bounded(CONDITIONING_MODES, "generator-only")
    batch: int = bounded("positive", 50)
    iterations: int = bounded("positive", 2000)
    lr_generator: float = bounded("positive and finite", 0.001)
    lr_critic: float = bounded("positive and finite", 0.001)
    non_saturating: bool = False
    mse_weight: Optional[float] = bounded("nonnegative and finite", None, optional=True)
    ot: Optional[TrainConfig] = field(default_factory=lambda: TrainConfig(metric="euclidean"))
    seed: int = 0
    log_every: int = 0

    __post_init__ = check_fields


class MetaGan:
    """Generator, critic, and the summary network and prototype bank that condition them."""

    def __init__(
        self,
        spec: TaskFamilySpec,
        config: GanConfig,
        summary: SummaryNet,
        bank: PrototypeBank,
        rng: np.random.Generator,
    ):
        if summary.config.input_dim != spec.dim:
            raise ConfigError(
                f"summary network reads {summary.config.input_dim}-D points but the "
                f"{spec.family} family produces {spec.dim}-D points"
            )
        if bank.dim != spec.dim:
            raise ConfigError(
                f"bank lives in R^{bank.dim} but the task family produces {spec.dim}-D points"
            )
        self.spec = spec
        self.config = config
        self.summary = summary
        self.bank = bank
        k = summary.config.n_prototypes
        self.generator = MLP(
            (config.noise_dim + k, *config.generator_widths, spec.dim), "relu", rng
        )
        critic_in = spec.dim + (k if config.conditioning == "conditional-critic" else 0)
        self.critic = MLP((critic_in, *config.critic_widths, 1), "relu", rng)

    def named_parameters(self) -> dict[str, Value]:
        out = {f"summary.{k}": v for k, v in self.summary.named_parameters().items()}
        out.update(self.generator.named_parameters("generator"))
        out.update(self.critic.named_parameters("critic"))
        out["bank"] = self.bank.matrix
        return out

    def summarize(self, points: np.ndarray) -> np.ndarray:
        """Detached simplex summary of a point set (conditioning input only)."""
        with no_grad():
            return self.summary.summarize(points).data


def _with_summary(x, h: Optional[np.ndarray]) -> Value:
    """The rows of ``x`` with the summary ``h`` (None: nothing) appended to each;
    ``concat`` and the net's first ``Linear`` refuse an ``x`` of another rank or width."""
    x = as_value(x)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=np.float64).reshape(-1)
    return concat([x, np.tile(h, x.shape[:1] + (1,))], axis=1) if h.size else x


def generator_forward(generator: MLP, z: np.ndarray, h: np.ndarray) -> Value:
    """Push a noise batch through the generator conditioned on one summary."""
    return generator(_with_summary(z, h))


def discriminator_logit(critic: MLP, x, h: Optional[np.ndarray] = None) -> Value:
    return critic(_with_summary(x, h))


def critic_loss(real_logits: Value, fake_logits: Value) -> Value:
    """Negated critic objective: -E[log f(real)] - E[log(1 - f(fake))].

    Written in softplus form so saturated sigmoids keep finite values and
    gradients.  At a zero critic both terms are ln 2.
    """
    return (-real_logits).softplus().mean() + fake_logits.softplus().mean()


def generator_loss(fake_logits: Value, non_saturating: bool = False) -> Value:
    """E[log(1 - f(fake))] to minimize, or -E[log f(fake)] when non-saturating."""
    if non_saturating:
        return (-fake_logits).softplus().mean()
    return -(fake_logits.softplus().mean())


def critic_objective(model: MetaGan, real, z, h) -> Value:
    """Critic loss on ``real`` and on fakes from noise ``z``, drawn with no graph."""
    cond = h if model.config.conditioning == "conditional-critic" else None
    with no_grad():
        fake = generator_forward(model.generator, z, h).data
    return critic_loss(
        discriminator_logit(model.critic, real, cond),
        discriminator_logit(model.critic, fake, cond),
    )


def generator_objective(model: MetaGan, real, z, h) -> Value:
    """Generator loss on fakes from ``z``, plus the ``mse_weight`` term when set."""
    config = model.config
    cond = h if config.conditioning == "conditional-critic" else None
    fake = generator_forward(model.generator, z, h)
    loss = generator_loss(discriminator_logit(model.critic, fake, cond), config.non_saturating)
    if config.mse_weight is not None:
        moment_gap = fake.mean(axis=0) - real.mean(axis=0)
        loss = loss + (moment_gap * moment_gap).sum() * config.mse_weight
    return loss


def transport_step(
    model: MetaGan, points: np.ndarray, optimizer, guard_rng: np.random.Generator, step: int
) -> float:
    """The interleaved OT update of the model's summary network and bank, under
    ``model.config.ot``: one step of the unsupervised prototype loop."""
    config, bank = model.config.ot, model.bank
    loss = set_objective(SetBatch(points), model.summary, bank, config)[0]
    return apply_update(optimizer, loss, step, "transport", bank, config.metric, guard_rng)


def train_metagan(sets: Sequence[SetBatch], model: MetaGan) -> dict:
    """Interleaved critic / transport / generator updates over sampled sets.

    Per outer iteration of ``model.config``: eta_critic critic steps on
    minibatches of one set, then one shared transport step on the last real
    minibatch (updating the model's bank and summary network), then one
    generator step with the summary recomputed from the just-updated encoder.
    The generator step runs with the critic's parameters recording no
    gradient, so its backward builds the critic's input gradient alone.
    The trace's columns are ``critic_loss``, ``generator_loss`` and
    ``transport_loss`` (None without ``config.ot``).
    """
    config = model.config
    if not sets:
        raise ConfigError("corpus is empty")
    data_rng = np.random.default_rng(config.seed)
    noise_rng = np.random.default_rng(config.seed + 1)
    critic = model.critic.parameters()
    critic_opt = make_optimizer("adam", critic, config.lr_critic)
    gen_opt = make_optimizer("adam", model.generator.parameters(), config.lr_generator)
    ot_opt = None
    if config.ot is not None:
        ot_opt = make_optimizer(
            config.ot.optimizer, [model.bank.matrix] + model.summary.parameters(), config.ot.lr
        )

    def step(i: int) -> dict:
        points = sets[int(data_rng.integers(len(sets)))].points
        h = model.summarize(points)
        for _ in range(config.eta_critic):
            real = subsample_points(points, config.batch, data_rng)
            z = noise_rng.standard_normal((config.batch, config.noise_dim))
            loss_c = critic_objective(model, real, z, h)
            c_value = apply_update(critic_opt, loss_c, i, "critic")

        ot_value = None
        if ot_opt is not None:
            ot_value = transport_step(model, real, ot_opt, data_rng, i)
            h = model.summarize(points)  # encoder just moved

        z = noise_rng.standard_normal((config.batch, config.noise_dim))
        # only the critic's input gradient is needed; backward reads the flag too
        for p in critic:
            p.requires_grad = False
        try:
            loss_g = generator_objective(model, real, z, h)
            g_value = apply_update(gen_opt, loss_g, i, "generator")
        finally:
            for p in critic:
                p.requires_grad = True
        return {"critic_loss": c_value, "generator_loss": g_value, "transport_loss": ot_value}

    return fit(config.iterations, step, config.log_every, "metagan")


def _as_points(x: np.ndarray) -> np.ndarray:
    """(n,) samples as (n, 1) points; (n, d) points as they are."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs of rows of ``a`` and ``b``: each
    dimension's squared differences are added into one (n, m) buffer in
    order, as a sum over a last axis of differences would add them."""
    total, diff = np.zeros((a.shape[0], b.shape[0])), np.empty((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        np.subtract.outer(a[:, d], b[:, d], out=diff)
        diff *= diff
        total += diff
    return float(np.sqrt(total, out=total).mean())


def _sorted_pair_sum(s: np.ndarray) -> float:
    """Sum over i < j of |s_i - s_j| for a 1-D sample: the k-th smallest of n
    values (from 0) is subtracted n - 1 - k times and added k times.  The
    weights sum to zero, so taking the middle value off first changes only the
    rounding, which then scales with the spread and not with the offset."""
    s = np.sort(s)
    n = s.size
    return float(((s - s[n // 2]) * np.arange(1 - n, n, 2, dtype=np.float64)).sum())


def energy_distance(x, y) -> float:
    """Distance between two empirical laws: sqrt(2 E|X-Y| - E|X-X'| - E|Y-Y'|).

    Within-sample terms use the plug-in estimator (zero diagonal included),
    which keeps the statistic nonnegative and matches the classical
    CDF-difference form in one dimension (Szekely & Rizzo 2013).  In one
    dimension the three mean distances come from sorted samples in
    O(n log n); in more, from the pairwise differences.  A sample holding a
    NaN or an infinity raises NumericalError.
    """
    x = _as_points(x)
    y = _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"sample dims differ: {x.shape[1]} vs {y.shape[1]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("energy distance of a sample with a non-finite value")
    if x.shape[1] == 1:
        a, b = x[:, 0], y[:, 0]
        w_a, w_b = _sorted_pair_sum(a), _sorted_pair_sum(b)
        cross = (_sorted_pair_sum(np.concatenate([a, b])) - w_a - w_b) / (a.size * b.size)
        within_x = 2.0 * w_a / (a.size * a.size)
        within_y = 2.0 * w_b / (b.size * b.size)
    else:
        cross = _mean_pairwise_distance(x, y)
        within_x = _mean_pairwise_distance(x, x)
        within_y = _mean_pairwise_distance(y, y)
    return float(np.sqrt(max(2.0 * cross - within_x - within_y, 0.0)))


def eval_generative(
    model: MetaGan,
    tasks: Sequence[dict],
    seed: int = 0,
    n_points: int = 1000,
) -> dict:
    """Score generation against unseen tasks, conditioning on fresh real sets.

    Per task: draw n_points real points, summarize them, generate n_points
    samples from that summary, then record the energy distance plus absolute
    first/second moment errors against the true parameters.  JSON-ready.
    """
    if not tasks:
        raise ConfigError("no tasks to evaluate")
    rng = np.random.default_rng(seed)
    distances = []
    mean_errs = []
    std_errs = []
    for params in tasks:
        real = sample_task_points(params, n_points, rng)
        h = model.summarize(real)
        z = rng.standard_normal((n_points, model.config.noise_dim))
        with no_grad():
            fake = generator_forward(model.generator, z, h).data
        true_mean, true_std = true_moments(params)
        distances.append(energy_distance(real, fake))
        mean_errs.append(float(np.abs(fake.mean(axis=0) - true_mean).mean()))
        std_errs.append(float(np.abs(fake.std(axis=0) - true_std).mean()))
    return {
        "energy_distance_mean": float(np.mean(distances)),
        "mean_abs_err": float(np.mean(mean_errs)),
        "std_abs_err": float(np.mean(std_errs)),
        "n_tasks": len(tasks),
    }
