"""Summary-conditioned toy GAN over families of simple distributions.

Each task is a set of i.i.d. samples from a randomly parameterized 1-D or 2-D
distribution.  A permutation-invariant summary h of the set conditions a
pushforward generator on concatenated [noise, h]; a sigmoid critic scores
samples.  The summary network and its prototype bank are trained by the
unsupervised prototype loop's transport loss and parameter update on one set,
interleaved between the critic and generator updates, so the two trainers
cannot drift apart.  Generation quality is scored distribution-to-distribution with the
energy distance plus first/second moment errors against the true parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .diffcore import Value, as_value, concat, no_grad
from .diffcore.optim import make_optimizer
from .errors import ConfigError, ShapeError
from .nn import MLP
from .ot import SinkhornConfig
from .protolearn import (
    PrototypeBank,
    TrainConfig,
    apply_update,
    diverges_on_failure,
    subsample_points,
    transport_objective,
)
from .summarynet import SetBatch, SummaryNet

logger = logging.getLogger(__name__)

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

    family: str = "gauss1d"
    n_points: Optional[int] = None  # None picks the family default
    n_sets: int = 10_000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n_points is not None and self.n_points < 2:
            raise ConfigError(f"n_points must be at least 2, got {self.n_points}")
        if self.n_sets < 1:
            raise ConfigError(f"n_sets must be at least 1, got {self.n_sets}")

    @property
    def dim(self) -> int:
        return FAMILY_DIM[self.family]

    @property
    def points_per_set(self) -> int:
        return self.n_points if self.n_points is not None else FAMILY_POINTS[self.family]


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
    """(n, d) i.i.d. draws from the distribution described by ``params``."""
    family = params["family"]
    if family == "gauss1d":
        pts = params["mean"] + np.sqrt(params["var"]) * rng.standard_normal(n)
        return pts[:, None]
    if family == "gauss2d":
        mean = np.asarray(params["mean"], dtype=np.float64)
        cov = np.asarray(params["cov"], dtype=np.float64)
        chol = np.linalg.cholesky(cov)
        return mean + rng.standard_normal((n, 2)) @ chol.T
    kind = params["kind"]
    if kind == "exp":
        pts = rng.exponential(scale=1.0 / params["rate"], size=n)
    elif kind == "gauss":
        pts = params["mean"] + np.sqrt(params["var"]) * rng.standard_normal(n)
    elif kind == "laplace":
        # Laplace variance is 2 b^2, so b = sqrt(var / 2)
        pts = rng.laplace(params["mean"], np.sqrt(params["var"] / 2.0), size=n)
    else:
        raise ConfigError(f"unknown multi1d kind {kind!r}")
    return pts[:, None]


def true_moments(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and standard deviation implied by the parameters."""
    family = params["family"]
    if family == "gauss1d":
        return np.array([params["mean"]]), np.array([np.sqrt(params["var"])])
    if family == "gauss2d":
        cov = np.asarray(params["cov"], dtype=np.float64)
        return np.asarray(params["mean"], dtype=np.float64), np.sqrt(np.diag(cov))
    if params["kind"] == "exp":
        return np.array([1.0 / params["rate"]]), np.array([1.0 / params["rate"]])
    return np.array([params["mean"]]), np.array([np.sqrt(params["var"])])


def gen_task_corpus(
    spec: TaskFamilySpec, count: Optional[int] = None, seed: int = 0
) -> list[tuple[SetBatch, dict]]:
    """Seeded corpus of (set, ground-truth parameters) pairs."""
    rng = np.random.default_rng(seed)
    n_sets = spec.n_sets if count is None else count
    out = []
    for i in range(n_sets):
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

    noise_dim: int = 2
    eta_critic: int = 1
    generator_widths: tuple = (64, 64, 64, 64)
    critic_widths: tuple = (64, 64, 64, 64)
    conditioning: str = "generator-only"
    batch: int = 50
    iterations: int = 2000
    lr_generator: float = 0.001
    lr_critic: float = 0.001
    non_saturating: bool = False
    mse_weight: Optional[float] = None
    ot: Optional[TrainConfig] = field(
        default_factory=lambda: TrainConfig(
            metric="euclidean", sinkhorn=SinkhornConfig(unroll_iters=20)
        )
    )
    seed: int = 0
    log_every: int = 0

    def __post_init__(self):
        if self.eta_critic < 1:
            raise ConfigError(f"eta_critic must be at least 1, got {self.eta_critic}")
        if self.noise_dim < 1:
            raise ConfigError(f"noise_dim must be at least 1, got {self.noise_dim}")
        if self.batch < 1:
            raise ConfigError(f"batch must be at least 1, got {self.batch}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if self.conditioning not in CONDITIONING_MODES:
            raise ConfigError(
                f"conditioning must be one of {CONDITIONING_MODES}, got {self.conditioning!r}"
            )
        if self.mse_weight is not None and self.mse_weight < 0:
            raise ConfigError(f"mse_weight must be nonnegative, got {self.mse_weight}")


class MetaGan:
    """Generator, critic, and the summary network that conditions them."""

    def __init__(
        self,
        spec: TaskFamilySpec,
        config: GanConfig,
        summary: SummaryNet,
        rng: np.random.Generator,
    ):
        if summary.config.input_dim != spec.dim:
            raise ConfigError(
                f"summary network reads {summary.config.input_dim}-D points but the "
                f"{spec.family} family produces {spec.dim}-D points"
            )
        self.spec = spec
        self.config = config
        self.summary = summary
        k = summary.config.n_prototypes
        self.generator = MLP(
            (config.noise_dim + k, *config.generator_widths, spec.dim), "relu", rng
        )
        critic_in = spec.dim + (k if config.conditioning == "conditional-critic" else 0)
        self.critic = MLP((critic_in, *config.critic_widths, 1), "relu", rng)

    def summarize(self, points: np.ndarray) -> np.ndarray:
        """Detached simplex summary of a point set (conditioning input only)."""
        with no_grad():
            return self.summary.summarize(points).data


def generator_forward(generator: MLP, z: np.ndarray, h: np.ndarray) -> Value:
    """Push a noise batch through the generator conditioned on one summary."""
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    if z.ndim != 2:
        raise ShapeError(f"noise must be a (batch, noise_dim) matrix, got shape {z.shape}")
    expected = generator.dims[0]
    if z.shape[1] + h.size != expected:
        raise ShapeError(
            f"generator expects {expected} inputs, got noise {z.shape[1]} + summary {h.size}"
        )
    tiled = np.broadcast_to(h, (z.shape[0], h.size))
    return generator(as_value(np.hstack([z, tiled])))


def _critic_input(critic: MLP, x, h: Optional[np.ndarray]):
    x = as_value(x)
    if x.ndim != 2:
        raise ShapeError(f"critic input must be (batch, dim), got shape {x.shape}")
    want = critic.dims[0]
    if h is None:
        if x.shape[1] != want:
            raise ShapeError(f"critic expects {want} inputs, got {x.shape[1]}")
        return x
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    if x.shape[1] + h.size != want:
        raise ShapeError(
            f"critic expects {want} inputs, got data {x.shape[1]} + summary {h.size}"
        )
    tiled = as_value(np.tile(h, (x.shape[0], 1)))
    return concat([x, tiled], axis=1)


def discriminator_logit(critic: MLP, x, h: Optional[np.ndarray] = None) -> Value:
    return critic(_critic_input(critic, x, h))


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


@dataclass
class GanTrace:
    """Per-iteration losses of the three interleaved updates.

    ``optimizers`` exposes the loop's optimizers by role for checkpointing;
    comparisons ignore it.
    """

    steps: list = field(default_factory=list)
    critic_losses: list = field(default_factory=list)
    generator_losses: list = field(default_factory=list)
    ot_losses: list = field(default_factory=list)
    optimizers: dict = field(default_factory=dict, compare=False, repr=False)

    def append(self, step: int, critic: float, generator: float, ot: Optional[float]):
        self.steps.append(step)
        self.critic_losses.append(critic)
        self.generator_losses.append(generator)
        self.ot_losses.append(ot)


def transport_step(
    points: np.ndarray,
    net: SummaryNet,
    bank: PrototypeBank,
    optimizer,
    config: TrainConfig,
    guard_rng: np.random.Generator,
    step: int,
) -> float:
    """The interleaved OT update: one step of the unsupervised prototype loop."""
    weights = net.summarize(points)
    loss = transport_objective(points, weights, bank, config.metric, config.sinkhorn)
    value = loss.item()
    guard_bank = bank if config.metric == "cosine" else None
    apply_update(optimizer, loss, value, step, "transport", guard_bank, guard_rng)
    return value


def train_metagan(
    corpus: Sequence[tuple[SetBatch, dict]],
    model: MetaGan,
    bank: PrototypeBank,
    config: GanConfig,
) -> GanTrace:
    """Interleaved critic / transport / generator updates over sampled sets.

    Per outer iteration: eta_critic critic steps on minibatches of one set,
    then one shared transport step on the last real minibatch (updating the
    bank and summary network), then one generator step with the summary
    recomputed from the just-updated encoder.
    """
    if not corpus:
        raise ConfigError("corpus is empty")
    sets = [pair[0] for pair in corpus]
    if bank.dim != model.spec.dim:
        raise ConfigError(
            f"bank lives in R^{bank.dim} but the task family produces "
            f"{model.spec.dim}-D points"
        )
    data_rng = np.random.default_rng(config.seed)
    noise_rng = np.random.default_rng(config.seed + 1)
    conditional = config.conditioning == "conditional-critic"
    critic_opt = make_optimizer("adam", model.critic.parameters(), config.lr_critic)
    gen_opt = make_optimizer("adam", model.generator.parameters(), config.lr_generator)
    ot_opt = None
    if config.ot is not None:
        ot_opt = make_optimizer(
            config.ot.optimizer, [bank.matrix] + model.summary.parameters(), config.ot.lr
        )
    trace = GanTrace(
        optimizers={"critic": critic_opt, "generator": gen_opt, "transport": ot_opt}
    )
    for step in range(config.iterations):
        batch = sets[int(data_rng.integers(len(sets)))]
        points = batch.points
        with diverges_on_failure(step):
            h = model.summarize(points)
            for _ in range(config.eta_critic):
                real = subsample_points(points, config.batch, data_rng)
                z = noise_rng.standard_normal((config.batch, config.noise_dim))
                with no_grad():
                    fake = generator_forward(model.generator, z, h).data
                loss_c = critic_loss(
                    discriminator_logit(model.critic, real, h if conditional else None),
                    discriminator_logit(model.critic, fake, h if conditional else None),
                )
                c_value = loss_c.item()
                apply_update(critic_opt, loss_c, c_value, step, "critic")

            ot_value = None
            if ot_opt is not None:
                ot_value = transport_step(
                    real, model.summary, bank, ot_opt, config.ot, data_rng, step
                )
                h = model.summarize(points)  # encoder just moved

            z = noise_rng.standard_normal((config.batch, config.noise_dim))
            fake_live = generator_forward(model.generator, z, h)
            loss_g = generator_loss(
                discriminator_logit(model.critic, fake_live, h if conditional else None),
                config.non_saturating,
            )
            if config.mse_weight is not None:
                moment_gap = fake_live.mean(axis=0) - real.mean(axis=0)
                loss_g = loss_g + (moment_gap * moment_gap).sum() * config.mse_weight
            g_value = loss_g.item()
            apply_update(gen_opt, loss_g, g_value, step, "generator")

        trace.append(step, c_value, g_value, ot_value)
        if config.log_every and step % config.log_every == 0:
            logger.info(
                "iteration %d critic %.4f generator %.4f transport %s",
                step,
                c_value,
                g_value,
                ot_value,
            )
    return trace


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"samples must be (n,) or (n, d), got shape {x.shape}")
    return x


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).mean())


def energy_distance(x, y) -> float:
    """Distance between two empirical laws: sqrt(2 E|X-Y| - E|X-X'| - E|Y-Y'|).

    Within-sample terms use the plug-in estimator (zero diagonal included),
    which keeps the statistic nonnegative and matches the classical
    CDF-difference form in one dimension.
    """
    x = _as_points(x)
    y = _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"sample dims differ: {x.shape[1]} vs {y.shape[1]}")
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
