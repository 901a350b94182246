"""Toy conditional GAN: task families, nets, shared transport step, metrics."""

import warnings

import numpy as np
import pytest
import scipy.stats

from protoset.diffcore import Value, as_value
from protoset.diffcore.gradcheck import check_gradients
from protoset.errors import ConfigError, NumericalError, ShapeError, TrainingDivergedError
import protoset.metagan as metagan
from protoset.metagan import (
    GanConfig,
    _mean_pairwise_distance,
    MetaGan,
    TaskFamilySpec,
    critic_loss,
    discriminator_logit,
    energy_distance,
    eval_generative,
    gen_task_corpus,
    generator_forward,
    generator_loss,
    sample_task_params,
    sample_task_points,
    train_metagan,
    true_moments,
)
from protoset.nn import MLP
from protoset.ot import SinkhornConfig
from protoset.protolearn import PrototypeBank, TrainConfig, train_prototypes
from protoset.summarynet import SummaryNet, SummaryNetConfig

LN2 = float(np.log(2.0))


def critic_probs(critic, x, h=None):
    """Probability the critic assigns to each row being real."""
    return 1.0 / (1.0 + np.exp(-discriminator_logit(critic, x, h).data))


def small_summary(dim=1, k=2, seed=0):
    cfg = SummaryNetConfig(
        input_dim=dim,
        n_prototypes=k,
        encoder_widths=(16, 16),
        activation="relu",
        pooling="mean",
        head_hidden=16,
    )
    return SummaryNet(cfg, np.random.default_rng(seed))


def small_gan(spec=None, init_seed=1, summary_seed=0, bank=None, **cfg_kw):
    spec = spec or TaskFamilySpec("gauss1d", n_points=10)
    defaults = dict(
        generator_widths=(16, 16),
        critic_widths=(16, 16),
        batch=10,
        iterations=5,
        ot=TrainConfig(
            metric="euclidean",
            batch_points=10,
            lr=0.005,
            sinkhorn=SinkhornConfig(unroll_iters=10),
        ),
    )
    defaults.update(cfg_kw)
    cfg = GanConfig(**defaults)
    summary = small_summary(dim=spec.dim, seed=summary_seed)
    if bank is None:  # for the tests that never train it
        bank = PrototypeBank(Value(np.zeros((spec.dim, 2)), requires_grad=True))
    model = MetaGan(spec, cfg, summary, bank, np.random.default_rng(init_seed))
    return model, cfg


def small_corpus(spec, count=12, seed=0):
    return gen_task_corpus(spec, count=count, seed=seed)


def bank_for(corpus, k=2, seed=5):
    pool = np.vstack([s.points for s, _ in corpus])
    return PrototypeBank.from_points(pool, k, np.random.default_rng(seed))


# -- task families --------------------------------------------------------------


def test_family_spec_validation():
    with pytest.raises(ConfigError):
        TaskFamilySpec("gamma1d")
    with pytest.raises(ConfigError):
        TaskFamilySpec("gauss1d", n_points=1)
    assert TaskFamilySpec("gauss1d").points_per_set == 50
    assert TaskFamilySpec("gauss2d").points_per_set == 100
    assert TaskFamilySpec("gauss2d").dim == 2
    assert TaskFamilySpec("multi1d", n_points=25).points_per_set == 25


def test_parameter_ranges():
    rng = np.random.default_rng(3)
    kinds = set()
    for _ in range(200):
        p1 = sample_task_params(TaskFamilySpec("gauss1d"), rng)
        assert -1.0 <= p1["mean"] <= 1.0 and 0.5 <= p1["var"] <= 2.0
        p2 = sample_task_params(TaskFamilySpec("gauss2d"), rng)
        cov = np.asarray(p2["cov"])
        assert np.all(np.abs(np.asarray(p2["mean"])) <= 5.0)
        assert np.all(np.linalg.eigvalsh(cov) > 0)  # positive definite by ranges
        assert abs(cov[0, 1]) <= 0.5 and cov[0, 1] == cov[1, 0]
        p3 = sample_task_params(TaskFamilySpec("multi1d"), rng)
        kinds.add(p3["kind"])
        if p3["kind"] == "exp":
            assert 0.5 <= p3["rate"] <= 2.0
    assert kinds == {"exp", "gauss", "laplace"}


def test_floor_variance_sample_std():
    # at the variance range floor the sample spread must sit near sqrt(0.5)
    rng = np.random.default_rng(11)
    pts = sample_task_points({"family": "gauss1d", "mean": 0.3, "var": 0.5}, 10_000, rng)
    assert abs(pts.std() - np.sqrt(0.5)) < 0.02


def test_exponential_support_is_positive():
    rng = np.random.default_rng(12)
    pts = sample_task_points({"family": "multi1d", "kind": "exp", "rate": 1.3}, 10_000, rng)
    assert np.all(pts > 0)
    assert abs(pts.mean() - 1.0 / 1.3) < 0.03


def test_laplace_and_exp_moments_match_numpy_samplers():
    rng = np.random.default_rng(13)
    lap = {"family": "multi1d", "kind": "laplace", "mean": -0.4, "var": 1.7}
    pts = sample_task_points(lap, 40_000, rng)
    mean, std = true_moments(lap)
    assert abs(pts.mean() - mean[0]) < 0.02
    assert abs(pts.std() - std[0]) < 0.03
    exp = {"family": "multi1d", "kind": "exp", "rate": 0.8}
    pts = sample_task_points(exp, 40_000, rng)
    mean, std = true_moments(exp)
    assert abs(pts.mean() - mean[0]) < 0.03
    assert abs(pts.std() - std[0]) < 0.05


def test_gauss2d_sampling_matches_covariance():
    params = {"family": "gauss2d", "mean": [2.0, -3.0], "cov": [[1.5, -0.4], [-0.4, 1.1]]}
    pts = sample_task_points(params, 60_000, np.random.default_rng(14))
    assert pts.shape == (60_000, 2)
    assert np.allclose(pts.mean(axis=0), [2.0, -3.0], atol=0.03)
    assert np.allclose(np.cov(pts.T), params["cov"], atol=0.05)
    mean, std = true_moments(params)
    assert np.allclose(std, np.sqrt([1.5, 1.1]))


def test_corpus_determinism_and_shapes():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    a = gen_task_corpus(spec, count=6, seed=9)
    b = gen_task_corpus(spec, count=6, seed=9)
    assert len(a) == 6
    for (sa, pa), (sb, pb) in zip(a, b):
        assert np.array_equal(sa.points, sb.points)
        assert pa == pb
        assert sa.points.shape == (10, 1)
    c = gen_task_corpus(spec, count=6, seed=10)
    assert not np.array_equal(a[0][0].points, c[0][0].points)
    assert gen_task_corpus(TaskFamilySpec("gauss2d"), count=3, seed=1)[2][0].set_id == 2


# -- nets -----------------------------------------------------------------------


def test_generator_forward_shapes_and_conditioning():
    model, cfg = small_gan()
    z = np.random.default_rng(4).standard_normal((7, cfg.noise_dim))
    out_a = generator_forward(model.generator, z, np.array([0.9, 0.1]))
    out_b = generator_forward(model.generator, z, np.array([0.1, 0.9]))
    assert out_a.shape == (7, 1)
    assert not np.allclose(out_a.data, out_b.data)  # summary input is live
    with pytest.raises(ShapeError):
        generator_forward(model.generator, z, np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ShapeError):
        generator_forward(model.generator, z[0], np.array([0.9, 0.1]))


def test_zeroed_final_generator_layer_outputs_bias():
    model, cfg = small_gan()
    last = model.generator.layers[-1]
    last.weight.data[:] = 0.0
    last.bias.data[:] = 2.5
    z = np.random.default_rng(5).standard_normal((4, cfg.noise_dim))
    out = generator_forward(model.generator, z, np.array([0.4, 0.6]))
    assert np.allclose(out.data, 2.5)


def test_discriminator_outputs_probabilities():
    model, _ = small_gan()
    x = np.random.default_rng(6).standard_normal((9, 1))
    probs = critic_probs(model.critic, x)
    assert probs.shape == (9, 1)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_zeroed_critic_gives_half_and_two_ln2_loss():
    model, _ = small_gan()
    for p in model.critic.parameters():
        p.data[:] = 0.0
    x = np.random.default_rng(7).standard_normal((5, 1))
    probs = critic_probs(model.critic, x)
    assert np.allclose(probs, 0.5)
    loss = critic_loss(
        discriminator_logit(model.critic, x), discriminator_logit(model.critic, x + 1.0)
    )
    assert abs(loss.item() - 2.0 * LN2) < 1e-12


def test_conditional_critic_concatenates_summary():
    model, cfg = small_gan(conditioning="conditional-critic")
    assert model.critic.dims[0] == 1 + 2
    x = np.random.default_rng(8).standard_normal((6, 1))
    probs = critic_probs(model.critic, x, np.array([0.3, 0.7]))
    assert probs.shape == (6, 1)
    with pytest.raises(ShapeError):
        discriminator_logit(model.critic, x)  # summary required in this mode
    plain, _ = small_gan()
    assert plain.critic.dims[0] == 1


def test_loss_forms_match_softplus_identities():
    logits = np.array([[0.7], [-1.2], [2.0]])
    v = as_value(logits)
    softplus = np.logaddexp(0.0, logits)
    assert abs(critic_loss(v, v).item() - (np.logaddexp(0.0, -logits).mean() + softplus.mean())) < 1e-12
    assert abs(generator_loss(v).item() - (-softplus.mean())) < 1e-12
    assert abs(generator_loss(v, non_saturating=True).item() - np.logaddexp(0.0, -logits).mean()) < 1e-12


def test_gan_losses_gradcheck():
    model, cfg = small_gan(conditioning="conditional-critic", init_seed=21)
    rng = np.random.default_rng(22)
    z = rng.standard_normal((6, cfg.noise_dim))
    h = np.array([0.35, 0.65])
    real = rng.standard_normal((6, 1))
    with np.errstate(all="ignore"):
        gen_err = check_gradients(
            lambda: generator_loss(
                discriminator_logit(
                    model.critic, generator_forward(model.generator, z, h), h
                ),
                non_saturating=True,
            ),
            model.generator.parameters(),
            np.random.default_rng(23),
            samples_per_param=4,
        )
        fake = generator_forward(model.generator, z, h).data
        critic_err = check_gradients(
            lambda: critic_loss(
                discriminator_logit(model.critic, real, h),
                discriminator_logit(model.critic, fake, h),
            ),
            model.critic.parameters(),
            np.random.default_rng(24),
            samples_per_param=4,
        )
    assert gen_err < 1e-4, gen_err
    assert critic_err < 1e-4, critic_err


# -- energy distance -------------------------------------------------------------


def test_energy_distance_same_law_is_near_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000)
    assert energy_distance(a, b) < 0.1


def test_energy_distance_properties():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((80, 2))
    y = rng.standard_normal((60, 2)) + np.array([3.0, 0.0])
    d = energy_distance(x, y)
    assert d > 1.0
    assert abs(d - energy_distance(y, x)) < 1e-12
    assert energy_distance(x[:3], y[:2]) >= 0.0
    with pytest.raises(ShapeError):
        energy_distance(x, rng.standard_normal((10, 3)))


def test_energy_distance_matches_scipy_in_1d():
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = rng.standard_normal(150)
        v = 0.5 + 1.3 * rng.standard_normal(170)
        assert abs(energy_distance(u, v) - scipy.stats.energy_distance(u, v)) < 1e-10


def _pairwise_terms(x, y):
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    y = np.asarray(y, dtype=np.float64).reshape(len(y), -1)
    return [_mean_pairwise_distance(x, y), _mean_pairwise_distance(x, x),
            _mean_pairwise_distance(y, y)]


def _shifted_and_scaled(rng):
    x = rng.standard_normal(400)
    return x, 1e-6 + (1.0 + 1e-6) * x[:350]


SORTED_CASES = {
    "unequal-sizes": lambda rng: (rng.standard_normal(300), 0.4 + 2.0 * rng.standard_normal(170)),
    "n-is-one": lambda rng: (np.array([0.3]), rng.standard_normal(40)),
    "both-one": lambda rng: (np.array([0.3]), np.array([-1.2])),
    "ties-and-shared-values": lambda rng: (
        rng.integers(0, 5, 120).astype(float), rng.integers(2, 8, 90).astype(float)
    ),
    "column-input": lambda rng: (rng.standard_normal((200, 1)), rng.standard_normal(150) + 1.0),
    "shift-and-scale-near-zero": _shifted_and_scaled,
    "large-common-offset": lambda rng: (
        1e6 + rng.standard_normal(500), 1e6 + 0.3 + rng.standard_normal(300)
    ),
}


@pytest.mark.parametrize("case", sorted(SORTED_CASES))
def test_energy_distance_1d_sorted_form_matches_pairwise(case):
    # the squared statistic cancels three terms, so its rounding is measured
    # against the largest of them; the statistic itself where it is not near zero
    x, y = SORTED_CASES[case](np.random.default_rng(5))
    cross, within_x, within_y = _pairwise_terms(x, y)
    squared = 2.0 * cross - within_x - within_y
    d = energy_distance(x, y)
    assert abs(d * d - max(squared, 0.0)) <= 1e-12 * max(2.0 * cross, 1e-300)
    if squared > 1e-6 * cross:
        assert abs(d - np.sqrt(squared)) <= 1e-12 * np.sqrt(squared)


def test_energy_distance_2d_keeps_the_pairwise_form():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((70, 2))
    y = rng.standard_normal((50, 2)) + 0.5
    cross, within_x, within_y = _pairwise_terms(x, y)
    assert energy_distance(x, y) == float(np.sqrt(max(2.0 * cross - within_x - within_y, 0.0)))


def pairwise_by_differences(a, b):
    """The mean pairwise distance from the (n, m, d) array of differences, the
    reference for the one-buffer form."""
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).mean())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mean_pairwise_distance_equals_the_difference_array_form(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((120 + seed, dim))
    y = 3.0 * rng.standard_normal((90, dim)) + 1e3 * seed
    for a, b in ((x, y), (y, x), (x, x), (y, y), (x[:1], y), (x[:1], x[:1])):
        assert _mean_pairwise_distance(a, b) == pairwise_by_differences(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("side", ["x", "y"])
def test_energy_distance_non_finite_sample_is_a_numerical_error(bad, dim, side):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, dim))
    y = rng.standard_normal((20, dim))
    (x if side == "x" else y)[3, dim - 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on it
        with pytest.raises(NumericalError, match="non-finite"):
            energy_distance(x, y)


# -- training ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        GanConfig(eta_critic=0)
    with pytest.raises(ConfigError):
        GanConfig(batch=0)
    with pytest.raises(ConfigError):
        GanConfig(iterations=0)
    with pytest.raises(ConfigError):
        GanConfig(noise_dim=0)
    with pytest.raises(ConfigError):
        GanConfig(conditioning="critic-only")
    with pytest.raises(ConfigError):
        GanConfig(mse_weight=-1.0)
    with pytest.raises(ConfigError):
        # summary reads 2-D points, family emits 1-D points
        MetaGan(
            TaskFamilySpec("gauss1d"),
            GanConfig(),
            small_summary(dim=2),
            PrototypeBank(Value(np.zeros((1, 2)), requires_grad=True)),
            np.random.default_rng(0),
        )


def test_train_smoke_records_all_three_losses():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=6, seed=2)
    before = [p.data.copy() for p in model.generator.parameters()]
    trace = train_metagan([s for s, _ in corpus], model)
    assert trace["step"] == list(range(6))
    assert all(np.isfinite(v) for v in trace["critic_loss"])
    assert all(np.isfinite(v) for v in trace["generator_loss"])
    assert all(v is not None and np.isfinite(v) for v in trace["transport_loss"])
    moved = [
        not np.array_equal(p.data, prev)
        for p, prev in zip(model.generator.parameters(), before)
    ]
    assert any(moved)
    z = np.random.default_rng(0).standard_normal((20, cfg.noise_dim))
    samples = generator_forward(model.generator, z, model.summarize(corpus[0][0].points))
    assert samples.shape == (20, 1) and np.all(np.isfinite(samples.data))


def test_no_transport_variant_freezes_summary_and_bank():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    bank = bank_for(corpus)
    model, cfg = small_gan(spec, bank=bank, iterations=6, ot=None, summary_seed=42)
    fresh = small_summary(dim=1, seed=42)
    before = bank.matrix.data.copy()
    trace = train_metagan([s for s, _ in corpus], model)
    assert trace["transport_loss"] == [None] * 6
    assert np.array_equal(bank.matrix.data, before)
    for p, q in zip(model.summary.parameters(), fresh.parameters()):
        assert np.array_equal(p.data, q.data)


def test_transport_step_trace_matches_unsupervised_loop():
    # the adversarial loop's summary/bank updates must be the exact float
    # sequence the standalone prototype trainer produces on the same stream
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec, count=9, seed=4)
    sets = [s for s, _ in corpus]
    t_cfg = TrainConfig(
        steps=12,
        batch_points=10,
        metric="euclidean",
        lr=0.005,
        seed=31,
        sinkhorn=SinkhornConfig(unroll_iters=10),
    )
    summary_a = small_summary(dim=1, seed=8)
    bank_a = bank_for(corpus, seed=6)
    trace_a = train_prototypes(sets, summary_a, bank_a, t_cfg)

    bank_b = bank_for(corpus, seed=6)
    model, cfg = small_gan(spec, bank=bank_b, summary_seed=8, iterations=12, seed=31, ot=t_cfg)
    trace_b = train_metagan(sets, model)

    assert trace_b["transport_loss"] == trace_a["transport_loss"]
    assert np.array_equal(bank_a.matrix.data, bank_b.matrix.data)
    for pa, pb in zip(summary_a.parameters(), model.summary.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_training_is_deterministic():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    runs = []
    for _ in range(2):
        model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=5, seed=13)
        trace = train_metagan([s for s, _ in corpus], model)
        runs.append((trace["critic_loss"], trace["generator_loss"], trace["transport_loss"]))
    assert runs[0] == runs[1]


def test_mse_term_included_when_configured():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=4, mse_weight=1.0)
    trace = train_metagan([s for s, _ in corpus], model)
    assert all(np.isfinite(v) for v in trace["generator_loss"])


def test_divergence_aborts_with_error():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=40, lr_generator=1e160)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_metagan([s for s, _ in corpus], model)


def test_bank_dimension_mismatch_rejected():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    bad_bank = PrototypeBank(Value(np.eye(2), requires_grad=True))
    with pytest.raises(ConfigError, match=r"bank lives in R\^2 but the task family produces 1-D"):
        small_gan(spec, bank=bad_bank)  # refused when the model is built
    model, cfg = small_gan(spec, bank=bank_for(corpus))
    with pytest.raises(ConfigError):
        train_metagan([], model)


# -- evaluation -------------------------------------------------------------------


def test_eval_generative_reporting():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    model, cfg = small_gan(spec)
    tasks = [p for _, p in small_corpus(spec, count=4)]
    record = eval_generative(model, tasks, seed=3, n_points=200)
    assert set(record) == {"energy_distance_mean", "mean_abs_err", "std_abs_err", "n_tasks"}
    assert record["n_tasks"] == 4
    assert record["energy_distance_mean"] >= 0.0
    again = eval_generative(model, tasks, seed=3, n_points=200)
    assert record == again
    with pytest.raises(ConfigError):
        eval_generative(model, [], seed=0)


def _wrap_generator_update(monkeypatch, during):
    """Route metagan's updates through ``apply_update``, calling ``during(args)``
    in place of the generator's."""
    apply_update = metagan.apply_update

    def update(*args):
        return during(apply_update, args) if args[3] == "generator" else apply_update(*args)

    monkeypatch.setattr(metagan, "apply_update", update)


def test_generator_update_leaves_every_critic_grad_untouched(monkeypatch):
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=3, seed=2)
    critic = model.critic.parameters()
    seen = []

    def during(apply_update, args):
        before = [p.grad for p in critic]
        value = apply_update(*args)
        seen.append([g is not None and p.grad is g for p, g in zip(critic, before)])
        return value

    _wrap_generator_update(monkeypatch, during)
    train_metagan([s for s, _ in corpus], model)
    # the critic's own step left each grad; the generator's backward added none
    assert seen == [[True] * len(critic)] * 3
    assert all(p.requires_grad for p in critic)


def test_a_diverged_generator_update_restores_the_critic(monkeypatch):
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, bank=bank_for(corpus), iterations=3, seed=2)
    critic = model.critic.parameters()
    flags = []

    def during(apply_update, args):
        flags.append([p.requires_grad for p in critic])
        raise TrainingDivergedError("generator loss became non-finite at step 0")

    _wrap_generator_update(monkeypatch, during)
    with pytest.raises(TrainingDivergedError, match="generator loss"):
        train_metagan([s for s, _ in corpus], model)
    assert flags == [[False] * len(critic)]
    assert all(p.requires_grad for p in critic)
