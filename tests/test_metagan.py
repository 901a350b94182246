"""Toy conditional GAN: task families, nets, shared transport step, metrics."""

import numpy as np
import pytest
import scipy.stats

from protoset.diffcore import Value, as_value
from protoset.diffcore.gradcheck import check_gradients
from protoset.errors import ConfigError, ShapeError, TrainingDivergedError
from protoset.metagan import (
    GanConfig,
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


def small_gan(spec=None, init_seed=1, summary_seed=0, **cfg_kw):
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
    model = MetaGan(spec, cfg, summary, np.random.default_rng(init_seed))
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
    with pytest.raises(ConfigError):
        TaskFamilySpec("gauss1d", n_sets=0)
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
    assert gen_task_corpus(TaskFamilySpec("gauss2d", n_sets=3), seed=1)[2][0].set_id == 2


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
        gen_report = check_gradients(
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
        critic_report = check_gradients(
            lambda: critic_loss(
                discriminator_logit(model.critic, real, h),
                discriminator_logit(model.critic, fake, h),
            ),
            model.critic.parameters(),
            np.random.default_rng(24),
            samples_per_param=4,
        )
    assert gen_report.max_rel_err < 1e-4, str(gen_report)
    assert critic_report.max_rel_err < 1e-4, str(critic_report)


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
            np.random.default_rng(0),
        )


def test_train_smoke_records_all_three_losses():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, iterations=6, seed=2)
    bank = bank_for(corpus)
    before = [p.data.copy() for p in model.generator.parameters()]
    trace = train_metagan(corpus, model, bank, cfg)
    assert trace.steps == list(range(6))
    assert all(np.isfinite(v) for v in trace.critic_losses)
    assert all(np.isfinite(v) for v in trace.generator_losses)
    assert all(v is not None and np.isfinite(v) for v in trace.ot_losses)
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
    model, cfg = small_gan(spec, iterations=6, ot=None, summary_seed=42)
    fresh = small_summary(dim=1, seed=42)
    bank = bank_for(corpus)
    before = bank.matrix.data.copy()
    trace = train_metagan(corpus, model, bank, cfg)
    assert trace.ot_losses == [None] * 6
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

    model, cfg = small_gan(spec, summary_seed=8, iterations=12, seed=31, ot=t_cfg)
    bank_b = bank_for(corpus, seed=6)
    trace_b = train_metagan(corpus, model, bank_b, cfg)

    assert trace_b.ot_losses == trace_a.ot_losses
    assert np.array_equal(bank_a.matrix.data, bank_b.matrix.data)
    for pa, pb in zip(summary_a.parameters(), model.summary.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_training_is_deterministic():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    runs = []
    for _ in range(2):
        model, cfg = small_gan(spec, iterations=5, seed=13)
        bank = bank_for(corpus)
        trace = train_metagan(corpus, model, bank, cfg)
        runs.append((trace.critic_losses, trace.generator_losses, trace.ot_losses))
    assert runs[0] == runs[1]


def test_mse_term_included_when_configured():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, iterations=4, mse_weight=1.0)
    bank = bank_for(corpus)
    trace = train_metagan(corpus, model, bank, cfg)
    assert all(np.isfinite(v) for v in trace.generator_losses)


def test_divergence_aborts_with_error():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec, iterations=40, lr_generator=1e160)
    bank = bank_for(corpus)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_metagan(corpus, model, bank, cfg)


def test_bank_dimension_mismatch_rejected():
    spec = TaskFamilySpec("gauss1d", n_points=10)
    corpus = small_corpus(spec)
    model, cfg = small_gan(spec)
    bad_bank = PrototypeBank(Value(np.eye(2), requires_grad=True))
    with pytest.raises(ConfigError):
        train_metagan(corpus, model, bad_bank, cfg)
    with pytest.raises(ConfigError):
        train_metagan([], model, bank_for(corpus), cfg)


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
