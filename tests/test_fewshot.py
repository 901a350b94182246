"""Episodic few-shot training: prototypes, logits, transport term, loops."""

import numpy as np
import pytest

from protoset.diffcore import as_value, zero_grad
from protoset.diffcore.gradcheck import check_gradients
from protoset.errors import ConfigError, ShapeError, TrainingDivergedError
from protoset.fewshot import (
    Episode,
    EpisodeSpec,
    FewShotConfig,
    FewShotModel,
    class_mean_pools,
    class_prototypes,
    episode_objective,
    eval_fewshot,
    gen_episodes,
    protonet_loss,
    query_accuracy,
    query_logits,
    support_embeddings,
    train_fewshot,
)
from protoset.ot import SinkhornConfig
from protoset.protolearn import TrainConfig


def small_config(**overrides):
    """Cheap episode recipe for unit-scale runs."""
    defaults = dict(
        episode=EpisodeSpec(n_way=3, k_shot=3, q_queries=2, dim=6),
        encoder_widths=(12, 8),
        bank_size=5,
        n_base_classes=10,
        n_novel_classes=6,
    )
    defaults.update(overrides)
    return FewShotConfig(**defaults)


def train_config(**overrides):
    """Training knobs for unit-scale runs: 20 episodes, 10 unrolled iterations."""
    defaults = dict(steps=20, sinkhorn=SinkhornConfig(unroll_iters=10))
    defaults.update(overrides)
    return TrainConfig(**defaults)


def identity_embed(points):
    return as_value(points)


def manual_episode(means, k_shot, queries, labels):
    """Episode whose support is k_shot copies of each class mean."""
    means = np.asarray(means, dtype=np.float64)
    w, d = means.shape
    support = np.repeat(means[:, None, :], k_shot, axis=1)
    return Episode(
        support,
        np.asarray(queries, dtype=np.float64),
        np.asarray(labels),
        np.arange(w),
    )


# -- configs and episode plumbing ---------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        EpisodeSpec(n_way=0)
    with pytest.raises(ConfigError):
        small_config(encoder_widths=(12, 1))  # embedding must be at least 2-D
    with pytest.raises(ConfigError):
        small_config(bank_size=0)
    with pytest.raises(ConfigError):
        small_config(mean_low=2.0, mean_high=-2.0)
    with pytest.raises(ConfigError):
        small_config(n_novel_classes=2)  # fewer classes than n_way
    with pytest.raises(ConfigError):
        small_config(sigma=0.0)
    assert small_config(encoder_widths=16).encoder_widths == (16,)
    assert small_config(g_hidden=7).g_widths == (7,)
    assert small_config(encoder_widths=(12, 9)).g_widths == (4,)


def test_episode_validation():
    sup = np.zeros((3, 2, 4))
    ids = np.arange(3)
    with pytest.raises(ShapeError):
        Episode(np.zeros((3, 4)), np.zeros((6, 4)), np.repeat(np.arange(3), 2), ids)
    with pytest.raises(ShapeError):
        Episode(sup, np.zeros((6, 5)), np.repeat(np.arange(3), 2), ids)  # dim mismatch
    with pytest.raises(ShapeError):
        Episode(sup, np.zeros((6, 4)), np.array([0, 0, 0, 1, 1, 2]), ids)  # uneven counts
    with pytest.raises(ShapeError):
        Episode(sup, np.zeros((6, 4)), np.repeat(np.arange(3), 2), np.arange(4))
    ep = Episode(sup, np.zeros((6, 4)), np.repeat(np.arange(3), 2), ids)
    assert (ep.n_way, ep.k_shot, ep.q_queries, ep.dim) == (3, 2, 2, 4)


def test_class_pools_disjoint_and_shaped():
    cfg = small_config()
    base, novel = class_mean_pools(cfg)
    assert base.shape == (10, 6) and novel.shape == (6, 6)
    base_rows = {tuple(row) for row in base}
    assert all(tuple(row) not in base_rows for row in novel)
    # same config seed -> same pools
    base2, novel2 = class_mean_pools(cfg)
    assert np.array_equal(base, base2) and np.array_equal(novel, novel2)


def test_episode_stream_deterministic():
    cfg = small_config()
    a = list(gen_episodes(cfg, "base", seed=5, count=3))
    b = list(gen_episodes(cfg, "base", seed=5, count=3))
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.support, eb.support)
        assert np.array_equal(ea.query, eb.query)
        assert np.array_equal(ea.query_labels, eb.query_labels)
        assert np.array_equal(ea.class_ids, eb.class_ids)
    c = next(gen_episodes(cfg, "base", seed=6))
    assert not np.array_equal(a[0].support, c.support)
    with pytest.raises(ConfigError):
        next(gen_episodes(cfg, "validation", seed=0))


def test_episodes_have_distinct_classes_and_counts():
    cfg = small_config()
    for ep in gen_episodes(cfg, "novel", seed=11, count=20):
        assert len(set(ep.class_ids.tolist())) == cfg.episode.n_way
        assert ep.support.shape == (3, 3, 6)
        counts = np.bincount(ep.query_labels, minlength=3)
        assert counts.tolist() == [2, 2, 2]


def test_novel_split_uses_novel_pool_means():
    cfg = small_config(sigma=1e-6)
    _, novel = class_mean_pools(cfg)
    ep = next(gen_episodes(cfg, "novel", seed=4))
    for j, cid in enumerate(ep.class_ids):
        assert np.allclose(ep.support[j], novel[cid], atol=1e-4)


# -- prototypes and logits -----------------------------------------------------


def test_single_shot_prototype_is_the_embedded_point():
    cfg = small_config(episode=EpisodeSpec(n_way=3, k_shot=1, q_queries=2, dim=6))
    model = FewShotModel(cfg, np.random.default_rng(2))
    ep = next(gen_episodes(cfg, "base", seed=9))
    protos = class_prototypes(model.embed, ep)
    direct = model.embed(ep.support.reshape(3, 6))
    assert np.array_equal(protos.data, direct.data)


def test_duplicated_support_matches_single_copy():
    means = np.random.default_rng(0).normal(size=(3, 4))
    queries = np.zeros((3, 4))
    labels = np.arange(3)
    dup = manual_episode(means, k_shot=4, queries=queries, labels=labels)
    single = manual_episode(means, k_shot=1, queries=queries, labels=labels)
    cfg = small_config(episode=EpisodeSpec(n_way=3, k_shot=4, q_queries=1, dim=4))
    model = FewShotModel(cfg, np.random.default_rng(3))
    p_dup = class_prototypes(model.embed, dup)
    p_single = class_prototypes(model.embed, single)
    assert np.allclose(p_dup.data, p_single.data, atol=1e-12)


def test_prototypes_invariant_to_support_order():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(4))
    ep = next(gen_episodes(cfg, "base", seed=13))
    reference = class_prototypes(model.embed, ep).data
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        shuffled = np.stack([block[rng.permutation(block.shape[0])] for block in ep.support])
        permuted = Episode(shuffled, ep.query, ep.query_labels, ep.class_ids)
        other = class_prototypes(model.embed, permuted).data
        worst = max(worst, float(np.abs(other - reference).max()))
    assert worst < 1e-9


def test_query_at_prototype_has_maximal_logit():
    means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    ep = manual_episode(means, k_shot=2, queries=means, labels=np.arange(3))
    logits = query_logits(identity_embed, ep, class_prototypes(identity_embed, ep))
    for j in range(3):
        row = logits.data[j]
        assert row.argmax() == j
        assert row[j] > row[np.arange(3) != j].max()  # strictly maximal


def test_logits_scale_quadratically_with_embedding():
    cfg = small_config()
    ep = next(gen_episodes(cfg, "base", seed=21))
    doubled = lambda pts: as_value(pts) * 2.0
    base = query_logits(identity_embed, ep, class_prototypes(identity_embed, ep)).data
    scaled = query_logits(doubled, ep, class_prototypes(doubled, ep)).data
    assert np.allclose(scaled, 4.0 * base, rtol=1e-10)


def test_protonet_loss_matches_manual_cross_entropy():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    loss = protonet_loss(as_value(logits), labels)
    log_norm = np.log(np.exp(logits).sum(axis=1))
    manual = float((log_norm - logits[np.arange(8), labels]).mean())
    assert abs(loss.item() - manual) < 1e-12


def test_random_embedding_on_overlapping_classes_is_chance():
    # with every class mean at the origin the episodes carry no class signal,
    # so an untrained embedding must classify at the 1/n_way rate
    cfg = FewShotConfig(mean_low=0.0, mean_high=0.0)
    model = FewShotModel(cfg, np.random.default_rng(17))
    stats = eval_fewshot(model, gen_episodes(cfg, "novel", seed=23, count=1000))
    assert abs(stats["mean_accuracy"] - 0.2) < 0.03


# -- transport term -----------------------------------------------------------


def _episode_grads(model, ep, train_cfg):
    zero_grad(model.parameters())
    episode_objective(model, ep, train_cfg)[0].backward()
    return [None if p.grad is None else p.grad.copy() for p in model.parameters()]


def test_ot_term_gradients_reach_all_components():
    # the transport term's gradient is what lambda_ot > 0 adds to the task's
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(6))
    ep = next(gen_episodes(cfg, "base", seed=31))
    task_only = _episode_grads(model, ep, train_config())
    with_ot = _episode_grads(model, ep, train_config(lambda_ot=1.0))
    n_embed = len(model.embed_net.parameters())
    assert any(
        np.abs(w - t).max() > 0 for w, t in zip(with_ot[:n_embed], task_only[:n_embed])
    )
    assert model.bank.matrix.grad is not None and np.abs(model.bank.matrix.grad).max() > 0
    head_grads = [p.grad for p in model.simplex_head.parameters()]
    assert any(g is not None and np.abs(g).max() > 0 for g in head_grads)


def test_ot_term_rejects_dimension_mismatch():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(8))
    other = FewShotModel(small_config(encoder_widths=(12, 6)), np.random.default_rng(8))
    model.bank = other.bank
    ep = next(gen_episodes(cfg, "base", seed=3))
    with pytest.raises(ShapeError):
        episode_objective(model, ep, train_config(lambda_ot=1.0))


def test_combined_episode_loss_gradcheck():
    cfg = small_config(
        episode=EpisodeSpec(n_way=3, k_shot=3, q_queries=2, dim=5),
        encoder_widths=(8, 6),
        mean_low=-1.0,
        mean_high=1.0,
    )
    model = FewShotModel(cfg, np.random.default_rng(12))
    ep = next(gen_episodes(cfg, "base", seed=41))
    train_cfg = train_config(lambda_ot=0.7)
    report = check_gradients(
        lambda: episode_objective(model, ep, train_cfg)[0],
        model.parameters(),
        np.random.default_rng(7),
        samples_per_param=4,
    )
    assert report.max_rel_err < 1e-4, str(report)


# -- training loops ------------------------------------------------------------


def test_lambda_zero_is_bit_identical_to_baseline():
    cfg = small_config(mean_low=-1.0, mean_high=1.0)
    model_a = FewShotModel(cfg, np.random.default_rng(5))
    model_b = FewShotModel(cfg, np.random.default_rng(5))
    fresh = FewShotModel(cfg, np.random.default_rng(5))
    trace_a = train_fewshot(model_a, train_config(steps=25, seed=2))
    trace_b = train_fewshot(model_b, train_config(steps=25, seed=2, lambda_ot=0.0))
    assert trace_a.task_losses == trace_b.task_losses
    assert trace_b.ot_losses == [None] * 25
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    # head and bank never moved off their initialization
    for pb, pf in zip(model_b.simplex_head.parameters(), fresh.simplex_head.parameters()):
        assert np.array_equal(pb.data, pf.data)
    assert np.array_equal(model_b.bank.matrix.data, fresh.bank.matrix.data)


def test_training_is_deterministic():
    cfg = small_config(mean_low=-1.5, mean_high=1.5)
    runs = []
    for _ in range(2):
        model = FewShotModel(cfg, np.random.default_rng(11))
        trace = train_fewshot(model, train_config(steps=15, seed=9, lambda_ot=0.3))
        stats = eval_fewshot(model, gen_episodes(cfg, "novel", seed=77, count=20))
        runs.append((trace.task_losses, trace.ot_losses, stats))
    assert runs[0] == runs[1]


def test_transport_regularizer_moves_head_and_bank():
    model = FewShotModel(small_config(), np.random.default_rng(14))
    before_bank = model.bank.matrix.data.copy()
    before_head = [p.data.copy() for p in model.simplex_head.parameters()]
    trace = train_fewshot(model, train_config(steps=10, lambda_ot=0.5, seed=1))
    assert all(v is not None for v in trace.ot_losses)
    assert not np.array_equal(model.bank.matrix.data, before_bank)
    moved = [
        not np.array_equal(p.data, prev)
        for p, prev in zip(model.simplex_head.parameters(), before_head)
    ]
    assert any(moved)


def test_divergence_raises_before_poisoning():
    model = FewShotModel(small_config(mean_low=-0.5, mean_high=0.5), np.random.default_rng(20))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_fewshot(model, train_config(steps=30, lr=1e150))


def test_separated_classes_reach_high_accuracy():
    # means are ~20+ sigma apart at sigma=0.5, so a briefly trained embedding
    # should classify essentially perfectly
    cfg = FewShotConfig(encoder_widths=(32, 16), sigma=0.5, n_base_classes=20, n_novel_classes=8)
    model = FewShotModel(cfg, np.random.default_rng(25))
    train_fewshot(model, TrainConfig(steps=300))
    stats = eval_fewshot(model, gen_episodes(cfg, "novel", seed=51, count=200))
    assert stats["mean_accuracy"] > 0.99


def test_eval_reporting_shape():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(30))
    single = eval_fewshot(model, gen_episodes(cfg, "novel", seed=1, count=1))
    assert set(single) == {"mean_accuracy", "ci95", "n_episodes"}
    assert single["n_episodes"] == 1 and single["ci95"] == 0.0
    many = eval_fewshot(model, gen_episodes(cfg, "novel", seed=1, count=16))
    assert many["n_episodes"] == 16 and many["ci95"] >= 0.0
    with pytest.raises(ConfigError):
        eval_fewshot(model, [])


def test_support_embedding_shapes():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(33))
    ep = next(gen_episodes(cfg, "base", seed=2))
    embedded = support_embeddings(model.embed, ep)
    assert embedded.shape == (9, 8)
    protos = class_prototypes(model.embed, ep)
    assert protos.shape == (3, 8)
    logits = query_logits(model.embed, ep, protos)
    assert logits.shape == (6, 3)
    assert 0.0 <= query_accuracy(logits, ep.query_labels) <= 1.0
