"""Episodic few-shot training: prototypes, logits, transport term, loops."""

import warnings

import numpy as np
import pytest

from protoset import fewshot, protolearn
from protoset.diffcore import as_value, no_grad, zero_grad
from protoset.diffcore.gradcheck import check_gradients
from protoset.errors import ConfigError, NumericalError, ShapeError, TrainingDivergedError
from protoset.fewshot import (
    EVAL_BLOCK,
    SPLITS,
    FewShotConfig,
    FewShotModel,
    _means_per_class,
    class_mean_pools,
    episode_objective,
    eval_fewshot,
    gen_episodes,
    protonet_loss,
    query_accuracy,
    query_logits,
    support_embeddings,
    train_fewshot,
)
from protoset.ot import (
    SinkhornConfig,
    build_cost_value,
    differentiable_transport_loss,
    floor_simplex_value,
)
from protoset.protolearn import TrainConfig


def small_config(**overrides):
    """Cheap episode recipe for unit-scale runs."""
    defaults = dict(
        n_way=3,
        k_shot=3,
        q_queries=2,
        dim=6,
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


def class_prototypes(embed, support):
    """Per-class mean of the embedded support, as training takes it: (n_way, M)."""
    return _means_per_class(support_embeddings(embed, support), len(support))


def copies_of(means, k_shot):
    """Support of k_shot copies of each class mean: (n_way, k_shot, dim)."""
    return np.repeat(np.asarray(means, dtype=np.float64)[:, None, :], k_shot, axis=1)


# -- configs and episode plumbing ---------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_way=0)
    with pytest.raises(ConfigError):
        small_config(encoder_widths=(12, 1))  # embedding must be at least 2-D
    with pytest.raises(ConfigError):
        small_config(bank_size=0)
    with pytest.raises(ConfigError):
        small_config(mean_low=2.0, mean_high=-2.0)
    with pytest.raises(ConfigError, match="further apart than the largest float"):
        small_config(mean_low=-1e308, mean_high=1e308)  # a width numpy's uniform refuses
    with pytest.raises(ConfigError):
        small_config(n_novel_classes=2)  # fewer classes than n_way
    with pytest.raises(ConfigError):
        small_config(sigma=0.0)
    # a point's squared norm over its 6 coordinates must stay a finite float
    with pytest.raises(ConfigError, match="squared norm over dim=6 coordinates overflows"):
        small_config(mean_high=1e154)
    with pytest.raises(ConfigError, match="sigma must square, summed over the 6 coordinates"):
        small_config(sigma=1e154)
    assert small_config(mean_low=-1e153, sigma=1e153).sigma == 1e153
    assert small_config(encoder_widths=16).encoder_widths == (16,)
    assert small_config(g_hidden=7).g_widths == (7,)
    assert small_config(encoder_widths=(12, 9)).g_widths == (4,)


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
    assert len(a) == 3 and all(np.array_equal(ea, eb) for ea, eb in zip(a, b))
    c = next(gen_episodes(cfg, "base", seed=6, count=1))
    assert not np.array_equal(a[0], c)
    with pytest.raises(ConfigError):
        next(gen_episodes(cfg, "validation", seed=0, count=1))


def loop_episodes(config, split, seed, count):
    """The reference generator: one draw of k_shot + q_queries points per class."""
    pool = class_mean_pools(config)[SPLITS.index(split)]
    w, n, d = config.n_way, config.k_shot + config.q_queries, config.dim
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ids = rng.choice(pool.shape[0], size=w, replace=False)
        yield np.stack([pool[cid] + config.sigma * rng.standard_normal(size=(n, d)) for cid in ids])


@pytest.mark.parametrize("split", SPLITS)
def test_episode_stream_matches_the_per_class_loop_bitwise(split):
    cfg = small_config(n_way=4, k_shot=2, q_queries=3, dim=5, sigma=1.7)
    ours = list(gen_episodes(cfg, split, seed=21, count=30))
    assert np.stack(ours).tobytes() == np.stack(list(loop_episodes(cfg, split, 21, 30))).tobytes()


def block_draw(config, split, seed, count):
    """The draw as written before episodes were drawn in place: (count, n_way, k + q, dim)."""
    pool = class_mean_pools(config)[SPLITS.index(split)]
    w, n, d = config.n_way, config.k_shot + config.q_queries, config.dim
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ids = rng.choice(pool.shape[0], size=w, replace=False)
        out.append(pool[ids][:, None, :] + config.sigma * rng.standard_normal(size=(w, n, d)))
    return np.stack(out)


STREAM_COUNT = 2 * EVAL_BLOCK + 3  # two full eval blocks and a partial one


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("split", SPLITS)
def test_gen_episodes_draws_the_reference_stream_byte_for_byte(split, seed):
    cfg = FewShotConfig(sigma=3.0)
    drawn = np.stack(list(gen_episodes(cfg, split, seed, count=STREAM_COUNT)))
    assert drawn.tobytes() == block_draw(cfg, split, seed, STREAM_COUNT).tobytes()


@pytest.mark.parametrize("seed", [3, 8])
def test_eval_embeds_the_reference_stream_in_blocks_as_drawn(seed):
    cfg = FewShotConfig(sigma=3.0)
    model = FewShotModel(cfg, np.random.default_rng(0))
    embed, rows = model.embed, []

    def recording(points):
        rows.append(np.array(points))
        return embed(points)

    model.embed = recording
    assert eval_fewshot(model, seed, STREAM_COUNT)["n_episodes"] == STREAM_COUNT
    per_episode = cfg.n_way * (cfg.k_shot + cfg.q_queries)
    assert [len(r) for r in rows] == [EVAL_BLOCK * per_episode] * 2 + [3 * per_episode]
    drawn = np.concatenate(rows).reshape(STREAM_COUNT, cfg.n_way, -1, cfg.dim)
    assert drawn.tobytes() == block_draw(cfg, "novel", seed, STREAM_COUNT).tobytes()


def test_episodes_have_distinct_classes_and_counts():
    cfg = small_config(sigma=1e-6)
    _, novel = class_mean_pools(cfg)
    for ep in gen_episodes(cfg, "novel", seed=11, count=20):
        assert ep.shape == (3, 5, 6)
        classes = np.abs(ep[:, :, None, :] - novel).max(axis=-1).argmin(axis=-1)  # (n_way, k + q)
        assert (classes == classes[:, :1]).all() and len(set(classes[:, 0])) == cfg.n_way
    assert cfg.query_labels.tolist() == [0, 0, 1, 1, 2, 2]


def test_novel_split_uses_novel_pool_means():
    cfg = small_config(sigma=1e-6)
    _, novel = class_mean_pools(cfg)
    ep = next(gen_episodes(cfg, "novel", seed=4, count=1))
    for points in ep:  # every point of a class lies at one novel class mean
        assert np.abs(points - novel[:, None, :]).max(axis=(1, 2)).min() < 1e-4


# -- prototypes and logits -----------------------------------------------------


def test_single_shot_prototype_is_the_embedded_point():
    cfg = small_config(n_way=3, k_shot=1, q_queries=2, dim=6)
    model = FewShotModel(cfg, np.random.default_rng(2))
    ep = next(gen_episodes(cfg, "base", seed=9, count=1))
    protos = class_prototypes(model.embed, ep[:, :1])
    direct = model.embed(ep[:, :1].reshape(3, 6))
    assert np.array_equal(protos.data, direct.data)


def test_duplicated_support_matches_single_copy():
    means = np.random.default_rng(0).normal(size=(3, 4))
    cfg = small_config(n_way=3, k_shot=4, q_queries=1, dim=4)
    model = FewShotModel(cfg, np.random.default_rng(3))
    p_dup = class_prototypes(model.embed, copies_of(means, 4))
    p_single = class_prototypes(model.embed, copies_of(means, 1))
    assert np.allclose(p_dup.data, p_single.data, atol=1e-12)


def test_prototypes_invariant_to_support_order():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(4))
    support = next(gen_episodes(cfg, "base", seed=13, count=1))[:, : cfg.k_shot]
    reference = class_prototypes(model.embed, support).data
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        shuffled = np.stack([block[rng.permutation(block.shape[0])] for block in support])
        other = class_prototypes(model.embed, shuffled).data
        worst = max(worst, float(np.abs(other - reference).max()))
    assert worst < 1e-9


def test_query_at_prototype_has_maximal_logit():
    means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    prototypes = class_prototypes(identity_embed, copies_of(means, 2))
    logits = query_logits(identity_embed, means[:, None, :], prototypes)
    for j in range(3):
        row = logits.data[j]
        assert row.argmax() == j
        assert row[j] > row[np.arange(3) != j].max()  # strictly maximal


def test_logits_scale_quadratically_with_embedding():
    cfg = small_config()
    ep = next(gen_episodes(cfg, "base", seed=21, count=1))
    support, queries = ep[:, : cfg.k_shot], ep[:, cfg.k_shot :]
    doubled = lambda pts: as_value(pts) * 2.0
    base = query_logits(identity_embed, queries, class_prototypes(identity_embed, support)).data
    scaled = query_logits(doubled, queries, class_prototypes(doubled, support)).data
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
    stats = eval_fewshot(model, seed=23, count=1000)
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
    ep = next(gen_episodes(cfg, "base", seed=31, count=1))
    task_only = _episode_grads(model, ep, train_config())
    with_ot = _episode_grads(model, ep, train_config(lambda_ot=1.0))
    n_embed = len(model.embed_net.parameters())
    assert any(
        np.abs(w - t).max() > 0 for w, t in zip(with_ot[:n_embed], task_only[:n_embed])
    )
    assert model.bank.matrix.grad is not None and np.abs(model.bank.matrix.grad).max() > 0
    head_grads = [p.grad for p in model.simplex_head.parameters()]
    assert any(g is not None and np.abs(g).max() > 0 for g in head_grads)


def reachable(root):
    """Every node reachable from ``root`` through recorded parents."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def transport_nodes(nodes):
    return [n for n in nodes if "_unrolled_loss" in getattr(n._backward, "__qualname__", "")]


def test_transport_term_is_one_node_whatever_n_way():
    # the n_way class problems are one stacked transport node, and no other
    # node repeats per class: the graph has the same size at 3 and 5 ways
    sizes = []
    for n_way in (3, 5):
        cfg = small_config(n_way=n_way, k_shot=3, q_queries=2, dim=6)
        model = FewShotModel(cfg, np.random.default_rng(6))
        ep = next(gen_episodes(cfg, "base", seed=31, count=1))
        nodes = reachable(episode_objective(model, ep, train_config(lambda_ot=1.0))[0])
        assert len(transport_nodes(nodes)) == 1
        assert transport_nodes(nodes)[0].shape == (n_way,)
        sizes.append(len(nodes))
    assert sizes[0] == sizes[1]


def test_stacked_transport_term_matches_per_class_problems():
    # the term as it was built before stacking: one cost, floor and node per class
    cfg = small_config(n_way=4, k_shot=3, q_queries=2, dim=6)
    model = FewShotModel(cfg, np.random.default_rng(9))
    ep = next(gen_episodes(cfg, "base", seed=13, count=1))
    train_cfg = train_config(lambda_ot=1.0)
    stacked_grads = _episode_grads(model, ep, train_cfg)
    stacked_loss = episode_objective(model, ep, train_cfg)[2]

    def per_class_objective():
        k = cfg.k_shot
        embedded = support_embeddings(model.embed, ep[:, :k])
        prototypes = class_prototypes(model.embed, ep[:, :k])
        task = protonet_loss(query_logits(model.embed, ep[:, k:], prototypes), cfg.query_labels)
        head_rows = model.simplex_head(prototypes)
        total = None
        for j in range(cfg.n_way):
            points = embedded[j * k : (j + 1) * k]
            cost = build_cost_value(points, model.bank.matrix, train_cfg.metric)
            weights = floor_simplex_value(head_rows[j].softmax())
            term = differentiable_transport_loss(cost, weights, train_cfg.sinkhorn)
            total = term if total is None else total + term
        return task, total * (1.0 / cfg.n_way)

    zero_grad(model.parameters())
    task, ot = per_class_objective()
    (task + ot).backward()
    assert abs(ot.item() - stacked_loss) <= 1e-13 * abs(stacked_loss)
    for p, g in zip(model.parameters(), stacked_grads):
        assert np.abs(p.grad - g).max() <= 1e-12 * np.abs(g).max()


def test_ot_term_rejects_dimension_mismatch():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(8))
    other = FewShotModel(small_config(encoder_widths=(12, 6)), np.random.default_rng(8))
    model.bank = other.bank
    ep = next(gen_episodes(cfg, "base", seed=3, count=1))
    with pytest.raises(ShapeError):
        episode_objective(model, ep, train_config(lambda_ot=1.0))


def test_combined_episode_loss_gradcheck():
    cfg = small_config(
        n_way=3, k_shot=3, q_queries=2, dim=5,
        encoder_widths=(8, 6),
        mean_low=-1.0,
        mean_high=1.0,
    )
    model = FewShotModel(cfg, np.random.default_rng(12))
    ep = next(gen_episodes(cfg, "base", seed=41, count=1))
    train_cfg = train_config(lambda_ot=0.7)
    err = check_gradients(
        lambda: episode_objective(model, ep, train_cfg)[0],
        model.parameters(),
        np.random.default_rng(7),
        samples_per_param=4,
    )
    assert err < 1e-4, err


# -- training loops ------------------------------------------------------------


def test_lambda_zero_is_bit_identical_to_baseline():
    cfg = small_config(mean_low=-1.0, mean_high=1.0)
    model_a = FewShotModel(cfg, np.random.default_rng(5))
    model_b = FewShotModel(cfg, np.random.default_rng(5))
    fresh = FewShotModel(cfg, np.random.default_rng(5))
    trace_a = train_fewshot(model_a, train_config(steps=25, seed=2))
    trace_b = train_fewshot(model_b, train_config(steps=25, seed=2, lambda_ot=0.0))
    assert trace_a["task_loss"] == trace_b["task_loss"]
    assert trace_b["transport_loss"] == [None] * 25
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    # head and bank never moved off their initialization
    for pb, pf in zip(model_b.simplex_head.parameters(), fresh.simplex_head.parameters()):
        assert np.array_equal(pb.data, pf.data)
    assert np.array_equal(model_b.bank.matrix.data, fresh.bank.matrix.data)


@pytest.mark.parametrize("lam", [None, 0.0, 0.5])
def test_train_fewshot_hands_every_parameter_to_the_optimizer(lam, monkeypatch):
    held = []
    make_optimizer = protolearn.make_optimizer

    def capture(kind, params, lr):
        held.append(list(params))
        return make_optimizer(kind, held[-1], lr)

    monkeypatch.setattr(protolearn, "make_optimizer", capture)
    model = FewShotModel(small_config(), np.random.default_rng(5))
    train_fewshot(model, train_config(steps=2, lambda_ot=lam))
    assert [id(p) for p in held[0]] == [id(p) for p in model.parameters()]


def test_training_is_deterministic():
    cfg = small_config(mean_low=-1.5, mean_high=1.5)
    runs = []
    for _ in range(2):
        model = FewShotModel(cfg, np.random.default_rng(11))
        trace = train_fewshot(model, train_config(steps=15, seed=9, lambda_ot=0.3))
        stats = eval_fewshot(model, seed=77, count=20)
        runs.append((trace["task_loss"], trace["transport_loss"], stats))
    assert runs[0] == runs[1]


def test_transport_regularizer_moves_head_and_bank():
    model = FewShotModel(small_config(), np.random.default_rng(14))
    before_bank = model.bank.matrix.data.copy()
    before_head = [p.data.copy() for p in model.simplex_head.parameters()]
    trace = train_fewshot(model, train_config(steps=10, lambda_ot=0.5, seed=1))
    assert all(v is not None for v in trace["transport_loss"])
    assert not np.array_equal(model.bank.matrix.data, before_bank)
    moved = [
        not np.array_equal(p.data, prev)
        for p, prev in zip(model.simplex_head.parameters(), before_head)
    ]
    assert any(moved)


def test_divergence_raises_before_poisoning():
    model = FewShotModel(small_config(mean_low=-0.5, mean_high=0.5), np.random.default_rng(20))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError):
            train_fewshot(model, train_config(steps=30, lr=1e150))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_separated_classes_reach_high_accuracy():
    # means are ~20+ sigma apart at sigma=0.5, so a briefly trained embedding
    # should classify essentially perfectly
    cfg = FewShotConfig(encoder_widths=(32, 16), sigma=0.5, n_base_classes=20, n_novel_classes=8)
    model = FewShotModel(cfg, np.random.default_rng(25))
    train_fewshot(model, TrainConfig(steps=300))
    stats = eval_fewshot(model, seed=51, count=200)
    assert stats["mean_accuracy"] > 0.99


def test_eval_reporting_shape():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(30))
    single = eval_fewshot(model, seed=1, count=1)
    assert set(single) == {"mean_accuracy", "ci95", "n_episodes"}
    assert single["n_episodes"] == 1 and single["ci95"] == 0.0
    many = eval_fewshot(model, seed=1, count=16)
    assert many["n_episodes"] == 16 and many["ci95"] >= 0.0
    with pytest.raises(ConfigError, match="count must be positive"):
        eval_fewshot(model, seed=1, count=0)


def test_eval_refuses_logits_an_overflowed_embedding_made():
    # finite points and a finite weight, whose squared distances overflow to inf; the
    # accuracy ranked from them once read 1.0
    model = FewShotModel(small_config(), np.random.default_rng(31))
    model.embed_net.layers[0].weight.data[:] = 1e300
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="eval episode 0 of seed 1 has non-finite"):
            eval_fewshot(model, seed=1, count=8)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_support_embedding_shapes():
    cfg = small_config()
    model = FewShotModel(cfg, np.random.default_rng(33))
    ep = next(gen_episodes(cfg, "base", seed=2, count=1))
    embedded = support_embeddings(model.embed, ep[:, :3])
    assert embedded.shape == (9, 8)
    protos = class_prototypes(model.embed, ep[:, :3])
    assert protos.shape == (3, 8)
    logits = query_logits(model.embed, ep[:, 3:], protos)
    assert logits.shape == (6, 3)
    assert 0.0 <= query_accuracy(logits, cfg.query_labels) <= 1.0


# -- block eval ----------------------------------------------------------------


def per_episode_eval(model, episodes):
    """The eval loop before blocks, with its formulas as they were: (logits, accuracies, result)."""
    cfg = model.config
    w, k, q, d = cfg.n_way, cfg.k_shot, cfg.q_queries, cfg.dim
    labels = np.repeat(np.arange(w), q)
    logits, accuracies = [], []
    with no_grad():
        for ep in episodes:
            support = model.embed(ep[:, :k].reshape(w * k, d))
            prototypes = support.reshape(w, k, support.shape[1]).mean(axis=1)
            queries = model.embed(ep[:, k:].reshape(w * q, d))
            nq, m = queries.shape
            diff = queries.reshape(nq, 1, m) - prototypes.reshape(1, w, m)
            logits.append((-(diff * diff).sum(axis=2)).data)
            accuracies.append(float((logits[-1].argmax(axis=1) == labels).mean()))
    arr = np.asarray(accuracies)
    ci95 = 1.96 * arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
    result = {"mean_accuracy": float(arr.mean()), "ci95": float(ci95), "n_episodes": int(arr.size)}
    return logits, arr, result


def block_eval(model, seed, count, monkeypatch):
    """eval_fewshot with each block's logits and accuracies recorded."""
    logits, accuracies = [], []

    def recording(block_logits, labels):
        logits.extend(block_logits.data)
        accuracies.append(query_accuracy(block_logits, labels))
        return accuracies[-1]

    monkeypatch.setattr(fewshot, "query_accuracy", recording)
    result = eval_fewshot(model, seed, count)
    return logits, np.concatenate(accuracies), result


def result_bytes(result):
    return {key: np.float64(value).tobytes() for key, value in result.items()}


@pytest.mark.parametrize("count", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                                   2 * EVAL_BLOCK + 3])
@pytest.mark.parametrize("shape", ["small", "default", "one-way"])
def test_block_eval_matches_the_per_episode_loop_bit_for_bit(shape, count, monkeypatch):
    cfg = {
        "small": small_config(sigma=4.0),
        "default": FewShotConfig(sigma=3.0),
        "one-way": small_config(n_way=1, k_shot=1, q_queries=1),
    }[shape]
    model = FewShotModel(cfg, np.random.default_rng(3))
    episodes = gen_episodes(cfg, "novel", seed=count, count=count)
    ref_logits, ref_acc, ref_result = per_episode_eval(model, episodes)
    logits, acc, result = block_eval(model, count, count, monkeypatch)
    assert acc.tobytes() == ref_acc.tobytes()
    assert result_bytes(result) == result_bytes(ref_result)
    if cfg.n_way > 1:  # one support row alone is a matrix-vector product, rounded otherwise
        assert [a.tobytes() for a in logits] == [a.tobytes() for a in ref_logits]
    if shape != "one-way" and count > 1:
        assert 0.0 < ref_result["ci95"]  # accuracies vary, so a mixed-up episode shows
