"""Prototype bank training: recovery, symmetry, ablation identities."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from protoset import protolearn
from protoset.diffcore import SGD, Adam, Value, no_grad, zero_grad
from protoset.errors import ConfigError, DomainError, TrainingDivergedError
from protoset.fewshot import FewShotConfig, FewShotModel, train_fewshot
from protoset.metagan import GanConfig, MetaGan, TaskFamilySpec, gen_task_corpus, train_metagan
from protoset.ot import SinkhornConfig
from protoset.protolearn import (
    PrototypeBank,
    TrainConfig,
    fit,
    set_objective,
    subsample_points,
    train_prototypes,
    transport_objective,
)
from protoset.summarynet import SetBatch, SummaryNet, SummaryNetConfig

RNG = np.random.default_rng(31)


def tiny_net(k=4, input_dim=2, output_dim=None, seed=0):
    cfg = SummaryNetConfig(
        input_dim=input_dim,
        n_prototypes=k,
        encoder_widths=(32, 32),
        activation="elu",
        pooling="mean",
        head_hidden=32,
        output_dim=output_dim,
    )
    return SummaryNet(cfg, np.random.default_rng(seed))


def cluster_corpus(rng, n_sets=20, clusters=((2.0, 2.0), (-2.0, 1.5), (1.5, -2.0), (-2.0, -2.0))):
    corpus = []
    for i in range(n_sets):
        center = np.array(clusters[i % len(clusters)])
        pts = center + 0.2 * rng.normal(size=(60, 2))
        corpus.append(SetBatch(pts, set_id=i, label=i % len(clusters)))
    return corpus


# -- bank basics ---------------------------------------------------------------


def test_bank_from_points_shape_and_determinism():
    pool = RNG.normal(size=(50, 3))
    b1 = PrototypeBank.from_points(pool, 5, np.random.default_rng(7))
    b2 = PrototypeBank.from_points(pool, 5, np.random.default_rng(7))
    assert b1.matrix.shape == (3, 5)
    assert np.array_equal(b1.matrix.data, b2.matrix.data)
    assert b1.matrix.requires_grad


def test_bank_validation():
    with pytest.raises(ConfigError):
        PrototypeBank(Value(np.zeros(3), requires_grad=True))
    with pytest.raises(ConfigError):
        PrototypeBank.from_points(RNG.normal(size=(10, 2)), 0, np.random.default_rng(0))


def test_cosine_column_guard_rerandomizes():
    bank = PrototypeBank(Value(np.array([[1.0, 0.0], [0.0, 0.0]]), requires_grad=True))
    touched = bank.guard_cosine_columns(np.random.default_rng(0))
    assert touched == 1
    norms = np.linalg.norm(bank.matrix.data, axis=0)
    assert norms.min() > 0.9


@pytest.mark.parametrize("metric,moved,guarded", [("cosine", True, True),
                                                   ("euclidean", True, False),
                                                   ("cosine", False, False)])
def test_apply_update_guards_a_cosine_bank_only_when_the_step_moved_it(metric, moved, guarded):
    bank = PrototypeBank(Value(np.array([[1.0, 0.0], [0.0, 0.0]]), requires_grad=True))
    other = Value(np.ones(2), requires_grad=True)
    loss = (bank.matrix * 0.0).sum() + (other * 0.0).sum()
    optimizer = SGD([bank.matrix] if moved else [other], lr=0.1)
    protolearn.apply_update(optimizer, loss, 0, "test", bank, metric, np.random.default_rng(0))
    collapsed = np.linalg.norm(bank.matrix.data[:, 1])
    assert collapsed == pytest.approx(1.0) if guarded else collapsed == 0.0


def test_subsample_caps_at_set_size():
    pts = RNG.normal(size=(5, 2))
    rng = np.random.default_rng(0)
    assert subsample_points(pts, 100, rng) is pts
    out = subsample_points(RNG.normal(size=(50, 2)), 10, rng)
    assert out.shape == (10, 2)


# -- loss properties -------------------------------------------------------------


def test_prototype_permutation_symmetry():
    net = tiny_net(k=5)
    bank = PrototypeBank(Value(RNG.normal(size=(2, 5)), requires_grad=True))
    pts = RNG.normal(size=(30, 2)) + 1.0
    cfg = TrainConfig()
    with no_grad():
        h = net.summarize(pts)
        base = transport_objective(pts, h, bank, "cosine", cfg.sinkhorn).item()
        perm = np.random.default_rng(1).permutation(5)
        permuted_bank = PrototypeBank(Value(bank.matrix.data[:, perm].copy(), requires_grad=True))
        h_perm = Value(h.data[perm])
        permuted = transport_objective(pts, h_perm, permuted_bank, "cosine", cfg.sinkhorn).item()
    assert abs(base - permuted) < 1e-9


def test_every_prototype_column_gets_gradient():
    net = tiny_net(k=6)
    bank = PrototypeBank(Value(RNG.normal(size=(2, 6)), requires_grad=True))
    points = RNG.normal(size=(40, 2)) + 0.5
    cfg = TrainConfig()
    loss = transport_objective(points, net.summarize(points), bank, cfg.metric, cfg.sinkhorn)
    loss.backward()
    col_norms = np.abs(bank.matrix.grad).sum(axis=0)
    assert np.all(col_norms > 0.0), col_norms


def test_moving_prototype_onto_cluster_lowers_transport_term():
    # a prototype placed on the data should beat one placed away from it
    from protoset.ot import Marginals, sinkhorn, transport_cost, uniform_weights

    pts = RNG.normal(size=(30, 2)) * 0.1 + np.array([2.0, 2.0])
    on = np.array([[2.0, 0.0], [2.0, 0.0]])
    off = np.array([[-2.0, 0.0], [-2.0, 0.0]])
    m = Marginals(uniform_weights(30), np.array([0.9, 0.1]))
    cost_on = np.linalg.norm(pts[:, None, :] - on.T[None, :, :], axis=2)
    cost_off = np.linalg.norm(pts[:, None, :] - off.T[None, :, :], axis=2)
    t_on = transport_cost(sinkhorn(cost_on, m), cost_on)
    t_off = transport_cost(sinkhorn(cost_off, m), cost_off)
    assert t_on < t_off


# -- unsupervised loop -------------------------------------------------------------


def test_unsupervised_rejects_lambda_ot():
    corpus = cluster_corpus(np.random.default_rng(0), n_sets=4)
    net = tiny_net()
    bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(1))
    with pytest.raises(ConfigError):
        train_prototypes(corpus, net, bank, TrainConfig(steps=2, lambda_ot=1.0))


def test_unsupervised_reproducible_from_seed():
    def run():
        rng = np.random.default_rng(0)
        corpus = cluster_corpus(rng, n_sets=6)
        net = tiny_net(seed=3)
        bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(1))
        cfg = TrainConfig(steps=25, batch_points=30, seed=11)
        trace = train_prototypes(corpus, net, bank, cfg)
        return trace["transport_loss"], bank.matrix.data.copy()

    losses_a, bank_a = run()
    losses_b, bank_b = run()
    assert losses_a == losses_b  # bit-identical floats
    assert np.array_equal(bank_a, bank_b)


def test_unsupervised_loss_trends_down():
    rng = np.random.default_rng(2)
    corpus = cluster_corpus(rng, n_sets=12)
    net = tiny_net(seed=5)
    bank = PrototypeBank.from_points(
        np.vstack([c.points for c in corpus[:4]]), 4, np.random.default_rng(2)
    )
    cfg = TrainConfig(steps=300, batch_points=40, lr=0.005, seed=7)
    trace = train_prototypes(corpus, net, bank, cfg)
    losses = np.array(trace["transport_loss"])
    smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert smooth[-1] < smooth[0], (smooth[0], smooth[-1])


def test_two_atom_recovery():
    # two sets concentrated at p and q; squared distance cost drags the two
    # prototypes onto the atoms (up to column order)
    p = np.array([1.5, -0.5])
    q = np.array([-1.0, 1.0])
    rng = np.random.default_rng(4)
    corpus = [
        SetBatch(p + 0.01 * rng.normal(size=(40, 2)), set_id=0),
        SetBatch(q + 0.01 * rng.normal(size=(40, 2)), set_id=1),
    ]
    net = tiny_net(k=2, seed=6)
    bank = PrototypeBank(Value(np.array([[0.5, -0.2], [0.1, 0.4]]), requires_grad=True))
    cfg = TrainConfig(steps=1500, batch_points=40, lr=0.01, metric="sqeuclidean", seed=9)
    train_prototypes(corpus, net, bank, cfg)
    cols = bank.matrix.data.T  # (2, 2) rows are prototypes
    d_direct = np.linalg.norm(cols[0] - p) + np.linalg.norm(cols[1] - q)
    d_swapped = np.linalg.norm(cols[0] - q) + np.linalg.norm(cols[1] - p)
    assert min(d_direct, d_swapped) / 2 < 0.05, cols


def test_summaries_discriminate_clusters_after_training():
    rng = np.random.default_rng(8)
    corpus = cluster_corpus(rng, n_sets=16)
    net = tiny_net(k=4, seed=10)
    bank = PrototypeBank.from_points(
        np.vstack([c.points for c in corpus[:4]]), 4, np.random.default_rng(3)
    )
    cfg = TrainConfig(steps=500, batch_points=40, lr=0.005, seed=12)
    train_prototypes(corpus, net, bank, cfg)

    def summary(batch):
        with no_grad():
            return net.summarize(batch.points).data

    same, cross = [], []
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            hi, hj = summary(corpus[i]), summary(corpus[j])
            cos = hi @ hj / (np.linalg.norm(hi) * np.linalg.norm(hj))
            (same if corpus[i].label == corpus[j].label else cross).append(cos)
    assert np.mean(same) > np.mean(cross), (np.mean(same), np.mean(cross))


def test_divergence_guard_raises():
    corpus = cluster_corpus(np.random.default_rng(0), n_sets=4)
    net = tiny_net(output_dim=1)
    bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(1))

    def overflowing_loss(prediction, batch):
        return prediction.sum() * 1e308 * 1e308

    cfg = TrainConfig(steps=10, lambda_ot=0.0, seed=0)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train_prototypes(corpus, net, bank, cfg, overflowing_loss)


# -- supervised loop -----------------------------------------------------------------


def l1_loss(prediction, batch):
    diff = prediction.reshape(1) - float(batch.label)
    return (diff.relu() + (-diff).relu()).sum()


def labelled_corpus():
    rng = np.random.default_rng(0)
    corpus = []
    for i in range(8):
        pts = rng.normal(size=(25, 2)) + i * 0.3
        corpus.append(SetBatch(pts, set_id=i, label=float(i)))
    return corpus


def run_supervised(lam, steps=30, build_ot_branch=True):
    corpus = labelled_corpus()
    net = tiny_net(k=4, output_dim=1, seed=20)
    bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(5))
    cfg = TrainConfig(steps=steps, batch_points=20, lambda_ot=lam, seed=13)
    trace = train_prototypes(corpus, net, bank, cfg, l1_loss)
    return net, bank, trace


def test_lambda_zero_matches_plain_loop_bitwise():
    net_a, bank_a, trace_a = run_supervised(0.0)

    # a hand-rolled loop that never even mentions the bank
    corpus = labelled_corpus()
    net_b = tiny_net(k=4, output_dim=1, seed=20)
    opt = Adam(net_b.parameters(), lr=0.001)
    data_rng = np.random.default_rng(13)
    for _ in range(30):
        batch = corpus[int(data_rng.integers(len(corpus)))]
        pts = subsample_points(batch.points, 20, data_rng)
        sub = SetBatch(pts, set_id=batch.set_id, label=batch.label)
        _, prediction = net_b.summarize_with_prediction(sub.points)
        loss = l1_loss(prediction, sub)
        opt.zero_grad()
        loss.backward()
        opt.step()

    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert all(v is None for v in trace_a["transport_loss"])


def test_lambda_zero_leaves_bank_untouched():
    net, bank, _ = run_supervised(0.0)
    fresh = PrototypeBank.from_points(
        SetBatch(np.random.default_rng(0).normal(size=(25, 2)), set_id=0).points,
        4,
        np.random.default_rng(5),
    )
    assert np.array_equal(bank.matrix.data, fresh.matrix.data)
    assert bank.matrix.grad is None


def test_lambda_positive_moves_bank_and_records_both_losses():
    net, bank, trace = run_supervised(1.0)
    fresh = PrototypeBank.from_points(
        SetBatch(np.random.default_rng(0).normal(size=(25, 2)), set_id=0).points,
        4,
        np.random.default_rng(5),
    )
    assert not np.array_equal(bank.matrix.data, fresh.matrix.data)
    assert all(v is not None for v in trace["transport_loss"])
    assert all(v is not None for v in trace["task_loss"])


def test_batch_sets_step_is_one_update_on_the_mean_of_the_set_objectives():
    corpus = labelled_corpus()
    cfg = TrainConfig(steps=1, batch_sets=2, batch_points=20, lambda_ot=0.5, seed=13)
    nets = [tiny_net(k=4, output_dim=1, seed=20) for _ in range(2)]
    banks = [PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(5))
             for _ in range(2)]
    trace = train_prototypes(corpus, nets[0], banks[0], cfg, l1_loss)

    # by hand: two sets drawn as the loop draws them, one Adam step on their mean
    rng = np.random.default_rng(13)
    terms = []
    for _ in range(2):
        batch = corpus[int(rng.integers(len(corpus)))]
        sub = SetBatch(subsample_points(batch.points, 20, rng), set_id=batch.set_id,
                       label=batch.label)
        terms.append(set_objective(sub, nets[1], banks[1], cfg, l1_loss))
    params = [[bank.matrix] + net.parameters() for net, bank in zip(nets, banks)]
    opt = Adam(params[1], lr=cfg.lr)
    opt.zero_grad()
    ((terms[0][0] + terms[1][0]) * 0.5).backward()
    opt.step()

    assert trace["task_loss"][0] == pytest.approx((terms[0][1] + terms[1][1]) / 2, rel=1e-12)
    assert trace["transport_loss"][0] == pytest.approx((terms[0][2] + terms[1][2]) / 2, rel=1e-12)
    for trained, by_hand in zip(*params):
        assert np.array_equal(trained.data, by_hand.data)


def test_lr_decays_linearly_to_lr_final_at_the_last_step(monkeypatch):
    seen = []
    make = protolearn.make_optimizer

    def recording(kind, params, lr):
        optimizer = make(kind, params, lr)
        step = optimizer.step
        optimizer.step = lambda: (seen.append(optimizer.lr), step())
        return optimizer

    monkeypatch.setattr(protolearn, "make_optimizer", recording)
    corpus = labelled_corpus()
    bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(5))
    cfg = TrainConfig(steps=5, lr=0.01, lr_final=0.001, batch_points=20, seed=13)
    train_prototypes(corpus, tiny_net(k=4, output_dim=1, seed=20), bank, cfg, l1_loss)
    assert seen == pytest.approx([0.01, 0.00775, 0.0055, 0.00325, 0.001], rel=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_points=0)
    with pytest.raises(ConfigError):
        TrainConfig(metric="manhattan")
    with pytest.raises(ConfigError):
        TrainConfig(lambda_ot=-0.5)
    with pytest.raises(ConfigError):
        TrainConfig(lr_final=-1e-3)


# -- the shared step loop ---------------------------------------------------------------


def _logged_steps(caplog, train) -> list:
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="protoset.protolearn"):
        train(TrainConfig(steps=5, log_every=2, sinkhorn=SinkhornConfig(unroll_iters=5)))
    return [int(re.search(r"step (\d+)", r.getMessage()).group(1)) for r in caplog.records]


def test_fit_logs_every_log_every_steps_for_both_loops(caplog):
    corpus = cluster_corpus(np.random.default_rng(0), n_sets=4)
    bank = PrototypeBank.from_points(corpus[0].points, 4, np.random.default_rng(1))
    fs_config = FewShotConfig(
        n_way=3, k_shot=2, q_queries=2, dim=4,
        encoder_widths=(8, 6),
        n_base_classes=6,
        n_novel_classes=3,
    )
    model = FewShotModel(fs_config, np.random.default_rng(2))
    spec = TaskFamilySpec("gauss1d", n_points=10)
    sets = [s for s, _ in gen_task_corpus(spec, count=4)]
    gan_bank = PrototypeBank.from_points(sets[0].points, 2, np.random.default_rng(3))

    def metagan(cfg):
        gan_cfg = GanConfig(generator_widths=(8,), critic_widths=(8,), batch=5,
                            iterations=cfg.steps, log_every=cfg.log_every,
                            ot=replace(cfg, metric="euclidean"))
        gan = MetaGan(spec, gan_cfg, tiny_net(k=2, input_dim=1), gan_bank,
                      np.random.default_rng(4))
        return train_metagan(sets, gan)

    loops = {
        "prototypes": lambda cfg: train_prototypes(corpus, tiny_net(), bank, cfg),
        "fewshot": lambda cfg: train_fewshot(model, cfg),
        "metagan": metagan,
    }
    for name, train in loops.items():
        assert _logged_steps(caplog, train) == [0, 2, 4], name


def test_fit_names_the_step_whose_forward_pass_fails():
    def step(i):
        if i == 2:
            raise DomainError("log of a negative number")
        return {"loss": float(i)}

    with pytest.raises(TrainingDivergedError, match="step 2"):
        fit(5, step, 0, "test")
