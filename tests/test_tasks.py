"""Task generators and losses: recipe fidelity, oracle values, loss gradients."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients
from protoset.errors import ConfigError, ShapeError
from protoset.summarynet import SetBatch
from protoset.tasks import (
    POINTSET_CLASSES,
    DigitSumSpec,
    MoGParams,
    MoGTaskSpec,
    PointSetClassSpec,
    digit_sum_accuracy,
    digit_sum_loss,
    gen_digit_corpus,
    gen_digit_test_corpora,
    gen_mog_corpus,
    gen_pointset_corpus,
    load_corpus,
    mog_head,
    mog_head_value,
    mog_nll,
    mog_nll_value,
    mog_task_loss,
    oracle_mean_loglik,
    sample_primitive,
    save_corpus,
    xent_loss,
)

RNG = np.random.default_rng(17)


# -- mixture generation -----------------------------------------------------------


def test_oracle_loglik_matches_published_values():
    # properties of the data recipe itself, independent of any training
    ll4 = oracle_mean_loglik(MoGTaskSpec(components=4), 2000, seed=123)
    ll8 = oracle_mean_loglik(MoGTaskSpec(components=8), 2000, seed=123)
    assert abs(ll4 - (-1.473)) < 0.02, ll4
    assert abs(ll8 - (-2.058)) < 0.02, ll8


def test_single_component_consistency():
    spec = MoGTaskSpec(components=1)
    corpus = gen_mog_corpus(spec, 20, seed=5)
    for batch, params in corpus:
        dev = np.abs(batch.points - params.means[0]).max()
        assert dev < 6 * spec.sigma  # ~4 sigma plus slack, per-coordinate
        # single spherical Gaussian: oracle NLL concentrates near its entropy
        entropy = 0.5 * 2 * (1 + np.log(2 * np.pi * spec.sigma**2))
        assert abs(mog_nll(params, batch.points) - entropy) < 0.25


def test_corpus_set_sizes_within_range():
    corpus = gen_mog_corpus(MoGTaskSpec(), 50, seed=2)
    sizes = [b.n_points for b, _ in corpus]
    assert min(sizes) >= 100 and max(sizes) <= 500


def test_mixture_proportions_match_dirichlet_mean():
    spec = MoGTaskSpec(components=4)
    rng = np.random.default_rng(0)
    weights = []
    from protoset.tasks.mog import sample_mog_params

    for _ in range(10000):
        weights.append(sample_mog_params(spec, rng).weights)
    mean = np.mean(weights, axis=0)
    assert np.abs(mean - 0.25).max() < 0.02, mean


def test_same_seed_same_corpus_bytes(tmp_path):
    spec = MoGTaskSpec()
    for name in ("a.jsonl", "b.jsonl"):
        corpus = gen_mog_corpus(spec, 10, seed=9)
        save_corpus(
            tmp_path / name,
            [b for b, _ in corpus],
            meta={"task": "mog"},
            truths=[t.to_dict() for _, t in corpus],
        )
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_corpus_roundtrip(tmp_path):
    corpus = gen_mog_corpus(MoGTaskSpec(), 5, seed=3)
    path = tmp_path / "c.jsonl"
    save_corpus(
        path,
        [b for b, _ in corpus],
        meta={"task": "mog", "components": 4},
        truths=[t.to_dict() for _, t in corpus],
    )
    meta, sets, truths = load_corpus(path)
    assert meta["components"] == 4
    assert len(sets) == 5
    for (orig, params), loaded, truth in zip(corpus, sets, truths):
        assert np.array_equal(orig.points, loaded.points)
        assert orig.set_id == loaded.set_id
        assert np.array_equal(np.asarray(truth["means"]), params.means)


def test_corpus_without_meta_line(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text(json.dumps({"set_id": 0, "points": [[1.0, 2.0]], "label": 3}) + "\n")
    meta, sets, truths = load_corpus(path)
    assert meta == {}
    assert sets[0].label == 3
    assert truths == [None]


def test_corpus_rejects_pointless_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"set_id": 0, "label": 1}\n')
    with pytest.raises(ValueError):
        load_corpus(path)


# -- mixture head and likelihood ----------------------------------------------------


def test_zero_head_output():
    p = mog_head(np.zeros(20), 4)
    assert np.allclose(p.weights, 0.25)
    assert np.all(p.means == 0)
    assert np.allclose(p.variances, np.log(2.0) + 1e-4)


def test_head_length_mismatch():
    with pytest.raises(ShapeError):
        mog_head(np.zeros(19), 4)
    with pytest.raises(ShapeError):
        mog_head_value(Value(np.zeros(19)), 4)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_head_always_valid(c, seed):
    raw = np.random.default_rng(seed).normal(scale=5.0, size=5 * c)
    p = mog_head(raw, c)
    assert abs(p.weights.sum() - 1.0) < 1e-9
    assert np.all(p.weights >= 0)
    assert np.all(p.variances > 1e-4 * 0.999)


def test_head_value_matches_numpy():
    raw = RNG.normal(size=30)
    p = mog_head(raw, 6)
    lw, mu, var = mog_head_value(Value(raw), 6)
    assert np.abs(np.exp(lw.data) - p.weights).max() < 1e-12
    assert np.array_equal(mu.data, p.means)
    assert np.abs(var.data - p.variances).max() < 1e-12


def test_nll_at_mode_single_component():
    p = MoGParams(np.array([1.0]), np.array([[0.5, -0.5]]), np.array([[1.0, 1.0]]))
    assert abs(mog_nll(p, np.array([[0.5, -0.5]])) - np.log(2 * np.pi)) < 1e-12


def test_nll_permutation_invariant_exactly():
    corpus = gen_mog_corpus(MoGTaskSpec(), 3, seed=11)
    rng = np.random.default_rng(0)
    for batch, params in corpus:
        base = mog_nll(params, batch.points)
        for _ in range(10):
            perm = rng.permutation(batch.n_points)
            assert mog_nll(params, batch.points[perm]) == pytest.approx(base, abs=1e-12)


def test_nll_value_matches_numpy():
    raw = RNG.normal(size=20)
    pts = RNG.normal(size=(40, 2))
    p = mog_head(raw, 4)
    lw, mu, var = mog_head_value(Value(raw), 4)
    assert abs(mog_nll_value(lw, mu, var, pts).item() - mog_nll(p, pts)) < 1e-12


def test_oracle_dominates_generic_params():
    # generating params should beat an uninformed head output, with slack
    corpus = gen_mog_corpus(MoGTaskSpec(), 500, seed=21)
    blind = mog_head(np.zeros(20), 4)
    oracle_ll = np.mean([-mog_nll(p, b.points) for b, p in corpus])
    blind_ll = np.mean([-mog_nll(blind, b.points) for b, _ in corpus])
    assert oracle_ll >= blind_ll - 0.01


def test_mog_task_loss_gradient():
    raw = Value(RNG.normal(size=20), requires_grad=True)
    batch = SetBatch(RNG.normal(size=(15, 2)), set_id=0)
    report = check_gradients(
        lambda: mog_task_loss(raw, batch), [raw], np.random.default_rng(1), samples_per_param=12
    )
    assert report.max_rel_err < 1e-4, str(report)


# -- digit sum -----------------------------------------------------------------


def test_digit_corpus_exact_onehots_when_noiseless():
    spec = DigitSumSpec(noise_sigma=0.0, train_count=20)
    for batch in gen_digit_corpus(spec, seed=0):
        assert batch.points.shape[1] == 10
        assert np.all(np.isin(batch.points, (0.0, 1.0)))
        digits = batch.points.argmax(axis=1)
        assert batch.label == digits.sum()
        assert 0 <= batch.label <= 9 * batch.n_points


def test_digit_train_sizes_bounded():
    corpus = gen_digit_corpus(DigitSumSpec(train_count=200), seed=1)
    sizes = {b.n_points for b in corpus}
    assert max(sizes) <= 10 and min(sizes) >= 1


def test_digit_test_grid():
    spec = DigitSumSpec(test_count_per_size=5)
    corpora = gen_digit_test_corpora(spec, seed=2)
    assert set(corpora.keys()) == {10, 25, 50, 100}
    for size, sets in corpora.items():
        assert all(b.n_points == size for b in sets)


def test_digit_reproducible():
    a = gen_digit_corpus(DigitSumSpec(train_count=10), seed=7)
    b = gen_digit_corpus(DigitSumSpec(train_count=10), seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points) and x.label == y.label


def test_digit_loss_and_accuracy():
    batch = SetBatch(np.zeros((2, 10)), set_id=0, label=7)
    assert digit_sum_loss(Value(np.array([7.4])), batch).item() == pytest.approx(0.4)
    assert digit_sum_loss(Value(np.array([7.0])), batch).item() == 0.0
    assert digit_sum_accuracy(7.4, 7) == 1.0
    assert digit_sum_accuracy(7.6, 7) == 0.0
    assert digit_sum_accuracy(6.5, 7) == 0.0  # round-half-even: 6.5 -> 6


def test_digit_loss_gradient_both_sides():
    batch = SetBatch(np.zeros((1, 10)), set_id=0, label=3)
    for start in (1.0, 5.0):
        pred = Value(np.array([start]), requires_grad=True)
        report = check_gradients(
            lambda: digit_sum_loss(pred, batch), [pred], np.random.default_rng(0), samples_per_param=1
        )
        assert report.max_rel_err < 1e-4


# -- point sets ------------------------------------------------------------------


def test_sphere_points_on_unit_shell():
    pts = sample_primitive("sphere_shell", 200, np.random.default_rng(0), noise_sigma=0.0)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9


def test_planar_primitives_have_rank_two():
    for name in ("plane_patch", "spiral_disc"):
        pts = sample_primitive(name, 100, np.random.default_rng(1), noise_sigma=0.0)
        centered = pts - pts.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        assert s[2] < 1e-9, (name, s)


def test_segment_has_rank_one():
    pts = sample_primitive("line_segment", 100, np.random.default_rng(2), noise_sigma=0.0)
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    assert s[1] < 1e-9


def test_two_blob_separation():
    pts = sample_primitive("two_blob", 400, np.random.default_rng(3), noise_sigma=0.0, rotate=False)
    left = pts[pts[:, 0] < 0]
    right = pts[pts[:, 0] >= 0]
    assert len(left) > 50 and len(right) > 50
    assert np.linalg.norm(left.mean(axis=0) - right.mean(axis=0)) > 1.0


def test_unknown_primitive_rejected():
    with pytest.raises(ConfigError):
        sample_primitive("dodecahedron", 10, np.random.default_rng(0))


def test_pointset_corpus_balanced_and_labeled():
    corpus = gen_pointset_corpus(PointSetClassSpec(count_per_class=3), seed=0)
    assert len(corpus) == 3 * len(POINTSET_CLASSES)
    counts = np.bincount([b.label for b in corpus], minlength=8)
    assert np.all(counts == 3)
    assert all(b.points.shape == (32, 3) for b in corpus)


def test_xent_loss_value_and_gradient():
    logits = Value(np.zeros(8), requires_grad=True)
    batch = SetBatch(np.zeros((8, 3)), set_id=0, label=2)
    assert xent_loss(logits, batch).item() == pytest.approx(np.log(8.0))
    report = check_gradients(
        lambda: xent_loss(logits, batch), [logits], np.random.default_rng(0), samples_per_param=8
    )
    assert report.max_rel_err < 1e-4


def test_spec_validation():
    with pytest.raises(ConfigError):
        MoGTaskSpec(components=0)
    with pytest.raises(ConfigError):
        MoGTaskSpec(n_min=0)
    with pytest.raises(ConfigError):
        DigitSumSpec(max_train_size=0)
    with pytest.raises(ConfigError):
        PointSetClassSpec(n_points=4)
