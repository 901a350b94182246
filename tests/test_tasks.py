"""Task generators and losses: recipe fidelity, oracle values, loss gradients."""

import json
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.diffcore import Value, check_gradients
from protoset.errors import ConfigError, NumericalError, ProtosetError, ShapeError
from protoset.summarynet import SetBatch
from protoset.tasks import (
    POINTSET_CLASSES,
    DigitSumSpec,
    MoGParams,
    MoGTaskSpec,
    PointSetClassSpec,
    digit_sum_loss,
    gen_digit_corpus,
    gen_digit_test_corpora,
    gen_mog_corpus,
    gen_pointset_corpus,
    load_corpus,
    mog_head_value,
    mog_nll_value,
    mog_task_loss,
    oracle_mean_loglik,
    sample_primitive,
    save_corpus,
    xent_loss,
)
from protoset.tasks import mog as mog_module
from protoset.tasks.mog import (
    LOGLIK_BLOCK,
    VAR_FLOOR,
    mean_set_loglik,
    mog_point_loglik,
    sample_mog_params,
    sample_mog_set,
)

RNG = np.random.default_rng(17)


def params_nll(params: MoGParams, points) -> float:
    """Mean NLL of ``points`` under fixed mixture parameters."""
    log_w = Value(np.log(params.weights))
    return mog_nll_value(log_w, Value(params.means), Value(params.variances), points).item()


# -- mixture generation -----------------------------------------------------------


def test_oracle_loglik_matches_published_values():
    # properties of the data recipe itself, independent of any training
    ll4 = oracle_mean_loglik(gen_mog_corpus(MoGTaskSpec(components=4), 2000, seed=123))
    ll8 = oracle_mean_loglik(gen_mog_corpus(MoGTaskSpec(components=8), 2000, seed=123))
    assert abs(ll4 - (-1.473)) < 0.02, ll4
    assert abs(ll8 - (-2.058)) < 0.02, ll8


def test_oracle_loglik_of_no_sets_is_a_config_error():
    empty = gen_mog_corpus(MoGTaskSpec(), 0, seed=1)
    assert empty == []
    with pytest.raises(ConfigError, match="corpus is empty"):
        oracle_mean_loglik(empty)


def test_single_component_consistency():
    spec = MoGTaskSpec(components=1)
    corpus = gen_mog_corpus(spec, 20, seed=5)
    for batch, params in corpus:
        dev = np.abs(batch.points - params.means[0]).max()
        assert dev < 6 * spec.sigma  # ~4 sigma plus slack, per-coordinate
        # single spherical Gaussian: oracle NLL concentrates near its entropy
        entropy = 0.5 * 2 * (1 + np.log(2 * np.pi * spec.sigma**2))
        assert abs(params_nll(params, batch.points) - entropy) < 0.25


@pytest.mark.parametrize("sigma, ok", [
    (1e-160, True),  # squares to a subnormal, which is positive
    (1e-170, False),  # squares to 0
    (1.3e154, True),
    (1.4e154, False),  # squares past the largest float
])
def test_spec_takes_a_sigma_whose_square_is_a_positive_finite_float(sigma, ok):
    if ok:
        variances = gen_mog_corpus(MoGTaskSpec(sigma=sigma), 1, seed=0)[0][1].variances
        assert np.all(variances == sigma**2) and np.all(np.isfinite(variances))
    else:
        with pytest.raises(ConfigError, match="sigma must square to a positive finite float"):
            MoGTaskSpec(sigma=sigma)


def test_spec_refuses_a_mean_box_wider_than_the_largest_float():
    message = "mean_low=-1e+308 and mean_high=1e+308 are further apart than the largest float"
    with pytest.raises(ConfigError, match=re.escape(message)):
        MoGTaskSpec(mean_low=-1e308, mean_high=1e308)  # numpy's uniform refuses this box
    means = gen_mog_corpus(MoGTaskSpec(mean_low=-1e308, mean_high=0.0), 1, seed=0)[0][1].means
    assert np.all((-1e308 <= means) & (means <= 0.0))  # a width of 1e308 draws


def test_corpus_set_sizes_within_range():
    corpus = gen_mog_corpus(MoGTaskSpec(), 50, seed=2)
    sizes = [len(b.points) for b, _ in corpus]
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
    sets = load_corpus(path)
    head, *records = [json.loads(line) for line in path.read_text().splitlines()]
    assert head["meta"]["components"] == 4
    assert len(sets) == 5
    truths = [record["truth"] for record in records]
    for (orig, params), loaded, truth in zip(corpus, sets, truths):
        assert np.array_equal(orig.points, loaded.points)
        assert orig.set_id == loaded.set_id
        assert np.array_equal(np.asarray(truth["means"]), params.means)


# -0.0, the subnormal extremes and the largest float; C-order native float64
EXTREMES = np.array([[-0.0, 5e-324], [-5e-324, np.finfo(np.float64).max], [1.0 / 3.0, -1.5]])


@pytest.mark.parametrize("layout", ["c-order", "fortran", "big-endian"])
def test_corpus_points_round_trip_bit_exact(layout, tmp_path):
    batch = SetBatch(EXTREMES, set_id=4, label=2)
    # as given, past SetBatch's conversion, so that the writer sees the layout
    batch.points = {"c-order": EXTREMES, "fortran": np.asfortranarray(EXTREMES),
                    "big-endian": EXTREMES.astype(">f8")}[layout]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(first, [batch], meta={"task": "mog"})
    record = json.loads(first.read_text().splitlines()[1])
    assert record["points"]["shape"] == [3, 2]
    sets = load_corpus(first)
    loaded = sets[0].points
    assert loaded.dtype == np.float64 and loaded.flags.writeable and loaded.flags.c_contiguous
    assert loaded.tobytes() == EXTREMES.tobytes()  # bit for bit, the sign of -0.0 too
    assert (sets[0].set_id, sets[0].label) == (4, 2)
    save_corpus(second, sets, meta={"task": "mog"})
    assert second.read_bytes() == first.read_bytes()


def test_corpus_points_as_a_list_of_rows_still_read(tmp_path):
    path = tmp_path / "rows.jsonl"
    save_corpus(path, [SetBatch(EXTREMES, set_id=0)])
    record = json.loads(path.read_text()) | {"points": EXTREMES.tolist()}
    path.write_text(json.dumps(record) + "\n")
    sets = load_corpus(path)
    assert sets[0].points.tobytes() == EXTREMES.tobytes()


def test_corpus_without_meta_line(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text(json.dumps({"set_id": 0, "points": [[1.0, 2.0]], "label": 3}) + "\n")
    sets = load_corpus(path)
    assert len(sets) == 1  # the first line is a set, not a meta line
    assert sets[0].label == 3


@pytest.mark.parametrize("meta", ["[1]", "3", '"mog"', "null"])
def test_corpus_meta_line_must_hold_an_object(meta, tmp_path):
    path = tmp_path / "meta.jsonl"
    path.write_text(f'{{"meta": {meta}}}\n{{"points": [[1.0, 2.0]]}}\n')
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:1: the meta line"):
        load_corpus(path)


@pytest.mark.parametrize(
    "truth", [float("nan"), float("inf"), {"means": [[0.0, float("-inf")]]}], ids=str
)
def test_save_corpus_refuses_a_non_finite_record(truth, tmp_path):
    # strict JSON lines: before, the record was written as NaN or Infinity
    corpus = gen_mog_corpus(MoGTaskSpec(), 3, seed=3)
    truths = [t.to_dict() for _, t in corpus]
    truths[1] = truth
    path = tmp_path / "c.jsonl"
    with pytest.raises(NumericalError, match=f"set {corpus[1][0].set_id} holds a NaN"):
        save_corpus(path, [b for b, _ in corpus], meta={"task": "mog"}, truths=truths)
    assert not path.exists()


def test_save_corpus_refuses_a_non_finite_meta(tmp_path):
    path = tmp_path / "c.jsonl"
    sets = [SetBatch(np.zeros((2, 1)), set_id=0)]
    with pytest.raises(NumericalError, match="meta holds a NaN"):
        save_corpus(path, sets, meta={"mog.sigma": float("nan")})
    assert not path.exists()


def test_save_corpus_refuses_misaligned_truths_with_a_shape_error(tmp_path):
    path = tmp_path / "c.jsonl"
    sets = [SetBatch(np.zeros((2, 1)), set_id=i) for i in range(2)]
    with pytest.raises(ShapeError, match="need one truth per set, got 1 for 2 sets"):
        save_corpus(path, sets, truths=[{}])
    assert not path.exists()


def test_corpus_rejects_pointless_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"set_id": 0, "label": 1}\n')
    with pytest.raises(ValueError):
        load_corpus(path)


# -- mixture head and likelihood ----------------------------------------------------


def test_zero_head_output():
    log_w, means, variances = mog_head_value(Value(np.zeros(20)), 4)
    assert np.allclose(np.exp(log_w.data), 0.25)
    assert np.all(means.data == 0)
    assert np.allclose(variances.data, np.log(2.0) + 1e-4)


def test_head_length_mismatch():
    # the value ops refuse a head output of another length or rank
    for raw in (np.zeros(19), np.zeros(21), np.zeros((4, 5)), np.float64(0.0), np.zeros(0)):
        with pytest.raises(ProtosetError):
            mog_head_value(Value(raw), 4)
    # the task loss leaves the refusal to the split, for a head one short of 5*C
    # (19 = 5 * 3 + 4), shorter than 5 values, or 0-d
    for raw in (np.zeros(19), np.zeros(4), np.zeros(1), np.float64(0.0)):
        with pytest.raises(ShapeError):
            mog_task_loss(Value(raw), np.zeros((3, 2)), None)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_head_always_valid(c, seed):
    raw = np.random.default_rng(seed).normal(scale=5.0, size=5 * c)
    log_w, means, variances = mog_head_value(Value(raw), c)
    weights = np.exp(log_w.data)
    assert abs(weights.sum() - 1.0) < 1e-9
    assert np.all(weights >= 0)
    assert np.all(variances.data > 1e-4 * 0.999)
    assert means.shape == (c, 2) and variances.shape == (c, 2)


def test_nll_matches_scipy_density():
    # independent oracle: the head by its definition (softmax weights, softplus
    # variances plus the floor), per-point diagonal-Gaussian log densities from
    # scipy.stats, mixed with scipy's logsumexp
    c = 6
    raw = RNG.normal(size=5 * c)
    points = RNG.normal(scale=2.0, size=(40, 2))
    log_w = scipy.special.log_softmax(raw[:c])
    means = raw[c : 3 * c].reshape(c, 2)
    variances = np.logaddexp(0.0, raw[3 * c :]).reshape(c, 2) + VAR_FLOOR
    log_comp = np.stack(
        [
            scipy.stats.norm.logpdf(points, means[j], np.sqrt(variances[j])).sum(axis=1)
            for j in range(c)
        ],
        axis=1,
    )
    expected = -scipy.special.logsumexp(log_comp + log_w, axis=1).mean()
    got = mog_task_loss(Value(raw), points, None).item()
    assert abs(got - expected) < 1e-12


def test_nll_at_mode_single_component():
    nll = mog_nll_value(
        Value(np.zeros(1)), Value([[0.5, -0.5]]), Value([[1.0, 1.0]]), np.array([[0.5, -0.5]])
    )
    assert abs(nll.item() - np.log(2 * np.pi)) < 1e-12


def test_nll_permutation_invariant_exactly():
    corpus = gen_mog_corpus(MoGTaskSpec(), 3, seed=11)
    rng = np.random.default_rng(0)
    for batch, params in corpus:
        base = params_nll(params, batch.points)
        for _ in range(10):
            perm = rng.permutation(len(batch.points))
            assert params_nll(params, batch.points[perm]) == pytest.approx(base, abs=1e-12)


def test_oracle_dominates_generic_params():
    # generating params should beat an uninformed head output, with slack
    corpus = gen_mog_corpus(MoGTaskSpec(), 500, seed=21)
    blind = mog_head_value(Value(np.zeros(20)), 4)
    oracle_ll = oracle_mean_loglik(corpus)
    blind_ll = np.mean([-mog_nll_value(*blind, b.points).item() for b, _ in corpus])
    assert oracle_ll >= blind_ll - 0.01


def test_mog_task_loss_gradient():
    raw = Value(RNG.normal(size=20), requires_grad=True)
    points = RNG.normal(size=(15, 2))
    err = check_gradients(
        lambda: mog_task_loss(raw, points, None), [raw], np.random.default_rng(1),
        samples_per_param=12,
    )
    assert err < 1e-4, err


# -- likelihood a block of sets per pass -------------------------------------------

# ragged sets: one point, a hundred, and more rows than one block holds at C = 4
RAGGED = (1, 100, LOGLIK_BLOCK // 4 + 1, 100, 1, 37, 450)


def ragged_pairs(sizes, seed):
    """(SetBatch, MoGParams) pairs of the given sizes, each set from its own mixture."""
    rng, spec = np.random.default_rng(seed), MoGTaskSpec()
    pairs = []
    for i, n in enumerate(sizes):
        params = sample_mog_params(spec, rng)
        pairs.append((SetBatch(sample_mog_set(params, n, rng), set_id=i), params))
    return pairs


def generating_mixtures(pairs):
    """Each set's generating (log-weights, means, variances), stacked over the sets."""
    params = [p for _, p in pairs]
    return (np.log([p.weights for p in params]), np.array([p.means for p in params]),
            np.array([p.variances for p in params]))


def head_outputs(count, seed):
    """Raw head outputs of a wide spread, one row per set, at C = 4."""
    return np.random.default_rng(seed).normal(scale=3.0, size=(count, 20))


def per_set_mean_loglik(pairs, raw=None) -> float:
    """The per-set loop the block eval replaced: one likelihood pass per set, under
    its generating mixture or, given one head output per set, under its split."""
    total = 0.0
    for i, (batch, params) in enumerate(pairs):
        total += -(params_nll(params, batch.points) if raw is None
                   else mog_task_loss(Value(raw[i]), batch.points, batch.label).item())
    return total / len(pairs)


@pytest.mark.parametrize("c", [1, 4, 8, 9])
def test_head_split_of_a_stack_equals_the_split_of_each_row(c):
    raw = np.random.default_rng(c).normal(scale=5.0, size=(7, 5 * c))
    stacked = mog_head_value(Value(raw), c)
    assert [part.shape for part in stacked] == [(7, c), (7, c, 2), (7, c, 2)]
    for i, row in enumerate(raw):
        for part, alone in zip(stacked, mog_head_value(Value(row), c)):
            assert np.array_equal(part.data[i], alone.data)  # bit for bit


@pytest.mark.parametrize("source", ["generating", "predicted"])
def test_point_loglik_under_a_mixture_per_point_equals_the_per_set_calls(source):
    pairs = ragged_pairs(RAGGED, seed=4)
    sets = [batch for batch, _ in pairs]
    if source == "generating":
        mixtures = [[part[i] for part in generating_mixtures(pairs)] for i in range(len(sets))]
    else:
        mixtures = [[v.data for v in mog_head_value(Value(row), 4)]
                    for row in head_outputs(len(sets), seed=5)]
    counts = [len(batch.points) for batch in sets]
    per_point = [Value(np.repeat(np.stack(part), counts, axis=0)) for part in zip(*mixtures)]
    together = mog_point_loglik(*per_point, np.concatenate([b.points for b in sets])).data
    apart = [mog_point_loglik(*(Value(a) for a in mix), b.points).data
             for b, mix in zip(sets, mixtures)]
    assert together.shape == (sum(counts),)
    assert np.array_equal(together, np.concatenate(apart))  # bit for bit


@pytest.mark.parametrize("sizes", [RAGGED, (100,) * 21 + (1,), (450,) * 9, (1,)])
@pytest.mark.parametrize("source", ["generating", "predicted"])
def test_block_mean_loglik_equals_the_per_set_loop_bit_for_bit(sizes, source, monkeypatch):
    pairs = ragged_pairs(sizes, seed=8)
    sets = [batch for batch, _ in pairs]
    if source == "generating":
        mixtures, raw = generating_mixtures(pairs), None
    else:
        raw = head_outputs(len(sets), seed=9)
        mixtures = [part.data for part in mog_head_value(Value(raw), 4)]
    expected = per_set_mean_loglik(pairs, raw)
    rows, real = [], mog_module.mog_point_loglik

    def recording(*args):
        rows.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(mog_module, "mog_point_loglik", recording)
    assert mean_set_loglik(sets, *mixtures) == expected
    assert sum(rows) == sum(sizes)
    # a block holds consecutive sets up to the budget; only a set larger than it passes alone
    rows_max = LOGLIK_BLOCK // 4
    assert all(n <= rows_max or n in sizes for n in rows)
    assert len(rows) > 1 or sum(sizes) <= rows_max
    if source == "generating":
        assert oracle_mean_loglik(pairs) == expected


# -- digit sum -----------------------------------------------------------------


def test_digit_corpus_exact_onehots_when_noiseless():
    spec = DigitSumSpec(noise_sigma=0.0)
    for batch in gen_digit_corpus(spec, 20, seed=0):
        assert batch.points.shape[1] == 10
        assert np.all(np.isin(batch.points, (0.0, 1.0)))
        digits = batch.points.argmax(axis=1)
        assert batch.label == digits.sum()
        assert 0 <= batch.label <= 9 * len(batch.points)


def test_digit_train_sizes_bounded():
    corpus = gen_digit_corpus(DigitSumSpec(), 200, seed=1)
    sizes = {len(b.points) for b in corpus}
    assert max(sizes) <= 10 and min(sizes) >= 1


def test_digit_test_grid():
    corpora = gen_digit_test_corpora(DigitSumSpec(), 5, seed=2)
    assert set(corpora.keys()) == {10, 25, 50, 100}
    for size, sets in corpora.items():
        assert len(sets) == 5 and all(len(b.points) == size for b in sets)


def test_digit_reproducible():
    a = gen_digit_corpus(DigitSumSpec(), 10, seed=7)
    b = gen_digit_corpus(DigitSumSpec(), 10, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points) and x.label == y.label


def test_digit_loss_reads_the_label():
    # accuracy's rounding cases are scored by the digitsum eval (tests/test_cli.py)
    points = np.zeros((2, 10))
    assert digit_sum_loss(Value(np.array([7.4])), points, 7).item() == pytest.approx(0.4)
    assert digit_sum_loss(Value(np.array([7.0])), points, 7).item() == 0.0


def test_digit_loss_gradient_both_sides():
    points = np.zeros((1, 10))
    for start in (1.0, 5.0):
        pred = Value(np.array([start]), requires_grad=True)
        err = check_gradients(
            lambda: digit_sum_loss(pred, points, 3), [pred], np.random.default_rng(0),
            samples_per_param=1,
        )
        assert err < 1e-4


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


def loop_cube(n, rng):
    """The reference cube sampler: one point at a time."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face % 3
    sign = np.where(face < 3, 1.0, -1.0)
    for i in range(n):
        coords = [0.0, 0.0, 0.0]
        others = [a for a in range(3) if a != axis[i]]
        coords[axis[i]] = sign[i]
        coords[others[0]], coords[others[1]] = uv[i]
        pts[i] = coords
    return pts


@pytest.mark.parametrize("n", [1, 8, 97])
def test_cube_shell_matches_the_per_point_loop_bitwise(n):
    for seed in range(20):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pts = sample_primitive("cube_shell", n, ours, noise_sigma=0.0, rotate=False)
        assert np.array_equal(pts, loop_cube(n, ref))
        assert ours.random() == ref.random()  # the same draws, so the stream goes on alike


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
    points = np.zeros((8, 3))
    assert xent_loss(logits, points, 2).item() == pytest.approx(np.log(8.0))
    err = check_gradients(
        lambda: xent_loss(logits, points, 2), [logits], np.random.default_rng(0),
        samples_per_param=8,
    )
    assert err < 1e-4


def test_spec_validation():
    with pytest.raises(ConfigError):
        MoGTaskSpec(components=0)
    with pytest.raises(ConfigError):
        MoGTaskSpec(n_min=0)
    with pytest.raises(ConfigError):
        DigitSumSpec(max_train_size=0)
    with pytest.raises(ConfigError):
        PointSetClassSpec(n_points=4)
