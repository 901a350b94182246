"""Summary network: shapes, simplex outputs, permutation invariance, init."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoset.cli import GRADCHECK_THRESHOLD, TASK_TABLE
from protoset.config import resolve_config
from protoset.diffcore import Value, check_gradients, no_grad, zero_grad
from protoset.errors import ConfigError, DomainError, ShapeError
from protoset.nn import MLP, Linear, fan_balanced_uniform
from protoset.summarynet import SetBatch, SummaryNet, SummaryNetConfig

RNG = np.random.default_rng(21)


def small_net(pooling="mean", output_dim=None, k=6):
    cfg = SummaryNetConfig(
        input_dim=3,
        n_prototypes=k,
        encoder_widths=(16, 16),
        activation="elu",
        pooling=pooling,
        head_hidden=16,
        output_dim=output_dim,
    )
    return SummaryNet(cfg, np.random.default_rng(0))


# -- SetBatch -----------------------------------------------------------------


def test_setbatch_validation():
    with pytest.raises(DomainError):
        SetBatch(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        SetBatch(np.zeros(5))
    with pytest.raises(DomainError):
        SetBatch(np.array([[1.0, np.nan]]))
    b = SetBatch(np.ones((4, 2)), set_id=3, label=1)
    assert b.points.shape == (4, 2) and b.dim == 2


# -- init ----------------------------------------------------------------------


def test_fan_balanced_init_bounds():
    rng = np.random.default_rng(1)
    w = fan_balanced_uniform(rng, 100, 50)
    limit = np.sqrt(6.0 / 150)
    assert np.abs(w).max() <= limit
    # spread should fill the interval, not collapse near zero
    assert np.abs(w).max() > 0.9 * limit


def test_linear_bias_starts_zero():
    layer = Linear(4, 3, np.random.default_rng(0))
    assert np.all(layer.bias.data == 0.0)


@pytest.mark.parametrize("frozen", ["nothing", "input", "weight"])
def test_linear_is_one_node_bit_equal_to_matmul_plus_bias(frozen):
    rng = np.random.default_rng(3)
    layer = Linear(5, 4, rng)
    layer.bias.data[...] = rng.normal(size=4)
    x = Value(rng.normal(size=(40, 5)), requires_grad=frozen != "input")
    layer.weight.requires_grad = frozen != "weight"
    leaves = (x, layer.weight, layer.bias)
    upstream = rng.normal(size=(40, 4))
    fused = layer(x)
    assert fused._parents == leaves
    (fused * upstream).sum().backward()
    got = [leaf.grad for leaf in leaves]
    zero_grad(leaves)
    split = x @ layer.weight + layer.bias
    (split * upstream).sum().backward()
    assert fused.data.tobytes() == split.data.tobytes()
    for mine, theirs in zip(got, (leaf.grad for leaf in leaves)):
        assert mine is theirs is None or mine.tobytes() == theirs.tobytes()
    assert [g is None for g in got] == [frozen == "input", frozen == "weight", False]


def test_linear_refuses_an_input_of_another_width():
    layer = Linear(4, 3, np.random.default_rng(0))
    for bad in (np.zeros((2, 5)), np.zeros(4)):
        with pytest.raises(ShapeError, match=r"Linear expects a \(batch, 4\) input"):
            layer(Value(bad))


# -- summarize ------------------------------------------------------------------


@pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
def test_summarize_is_simplex(pooling):
    net = small_net(pooling)
    pts = RNG.normal(size=(12, 3))
    h = net.summarize(pts).data
    assert h.shape == (6,)
    assert np.all(h > 0.0)
    assert abs(h.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
def test_permutation_invariance_hundred_perms(pooling):
    net = small_net(pooling)
    pts = RNG.normal(size=(30, 3))
    with no_grad():
        base = net.summarize(pts).data
    worst = 0.0
    rng = np.random.default_rng(99)
    for _ in range(100):
        perm = rng.permutation(30)
        with no_grad():
            h = net.summarize(pts[perm]).data
        worst = max(worst, float(np.abs(h - base).max()))
    assert worst < 1e-9, worst


def test_supervised_heads_share_pooled_features():
    net = small_net(output_dim=4)
    pts = RNG.normal(size=(9, 3))
    h, y = net.summarize_with_prediction(pts)
    assert h.shape == (6,) and y.shape == (4,)
    assert np.all(h.data > 0) and abs(h.data.sum() - 1.0) < 1e-9


def test_supervised_invariance():
    net = small_net(output_dim=2)
    pts = RNG.normal(size=(20, 3))
    with no_grad():
        h0, y0 = net.summarize_with_prediction(pts)
    rng = np.random.default_rng(3)
    for _ in range(100):
        perm = rng.permutation(20)
        with no_grad():
            h, y = net.summarize_with_prediction(pts[perm])
        assert np.abs(h.data - h0.data).max() < 1e-9
        assert np.abs(y.data - y0.data).max() < 1e-9


def test_prediction_head_needs_supervised_config():
    net = small_net()
    with pytest.raises(ConfigError):
        net.summarize_with_prediction(RNG.normal(size=(5, 3)))


def test_single_point_set_works():
    net = small_net()
    h = net.summarize(RNG.normal(size=(1, 3))).data
    assert abs(h.sum() - 1.0) < 1e-9


def test_wrong_dimension_raises():
    net = small_net()
    with pytest.raises(ShapeError):
        net.summarize(RNG.normal(size=(5, 4)))


def test_pooled_representation_shape():
    for pooling in ("mean", "sum", "max"):
        net = small_net(pooling=pooling)
        assert net.pooled_representation(RNG.normal(size=(7, 3))).shape == (1, 16)
    with pytest.raises(DomainError):
        net.pooled_representation(np.zeros((0, 3)))
    # the encoder's first Linear refuses another rank or width
    for bad in (RNG.normal(size=7), np.float64(1.5), RNG.normal(size=(2, 7, 3)), np.zeros((7, 0))):
        with pytest.raises(ShapeError):
            net.pooled_representation(bad)


def test_mlp_call_is_its_last_layer_on_its_hidden_layers():
    mlp = MLP((3, 16, 16, 5), "elu", np.random.default_rng(2))
    x = Value(RNG.normal(size=(11, 3)))
    assert mlp.hidden(x).shape == (11, 16)
    assert mlp(x).data.tobytes() == mlp.layers[-1](mlp.hidden(x)).data.tobytes()


def _pooled_in_the_old_order(net, pts):
    """Every point through the whole encoder, then the pool."""
    features = net.encoder(Value(pts)).data
    return getattr(features, net.config.pooling)(axis=0, keepdims=True)


@pytest.mark.parametrize("pooling", ["mean", "sum"])
@pytest.mark.parametrize("n", [1, 2, 37, 500])
def test_pooling_before_the_last_layer_matches_the_old_order(pooling, n):
    net = small_net(pooling)
    for layer in net.encoder.layers:  # nonzero biases, so the sum's n x bias is exercised
        layer.bias.data[...] = RNG.normal(size=layer.bias.data.shape)
    pts = RNG.normal(size=(n, 3))
    got = net.pooled_representation(pts).data
    old = _pooled_in_the_old_order(net, pts)
    if n == 1:
        assert got.tobytes() == old.tobytes()
    else:
        np.testing.assert_allclose(got, old, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 37, 500])
def test_max_pooling_keeps_the_old_order(n):
    net = small_net("max")
    pts = RNG.normal(size=(n, 3))
    assert net.pooled_representation(pts).data.tobytes() == _pooled_in_the_old_order(net, pts).tobytes()


def test_one_layer_encoder_refuses_another_rank():
    cfg = SummaryNetConfig(input_dim=3, n_prototypes=4, encoder_widths=(16,))
    net = SummaryNet(cfg, np.random.default_rng(0))
    assert net.pooled_representation(RNG.normal(size=(5, 3))).shape == (1, 16)
    for bad in (np.float64(1.5), RNG.normal(size=3), RNG.normal(size=(2, 5, 3)), np.zeros((5, 4))):
        with pytest.raises(ShapeError):
            net.pooled_representation(bad)


@pytest.mark.parametrize("pooling", ["sum", "max"])
def test_set_objective_gradients_under_sum_and_max_pooling(pooling):
    # seed 1: at seed 0 the sum-pooled loss reads 207, and central differences on it carry
    # about 1e-9 of roundoff, which the check's 1e-6 floor turns into a relative error of
    # 7e-4 on bank entries whose gradient is 1e-9 (pooling after the last layer reads the same)
    task = TASK_TABLE["mog"]
    cfg = resolve_config(overrides={**task.gradcheck_shapes, "task": "mog", "seed": "1",
                                    "model.pooling": pooling})
    sets = task.training_sets(cfg, None)
    net, bank, named = task.build(cfg, sets)
    assert net.config.pooling == pooling
    ((_, fn, params),) = task.objectives(cfg, net, bank, named, sets)
    assert check_gradients(fn, params, np.random.default_rng(0), samples_per_param=3) < GRADCHECK_THRESHOLD


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_summarize_simplex_property(seed):
    rng = np.random.default_rng(seed)
    net = small_net()
    pts = rng.normal(size=(int(rng.integers(1, 40)), 3)) * rng.uniform(0.1, 10)
    h = net.summarize(pts).data
    assert np.all(h > 0) and abs(h.sum() - 1.0) < 1e-9


def test_config_validation():
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=0, n_prototypes=3)
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=2, n_prototypes=0)
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=2, n_prototypes=3, pooling="median")
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=2, n_prototypes=3, output_dim=0)


def test_deterministic_init_from_seed():
    a = SummaryNet(SummaryNetConfig(input_dim=3, n_prototypes=4), np.random.default_rng(5))
    b = SummaryNet(SummaryNetConfig(input_dim=3, n_prototypes=4), np.random.default_rng(5))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_head_width_tuples():
    cfg = SummaryNetConfig(
        input_dim=2, n_prototypes=5, encoder_widths=(16, 16), activation="elu",
        head_hidden=(32, 16), output_dim=3, predict_hidden=(24, 24, 24),
    )
    assert cfg.head_hidden == (32, 16)
    assert cfg.predict_hidden == (24, 24, 24)
    net = SummaryNet(cfg, np.random.default_rng(0))
    # encoder out 16 -> 32 -> 16 -> 5 simplex; 16 -> 24 x3 -> 3 prediction
    assert [l.weight.shape for l in net.simplex_head.layers] == [(16, 32), (32, 16), (16, 5)]
    assert [l.weight.shape for l in net.predict_head.layers] == [(16, 24), (24, 24), (24, 24), (24, 3)]
    w, p = net.summarize_with_prediction(np.random.default_rng(1).normal(size=(6, 2)))
    assert w.shape == (5,) and p.shape == (3,)


def test_predict_hidden_defaults_to_head_hidden():
    cfg = SummaryNetConfig(
        input_dim=2, n_prototypes=5, encoder_widths=(16,), activation="elu",
        head_hidden=48, output_dim=2,
    )
    assert cfg.head_hidden == (48,)
    assert cfg.predict_hidden == (48,)


def test_bad_head_widths_rejected():
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=2, n_prototypes=5, encoder_widths=(16,),
                         activation="elu", head_hidden=())
    with pytest.raises(ConfigError):
        SummaryNetConfig(input_dim=2, n_prototypes=5, encoder_widths=(16,),
                         activation="elu", head_hidden=(16, 0))
