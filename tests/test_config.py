"""Configuration schema: parsing, defaults, rejection of bad keys and values."""

import json

import pytest

from protoset.config import (
    SCHEMA,
    config_from_json_dict,
    default_config,
    parse_value,
    read_config_file,
    render_value,
    resolve_config,
    schema_help,
)
from protoset.errors import CheckpointError, ConfigError, check_bound


# -- defaults ---------------------------------------------------------------------


def test_defaults_match_published_values():
    cfg = default_config()
    assert cfg["sinkhorn.epsilon"] == 0.1
    assert cfg["optim.lr"] == 0.001
    assert cfg["task"] == "mog"
    assert cfg["model.k"] == 50
    assert cfg["train.lambda_ot"] is None


def test_every_default_passes_its_own_validation():
    # the schema must not ship defaults its own rules reject
    resolve_config()


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus.key"):
        resolve_config(None, {"bogus.key": "1"})


def test_unknown_key_suggests_close_match():
    with pytest.raises(ConfigError, match="train.steps"):
        resolve_config(None, {"trian.steps": "5"})


def test_getitem_of_an_unknown_key_names_it():
    with pytest.raises(ConfigError) as exc:
        default_config()["trian.steps"]
    assert str(exc.value) == "unknown config key 'trian.steps' (did you mean 'train.steps'?)"


# a value that is no number fails the bound's comparison with a TypeError and is
# shown by its repr, so the string "3" does not read as the int 3
@pytest.mark.parametrize("value,bound,message", [
    (None, "positive", "model.k must be positive, got None"),
    ("3", "positive", "model.k must be positive, got '3'"),
    ("x", "finite", "model.k must be finite, got 'x'"),
], ids=["none", "digit-string", "string"])
def test_check_bound_refuses_a_value_that_is_no_number(value, bound, message):
    with pytest.raises(ConfigError) as exc:
        check_bound("model.k", value, bound)
    assert str(exc.value) == message


def test_negative_prototype_count_rejected_by_name():
    with pytest.raises(ConfigError, match=r"model\.k"):
        resolve_config(None, {"model.k": "-3"})


# -- value parsing ----------------------------------------------------------------


def test_typed_parsing():
    assert parse_value("model.k", "7") == 7
    assert parse_value("sinkhorn.epsilon", "0.05") == 0.05
    assert parse_value("metagan.non_saturating", "true") is True
    assert parse_value("metagan.non_saturating", "OFF") is False
    assert parse_value("model.encoder_widths", "32,16") == (32, 16)
    assert parse_value("model.predict_hidden", "") == ()
    assert parse_value("train.lambda_ot", "none") is None
    assert parse_value("train.lambda_ot", "0.5") == 0.5


@pytest.mark.parametrize(
    "key,text",
    [
        ("model.k", "seven"),
        ("sinkhorn.epsilon", "fast"),
        ("metagan.non_saturating", "maybe"),
        ("model.encoder_widths", "32,sixteen"),
        ("train.lambda_ot", "lots"),
    ],
)
def test_malformed_values_name_the_key(key, text):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_value(key, text)


def test_choice_and_bound_validation():
    with pytest.raises(ConfigError, match="task"):
        resolve_config(None, {"task": "sudoku"})
    with pytest.raises(ConfigError, match="sinkhorn.epsilon"):
        resolve_config(None, {"sinkhorn.epsilon": "0"})
    with pytest.raises(ConfigError, match="train.lambda_ot"):
        resolve_config(None, {"train.lambda_ot": "-0.1"})
    with pytest.raises(ConfigError, match="model.encoder_widths"):
        resolve_config(None, {"model.encoder_widths": "32,0"})


@pytest.mark.parametrize(
    "key,text",
    [
        ("mog.n_min", "600"),  # above mog.n_max
        ("model.encoder_widths", ""),
        ("fewshot.n_way", "0"),
        ("fewshot.n_base", "2"),  # fewer classes than fewshot.n_way
        ("fewshot.encoder_widths", "1"),  # embedding must be at least 2-D
        ("metagan.n_points", "1"),
        ("metagan.summary_widths", ""),  # a key with no owner
    ],
)
def test_owner_bounds_name_the_key_at_resolve(key, text):
    # every owner is built at resolve, whatever the task
    pattern = key.replace(".", r"\.")
    with pytest.raises(ConfigError, match=pattern):
        resolve_config(None, {"task": "pointset", key: text})
    if key == "fewshot.n_base":  # stored in a checkpoint, it is a corrupt file
        stored = default_config().as_dict() | {key: int(text)}
        with pytest.raises(CheckpointError, match="stored config: " + pattern):
            config_from_json_dict(stored)


# (key, an out-of-bounds value, the exact error): one row for every key but the
# bools, then rows of the checks that span two fields
BOUND_ERRORS = [
    ("task", "bogus",
     "task must be one of ('mog', 'digitsum', 'pointset', 'fewshot', 'metagan'), got 'bogus'"),
    ("seed", "-1", "seed must be nonnegative, got -1"),
    ("count", "0", "count must be positive, got 0"),
    ("eval.count", "-1", "eval.count must be nonnegative, got -1"),
    ("eval.seed", "-1", "eval.seed must be nonnegative, got -1"),
    ("sinkhorn.epsilon", "0", "sinkhorn.epsilon must be positive and finite, got 0.0"),
    ("sinkhorn.tol", "inf", "sinkhorn.tol must be positive and finite, got inf"),
    ("sinkhorn.max_iters", "0", "sinkhorn.max_iters must be positive, got 0"),
    ("sinkhorn.unroll_iters", "-1", "sinkhorn.unroll_iters must be positive, got -1"),
    ("sinkhorn.grad_mode", "bogus",
     "sinkhorn.grad_mode must be one of ('unrolled', 'envelope'), got 'bogus'"),
    ("optim.kind", "bogus", "optim.kind must be one of ('adam', 'sgd'), got 'bogus'"),
    ("optim.lr", "nan", "optim.lr must be positive and finite, got nan"),
    ("optim.lr_final", "0", "optim.lr_final must be positive and finite, got 0.0"),
    ("train.steps", "0", "train.steps must be positive, got 0"),
    ("train.batch_sets", "0", "train.batch_sets must be positive, got 0"),
    ("train.batch_points", "-1", "train.batch_points must be positive, got -1"),
    ("train.metric", "bogus",
     "train.metric must be one of ('cosine', 'euclidean', 'sqeuclidean'), got 'bogus'"),
    ("train.lambda_ot", "-0.5", "train.lambda_ot must be nonnegative and finite, got -0.5"),
    ("train.log_every", "-1", "train.log_every must be nonnegative, got -1"),
    ("train.mode", "bogus",
     "train.mode must be one of ('supervised', 'unsupervised'), got 'bogus'"),
    ("model.k", "0", "model.k must be positive, got 0"),
    ("model.encoder_widths", "",
     "model.encoder_widths must be a positive int or tuple of them, got ()"),
    ("model.activation", "bogus",
     "model.activation must be one of ('relu', 'elu', 'tanh', 'softplus'), got 'bogus'"),
    ("model.pooling", "bogus", "model.pooling must be one of ('mean', 'sum', 'max'), got 'bogus'"),
    ("model.head_hidden", "3,0",
     "model.head_hidden must be a positive int or tuple of them, got (3, 0)"),
    ("model.predict_hidden", "-1",
     "model.predict_hidden must be a positive int or tuple of them, got (-1,)"),
    ("mog.components", "0", "mog.components must be positive, got 0"),
    ("mog.n_min", "0", "mog.n_min must be in [1, n_max=500], got 0"),
    ("mog.n_max", "0", "mog.n_max must be positive, got 0"),
    ("mog.sigma", "inf", "mog.sigma must be positive and finite, got inf"),
    ("mog.mean_low", "nan", "mog.mean_low must be finite, got nan"),
    ("mog.mean_high", "inf", "mog.mean_high must be finite, got inf"),
    ("mog.encode_cap", "-1", "mog.encode_cap must be nonnegative, got -1"),
    ("digitsum.size", "-1", "digitsum.size must be nonnegative, got -1"),
    ("digitsum.max_train_size", "0", "digitsum.max_train_size must be positive, got 0"),
    ("digitsum.test_sizes", "",
     "digitsum.test_sizes must be a positive int or tuple of them, got ()"),
    ("digitsum.noise_sigma", "inf",
     "digitsum.noise_sigma must be nonnegative and finite, got inf"),
    ("pointset.n_points", "7", "pointset.n_points must be at least 8, got 7"),
    ("pointset.noise_sigma", "-0.5",
     "pointset.noise_sigma must be nonnegative and finite, got -0.5"),
    ("pointset.count_per_class", "0", "pointset.count_per_class must be positive, got 0"),
    ("fewshot.n_way", "0", "fewshot.n_way must be positive, got 0"),
    ("fewshot.k_shot", "0", "fewshot.k_shot must be positive, got 0"),
    ("fewshot.q_queries", "-1", "fewshot.q_queries must be positive, got -1"),
    ("fewshot.dim", "0", "fewshot.dim must be positive, got 0"),
    ("fewshot.encoder_widths", "",
     "fewshot.encoder_widths must be a positive int or tuple of them, got ()"),
    ("fewshot.g_hidden", "0", "fewshot.g_hidden must be a positive int or tuple of them, got (0,)"),
    ("fewshot.bank", "0", "fewshot.bank must be positive, got 0"),
    ("fewshot.episodes", "0", "fewshot.episodes must be positive, got 0"),
    ("fewshot.n_base", "4", "fewshot.n_base must be at least n_way=5, got 4"),
    ("fewshot.n_novel", "-1", "fewshot.n_novel must be at least n_way=5, got -1"),
    ("fewshot.sigma", "0", "fewshot.sigma must be positive and finite, got 0.0"),
    ("fewshot.mean_low", "-inf", "fewshot.mean_low must be finite, got -inf"),
    ("fewshot.mean_high", "nan", "fewshot.mean_high must be finite, got nan"),
    ("fewshot.class_seed", "-1", "fewshot.class_seed must be nonnegative, got -1"),
    ("fewshot.activation", "bogus",
     "fewshot.activation must be one of ('relu', 'elu', 'tanh', 'softplus'), got 'bogus'"),
    ("fewshot.metric", "bogus",
     "fewshot.metric must be one of ('cosine', 'euclidean', 'sqeuclidean'), got 'bogus'"),
    ("metagan.family", "bogus",
     "metagan.family must be one of ('gauss1d', 'gauss2d', 'multi1d'), got 'bogus'"),
    ("metagan.n_points", "1", "metagan.n_points must be 0 (family default) or at least 2, got 1"),
    ("metagan.k", "0", "metagan.k must be positive, got 0"),
    ("metagan.summary_widths", "",
     "metagan.summary_widths must be a positive int or tuple of them, got ()"),
    ("metagan.noise_dim", "0", "metagan.noise_dim must be positive, got 0"),
    ("metagan.generator_widths", "8,-2",
     "metagan.generator_widths must be a positive int or tuple of them, got (8, -2)"),
    ("metagan.critic_widths", "",
     "metagan.critic_widths must be a positive int or tuple of them, got ()"),
    ("metagan.conditioning", "bogus",
     "metagan.conditioning must be one of ('generator-only', 'conditional-critic'), got 'bogus'"),
    ("metagan.eta_critic", "0", "metagan.eta_critic must be positive, got 0"),
    ("metagan.batch", "-1", "metagan.batch must be positive, got -1"),
    ("metagan.iterations", "0", "metagan.iterations must be positive, got 0"),
    ("metagan.lr_generator", "-inf", "metagan.lr_generator must be positive and finite, got -inf"),
    ("metagan.lr_critic", "0", "metagan.lr_critic must be positive and finite, got 0.0"),
    ("metagan.mse_weight", "nan", "metagan.mse_weight must be nonnegative and finite, got nan"),
    ("metagan.metric", "bogus",
     "metagan.metric must be one of ('cosine', 'euclidean', 'sqeuclidean'), got 'bogus'"),
    ("mog.n_max", "7", "mog.n_min must be in [1, n_max=7], got 100"),
    ("mog.mean_low", "5", "mog.mean_low=5.0 must not exceed mog.mean_high=4.0"),
    ("mog.sigma", "1e300", "mog.sigma must square to a positive finite float, got 1e+300"),
    ("mog.sigma", "1e-170", "mog.sigma must square to a positive finite float, got 1e-170"),
    ("fewshot.mean_low", "6", "fewshot.mean_low=6.0 must not exceed fewshot.mean_high=5.0"),
    ("fewshot.encoder_widths", "8,1",
     "fewshot.encoder_widths must end in an embedding size of at least 2, got 1"),
    ("fewshot.n_way", "65", "fewshot.n_base must be at least n_way=65, got 64"),
]


def test_bound_errors_cover_every_key_but_the_bools():
    bounded = {key for key, _, _ in BOUND_ERRORS}
    assert bounded == {key for key, field in SCHEMA.items() if field.kind != "bool"}


@pytest.mark.parametrize("key,text,message", BOUND_ERRORS,
                         ids=[f"{key}={text}" for key, text, _ in BOUND_ERRORS])
def test_an_out_of_bounds_value_raises_its_exact_error(key, text, message):
    with pytest.raises(ConfigError) as caught:
        resolve_config(None, {key: text})
    assert str(caught.value) == message


# annotation of an owned field -> the kind its key must have
ANNOTATION_KINDS = {
    "int": "int",
    "float": "float",
    "str": "str",
    "bool": "bool",
    "tuple": "int_list",
    "int | tuple": "int_list",
    "Optional[float]": "opt_float",
}


def test_owned_key_kind_matches_field_annotation():
    # a float field written with an int default must not make its key integer-only
    owned = {key: field for key, field in SCHEMA.items() if field.owner is not None}
    assert owned
    for key, field in owned.items():
        annotation = field.owner.__dataclass_fields__[field.attr].type
        assert ANNOTATION_KINDS[annotation] == field.kind, key


def test_render_value_round_trips():
    for key, field in SCHEMA.items():
        text = render_value(field.default)
        assert parse_value(key, text) == field.default


# -- files and precedence ----------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "task = pointset\n"
        "sinkhorn.epsilon = 0.2\n"
        "model.encoder_widths = 32,16\n"
    )
    cfg = resolve_config(read_config_file(path))
    assert cfg["task"] == "pointset"
    assert cfg["sinkhorn.epsilon"] == 0.2
    assert cfg["model.encoder_widths"] == (32, 16)
    assert cfg["optim.lr"] == 0.001  # untouched default


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sinkhorn.epsilon = 0.2\nseed = 4\n")
    cfg = resolve_config(read_config_file(path), {"sinkhorn.epsilon": "0.3"})
    assert cfg["sinkhorn.epsilon"] == 0.3
    assert cfg["seed"] == 4


def test_file_rejects_duplicates_and_bad_lines(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        read_config_file(dup)
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 1\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        read_config_file(bad)


def test_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("granularity = 9\n")
    with pytest.raises(ConfigError, match="granularity"):
        resolve_config(read_config_file(path))


# -- hashing and round trips --------------------------------------------------------


def test_hash_stable_and_sensitive():
    a = resolve_config(None, {"seed": "3"})
    b = resolve_config(None, {"seed": "3"})
    c = resolve_config(None, {"seed": "4"})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64


def test_as_dict_is_json_ready_and_rebuilds():
    cfg = resolve_config(None, {"model.encoder_widths": "8,4", "train.lambda_ot": "0.25"})
    blob = json.dumps(cfg.as_dict())
    rebuilt = config_from_json_dict(json.loads(blob))
    assert rebuilt.as_dict() == cfg.as_dict()
    assert rebuilt.config_hash() == cfg.config_hash()


def test_config_from_json_dict_rejects_unknown_and_invalid():
    base = default_config().as_dict()
    base["mystery"] = 1
    with pytest.raises(CheckpointError, match="stored config: unknown config key 'mystery'"):
        config_from_json_dict(base)
    bad = default_config().as_dict()
    bad["model.k"] = -2
    with pytest.raises(CheckpointError, match=r"stored config: model\.k must be positive"):
        config_from_json_dict(bad)


def test_header_lines_cover_every_key():
    cfg = default_config()
    lines = cfg.header_lines()
    assert len(lines) == len(SCHEMA)
    assert all(line.startswith("# ") for line in lines)
    assert lines == sorted(lines)


def test_schema_help_lists_keys():
    text = schema_help()
    for key in ("sinkhorn.epsilon", "model.k", "metagan.family"):
        assert key in text
