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
from protoset.errors import ConfigError


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
    if key == "fewshot.n_base":
        stored = default_config().as_dict() | {key: int(text)}
        with pytest.raises(ConfigError, match=pattern):
            config_from_json_dict(stored)


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
    with pytest.raises(ConfigError, match="mystery"):
        config_from_json_dict(base)
    bad = default_config().as_dict()
    bad["model.k"] = -2
    with pytest.raises(ConfigError, match=r"model\.k"):
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
