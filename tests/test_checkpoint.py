"""Checkpoint format: exact round trips, versioning, corruption detection."""

import json

import numpy as np
import pytest

from protoset.checkpoint import (
    FORMAT_VERSION,
    assign_parameters,
    load_checkpoint,
    save_checkpoint,
)
from protoset.config import default_config
from protoset.diffcore import Value
from protoset.errors import CheckpointError, CheckpointVersionError

RNG = np.random.default_rng(5)


def _named_params():
    return {
        "encoder.0.weight": Value(RNG.normal(size=(4, 3)), requires_grad=True),
        "encoder.0.bias": Value(RNG.normal(size=4), requires_grad=True),
        "bank": Value(RNG.normal(size=(3, 6)), requires_grad=True),
    }


def _save(path, named, step=10):
    cfg = default_config()
    save_checkpoint(path, named, step, cfg.as_dict(), cfg.config_hash())


# -- round trips ------------------------------------------------------------------


def test_round_trip_restores_arrays_exactly(tmp_path):
    named = _named_params()
    path = tmp_path / "checkpoint.10"
    _save(path, named)
    ck = load_checkpoint(path)
    assert ck.step == 10
    assert ck.format_version == FORMAT_VERSION
    assert sorted(ck.params) == sorted(named)
    for name, value in named.items():
        assert np.array_equal(ck.params[name], value.data)
        assert ck.params[name].dtype == np.float64


def test_save_load_save_is_byte_identical(tmp_path):
    named = _named_params()
    p1, p2 = tmp_path / "a.ck", tmp_path / "b.ck"
    _save(p1, named)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.params, ck.step, ck.config, ck.config_hash)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_survives_extreme_floats(tmp_path):
    named = {
        "w": Value(
            np.array([1e-308, -1.2345678901234567e300, 3.141592653589793, -0.0]),
            requires_grad=True,
        )
    }
    path = tmp_path / "c.ck"
    _save(path, named)
    restored = load_checkpoint(path).params["w"]
    assert np.array_equal(restored, named["w"].data)
    assert np.signbit(restored[3])


# -- failure modes -----------------------------------------------------------------


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.ck")


def test_non_json_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "junk.ck"
    path.write_text("definitely not json {")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_version_mismatch_is_its_own_error(tmp_path):
    path = tmp_path / "v.ck"
    _save(path, _named_params())
    payload = json.loads(path.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)
    # and it is distinguishable from generic corruption
    assert issubclass(CheckpointVersionError, CheckpointError)


def test_missing_fields_and_bad_shapes_are_corruption(tmp_path):
    path = tmp_path / "m.ck"
    _save(path, _named_params())
    payload = json.loads(path.read_text())
    del payload["params"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="params"):
        load_checkpoint(path)

    _save(path, _named_params())
    payload = json.loads(path.read_text())
    payload["params"]["bank"]["data"] = [1.0, 2.0]  # wrong length for its shape
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="bank"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "entry", ["x", {}, None, [1.0, 2.0], float("nan"), float("inf"), float("-inf")]
)
def test_entries_that_are_not_finite_numbers_are_corruption(entry, tmp_path):
    # json writes the non-finite floats as NaN, Infinity and -Infinity, which it also reads
    path = tmp_path / "e.ck"
    _save(path, _named_params())
    payload = json.loads(path.read_text())
    payload["params"]["bank"]["data"][0] = entry
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="'bank' holds an entry that is not a"):
        load_checkpoint(path)


def test_negative_step_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="step"):
        _save(tmp_path / "s.ck", _named_params(), step=-1)


# -- assignment --------------------------------------------------------------------


def test_assign_parameters_copies_in_place(tmp_path):
    named = _named_params()
    path = tmp_path / "a.ck"
    _save(path, named)
    ck = load_checkpoint(path)
    fresh = {name: Value(np.zeros_like(v.data), requires_grad=True) for name, v in named.items()}
    holders = {name: v.data for name, v in fresh.items()}
    assign_parameters(fresh, ck.params)
    for name in named:
        assert np.array_equal(fresh[name].data, named[name].data)
        assert fresh[name].data is holders[name]  # same buffer, filled in place


def test_assign_parameters_rejects_name_and_shape_mismatch(tmp_path):
    named = _named_params()
    path = tmp_path / "r.ck"
    _save(path, named)
    saved = load_checkpoint(path).params
    missing = {k: v for k, v in named.items() if k != "bank"}
    with pytest.raises(CheckpointError, match="bank"):
        assign_parameters(missing, saved)
    wrong = dict(named)
    wrong["bank"] = Value(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(CheckpointError, match="shape"):
        assign_parameters(wrong, saved)
