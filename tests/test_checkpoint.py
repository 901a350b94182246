"""Checkpoint format: exact round trips, versioning, corruption detection."""

import base64
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
from protoset.errors import CheckpointError, CheckpointVersionError, NumericalError

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


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_round_trip_is_bit_exact_for_every_shape_and_layout(tmp_path):
    one = np.float64(1.0)
    named = {
        "edge": np.array([-0.0, 5e-324, -5e-324, np.nextafter(one, 2.0),
                          np.nextafter(one, 0.0), np.finfo(np.float64).max]),
        "scalar": np.array(-0.0),
        "empty": np.zeros((0,)),
        "empty2": np.zeros((3, 0)),
        "fortran": np.asfortranarray(RNG.normal(size=(3, 4))),
        "big_endian": RNG.normal(size=(2, 5)).astype(">f8"),
    }
    path = tmp_path / "x.ck"
    _save(path, named)
    params = load_checkpoint(path).params
    for name, a in named.items():
        assert params[name].shape == a.shape, name
        assert params[name].dtype == np.float64 and params[name].flags.writeable, name
        assert np.array_equal(_bits(params[name]), _bits(a)), name
    # the stored bytes are C-order little-endian float64, whatever the input's layout
    record = json.loads(path.read_text())["params"]["fortran"]
    raw = base64.b64decode(record["data"])
    assert record["shape"] == [3, 4]
    assert np.array_equal(np.frombuffer(raw, dtype="<f8"), named["fortran"].ravel(order="C"))
    again = tmp_path / "y.ck"
    _save(again, params)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_save_refuses_a_non_finite_parameter_before_writing(bad, tmp_path):
    named = _named_params()
    named["bank"].data[1, 2] = bad
    path = tmp_path / "run" / "checkpoint.10"
    with pytest.raises(NumericalError, match="'bank'"):
        _save(path, named)
    assert not path.parent.exists()


def test_save_refuses_a_non_finite_config_value(tmp_path):
    cfg = default_config()
    stored = dict(cfg.as_dict(), **{"mog.sigma": float("inf")})
    path = tmp_path / "run" / "checkpoint.10"
    with pytest.raises(NumericalError, match="config"):
        save_checkpoint(path, _named_params(), 10, stored, cfg.config_hash())
    assert not path.parent.exists()


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

    _save(path, _named_params())
    payload = json.loads(path.read_text())
    payload["params"]["bank"]["shape"] = [True, 18]  # true is no count, though 18 values fit
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="'bank' has a malformed shape"):
        load_checkpoint(path)


# what a bad entry is written as, and what the error then says: a string is
# written as it is, a float at the first slot of the array's decoded float64
# values, bytes as their base64, and a list, an object or null in place of the
# base64 string
MESSAGES = {str: "not valid base64", float: "not a finite number", bytes: "bytes but its shape"}


@pytest.mark.parametrize(
    "entry",
    [
        "x",  # one character is no whole byte
        {},
        None,
        [1.0, 2.0],  # format 2's list of numbers
        float("nan"),
        float("inf"),
        float("-inf"),
        pytest.param("AAAA!AAAAAAA", id="bad-character"),
        pytest.param("AAAAAAA=AAAA", id="bad-padding"),
        pytest.param("AAAAAAAAAAA", id="missing-padding"),
        pytest.param("AAAA AAAA", id="whitespace"),
        pytest.param("\u00e9AAA", id="not-ascii"),
        pytest.param(bytes(8 * 17), id="one-value-short"),  # bank is 3x6: 18 values
        pytest.param(bytes(8 * 19), id="one-value-long"),
        pytest.param(bytes(8 * 18 - 1), id="not-whole-values"),
    ],
)
def test_entries_that_are_not_finite_numbers_are_corruption(entry, tmp_path):
    path = tmp_path / "e.ck"
    _save(path, _named_params())
    payload = json.loads(path.read_text())
    bank = payload["params"]["bank"]
    message = MESSAGES.get(type(entry), "not a base64 string")
    if isinstance(entry, float):
        values = np.frombuffer(base64.b64decode(bank["data"]), dtype="<f8").copy()
        values[0] = entry
        entry = values.tobytes()
    if isinstance(entry, bytes):
        entry = base64.b64encode(entry).decode("ascii")
    bank["data"] = entry
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"array 'bank' .*{message}"):
        load_checkpoint(path)


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


def test_assign_parameters_names_a_parameter_the_checkpoint_lacks(tmp_path):
    named = _named_params()
    path = tmp_path / "m.ck"
    _save(path, named)
    saved = load_checkpoint(path).params
    ghost = {**named, "head.0.bias": Value(np.zeros(2), requires_grad=True)}
    with pytest.raises(CheckpointError) as exc:
        assign_parameters(ghost, saved)
    assert str(exc.value) == "parameter names do not match: missing ['head.0.bias']"
