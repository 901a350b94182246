"""tools/golden_drift.py: checkpoints and corpora compare by their numbers, across formats."""

import base64
import importlib.util
import json
from pathlib import Path

import numpy as np

from protoset.checkpoint import FORMAT_VERSION, save_checkpoint
from protoset.config import default_config
from protoset.summarynet import SetBatch
from protoset.tasks import save_corpus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_drift.py"
_spec = importlib.util.spec_from_file_location("golden_drift", TOOL)
golden_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_drift)


def _capture(root: Path, params: dict, version: int = FORMAT_VERSION) -> None:
    cfg = default_config()
    path = root / "train" / "mog" / "checkpoint.5"
    save_checkpoint(path, params, 5, cfg.as_dict(), cfg.config_hash())
    if version == 2:  # format 2 wrote each array as a JSON list of numbers
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        for record in payload["params"].values():
            record["data"] = np.frombuffer(base64.b64decode(record["data"]), "<f8").tolist()
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _report(tmp_path, capsys) -> str:
    assert golden_drift.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    return capsys.readouterr().out


PARAMS = {"bank": np.array([[0.1, -2.5e-300], [3.0, -0.0]]), "bias": np.array([1.0 / 3.0])}


def test_format_2_and_3_checkpoints_of_equal_arrays_read_numbers_equal(tmp_path, capsys):
    _capture(tmp_path / "base", PARAMS, version=2)
    _capture(tmp_path / "head", PARAMS)
    assert _report(tmp_path, capsys) == (
        f"train/mog/checkpoint.5: format 2 -> {FORMAT_VERSION}: numbers equal, formatting differs\n"
    )


def test_a_moved_parameter_shows_its_relative_drift(tmp_path, capsys):
    moved = dict(PARAMS, bias=np.array([np.nextafter(1.0 / 3.0, 1.0)]))
    _capture(tmp_path / "base", PARAMS, version=2)
    _capture(tmp_path / "head", moved)
    assert f"format 2 -> {FORMAT_VERSION}: max rel diff 1.67e-16" in _report(tmp_path, capsys)


def test_an_unreadable_checkpoint_is_compared_as_text(tmp_path, capsys):
    _capture(tmp_path / "base", PARAMS)
    head = tmp_path / "head" / "train" / "mog" / "checkpoint.5"
    head.parent.mkdir(parents=True)
    head.write_text("not a checkpoint\n")
    assert _report(tmp_path, capsys) == (
        "train/mog/checkpoint.5: text differs beyond its numbers\n"
    )


POINTS = np.array([[0.1, -2.5e-300], [3.0, -0.0], [1.0 / 3.0, 5e-324]])


def _corpus(root: Path, points: np.ndarray, listed: bool = False) -> Path:
    """A one-set corpus; ``listed`` writes its points as a JSON list of rows."""
    path = root / "gen" / "mog" / "corpus.jsonl"
    save_corpus(path, [SetBatch(points, set_id=0, label=1)], meta={"task": "mog"})
    if listed:
        meta, record = path.read_text().splitlines()
        record = json.loads(record) | {"points": points.tolist()}
        path.write_text(f"{meta}\n{json.dumps(record)}\n")
    return path


def test_list_and_base64_corpora_of_equal_points_read_numbers_equal(tmp_path, capsys):
    _corpus(tmp_path / "base", POINTS, listed=True)
    _corpus(tmp_path / "head", POINTS)
    assert _report(tmp_path, capsys) == "gen/mog/corpus.jsonl: numbers equal, formatting differs\n"


def test_a_moved_corpus_point_shows_its_relative_drift(tmp_path, capsys):
    moved = POINTS.copy()
    moved[2, 0] = np.nextafter(1.0 / 3.0, 1.0)
    _corpus(tmp_path / "base", POINTS, listed=True)
    _corpus(tmp_path / "head", moved)
    assert "corpus.jsonl: max rel diff 1.67e-16" in _report(tmp_path, capsys)


def test_an_unreadable_corpus_line_is_compared_as_text(tmp_path, capsys):
    _corpus(tmp_path / "base", POINTS, listed=True)
    head = _corpus(tmp_path / "head", POINTS)
    meta, record = head.read_text().splitlines()
    head.write_text(f"{meta}\n{record.replace('AAAA', 'AA!A', 1)}\n")
    assert _report(tmp_path, capsys) == "gen/mog/corpus.jsonl: text differs beyond its numbers\n"
