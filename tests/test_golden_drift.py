"""tools/golden_drift.py: artifacts compare by their numbers, across formats, config apart."""

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


def _capture(root: Path, params: dict, version: int = FORMAT_VERSION, seed: int = 0) -> None:
    cfg = default_config().with_overrides({"seed": str(seed)})
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
        f"train/mog/checkpoint.5: format 2 -> {FORMAT_VERSION}; arrays equal\n"
    )


def test_a_moved_parameter_shows_its_relative_drift(tmp_path, capsys):
    moved = dict(PARAMS, bias=np.array([np.nextafter(1.0 / 3.0, 1.0)]))
    _capture(tmp_path / "base", PARAMS, version=2)
    _capture(tmp_path / "head", moved)
    found = _report(tmp_path, capsys)
    assert f"format 2 -> {FORMAT_VERSION}; arrays: max rel diff 1.67e-16" in found


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


def test_a_config_change_alone_reads_arrays_equal(tmp_path, capsys):
    _capture(tmp_path / "base", PARAMS)
    _capture(tmp_path / "head", PARAMS, seed=7)
    assert _report(tmp_path, capsys) == (
        "train/mog/checkpoint.5: config differs in config_hash, seed; arrays equal\n"
    )


def test_config_and_array_drift_are_reported_apart(tmp_path, capsys):
    moved = dict(PARAMS, bias=np.array([np.nextafter(1.0 / 3.0, 1.0)]))
    _capture(tmp_path / "base", PARAMS)
    _capture(tmp_path / "head", moved, seed=7)
    assert _report(tmp_path, capsys) == (
        "train/mog/checkpoint.5: config differs in config_hash, seed; "
        "arrays: max rel diff 1.67e-16 (0.3333333333333333 -> 0.33333333333333337)\n"
    )


def _write(root: Path, name: str, text: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


TRACE = "# seed = {seed}\n# task = mog\nstep,task_loss\n0,{loss}\n1,0.25\n"


def test_a_trace_header_is_reported_apart_from_its_rows(tmp_path, capsys):
    _write(tmp_path / "base", "train/mog/trace.csv", TRACE.format(seed=0, loss=0.5))
    _write(tmp_path / "head", "train/mog/trace.csv", TRACE.format(seed=7, loss=0.5))
    _write(tmp_path / "base", "train/lr/trace.csv", TRACE.format(seed=0, loss=0.5))
    _write(tmp_path / "head", "train/lr/trace.csv", TRACE.format(seed=0, loss=0.4))
    assert _report(tmp_path, capsys) == (
        "train/lr/trace.csv: rows: max rel diff 2.00e-01 (0.5 -> 0.4)\n"
        "train/mog/trace.csv: header differs in seed; rows equal\n"
    )


def _metrics(seed: int, loglik: float) -> str:
    cfg = default_config().with_overrides({"seed": str(seed)})
    payload = {"config": cfg.as_dict(), "config_hash": cfg.config_hash(), "task": "mog",
               "metrics": {"mean_loglik": loglik}}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_the_metrics_of_a_report_are_compared_apart_from_its_config(tmp_path, capsys):
    _write(tmp_path / "base", "eval/mog/metrics.json", _metrics(0, -1.5))
    _write(tmp_path / "head", "eval/mog/metrics.json", _metrics(7, -1.5))
    _write(tmp_path / "base", "eval/moved/metrics.json", _metrics(0, -1.5))
    _write(tmp_path / "head", "eval/moved/metrics.json", _metrics(7, -1.2))
    assert _report(tmp_path, capsys) == (
        "eval/mog/metrics.json: config differs in config_hash, seed; metrics equal\n"
        "eval/moved/metrics.json: config differs in config_hash, seed; "
        "metrics: max rel diff 2.00e-01 (-1.5 -> -1.2)\n"
    )
