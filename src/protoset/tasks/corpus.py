"""JSON-lines corpus serialization.

One object per set: {"set_id", "points", "label", "truth"?}. An optional first
line {"meta": {...}} records the generator spec so downstream tools can
reconstruct evaluation settings without re-parsing flags.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ConfigError, read_text
from ..summarynet import SetBatch


def _set_record(batch: SetBatch, truth=None) -> dict:
    rec = {
        "set_id": batch.set_id,
        "points": batch.points.tolist(),
        "label": batch.label,
    }
    if truth is not None:
        rec["truth"] = truth
    return rec


def save_corpus(path, sets, meta: dict | None = None, truths=None) -> None:
    """Write SetBatch records as JSON lines, optionally preceded by a meta line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if truths is not None and len(truths) != len(sets):
        raise ValueError("truths must align with sets one to one")
    with path.open("w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for i, batch in enumerate(sets):
            truth = truths[i] if truths is not None else None
            fh.write(json.dumps(_set_record(batch, truth), sort_keys=True) + "\n")


def load_corpus(path):
    """Read a corpus file back into (meta, sets, truths).

    truths is a list aligned with sets; entries are None when the file has no
    ground-truth records.  A malformed line raises ConfigError naming file:line.
    """
    path = Path(path)
    meta: dict = {}
    sets: list[SetBatch] = []
    truths: list = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{line_no}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict):
            raise ConfigError(f"{where}: expected one JSON object per line")
        if line_no == 1 and set(rec.keys()) == {"meta"}:
            meta = rec["meta"]
            continue
        if "points" not in rec:
            raise ConfigError(f"{where}: record has no points field")
        try:
            points = np.asarray(rec["points"], dtype=np.float64)
            batch = SetBatch(points, set_id=rec.get("set_id", len(sets)), label=rec.get("label"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad points ({exc})") from None
        sets.append(batch)
        truths.append(rec.get("truth"))
    return meta, sets, truths
