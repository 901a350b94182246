"""JSON-lines corpus serialization.

One object per set: {"set_id", "points", "label", "truth"?}. An optional first
line {"meta": {...}} records the generator's config for a reader of the file;
``load_corpus`` checks that it is an object and keeps neither it nor ``truth``.

``save_corpus`` writes ``points`` as an ``arraycodec`` record, {"shape": [n, d],
"data": base64 of the C-order little-endian float64 bytes}, which reads back
bit for bit and without parsing a decimal number.
``load_corpus`` reads that form, and also a JSON list of rows, the form a
hand-written corpus uses; the JSON type of ``points`` tells them apart.  The
other fields stay plain JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..arraycodec import decode_array, encode_array
from ..errors import ConfigError, NumericalError, ShapeError, read_text, strict_json
from ..summarynet import SetBatch


def save_corpus(path, sets, meta: dict | None = None, truths=None) -> None:
    """Write SetBatch records as JSON lines, optionally preceded by a meta line.

    The lines are strict JSON: a NaN or an infinity in the meta, in a record
    or in its points raises NumericalError, and the partly written file is
    removed.
    """
    path = Path(path)
    if truths is not None and len(truths) != len(sets):
        raise ShapeError(f"need one truth per set, got {len(truths)} for {len(sets)} sets")
    head = "" if meta is None else strict_json({"meta": meta}, "the corpus meta") + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(head)
            for batch, truth in zip(sets, truths or [None] * len(sets)):
                points = encode_array(batch.points, f"set {batch.set_id}")
                rec = {"set_id": batch.set_id, "label": batch.label, "points": points}
                if truth is not None:
                    rec["truth"] = truth
                fh.write(strict_json(rec, f"set {batch.set_id}") + "\n")
    except NumericalError:
        path.unlink()
        raise


def _check_numbers(points) -> None:
    """Refuse a list-form ``points`` entry that is not a JSON number.

    numpy would read a JSON ``true`` as 1.0 and a string such as "2.5" as 2.5;
    the shape is left to SetBatch.
    """
    for row in points if isinstance(points, list) else [points]:
        for value in row if isinstance(row, list) else [row]:
            if type(value) not in (int, float):
                raise ValueError(f"{json.dumps(value)} is not a JSON number")


def load_corpus(path) -> list[SetBatch]:
    """Read the sets of a corpus file; the meta line and ``truth`` fields are not kept.

    A malformed line, a meta line that is not an object, points the codec or
    SetBatch refuses, or a set whose points have another dimension than the
    first set's, raises ConfigError naming file:line.
    """
    path = Path(path)
    sets: list[SetBatch] = []
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
            if not isinstance(rec["meta"], dict):
                raise ConfigError(f"{where}: the meta line must hold a JSON object")
            continue
        if "points" not in rec:
            raise ConfigError(f"{where}: record has no points field")
        points = rec["points"]
        try:
            if isinstance(points, dict):
                points = decode_array(points)
            else:
                _check_numbers(points)
            batch = SetBatch(points, set_id=rec.get("set_id", len(sets)), label=rec.get("label"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad points ({exc})") from None
        if sets and batch.dim != sets[0].dim:
            raise ConfigError(f"{where}: points are {batch.dim}-D, the first set's {sets[0].dim}-D")
        sets.append(batch)
    return sets
