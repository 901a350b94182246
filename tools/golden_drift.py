"""Golden drift: how far apart the numbers of two golden captures are.

Compares two ``--dir`` trees written by ``tools/golden.py`` (say, the base
commit's and a change's).  For every file whose bytes differ, it prints the
largest relative difference |x - y| / max(|x|, |y|) among the numbers the two
versions hold at the same place, with the pair that gives it.  A file whose
text differs beyond its numbers (another word, another count of numbers), or
that is not UTF-8, is reported as such, and so is a file present on one side
only.  Identical files print nothing.  Report only: the exit code is 0 unless
an argument is not a directory.

A file named ``checkpoint.*`` is compared by its parsed payload, so that
checkpoints of two formats compare too: each array's ``data`` is read as its
numbers, from base64 of little-endian float64 (formats 3, 4) or as a JSON list
(format 2), and the numbers of each array are paired by name.  The line names
the two format versions when they differ.  A ``corpus.jsonl`` is compared line
by line the same way: each set's ``points`` is read as rows of numbers, from a
base64 array record or from a JSON list of rows, so a corpus whose encoding
alone changed reads "numbers equal".  A line that does not read so is compared
as it stands.

    python3 tools/golden_drift.py /tmp/golden-base /tmp/golden-head
"""

from __future__ import annotations

import argparse
import array
import base64
import json
import math
import re
import sys
from pathlib import Path

# a number standing alone, not part of a name such as checkpoint.5 or mog-steps20
NUMBER = re.compile(
    r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?(?:NaN|nan|Infinity|inf))(?![\w.])"
)


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def rel_diff(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal numbers, inf beside a NaN or an infinity."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y) / max(abs(x), abs(y))
    return d if math.isfinite(d) else math.inf


def drift(base: bytes, head: bytes) -> str:
    """How the text ``head`` differs from ``base``, in one line."""
    try:
        texts = base.decode("utf-8"), head.decode("utf-8")
    except UnicodeDecodeError:
        return "not UTF-8 text; bytes differ"
    if NUMBER.split(texts[0]) != NUMBER.split(texts[1]):
        return "text differs beyond its numbers"
    pairs = zip(NUMBER.findall(texts[0]), NUMBER.findall(texts[1]))
    worst = max(((rel_diff(float(x), float(y)), x, y) for x, y in pairs), default=(0.0,))
    if worst[0] == 0.0:
        return "numbers equal, formatting differs"
    return f"max rel diff {worst[0]:.2e} ({worst[1]} -> {worst[2]})"


def _f8_values(data: str) -> list:
    """The numbers of base64 of little-endian float64 bytes."""
    values = array.array("d", base64.b64decode(data, validate=True))
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


def _checkpoint_numbers(payload: dict) -> dict:
    """The payload with each array's data as a list of numbers, without its version."""
    arrays = {}
    for name, record in payload["params"].items():
        data = record["data"]
        if isinstance(data, str):
            data = _f8_values(data)
        arrays[name] = {"shape": record["shape"], "data": data}
    rest = {key: value for key, value in payload.items() if key != "format_version"}
    return rest | {"params": arrays}


def checkpoint_drift(base: bytes, head: bytes) -> str:
    """How checkpoint ``head`` differs from ``base``, compared by their arrays' numbers."""
    try:
        payloads = json.loads(base), json.loads(head)
        texts = [json.dumps(_checkpoint_numbers(p), sort_keys=True).encode() for p in payloads]
    except (ValueError, KeyError, TypeError, AttributeError):  # not a readable checkpoint
        return drift(base, head)
    found = drift(*texts)
    old, new = (p.get("format_version") for p in payloads)
    return found if old == new else f"format {old} -> {new}: {found}"


def _corpus_line(line: bytes) -> bytes:
    """A corpus line with its points as rows of numbers, or the line itself if it is unreadable."""
    try:
        record = json.loads(line)
        points = record["points"]
        if isinstance(points, dict):
            n, d = points["shape"]
            values = _f8_values(points["data"])
            record["points"] = [values[i * d:(i + 1) * d] for i in range(n)]
        return json.dumps(record, sort_keys=True).encode()
    except (ValueError, KeyError, TypeError):  # not a readable set record
        return line


def corpus_drift(base: bytes, head: bytes) -> str:
    """How corpus ``head`` differs from ``base``, compared by its sets' points as numbers."""
    return drift(*(b"\n".join(map(_corpus_line, text.split(b"\n"))) for text in (base, head)))


def _compare(name: str):
    """The comparison for the artifact file ``name``."""
    if name.startswith("checkpoint."):
        return checkpoint_drift
    return corpus_drift if name == "corpus.jsonl" else drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="capture of the base commit")
    parser.add_argument("head", type=Path, help="capture of the change")
    args = parser.parse_args(argv)
    for root in (args.base, args.head):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    base, head = _files(args.base), _files(args.head)
    for name in sorted(base | head):
        if name not in head:
            print(f"{name}: only in base")
        elif name not in base:
            print(f"{name}: only in head")
        else:
            old, new = (args.base / name).read_bytes(), (args.head / name).read_bytes()
            if old != new:
                print(f"{name}: {_compare(Path(name).name)(old, new)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
