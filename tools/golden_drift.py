"""Golden drift: how far apart the numbers of two golden captures are.

Compares two ``--dir`` trees written by ``tools/golden.py`` (say, the base
commit's and a change's).  For every file whose bytes differ, it prints the
largest relative difference |x - y| / max(|x|, |y|) among the numbers the two
versions hold at the same place, with the pair that gives it.  A file whose
text differs beyond its numbers (another word, another count of numbers), or
that is not UTF-8, is reported as such, and so is a file present on one side
only.  Identical files print nothing.  Report only: the exit code is 0 unless
an argument is not a directory.

A run's config is reported apart from its numbers, so that a change to the
config alone reads "... equal" for the numbers:

- ``checkpoint.*`` is compared by its parsed payload, so that checkpoints of
  two formats compare too: the line names the two format versions when they
  differ, then the config keys (and ``config_hash``) whose values differ,
  then the drift of the arrays, each read as its numbers from base64 of
  little-endian float64 (formats 3, 4) or as a JSON list (format 2) and
  paired by name;
- ``metrics.json`` names the config keys that differ, then the drift of the
  rest of the report (``metrics``, ``seed``, ``checkpoint_step``);
- ``trace.csv`` names the ``# key = value`` header keys that differ, then the
  drift of its rows (the column line included);
- ``corpus.jsonl`` is compared line by line: each set's ``points`` is read as
  rows of numbers, from a base64 array record or from a JSON list of rows, so
  a corpus whose encoding alone changed reads "numbers equal".

A file that does not parse so is compared as it stands.

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


_ABSENT = object()  # a key on one side only


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


def _keys_differ(label: str, old: dict, new: dict) -> list:
    """["<label> differs in k, ..."] naming the keys whose values differ, or []."""
    keys = sorted(k for k in old.keys() | new.keys() if old.get(k, _ABSENT) != new.get(k, _ABSENT))
    return [f"{label} differs in {', '.join(keys)}"] if keys else []


def _numbers_part(label: str, old: bytes, new: bytes) -> str:
    return f"{label} equal" if old == new else f"{label}: {drift(old, new)}"


def _report_numbers(payload: dict) -> dict:
    """The payload without its format version and config: what the run computed."""
    return {k: v for k, v in payload.items() if k not in ("format_version", "config", "config_hash")}


def _checkpoint_numbers(payload: dict) -> dict:
    """The step and each array's data as a list of numbers, without the version and config."""
    arrays = {}
    for name, record in payload["params"].items():
        data = record["data"]
        if isinstance(data, str):
            data = _f8_values(data)
        arrays[name] = {"shape": record["shape"], "data": data}
    return _report_numbers(payload) | {"params": arrays}


def _json_drift(base: bytes, head: bytes, label: str, numbers) -> str:
    """How JSON ``head`` differs from ``base``: format, config keys, then ``numbers(payload)``."""
    try:
        payloads = json.loads(base), json.loads(head)
        configs = [dict(p.get("config") or {}, config_hash=p.get("config_hash")) for p in payloads]
        texts = [json.dumps(numbers(p), sort_keys=True).encode() for p in payloads]
    except (ValueError, KeyError, TypeError, AttributeError):  # not a readable payload
        return drift(base, head)
    old, new = (p.get("format_version") for p in payloads)
    parts = [] if old == new else [f"format {old} -> {new}"]
    return "; ".join(parts + _keys_differ("config", *configs) + [_numbers_part(label, *texts)])


def checkpoint_drift(base: bytes, head: bytes) -> str:
    """How checkpoint ``head`` differs from ``base``: format, config, then its arrays' numbers."""
    return _json_drift(base, head, "arrays", _checkpoint_numbers)


def metrics_drift(base: bytes, head: bytes) -> str:
    """How ``metrics.json`` ``head`` differs from ``base``: config, then the rest of the report."""
    return _json_drift(base, head, "metrics", _report_numbers)


def trace_drift(base: bytes, head: bytes) -> str:
    """How ``trace.csv`` ``head`` differs from ``base``: header keys, then its rows."""
    try:
        texts = base.decode("utf-8"), head.decode("utf-8")
    except UnicodeDecodeError:
        return drift(base, head)
    headers, rows = [], []
    for text in texts:
        lines = text.split("\n")
        header = [line[2:].partition(" = ") for line in lines if line.startswith("# ")]
        headers.append({key: value for key, _, value in header})
        rows.append("\n".join(line for line in lines if not line.startswith("# ")).encode())
    return "; ".join(_keys_differ("header", *headers) + [_numbers_part("rows", *rows)])


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
    by_name = {"corpus.jsonl": corpus_drift, "metrics.json": metrics_drift,
               "trace.csv": trace_drift}
    return by_name.get(name, drift)


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
