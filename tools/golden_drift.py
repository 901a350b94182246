"""Golden drift: how far apart the numbers of two golden captures are.

Compares two ``--dir`` trees written by ``tools/golden.py`` (say, the base
commit's and a change's).  For every file whose bytes differ, it prints the
largest relative difference |x - y| / max(|x|, |y|) among the numbers the two
versions hold at the same place, with the pair that gives it.  A file whose
text differs beyond its numbers (another word, another count of numbers), or
that is not UTF-8, is reported as such, and so is a file present on one side
only.  Identical files print nothing.  Report only: the exit code is 0 unless
an argument is not a directory.

    python3 tools/golden_drift.py /tmp/golden-base /tmp/golden-head
"""

from __future__ import annotations

import argparse
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
                print(f"{name}: {drift(old, new)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
