"""Line trace of ``src/``: which statements tier-1 and ``tools/golden.py`` reach.

Runs the golden capture and then the tier-1 suite (``pytest -q -p
no:cacheprovider``), each in-process under ``sys.settrace`` restricted to the files under
``src/``, and prints the executable lines that neither reaches and the lines
that only the tests reach, as ``path:line  source``.  A line that nothing
reaches is dead code or a check that some earlier check makes redundant; a
line that only tests reach is a refusal that no golden capture exercises.

    PYTHONPATH=src python3 tools/linetrace.py

Executable lines are the line starts of every code object that compiling a
file yields; the golden capture runs in a temporary directory, and pytest's
own output goes to stderr.  The tests take about twice as long as untraced.
CI's tier-1 job writes the report to its step summary on Python 3.12; it
fails no build.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The line numbers at which some code object of ``path`` starts a line."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@contextlib.contextmanager
def traced(prefix: str):
    """Record ``(filename, line)`` for each line run in files under ``prefix``."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(call)
    threading.settrace(call)
    try:
        yield hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_tests() -> set:
    import pytest

    with traced(str(SRC)) as hits, contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    print(f"# tier-1 exited {int(code)}", file=sys.stderr)
    return hits


def run_golden() -> set:
    """Trace the golden capture, its imports of ``src/`` included, so it runs first."""
    sys.path.insert(0, str(ROOT / "tools"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work, traced(str(SRC)) as hits:
        import golden

        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = golden.main(["--dir", str(Path(work, "golden"))])
        finally:
            os.chdir(here)
    print(f"# tools/golden.py exited {code}", file=sys.stderr)
    return hits


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    os.chdir(ROOT)
    golden = run_golden()
    tests = run_tests()
    sections = {"reached by neither": [], "reached only by tests": []}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            total += 1
            key = (str(path), line)
            if key in golden:
                continue
            where = "reached only by tests" if key in tests else "reached by neither"
            sections[where].append(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
    for title, rows in sections.items():
        print(f"## {title}: {len(rows)} of {total} lines")
        print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
