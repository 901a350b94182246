"""Summarize a BENCH file of alternating parent/change perfbench pairs.

    python tools/bench_pairs.py --summarize BENCH_20_all-workloads.json

A BENCH file holds ``runs[workload][side][i]``, the result line that
``perfbench/run.py`` printed for pair i on each side (``parent`` and
``change``).  For each workload and each end-to-end metric that
``BENCHMARK.json`` declares, the summary gives both sides' medians and
quartiles (numpy's default, linear percentiles) and the number of pairs in
which the change did better than the parent, in the metric's own direction.
It also says whether every run was correct, how many operations failed, and
whether ``eval_score`` read the same on every run of both sides.  The table
it prints is the one ``CHANGES.md`` quotes; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def summarize(bench: dict, metrics: list[dict]) -> dict:
    """{workload: {"metrics": {name: row}, "all_correct", "failed",
    "eval_score_identical"}} for a BENCH file's ``runs``."""
    summary = {}
    for workload, runs in bench["runs"].items():
        if len(runs["parent"]) != len(runs["change"]):
            raise ValueError(f"{workload}: {len(runs['parent'])} parent runs but "
                             f"{len(runs['change'])} change runs")
        rows = {}
        for metric in metrics:
            name = metric["name"]
            parent, change = (np.array([r["metrics"][name]["value"] for r in runs[side]])
                              for side in SIDES)
            better = change > parent if metric["better"] == "higher" else change < parent
            rows[name] = {
                "parent_median": float(np.median(parent)),
                "change_median": float(np.median(change)),
                "parent_quartiles": [float(q) for q in np.percentile(parent, [25, 75])],
                "change_quartiles": [float(q) for q in np.percentile(change, [25, 75])],
                "wins": int(better.sum()),
                "pairs": int(parent.size),
            }
        every = runs["parent"] + runs["change"]
        summary[workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "eval_score_identical": len({r["metrics"]["eval_score"]["value"] for r in every}) == 1,
        }
    return summary


def _figure(x: float) -> str:
    """``x`` to four significant digits, trailing zeros kept (164.0, 6333, 0.4778)."""
    digits = 3 - math.floor(math.log10(abs(x))) if x else 3
    return f"{x:.{max(digits, 0)}f}"


def table(summary: dict) -> str:
    """The medians table: one line per workload and metric."""
    lines = [
        "| workload | metric | parent → change (median) | parent quartiles | change better |",
        "| --- | --- | --- | --- | --- |",
    ]
    for workload, entry in summary.items():
        for name, row in entry["metrics"].items():
            q1, q3 = row["parent_quartiles"]
            lines.append(
                f"| {workload} | {name} | {_figure(row['parent_median'])} → "
                f"{_figure(row['change_median'])} | {_figure(q1)}–{_figure(q3)} "
                f"| {row['wins']}/{row['pairs']} |"
            )
    for workload, entry in summary.items():
        lines.append(
            f"{workload}: all runs correct: {entry['all_correct']}; failed operations: "
            f"{entry['failed']}; eval_score identical: {entry['eval_score_identical']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summarize", required=True, type=Path, metavar="FILE",
                        help="a BENCH_*.json file of parent/change pairs")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(table(summarize(json.loads(args.summarize.read_text()), metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
