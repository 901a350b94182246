"""Run, or summarize, a BENCH file of alternating parent/change perfbench pairs.

    python tools/bench_pairs.py --base HEAD~1 --out BENCH_22_all-workloads.json
    python tools/bench_pairs.py --base HEAD~1 --trace --out BENCH_23_traced.json
    python tools/bench_pairs.py --summarize BENCH_20_all-workloads.json
    python tools/bench_pairs.py --trajectory BENCH_*.json

A BENCH file holds ``runs[workload][side][i]``, the result line that
``perfbench/run.py`` printed for pair i on each side (``parent`` and
``change``).  For each workload and each end-to-end metric that
``BENCHMARK.json`` declares, the summary gives both sides' medians and
quartiles (numpy's default, linear percentiles) and the number of pairs in
which the change did better than the parent, in the metric's own direction.
It also says whether every run was correct, how many operations failed, and
whether ``eval_score`` read the same on every run of both sides.  The table
it prints is the one ``CHANGES.md`` quotes.  With ``--trace`` the runs are
traced (``--trace 1``) and the summary covers ``BENCHMARK.json``'s per-layer
metrics instead; a traced run reports no ``eval_score``, so that check does
not apply.

``--summarize`` only reads.  ``--base REV`` runs the pairs: the parent side
from a temporary ``git worktree`` of REV, the change side from the checkout
this tool lives in (or ``--repo``), each ``perfbench/run.py`` call in its
own process.  Pair i runs the parent first when i is even.  The BENCH
file, summary included, is rewritten after every pair.

``--trajectory`` reads the untraced ``BENCH_<PR>_all-workloads.json`` files
among those it is given and skips the rest.  Per workload and end-to-end
metric, it prints each file's change/parent median ratio and their running
product, in PR order.  Raw medians move between sessions on identical code,
so that product is the one trajectory free of session drift.  A file with no
``summary`` has its medians recomputed from its runs.  The PRs between the
first and the last file that have no such file are named.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TRAJECTORY_FILE = re.compile(r"BENCH_(\d+)_all-workloads\.json")
ORDER = ("{pairs} pairs per workload; pair i (from 0) runs the parent first when i is even, "
         "the change first when odd; runs[W][side][i] is pair i")


def summarize(bench: dict, metrics: list[dict]) -> dict:
    """{workload: {"metrics": {name: row}, "all_correct", "failed",
    "eval_score_identical"}} for a BENCH file's ``runs``; the last is None
    when the runs carry no ``eval_score`` (traced runs)."""
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
        scores = {r["metrics"].get("eval_score", {}).get("value") for r in every}
        summary[workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "eval_score_identical": None if None in scores else len(scores) == 1,
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
        identical = entry["eval_score_identical"]
        lines.append(
            f"{workload}: all runs correct: {entry['all_correct']}; failed operations: "
            f"{entry['failed']}; eval_score identical: "
            f"{'not applicable' if identical is None else identical}"
        )
    return "\n".join(lines)


def trajectory(paths: list[Path], metrics: list[dict]) -> str:
    """Each untraced all-workloads file's change/parent median ratio and the running
    product, per workload and metric, one column per PR; then the PRs with no file."""
    benches = {}
    for path in paths:
        match = TRAJECTORY_FILE.fullmatch(path.name)
        bench = json.loads(path.read_text()) if match else {}
        if bench.get("runs") and not bench.get("trace"):
            pr = int(match.group(1))
            if pr in benches:
                raise ValueError(f"two all-workloads files for PR {pr}")
            benches[pr] = bench.get("summary") or summarize(bench, metrics)
    if not benches:
        raise ValueError("no untraced BENCH_<PR>_all-workloads.json file with runs")
    prs = sorted(benches)
    lines = [
        "each cell: the change/parent median ratio (the running product from the first PR)",
        "| workload | metric | " + " | ".join(f"PR {pr}" for pr in prs) + " |",
        "| --- | --- |" + " --- |" * len(prs),
    ]
    for workload in dict.fromkeys(w for pr in prs for w in benches[pr]):
        for name in (metric["name"] for metric in metrics):
            product, cells = 1.0, []
            for pr in prs:
                row = benches[pr].get(workload, {}).get("metrics", {}).get(name)
                if row is None:
                    cells.append("—")
                    continue
                ratio = row["change_median"] / row["parent_median"]
                product *= ratio
                cells.append(f"{ratio:.3f} ({product:.3f})")
            lines.append(f"| {workload} | {name} | " + " | ".join(cells) + " |")
    missing = sorted(set(range(prs[0], prs[-1] + 1)) - set(prs))
    lines.append("PRs with no file: " + (", ".join(f"PR {pr}" for pr in missing) or "none"))
    return "\n".join(lines)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: Path, argv: list) -> tuple[dict, dict]:
    """(result, env) of one perfbench call in ``checkout``: its last line, and its env line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench/run.py {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def run_pairs(args) -> dict:
    """Run the pairs that ``args`` asks for and write the BENCH file after each one."""
    repo = args.repo.resolve()
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flags = ["--seconds", str(args.seconds), "--trace", str(int(args.trace))]
    flags += ["--seed", str(args.seed)] if args.seed is not None else []
    bench = {
        "workload": ", ".join(workloads),
        "what": args.what,
        "parent_commit": _git(repo, "rev-parse", f"{args.base}^{{commit}}"),
        "machine": {},
        "command": f"python3 perfbench/run.py --workload W {' '.join(flags)}, "
                   "parent and change each from its own checkout",
        "order": ORDER.format(pairs=args.pairs),
        "trace": args.trace,
        "runs": {},  # a workload enters when its first pair starts
        "note": args.note,
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp) / "parent"
        _git(repo, "worktree", "add", "--detach", str(base), bench["parent_commit"])
        try:
            checkouts = {"parent": base, "change": repo}
            for workload in workloads:
                bench["runs"][workload] = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        result, env = run_once(checkouts[side], ["--workload", workload] + flags)
                        bench["runs"][workload][side].append(result)
                        bench["machine"] = bench["machine"] or env
                        figures = ", ".join(f"{name}={m['value']:.6g}"
                                            for name, m in result["metrics"].items())
                        print(f"{workload} pair {i} {side}: {figures}", file=sys.stderr)
                    bench["summary"] = summarize(bench, _metrics(spec, args.trace))
                    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
        finally:
            _git(repo, "worktree", "remove", "--force", str(base))
    return bench


def _metrics(spec: dict, trace: bool) -> list[dict]:
    """The metrics that a run of this kind reports, as ``BENCHMARK.json`` declares them."""
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--summarize", type=Path, metavar="FILE",
                      help="a BENCH_*.json file of parent/change pairs")
    mode.add_argument("--base", metavar="REV", help="run pairs against this parent revision")
    mode.add_argument("--trajectory", type=Path, nargs="+", metavar="FILE",
                      help="BENCH_*.json files; the untraced all-workloads ones are chained")
    parser.add_argument("--workload", action="append",
                        help="a workload to run, repeatable (default: every one)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=int, default=22, help="each run's timed phase")
    parser.add_argument("--seed", type=int, help="workload seed (default: perfbench's)")
    parser.add_argument("--out", type=Path, help="the BENCH file that --base writes")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="the change's checkout, whose BENCHMARK.json names the metrics "
                             "(default: the one holding this tool)")
    parser.add_argument("--what", default="", help="what the change is, for the BENCH file")
    parser.add_argument("--note", default="", help="the verdict, for the BENCH file")
    parser.add_argument("--trace", action="store_true",
                        help="run traced and summarize the per-layer metrics")
    args = parser.parse_args(argv)
    if args.base is not None:
        if args.out is None or args.pairs < 1:
            parser.error("--base needs --out FILE and at least one pair")
        print(table(run_pairs(args)["summary"]))
        return 0
    spec = json.loads((args.repo / "BENCHMARK.json").read_text())
    if args.trajectory is not None:
        print(trajectory(args.trajectory, _metrics(spec, False)))
        return 0
    bench = json.loads(args.summarize.read_text())
    print(table(summarize(bench, _metrics(spec, bench.get("trace", False)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
