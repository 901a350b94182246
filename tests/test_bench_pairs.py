"""tools/bench_pairs.py: running parent/change pairs and summarizing a BENCH file of them."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_recomputes_the_medians_of_bench_20(capsys):
    assert bench_pairs.main(["--summarize", str(ROOT / "BENCH_20_all-workloads.json")]) == 0
    out = capsys.readouterr().out
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bench = json.loads((ROOT / "BENCH_20_all-workloads.json").read_text())
    summary = bench_pairs.summarize(bench, metrics)
    medians = {
        w: tuple(round(summary[w]["metrics"]["train_steps_per_s"][k], 1)
                 for k in ("parent_median", "change_median"))
        for w in summary
    }
    assert medians == {
        "mog-unrolled": (201.6, 201.8),
        "mog-envelope": (165.8, 165.2),
        "fewshot-ot": (556.2, 560.2),
        "metagan": (222.1, 223.5),
    }
    # the quartiles and wins that PR 20's note quotes for fewshot-ot eval
    fewshot_eval = summary["fewshot-ot"]["metrics"]["eval_items_per_s"]
    assert [round(q) for q in fewshot_eval["parent_quartiles"]] == [6252, 6404]
    assert (fewshot_eval["wins"], fewshot_eval["pairs"]) == (10, 10)
    assert all(s["all_correct"] and s["eval_score_identical"] and s["failed"] == 0
               for s in summary.values())
    assert "| metagan | train_steps_per_s | 222.1 → 223.5 | 220.4–226.3 | 4/10 |" in out


def test_wins_follow_the_metric_direction():
    def run(rate, rss):
        return {"correct": True, "failed": 0,
                "metrics": {"rate": {"value": rate}, "rss": {"value": rss},
                            "eval_score": {"value": 0.5}}}

    bench = {"runs": {"w": {"parent": [run(1.0, 10.0), run(2.0, 10.0)],
                            "change": [run(1.5, 9.0), run(1.5, 11.0)]}}}
    metrics = [{"name": "rate", "better": "higher"}, {"name": "rss", "better": "lower"}]
    rows = bench_pairs.summarize(bench, metrics)["w"]["metrics"]
    assert (rows["rate"]["wins"], rows["rss"]["wins"]) == (1, 1)
    assert rows["rate"]["parent_median"] == 1.5
    bench["runs"]["w"]["change"].pop()
    with pytest.raises(ValueError, match="2 parent runs but 1 change runs"):
        bench_pairs.summarize(bench, metrics)


# a perfbench/run.py that reports its side's speed, or traced its per-layer
# figures, and logs each call's side and flags
STUB_RUN = """import json, sys
SPEED = {speed}
with open({log!r}, "a") as log:
    log.write(json.dumps([SPEED] + sys.argv[1:]) + "\\n")
print("setup rounds, wall s: 0.1")
print("env " + json.dumps({{"nproc": 2, "python": "stub"}}))
metrics = {{
    "train_steps_per_s": {{"value": SPEED, "unit": "steps/s"}},
    "setup_s": {{"value": 1.0 / SPEED, "unit": "s"}},
    "eval_score": {{"value": 0.5, "unit": "1"}}}}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    metrics = {{"diffcore.optim_step_ms": {{"value": 100.0 / SPEED, "unit": "ms"}},
               "diffcore.tape_nodes": {{"value": SPEED - 25.0, "unit": "count"}}}}
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}))
"""
STUB_SPEC = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [{"name": "train_steps_per_s", "better": "higher"},
                   {"name": "setup_s", "better": "lower"},
                   {"name": "eval_score", "better": "higher"}],
    "per_layer": [{"name": "diffcore.optim_step_ms", "better": "lower"},
                  {"name": "diffcore.tape_nodes", "better": "lower"}],
}


def stub_repo(tmp_path):
    """(repo, call log, parent commit): a repository whose parent commit's stub
    runs at speed 100 and whose head's at 125."""
    repo, log = tmp_path / "repo", tmp_path / "calls.jsonl"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(STUB_SPEC))

    def commit(speed):
        (repo / "perfbench" / "run.py").write_text(STUB_RUN.format(speed=speed, log=str(log)))
        subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", "commit", "-q", "-m", str(speed)],
                       check=True)

    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    commit(100.0)
    parent = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                            capture_output=True, text=True).stdout.strip()
    commit(125.0)
    return repo, log, parent


def test_run_pairs_alternates_two_checkouts_of_a_repo(tmp_path, capsys):
    repo, log, parent = stub_repo(tmp_path)
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD~1", "--repo", str(repo), "--workload", "w2", "--workload", "w1",
            "--pairs", "2", "--seconds", "1", "--seed", "5", "--out", str(out), "--what", "a stub"]
    assert bench_pairs.main(argv) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    # per workload in the order given, pair 0 runs the parent first and pair 1 the change
    assert [(speed, flags[1]) for speed, *flags in calls] == [
        (100.0, "w2"), (125.0, "w2"), (125.0, "w2"), (100.0, "w2"),
        (100.0, "w1"), (125.0, "w1"), (125.0, "w1"), (100.0, "w1")]
    assert all(flags[2:] == ["--seconds", "1", "--trace", "0", "--seed", "5"]
               for _, *flags in calls)
    bench = json.loads(out.read_text())
    assert bench["parent_commit"] == parent and bench["what"] == "a stub"
    assert bench["machine"] == {"nproc": 2, "python": "stub"}
    assert bench["order"].startswith("2 pairs per workload; pair i (from 0) runs the parent first")
    assert list(bench["runs"]) == ["w2", "w1"]
    assert [r["metrics"]["train_steps_per_s"]["value"] for r in bench["runs"]["w1"]["change"]] \
        == [125.0, 125.0]
    rows = bench["summary"]["w1"]["metrics"]
    assert (rows["train_steps_per_s"]["wins"], rows["setup_s"]["wins"]) == (2, 2)
    assert bench["summary"]["w1"]["eval_score_identical"]
    table = capsys.readouterr().out
    assert "| w2 | train_steps_per_s | 100.0 → 125.0 | 100.0–100.0 | 2/2 |" in table
    # the parent's worktree is gone
    worktrees = subprocess.run(["git", "-C", str(repo), "worktree", "list"], check=True,
                               capture_output=True, text=True).stdout.strip().splitlines()
    assert len(worktrees) == 1


def test_traced_pairs_summarize_the_per_layer_metrics(tmp_path, capsys):
    # one traced run per side can flip the sign of a per-layer change, so
    # per-layer figures come in pairs too
    repo, log, _ = stub_repo(tmp_path)
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD~1", "--repo", str(repo), "--workload", "w1", "--pairs", "1",
            "--seconds", "1", "--trace", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [flags for _, *flags in calls] == [["--workload", "w1", "--seconds", "1",
                                                "--trace", "1"]] * 2
    bench = json.loads(out.read_text())
    assert bench["trace"] is True
    entry = bench["summary"]["w1"]
    assert list(entry["metrics"]) == ["diffcore.optim_step_ms", "diffcore.tape_nodes"]
    assert entry["eval_score_identical"] is None
    table = capsys.readouterr().out
    assert "| w1 | diffcore.optim_step_ms | 1.000 → 0.8000 | 1.000–1.000 | 1/1 |" in table
    assert "| w1 | diffcore.tape_nodes | 75.00 → 100.0 | 75.00–75.00 | 0/1 |" in table
    assert "eval_score identical: not applicable" in table
    # --summarize reads the file's kind and prints the same table
    assert bench_pairs.main(["--summarize", str(out), "--repo", str(repo)]) == 0
    assert capsys.readouterr().out == table


def test_trajectory_chains_the_paired_ratios_in_pr_order(tmp_path, capsys):
    def run(rate):
        return {"correct": True, "failed": 0, "metrics": {"rate": {"value": rate}}}

    metrics = [{"name": "rate", "better": "higher"}]

    def write(name, parent, change, summary=True, trace=False):
        bench = {"trace": trace, "runs": {"w": {"parent": [run(x) for x in parent],
                                                "change": [run(x) for x in change]}}}
        if summary:
            bench["summary"] = bench_pairs.summarize(bench, metrics)
        (tmp_path / name).write_text(json.dumps(bench))
        return tmp_path / name

    paths = [
        write("BENCH_12_all-workloads.json", [1.0, 1.0, 9.0], [4.0, 4.0, 0.0], summary=False),
        write("BENCH_10_all-workloads.json", [2.0, 2.0], [3.0, 3.0]),
        write("BENCH_12_traced.json", [1.0], [100.0], trace=True),  # skipped: traced
        write("BENCH_11_w.json", [1.0], [100.0]),  # skipped: one workload's file
        write("BENCH_13_all-workloads.json", [5.0], [1.0], trace=True),  # skipped: traced
        write("BENCH_14_all-workloads.json", [1.0], [0.5]),
    ]
    lines = bench_pairs.trajectory(paths, metrics).splitlines()
    assert lines[1] == "| workload | metric | PR 10 | PR 12 | PR 14 |"
    # 3/2 = 1.5, then 4/1 = 4 (recomputed: that file has no summary), then 0.5
    assert lines[3] == "| w | rate | 1.500 (1.500) | 4.000 (6.000) | 0.500 (3.000) |"
    assert lines[-1] == "PRs with no file: PR 11, PR 13"
    spec = tmp_path / "repo"
    spec.mkdir()
    (spec / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    assert bench_pairs.main(["--trajectory", *map(str, paths), "--repo", str(spec)]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    with pytest.raises(ValueError, match="no untraced"):
        bench_pairs.trajectory(paths[2:4], metrics)
