"""tools/bench_pairs.py: the summary of a BENCH file of parent/change pairs."""

import importlib.util
import json
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
