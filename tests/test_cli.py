"""End-to-end harness tests: verbs, artifacts, exit codes, reproducibility."""

import base64
import dataclasses
import hashlib
import importlib
import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from protoset import cli, config, errors
from protoset.checkpoint import (
    FORMAT_VERSION,
    assign_parameters,
    load_checkpoint,
    save_checkpoint,
)
from protoset.diffcore import Value, no_grad
from protoset.errors import NumericalError
from protoset.metagan import GanConfig
from protoset.protolearn import set_objective, subsample_points
from protoset.summarynet import SetBatch
from protoset.tasks import (
    DigitSumSpec,
    MoGTaskSpec,
    gen_digit_test_corpora,
    gen_mog_corpus,
    load_corpus,
    mog_nll_value,
    mog_task_loss,
)

# the package attribute protoset.ot.sinkhorn is the function, not the module
sinkhorn_module = importlib.import_module("protoset.ot.sinkhorn")
mog_module = importlib.import_module("protoset.tasks.mog")
metagan_module = importlib.import_module("protoset.metagan")

# tiny but real settings so runs finish in milliseconds
MOG_ARGS = [
    "--set", "count=4",
    "--set", "mog.n_min=30",
    "--set", "mog.n_max=40",
    "--set", "model.encoder_widths=16,8",
    "--set", "model.k=5",
    "--set", "model.head_hidden=8",
    "--set", "train.batch_points=20",
    "--set", "sinkhorn.unroll_iters=8",
]
DIGIT_ARGS = [
    "--set", "count=6", "--set", "model.encoder_widths=16,8", "--set", "model.k=5",
    "--set", "model.head_hidden=8", "--set", "train.batch_points=8",
    "--set", "sinkhorn.unroll_iters=8",
]
POINTSET_ARGS = [
    "--set", "pointset.count_per_class=1", "--set", "model.encoder_widths=16,8",
    "--set", "model.k=5", "--set", "model.head_hidden=8",
    "--set", "train.batch_points=16", "--set", "sinkhorn.unroll_iters=8",
]
FEWSHOT_ARGS = [
    "--lambda-ot", "0.3",
    "--set", "fewshot.episodes=10", "--set", "fewshot.encoder_widths=12,6",
    "--set", "fewshot.bank=4", "--set", "fewshot.n_base=10",
    "--set", "fewshot.n_novel=6", "--set", "sinkhorn.unroll_iters=6",
]
METAGAN_ARGS = [
    "--set", "count=5", "--set", "metagan.iterations=6",
    "--set", "metagan.batch=10", "--set", "metagan.n_points=12",
    "--set", "metagan.summary_widths=10,8",
    "--set", "metagan.generator_widths=12,10",
    "--set", "metagan.critic_widths=12,10",
    "--set", "sinkhorn.unroll_iters=6",
]

# per task: train flags (without --out), the checkpoint they write, eval flags
TASK_RUNS = {
    "mog": (["--steps", "5", "--seed", "3"] + MOG_ARGS, "checkpoint.5",
            ["--count", "3", "--seed", "11"]),
    "digitsum": (["--steps", "4"] + DIGIT_ARGS, "checkpoint.4",
                 ["--count", "2", "--set", "digitsum.test_sizes=4,8"]),
    "pointset": (["--steps", "4"] + POINTSET_ARGS, "checkpoint.4", ["--count", "1"]),
    "fewshot": (["--seed", "1"] + FEWSHOT_ARGS, "checkpoint.10", ["--count", "5"]),
    "metagan": (["--seed", "1"] + METAGAN_ARGS, "checkpoint.6", ["--count", "2"]),
}

# a checkpoint holds what eval reads and no optimizer state
CHECKPOINT_KEYS = {"format_version", "step", "config", "config_hash", "params"}


def run(argv):
    return cli.main(argv)


def corpus_lines(path):
    """A corpus file's lines as JSON: the meta line first, then one record per set."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def train_task(task, out):
    flags, ck_name, _ = TASK_RUNS[task]
    assert run(["train", "--task", task, "--out", str(out)] + flags) == 0
    return out / "trace.csv", out / ck_name


def eval_task(task, ck_path, out):
    flags = TASK_RUNS[task][2]
    assert run(["eval", "--checkpoint", str(ck_path), "--out", str(out)] + flags) == 0
    return json.loads((out / "metrics.json").read_text())["metrics"]


# -- ot: one instance from CSV ------------------------------------------------------


def test_ot_solves_the_permutation_instance(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0,1\n1,0\n")
    code = run(
        ["ot", "--cost", str(cost), "--a", "0.5,0.5", "--b", "0.5,0.5",
         "--eps", "0.05", "--out", str(tmp_path / "sol")]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["value"]) < 1e-6  # identity-like plan has no moving cost
    assert report["converged"] is True
    plan = np.loadtxt(tmp_path / "sol" / "plan.csv", delimiter=",")
    assert np.allclose(plan, np.diag([0.5, 0.5]), atol=1e-6)
    metrics = json.loads((tmp_path / "sol" / "metrics.json").read_text())
    assert metrics["epsilon"] == 0.05


def test_ot_uniform_marginals_by_default(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0,2,1\n2,0,1\n")
    assert run(["ot", "--cost", str(cost), "--eps", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] >= 0.0


def test_ot_missing_cost_file_exits_3(tmp_path):
    assert run(["ot", "--cost", str(tmp_path / "absent.csv")]) == cli.EXIT_MISSING_FILE


def test_ot_bad_marginals_exit_2(tmp_path):
    cost = tmp_path / "c.csv"
    cost.write_text("0,1\n1,0\n")
    assert run(["ot", "--cost", str(cost), "--a", "0.9,0.9"]) == cli.EXIT_CONFIG
    assert run(["ot", "--cost", str(cost), "--a", "x,y"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("a", ["nan,0.5", "inf,0.5"])
def test_ot_non_finite_marginal_exits_2_naming_it(a, tmp_path, capsys):
    # nan passes the positivity and sum checks (every comparison with it is
    # false), and inf would read as a sum of inf: the finite check names both
    cost = tmp_path / "c.csv"
    cost.write_text("0,1\n1,0\n")
    assert run(["ot", "--cost", str(cost), "--a", a]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: row marginal a contains non-finite entries\n")


def test_ot_marginal_sum_is_printed_as_a_plain_float(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0,1,2\n1,0,1\n2,1,0\n")
    assert run(["ot", "--cost", str(cost), "--a", "0.5,0.5,0.5"]) == cli.EXIT_CONFIG
    assert "row marginal a sums to 1.5, expected 1 within 1e-08" in capsys.readouterr().err


def test_ot_non_finite_report_exits_6_before_any_output(tmp_path, capsys, monkeypatch):
    cost = tmp_path / "c.csv"
    cost.write_text("0,1\n1,0\n")
    solve = cli.sinkhorn
    monkeypatch.setattr(
        cli, "sinkhorn", lambda *args: dataclasses.replace(solve(*args), transport_cost=float("nan"))
    )
    assert run(["ot", "--cost", str(cost), "--out", str(tmp_path / "sol")]) == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN or infinite" in captured.err
    assert not (tmp_path / "sol").exists()


def test_ot_nan_cost_exits_6_after_one_iteration(tmp_path, monkeypatch):
    cost = tmp_path / "c.csv"
    cost.write_text("0,nan\n1,0\n")
    calls = []
    real_lse = sinkhorn_module._lse
    monkeypatch.setattr(
        sinkhorn_module, "_lse", lambda m, axis: calls.append(axis) or real_lse(m, axis)
    )
    assert run(["ot", "--cost", str(cost), "--max-iters", "100000"]) == cli.EXIT_NUMERIC
    assert len(calls) == 2  # one f-update and one g-update, then the solver stops


@pytest.mark.parametrize("flag,value", [("--eps", "inf"), ("--eps", "nan"), ("--tol", "nan")])
def test_ot_non_finite_eps_or_tol_exits_2_naming_the_key(flag, value, tmp_path, capsys):
    # the solver once ran on these and exited 0: at eps inf with a report that
    # is not JSON, at tol nan with a residual of 0 beside "converged": false
    cost = tmp_path / "c.csv"
    cost.write_text("0,1\n1,0\n")
    assert run(["ot", "--cost", str(cost), flag, value]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    key = {"--eps": "sinkhorn.epsilon", "--tol": "sinkhorn.tol"}[flag]
    assert f"{key} must be positive and finite, got {value}" in err


def test_ot_inf_cost_exits_6_without_a_report(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0,inf\n1,0\n")
    assert run(["ot", "--cost", str(cost), "--out", str(tmp_path / "sol")]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "sol").exists()


def _points_line(values, shape=None, data=None) -> str:
    """A corpus line whose points are an array record of ``values``, its fields replaceable."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    record = {"shape": list(np.shape(values)) if shape is None else shape,
              "data": base64.b64encode(raw).decode("ascii") if data is None else data}
    return json.dumps({"points": record}) + "\n"


GOOD = _points_line([[1.0, 2.0], [3.0, 4.0]])
MALFORMED = {
    "bad-json": ("corpus.jsonl", '{"points": [[1.0, 2.0]]}\n{"points": [[1.0, \n', ":2:"),
    "no-points": ("corpus.jsonl", '{"set_id": 0, "label": 1}\n', ":1:"),
    "meta-not-an-object": ("corpus.jsonl", '{"meta": [1]}\n{"points": [[1.0, 2.0]]}\n', ":1:"),
    "ragged-points": ("corpus.jsonl", '{"points": [[1.0, 2.0], [3.0]]}\n', ":1:"),
    "two-dimensions": ("corpus.jsonl", '{"points": [[1.0, 2.0]]}\n{"points": [[1.0, 2.0, 3.0]]}\n',
                       ":2: points are 3-D"),
    "non-numeric-cost": ("c.csv", "# costs\n0,1\n1,zero\n", ":3:"),
    "ragged-cost": ("c.csv", "0,1,2\n\n1,0\n", ":3: 2 columns, expected 3"),
    "no-cost-rows": ("c.csv", "# only a comment\n\n", ": no cost rows"),
    # points as an array record, after a good one
    "record-data-not-a-string": ("corpus.jsonl", GOOD + _points_line([[1.0, 2.0]], data=[1.0, 2.0]),
                                 ":2: bad points (data is not a base64 string)"),
    "record-bad-base64-character": ("corpus.jsonl", GOOD + _points_line(
        [[1.0, 2.0]], data="AAAA!AAAAAAAAAAAAAAAAAA="), ":2: bad points (data is not valid"),
    "record-bad-base64-padding": ("corpus.jsonl", GOOD + _points_line(
        [[1.0, 2.0]], data="AAAAAAA=AAAAAAAAAAAAAAAA"), ":2: bad points (data is not valid"),
    "record-one-value-short": ("corpus.jsonl", GOOD + _points_line([1.0, 2.0, 3.0], shape=[2, 2]),
                               ":2: bad points (carries 24 bytes"),
    "record-one-value-long": ("corpus.jsonl", GOOD + _points_line([1.0, 2.0, 3.0], shape=[1, 2]),
                              ":2: bad points (carries 24 bytes"),
    "record-nan": ("corpus.jsonl", GOOD + _points_line([[1.0, float("nan")]]),
                   ":2: bad points (holds an entry that is not a finite number)"),
    "record-inf": ("corpus.jsonl", GOOD + _points_line([[float("-inf"), 2.0]]),
                   ":2: bad points (holds an entry that is not a finite number)"),
    "record-shape-not-a-list": ("corpus.jsonl", GOOD + _points_line([[1.0, 2.0]], shape="1x2"),
                                ":2: bad points (has a malformed shape"),
    "record-shape-negative": ("corpus.jsonl", GOOD + _points_line([[1.0, 2.0]], shape=[-1, -2]),
                              ":2: bad points (has a malformed shape"),
    "record-shape-true": ("corpus.jsonl", GOOD + _points_line([[1.0, 2.0]], shape=[True, 2]),
                          ":2: bad points (has a malformed shape [True, 2])"),
    "record-shape-1-d": ("corpus.jsonl", GOOD + _points_line([1.0, 2.0]), ":2: bad points (set"),
    "record-shape-no-rows": ("corpus.jsonl", GOOD + _points_line(np.zeros((0, 2))),
                             ":2: bad points (a set needs at least one point)"),
    # points as a list of rows, which numpy would convert
    "list-true": ("corpus.jsonl", '{"points": [[1.0, 2.0]]}\n{"points": [[true, 2.0]]}\n',
                  ":2: bad points (true is not a JSON number)"),
    "list-string": ("corpus.jsonl", '{"points": [[1.0, 2.0]]}\n{"points": [[1.0, "2.5"]]}\n',
                    ':2: bad points ("2.5" is not a JSON number)'),
    "list-huge-int": ("corpus.jsonl",
                      '{"points": [[1.0, 2.0]]}\n{"points": [[1%s, 2]]}\n' % ("0" * 400),
                      ":2: bad points (int too large to convert to float)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_file_and_line(case, tmp_path, capsys):
    name, text, where = MALFORMED[case]
    path = tmp_path / name
    path.write_text(text)
    if name == "c.csv":
        runs = [["ot", "--cost", str(path)]]
    else:  # a corpus, read by train and by eval
        _, ck_path = train_task("mog", tmp_path / "trained")
        runs = [["train", "--task", "mog", "--corpus", str(path), "--steps", "1",
                 "--out", str(tmp_path / "run")] + MOG_ARGS,
                ["eval", "--checkpoint", str(ck_path), "--corpus", str(path),
                 "--out", str(tmp_path / "ev")]]
    capsys.readouterr()
    for argv in runs:
        assert run(argv) == cli.EXIT_CONFIG, argv[0]
        assert f"{path}{where}" in capsys.readouterr().err, argv[0]
    assert not (tmp_path / "run").exists() and not (tmp_path / "ev").exists()


def _reading(flag: str, path, tmp_path) -> list:
    """argv of a verb that reads the file ``path`` given to ``flag``."""
    out = str(tmp_path / "out")
    return {
        "--config": ["train", "--config", str(path), "--out", out],
        "--cost": ["ot", "--cost", str(path)],
        "--corpus": ["train", "--task", "mog", "--corpus", str(path), "--steps", "1",
                     "--out", out] + MOG_ARGS,
        "--checkpoint": ["eval", "--checkpoint", str(path), "--out", out],
    }[flag]


# the exit code of a file that is not UTF-8 text, per flag that reads one
NOT_UTF8 = {"--config": cli.EXIT_CONFIG, "--cost": cli.EXIT_CONFIG,
            "--corpus": cli.EXIT_CONFIG, "--checkpoint": cli.EXIT_BAD_CHECKPOINT}


@pytest.mark.parametrize("flag", sorted(NOT_UTF8))
def test_non_utf8_input_exits_naming_the_file(flag, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# caf\xe9\n".encode("latin-1"))
    assert run(_reading(flag, path, tmp_path)) == NOT_UTF8[flag]
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("flag", sorted(NOT_UTF8))
def test_directory_as_input_file_exits_3(flag, tmp_path):
    assert run(_reading(flag, tmp_path, tmp_path)) == cli.EXIT_MISSING_FILE


@pytest.mark.parametrize("flag", sorted(NOT_UTF8))
def test_input_path_under_a_file_exits_3(flag, tmp_path):
    a_file = tmp_path / "a-file"
    a_file.write_text("x\n")
    assert run(_reading(flag, a_file / "input", tmp_path)) == cli.EXIT_MISSING_FILE


# the function that does each verb's work, and the verb's argv without --out
OUT_VERBS = {
    "gen": ("gen_mog_corpus", ["gen", "--task", "mog", "--count", "2"]),
    "train": ("train_prototypes", ["train", "--task", "mog", "--steps", "1"] + MOG_ARGS),
    "eval": ("mean_set_loglik", ["eval", "--count", "2"]),
    "ot": ("sinkhorn", ["ot"]),
}


@pytest.mark.parametrize("verb", sorted(OUT_VERBS))
def test_out_naming_a_file_exits_3_before_any_work(verb, tmp_path, capsys, monkeypatch):
    work, argv = OUT_VERBS[verb]
    if verb == "eval":
        argv = argv + ["--checkpoint", str(train_task("mog", tmp_path / "run")[1])]
    if verb == "ot":
        cost = tmp_path / "c.csv"
        cost.write_text("0,1\n1,0\n")
        argv = argv + ["--cost", str(cost)]
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for out in (taken, taken / "sub"):
        assert run(argv + ["--out", str(out)]) == cli.EXIT_MISSING_FILE
        out_text, err = capsys.readouterr()
        assert out_text == "" and f"{taken} is a file, not a directory" in err
    assert calls == []
    assert taken.read_text() == "kept\n"


# -- gen ---------------------------------------------------------------------------


def test_gen_writes_corpus_with_embedded_config(tmp_path):
    out = tmp_path / "data"
    code = run(["gen", "--task", "mog", "--components", "3", "--count", "4",
                "--seed", "7", "--out", str(out), "--set", "mog.n_min=30",
                "--set", "mog.n_max=40"])
    assert code == 0
    head, *records = corpus_lines(out / "corpus.jsonl")
    assert head["meta"]["seed"] == 7
    assert head["meta"]["config"]["mog.components"] == 3
    assert len(load_corpus(out / "corpus.jsonl")) == 4
    assert records[0]["truth"]["means"] is not None  # ground truth rides along


def test_gen_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "data"
    args = ["gen", "--task", "mog", "--count", "3", "--seed", "1", "--out", str(out),
            "--set", "mog.n_min=30", "--set", "mog.n_max=40"]
    assert run(args) == 0
    first = (out / "corpus.jsonl").read_bytes()
    assert run(args) == 0
    assert (out / "corpus.jsonl").read_bytes() == first


def test_gen_fewshot_has_no_corpus(tmp_path):
    assert run(["gen", "--task", "fewshot", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_gen_unknown_key_exits_2(tmp_path, capsys):
    code = run(["gen", "--task", "mog", "--out", str(tmp_path), "--set", "mog.sprinkles=4"])
    assert code == cli.EXIT_CONFIG
    assert "mog.sprinkles" in capsys.readouterr().err


def test_gen_digitsum_size_writes_test_sets_of_that_size(tmp_path):
    # digitsum.size > 0 writes the test corpus of that one size, count sets long
    out = tmp_path / "g"
    assert run(["gen", "--task", "digitsum", "--count", "3", "--seed", "4", "--out", str(out),
                "--set", "digitsum.size=12", "--set", "digitsum.noise_sigma=0"]) == 0
    sets = load_corpus(out / "corpus.jsonl")
    assert [batch.set_id for batch in sets] == [0, 1, 2]
    for batch in sets:
        assert batch.points.shape == (12, 10) and np.isin(batch.points, (0.0, 1.0)).all()
        assert batch.label == batch.points.argmax(axis=1).sum()
    expected = gen_digit_test_corpora(DigitSumSpec(test_sizes=(12,), noise_sigma=0.0), 3, 4)[12]
    assert all(np.array_equal(a.points, b.points) for a, b in zip(sets, expected))


def test_gen_metagan_corpus_carries_truths(tmp_path):
    out = tmp_path / "g"
    assert run(["gen", "--task", "metagan", "--count", "3", "--seed", "2",
                "--out", str(out), "--set", "metagan.n_points=10"]) == 0
    sets = load_corpus(out / "corpus.jsonl")
    assert len(sets) == 3 and sets[0].points.shape == (10, 1)
    assert corpus_lines(out / "corpus.jsonl")[1]["truth"]["family"] == "gauss1d"


# -- train -------------------------------------------------------------------------


def test_train_writes_trace_and_checkpoint(tmp_path):
    trace_path, ck_path = train_task("mog", tmp_path / "run")
    lines = trace_path.read_text().splitlines()
    header = [l for l in lines if l.startswith("# ")]
    assert "# optim.lr = 0.001" in header
    assert "# seed = 3" in header
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "step,transport_loss,task_loss"
    assert len(body) == 6  # header plus five steps
    assert body[1].startswith("0,")
    ck = load_checkpoint(ck_path)
    assert ck.step == 5
    assert set(json.loads(ck_path.read_text())) == CHECKPOINT_KEYS
    assert any(name == "bank" for name in ck.params)


def test_task_table_matches_config_tasks():
    assert tuple(cli.TASK_TABLE) == config.TASKS
    assert tuple(TASK_RUNS) == config.TASKS


@pytest.mark.parametrize("task", list(cli.TASK_TABLE))
def test_train_rerun_is_byte_identical(task, tmp_path, monkeypatch):
    # same relative --out from two different directories: all bytes must match
    for sub in ("first", "second"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        train_task(task, Path("run"))
    a, b = tmp_path / "first" / "run", tmp_path / "second" / "run"
    ck_name = TASK_RUNS[task][1]
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / ck_name).read_bytes() == (b / ck_name).read_bytes()


def test_gen_train_eval_in_two_directories_write_the_same_bytes(tmp_path):
    # --out and --corpus are flags, not config keys, so no artifact records a path
    artifacts = []
    for root in (tmp_path / "a", tmp_path / "bb" / "c"):
        corpus, run_dir, ev = root / "data" / "corpus.jsonl", root / "run", root / "ev"
        assert run(["gen", "--task", "mog", "--count", "4", "--seed", "1",
                    "--out", str(corpus.parent), "--set", "mog.n_min=30",
                    "--set", "mog.n_max=40"]) == 0
        assert run(["train", "--task", "mog", "--corpus", str(corpus), "--steps", "3",
                    "--out", str(run_dir)] + MOG_ARGS) == 0
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.3"),
                    "--corpus", str(corpus), "--out", str(ev)]) == 0
        paths = (corpus, run_dir / "trace.csv", run_dir / "checkpoint.3", ev / "metrics.json")
        artifacts.append({path.name: path.read_bytes() for path in paths})
    for name, data in artifacts[0].items():
        assert artifacts[1][name] == data, name
    stored = json.loads(artifacts[0]["metrics.json"])["config"]
    assert "out" not in stored and "corpus" not in stored


@pytest.mark.parametrize("where", ["--set out", "--set corpus", "config file out"])
def test_a_run_path_given_as_a_config_key_exits_2(where, tmp_path, capsys):
    key = where.rpartition(" ")[2]
    out = tmp_path / "run"
    argv = ["train", "--task", "mog", "--steps", "1", "--out", str(out)] + MOG_ARGS
    if where.startswith("--set"):
        argv += ["--set", f"{key}={tmp_path / 'elsewhere'}"]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = {tmp_path / 'elsewhere'}\n")
        argv += ["--config", str(cfg_path)]
    assert run(argv) == cli.EXIT_CONFIG
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert key not in config.SCHEMA and not out.exists()


def test_train_from_corpus_file(tmp_path):
    data = tmp_path / "data"
    assert run(["gen", "--task", "mog", "--count", "4", "--seed", "1", "--out", str(data),
                "--set", "mog.n_min=30", "--set", "mog.n_max=40"]) == 0
    out = tmp_path / "run"
    code = run(["train", "--task", "mog", "--corpus", str(data / "corpus.jsonl"),
                "--steps", "3", "--out", str(out)] + MOG_ARGS)
    assert code == 0
    assert (out / "checkpoint.3").exists()


def test_train_missing_corpus_exits_3(tmp_path):
    code = run(["train", "--task", "mog", "--corpus", str(tmp_path / "nope.jsonl"),
                "--steps", "2", "--out", str(tmp_path / "r")] + MOG_ARGS)
    assert code == cli.EXIT_MISSING_FILE


@pytest.mark.parametrize("text", ["", '{"meta": {"task": "mog"}}\n'], ids=["empty", "meta-only"])
@pytest.mark.parametrize("task", ["mog", "digitsum"])
def test_eval_on_a_corpus_without_sets_exits_2(task, text, tmp_path, capsys):
    _, ck_path = train_task(task, tmp_path / "run")
    path = tmp_path / "corpus.jsonl"
    path.write_text(text)
    argv = ["eval", "--checkpoint", str(ck_path), "--corpus", str(path), "--out", str(tmp_path / "ev")]
    assert run(argv) == cli.EXIT_CONFIG
    assert f"corpus {str(path)!r} holds no sets" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


# a corpus set's label that its task cannot read: (task, the label; None leaves it out)
BAD_LABELS = {"digitsum-text": ("digitsum", "x"), "digitsum-missing": ("digitsum", None),
              "digitsum-negative": ("digitsum", -1), "digitsum-fraction": ("digitsum", 2.5),
              "pointset-out-of-range": ("pointset", 99), "pointset-true": ("pointset", True)}


def _labelled_corpus(path, task, labels) -> Path:
    """One record per label, set ids from 6, points of the task's input dimension."""
    dim = cli.TASK_TABLE[task].input_dim
    lines = []
    for set_id, label in enumerate(labels, start=6):
        record = {"set_id": set_id, "points": [[0.5] * dim, [0.25] * dim, [1.0] * dim]}
        if label is not None:
            record["label"] = label
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("verb", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_corpus_label_the_task_cannot_read_exits_2(case, verb, tmp_path, capsys):
    task, label = BAD_LABELS[case]
    path = _labelled_corpus(tmp_path / "corpus.jsonl", task, [3, label])
    out = ["--out", str(tmp_path / verb)]
    if verb == "train":
        argv = ["train", "--task", task, "--corpus", str(path)] + TASK_RUNS[task][0] + out
    else:
        _, ck_path = train_task(task, tmp_path / "run")
        argv = ["eval", "--checkpoint", str(ck_path), "--corpus", str(path)] + out
    assert run(argv) == cli.EXIT_CONFIG
    assert f"{path}: set 7 has label" in capsys.readouterr().err
    assert not (tmp_path / verb).exists()


@pytest.mark.parametrize("task", ["digitsum", "pointset"])
def test_corpus_labels_that_are_whole_floats_are_read(task, tmp_path):
    path = _labelled_corpus(tmp_path / "corpus.jsonl", task, [3.0, 0, 7.0])
    argv = ["train", "--task", task, "--corpus", str(path), "--out", str(tmp_path / "run")]
    assert run(argv + TASK_RUNS[task][0]) == 0
    _, ck_path = train_task(task, tmp_path / "run2")
    assert run(["eval", "--checkpoint", str(ck_path), "--corpus", str(path),
                "--out", str(tmp_path / "ev")]) == 0


# runs given a pointset corpus, whose points are 3-D: (verb, task, flags, the dimension it reads)
OTHER_DIMENSION_RUNS = {
    "train-mog": ("train", "mog", [], 2),
    "train-digitsum": ("train", "digitsum", [], 10),
    "train-metagan": ("train", "metagan", [], 1),
    "train-metagan-gauss2d": ("train", "metagan", ["--set", "metagan.family=gauss2d"], 2),
    "eval-mog": ("eval", "mog", [], 2),
}


@pytest.mark.parametrize("case", sorted(OTHER_DIMENSION_RUNS))
def test_corpus_of_another_dimension_exits_2_before_any_model(case, tmp_path, capsys,
                                                              monkeypatch):
    verb, task, flags, dim = OTHER_DIMENSION_RUNS[case]
    path = _labelled_corpus(tmp_path / "corpus.jsonl", "pointset", [0, 1])
    out = ["--out", str(tmp_path / verb)]
    if verb == "train":
        argv = ["train", "--task", task, "--corpus", str(path)] + TASK_RUNS[task][0] + flags + out
    else:
        _, ck_path = train_task(task, tmp_path / "run")
        argv = ["eval", "--checkpoint", str(ck_path), "--corpus", str(path)] + out
    monkeypatch.setattr(cli, "SummaryNet", lambda *args: pytest.fail("a model was built"))
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"corpus {str(path)!r} holds 3-D points, but {task} reads {dim}-D points" in err
    assert not (tmp_path / verb).exists()


def _origin_corpus(path, task) -> Path:
    """Two labelled sets of the task's input dimension; set 1 holds a point at the origin."""
    dim = 1 if task == "metagan" else cli.TASK_TABLE[task].input_dim
    lines = [json.dumps({"set_id": i, "label": 1,
                         "points": [[0.5] * dim, [0.25] * dim, [1.0] * dim] + [[0.0] * dim] * i})
             for i in (0, 1)]
    path.write_text("\n".join(lines) + "\n")
    return path


UNSUP = ["--set", "train.mode=unsupervised"]
# (verb, task, flags, whether the run builds a cosine transport cost on the corpus)
ORIGIN_RUNS = {
    "mog-unsup-1-step": ("train", "mog", UNSUP + MOG_ARGS + ["--steps", "1"], True),
    "mog-unsup-40-steps": ("train", "mog", UNSUP + MOG_ARGS + ["--steps", "40"], True),
    "mog-supervised": ("train", "mog", MOG_ARGS + ["--steps", "2"], True),
    "mog-lambda-0": ("train", "mog", MOG_ARGS + ["--steps", "2", "--lambda-ot", "0"], False),
    "mog-euclidean": ("train", "mog",
                      MOG_ARGS + ["--steps", "2", "--set", "train.metric=euclidean"], False),
    "digitsum-unsup": ("train", "digitsum", UNSUP + DIGIT_ARGS + ["--steps", "2"], True),
    "metagan-cosine": ("train", "metagan", METAGAN_ARGS + ["--set", "metagan.metric=cosine"],
                       True),
    "metagan-no-ot": ("train", "metagan", METAGAN_ARGS + ["--set", "metagan.metric=cosine",
                                                           "--set", "metagan.use_ot=false"], False),
    "mog-eval-unsup": ("eval", "mog", UNSUP, True),
    "mog-eval-supervised": ("eval", "mog", [], False),
}


@pytest.mark.parametrize("case", sorted(ORIGIN_RUNS))
def test_corpus_point_at_the_origin_under_a_cosine_cost_exits_2(case, tmp_path, capsys):
    # the cost once refused it at exit 2 naming an index within a subsample,
    # and only once a step drew that set: a 1-step run exited 0
    verb, task, flags, refused = ORIGIN_RUNS[case]
    path = _origin_corpus(tmp_path / "corpus.jsonl", task)
    out = tmp_path / "out"
    if verb == "train":
        argv = ["train", "--task", task] + flags
    else:
        assert run(["train", "--task", task, "--steps", "2", "--out", str(tmp_path / "run")]
                   + flags + MOG_ARGS) == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.2")]
    capsys.readouterr()
    code = run(argv + ["--corpus", str(path), "--out", str(out)])
    if not refused:
        assert code == 0
        return
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: {path}: set 1 has a point of norm below 1e-12, "
                                       "for which the cosine cost is undefined\n")
    assert not out.exists()


def test_drawn_sets_at_the_origin_under_a_cosine_cost_exit_2(tmp_path, capsys):
    # a mixture whose means and spread are all but zero draws points the cost refuses
    out = tmp_path / "out"
    argv = ["train", "--task", "mog", "--steps", "2", "--out", str(out), "--set", "mog.sigma=1e-160",
            "--set", "mog.mean_low=0", "--set", "mog.mean_high=0"] + MOG_ARGS
    assert run(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: the sets drawn from seed 0: set 0 has a point of "
                                       "norm below 1e-12, for which the cosine cost is undefined\n")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "eval"])
@pytest.mark.parametrize("near_origin", [False, True])
def test_a_huge_coordinate_under_a_cosine_cost_exits_2(verb, near_origin, tmp_path, capsys):
    # 1e200 squares to inf, and the cost would normalize the point to the zero vector, so
    # it once trained with an overflow warning at every step; the first refused point of a
    # set names the refusal
    points = [[[0.5, 1.0]] + [[1e-13, 0.0]] * near_origin + [[1e200, 0.25], [1.0, -1.0]],
              [[0.5, 1.0], [2.0, 0.25]]]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"set_id": i + 3, "label": None, "points": p}) + "\n"
                            for i, p in enumerate(points[::-1])))
    out = tmp_path / "out"
    if verb == "train":
        argv = ["train", "--task", "mog", "--steps", "2"] + MOG_ARGS
    else:
        assert run(["train", "--task", "mog", "--steps", "2", "--out", str(tmp_path / "run")]
                   + UNSUP + MOG_ARGS) == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.2")]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv + ["--corpus", str(path), "--out", str(out)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == cli.EXIT_CONFIG
    what = ("of norm below 1e-12" if near_origin else
            "whose squared norm overflows a float (a coordinate above about 1e154)")
    assert capsys.readouterr().err == (f"error: {path}: set 4 has a point {what}, "
                                       "for which the cosine cost is undefined\n")
    assert not out.exists()


OVERFLOW_RUNS = {  # (task, flags, a huge coordinate of a corpus point; None: drawn sets)
    "mog-lambda-0": ("mog", MOG_ARGS + ["--lambda-ot", "0"], 1e300),
    "mog-euclidean": ("mog", MOG_ARGS + ["--set", "train.metric=euclidean"], 1e300),
    "pointset-lambda-0": ("pointset", POINTSET_ARGS + ["--lambda-ot", "0"], 1e200),
    "digitsum-lambda-0": ("digitsum", DIGIT_ARGS + ["--lambda-ot", "0",
                                                    "--set", "digitsum.noise_sigma=1e200"], None),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_RUNS))
def test_a_point_whose_squared_norm_overflows_exits_2_under_any_metric_and_lambda(case, tmp_path,
                                                                                  capsys):
    # with no cosine transport cost these once trained on: mog exited 6 at step 0, and
    # pointset and digitsum wrote a checkpoint after Adam's second moment overflowed
    task, flags, coordinate = OVERFLOW_RUNS[case]
    out = tmp_path / "out"
    argv = ["train", "--task", task, "--steps", "2", "--out", str(out)] + flags
    where = "the sets drawn from seed 0"
    if coordinate is not None:
        dim = cli.TASK_TABLE[task].input_dim
        where = tmp_path / "corpus.jsonl"
        where.write_text("".join(json.dumps({"set_id": i, "label": 1, "points": [
            [0.5] * dim, [coordinate] + [0.25] * (dim - 1), [1.0] * dim][:2 * i + 1]}) + "\n"
            for i in (0, 1)))
        argv += ["--corpus", str(where)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {where}: set {1 if coordinate else 0} has a point whose squared norm overflows "
        "a float (a coordinate above about 1e154), on which the model overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("generator, argv, size", [
    ("gen_task_corpus", ["--task", "metagan", "--set", "metagan.n_points=1000000000000"],
     "7.28 TiB"),
    ("gen_digit_test_corpora", ["--task", "digitsum", "--set", "digitsum.size=100000000000"],
     "745 GiB"),
], ids=["metagan", "digitsum"])
def test_a_size_too_large_for_memory_exits_2(generator, argv, size, monkeypatch, tmp_path,
                                             capsys):
    # the generator stands in for numpy refusing the allocation, which is never made here
    message = f"Unable to allocate {size} for an array with shape (...) and data type float64"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, generator, refuse)
    out = tmp_path / "out"
    assert run(["gen", *argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: gen: a size in the config is too large for this "
                                       f"machine's memory: {message}\n")
    assert not out.exists()


def test_collapsed_embedding_is_a_training_failure_exit_6(tmp_path, capsys):
    # two relu layers of width 2 map support points to the origin at step 0;
    # no user input is at fault, so this once wrongly exited 2
    out = tmp_path / "out"
    argv = ["train", "--task", "fewshot", "--set", "fewshot.encoder_widths=2,2",
            "--set", "train.lambda_ot=1", "--set", "fewshot.episodes=20", "--out", str(out)]
    assert run(argv) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: forward pass failed at step 0: point ")
    assert "has norm below 1e-12; cosine cost is undefined for it" in err
    assert not out.exists()


def test_train_divergence_exits_6(tmp_path):
    # the forward that overflows is the one whose loss apply_update checks, so it warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--task", "mog", "--steps", "4", "--out", str(tmp_path / "d"),
                    "--set", "optim.lr=1e150"] + MOG_ARGS)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == cli.EXIT_NUMERIC


def test_train_unsupervised_mode(tmp_path):
    out = tmp_path / "u"
    code = run(["train", "--task", "mog", "--steps", "4", "--out", str(out),
                "--set", "train.mode=unsupervised"] + MOG_ARGS)
    assert code == 0
    body = [l for l in (out / "trace.csv").read_text().splitlines() if not l.startswith("#")]
    step0 = body[1].split(",")
    assert step0[1] != "" and step0[2] == ""  # transport loss only, no task column
    # eval scores the training objective, not a head the net does not have
    metrics = []
    for sub in ("ev1", "ev2"):
        assert run(["eval", "--checkpoint", str(out / "checkpoint.4"), "--count", "3",
                    "--seed", "11", "--out", str(tmp_path / sub)]) == 0
        metrics.append(json.loads((tmp_path / sub / "metrics.json").read_text())["metrics"])
    assert set(metrics[0]) == {"mean_transport_loss"}
    assert np.isfinite(metrics[0]["mean_transport_loss"])
    assert metrics[0] == metrics[1]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task = mog\ntrain.steps = 9\ncount = 4\nmog.n_min = 30\nmog.n_max = 40\n"
        "model.encoder_widths = 16,8\nmodel.k = 5\nmodel.head_hidden = 8\n"
        "train.batch_points = 20\nsinkhorn.unroll_iters = 8\n"
    )
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--steps", "2", "--out", str(out)]) == 0
    assert (out / "checkpoint.2").exists()  # flag beat the file's 9 steps
    header = (out / "trace.csv").read_text()
    assert "# train.steps = 2" in header


# -- eval --------------------------------------------------------------------------


def test_eval_writes_metrics_with_config_and_seed(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    out = tmp_path / "ev"
    code = run(["eval", "--checkpoint", str(ck_path), "--count", "3", "--seed", "11",
                "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["task"] == "mog"
    assert payload["seed"] == 11
    assert payload["checkpoint_step"] == 5
    assert payload["config"]["eval.count"] == 3
    assert np.isfinite(payload["metrics"]["mean_loglik"])
    assert np.isfinite(payload["metrics"]["oracle_mean_loglik"])


@pytest.mark.parametrize("task", list(cli.TASK_TABLE))
def test_eval_is_deterministic(task, tmp_path):
    _, ck_path = train_task(task, tmp_path / "run")
    outs = [eval_task(task, ck_path, tmp_path / sub) for sub in ("e1", "e2")]
    assert outs[0] == outs[1]


def test_checkpoint_round_trip_preserves_metrics_bit_exact(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    ck = load_checkpoint(ck_path)
    copied = tmp_path / "copy.ck"
    save_checkpoint(copied, ck.params, ck.step, ck.config, ck.config_hash)
    results = []
    for path, sub in ((ck_path, "e1"), (copied, "e2")):
        out = tmp_path / sub
        assert run(["eval", "--checkpoint", str(path), "--count", "3",
                    "--seed", "11", "--out", str(out)]) == 0
        results.append(json.loads((out / "metrics.json").read_text())["metrics"])
    assert results[0] == results[1]


def test_mog_eval_generates_its_corpus_once(tmp_path, monkeypatch):
    # the model and the oracle are scored on one generated corpus
    _, ck_path = train_task("mog", tmp_path / "run")
    calls = []
    real = cli.gen_mog_corpus

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "gen_mog_corpus", counting)
    monkeypatch.setattr(mog_module, "gen_mog_corpus", counting)
    eval_task("mog", ck_path, tmp_path / "ev")
    assert len(calls) == 1


def test_eval_on_explicit_corpus(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    data = tmp_path / "data"
    assert run(["gen", "--task", "mog", "--count", "3", "--seed", "9", "--out", str(data),
                "--set", "mog.n_min=30", "--set", "mog.n_max=40"]) == 0
    out = tmp_path / "ev"
    assert run(["eval", "--checkpoint", str(ck_path), "--corpus",
                str(data / "corpus.jsonl"), "--out", str(out)]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert "mean_loglik" in payload["metrics"]
    assert "oracle_mean_loglik" not in payload["metrics"]  # provenance unknown


def test_mog_encode_cap_bounds_the_points_the_encoder_reads(tmp_path):
    # eval alone reads mog.encode_cap: the encoder sees at most that many
    # points of each set, drawn from eval.seed, and the whole set is scored
    metrics, checkpoints = {}, {}
    for cap in (0, 10, 40):
        ck_path = tmp_path / f"cap{cap}" / "checkpoint.5"
        flags = TASK_RUNS["mog"][0] + ["--set", f"mog.encode_cap={cap}"]
        assert run(["train", "--task", "mog", "--out", str(ck_path.parent)] + flags) == 0
        checkpoints[cap] = load_checkpoint(ck_path)
        metrics[cap] = eval_task("mog", ck_path, tmp_path / f"ev{cap}")
    trained = checkpoints[0].params
    assert all(np.array_equal(v, checkpoints[10].params[k]) for k, v in trained.items())
    assert metrics[40] == metrics[0]  # no set has more than mog.n_max = 40 points
    assert metrics[10]["oracle_mean_loglik"] == metrics[0]["oracle_mean_loglik"]

    cfg = config.config_from_json_dict(checkpoints[10].config)
    net, _, named = cli.TASK_TABLE["mog"].build(cfg, None)
    assign_parameters(named, checkpoints[10].params)
    rng, logliks = np.random.default_rng(11), []  # the eval flags: --count 3 --seed 11
    for batch, _ in gen_mog_corpus(cfg.build(MoGTaskSpec), 3, 11):
        prediction = net.summarize_with_prediction(subsample_points(batch.points, 10, rng))[1]
        logliks.append(-mog_task_loss(prediction, batch.points, batch.label).item())
    assert metrics[10]["mean_loglik"] == pytest.approx(np.mean(logliks), rel=1e-12)
    assert metrics[10]["mean_loglik"] != metrics[0]["mean_loglik"]


def per_set_mog_score(cfg, net, sets) -> dict:
    """The per-set eval loop that scoring a block of sets per pass replaced, as the reference."""
    cap, rng = cfg["mog.encode_cap"], np.random.default_rng(cfg["eval.seed"])

    def loglik(batch) -> float:
        points = subsample_points(batch.points, cap, rng) if cap else batch.points
        return -mog_task_loss(net.summarize_with_prediction(points)[1], batch.points,
                              batch.label).item()

    with no_grad():
        if sets:
            return {"mean_loglik": sum(loglik(batch) for batch in sets) / len(sets)}
        pairs = gen_mog_corpus(cfg.build(MoGTaskSpec), cfg["eval.count"], cfg["eval.seed"])
        model = sum(loglik(batch) for batch, _ in pairs) / len(pairs)
        oracle = sum(-mog_nll_value(Value(np.log(p.weights)), Value(p.means), Value(p.variances),
                                    batch.points).item() for batch, p in pairs) / len(pairs)
    return {"mean_loglik": model, "oracle_mean_loglik": oracle}


@pytest.mark.parametrize("cap", [0, 10])
@pytest.mark.parametrize("source", ["generated", "corpus"])
def test_mog_score_equals_the_per_set_loop_bit_for_bit(source, cap, tmp_path, monkeypatch):
    # 11 drawn sets of 400-500 points and a ragged corpus both span several blocks
    _, ck_path = train_task("mog", tmp_path / "run")
    ck = load_checkpoint(ck_path)
    cfg = config.config_from_json_dict(ck.config).with_overrides(
        {"eval.count": "11", "eval.seed": "11", "mog.n_min": "400", "mog.n_max": "500",
         "mog.encode_cap": str(cap)})
    net, _, named = cli.TASK_TABLE["mog"].build(cfg, None)
    assign_parameters(named, ck.params)
    sets = None
    if source == "corpus":
        rng = np.random.default_rng(5)
        sizes = (1, 100, mog_module.LOGLIK_BLOCK // 4 + 1, 37, 450, 3, 450, 450, 450, 450)
        sets = [SetBatch(rng.normal(scale=3.0, size=(n, 2)), set_id=i)
                for i, n in enumerate(sizes)]
    expected, calls, real = per_set_mog_score(cfg, net, sets), [], mog_module.mog_point_loglik
    monkeypatch.setattr(mog_module, "mog_point_loglik",
                        lambda *args: calls.append(len(args[-1])) or real(*args))
    assert cli.TASK_TABLE["mog"].score(cfg, net, sets) == expected
    assert len(calls) >= (3 if source == "corpus" else 2 * 3)  # the model's blocks, the oracle's


def per_set_score(task, cfg, net, bank, sets) -> dict:
    """The per-set eval loops that one prediction pass per score replaced, as the reference:
    digitsum's and pointset's supervised scores, and any task's unsupervised one."""
    entry = cli.TASK_TABLE[task]

    def mean_over(each, per_set) -> float:
        total = 0.0
        with no_grad():
            for batch in each:
                total += per_set(batch)
        return total / len(each)

    def prediction(batch) -> np.ndarray:
        return net.summarize_with_prediction(batch.points)[1].data

    if cfg["train.mode"] == "unsupervised":
        rng, train_cfg = np.random.default_rng(cfg["eval.seed"]), entry.train_config(cfg)
        return {"mean_transport_loss": mean_over(sets or entry.eval_sets(cfg), lambda batch: (
            set_objective(batch.points, batch.label, net, bank, train_cfg, rng=rng)[2]))}
    if task == "pointset":
        return {"accuracy": mean_over(sets or entry.eval_sets(cfg), lambda batch: (
            float(int(np.argmax(prediction(batch))) == int(batch.label))))}

    def hit(batch) -> float:  # digitsum: a rounded prediction against its whole label
        return 1.0 if float(np.rint(float(prediction(batch).reshape(())))) == int(batch.label) else 0.0

    if sets:
        return {"accuracy": mean_over(sets, hit)}
    corpora = gen_digit_test_corpora(cfg.build(DigitSumSpec), cfg["eval.count"], cfg["eval.seed"])
    by_size = {str(size): mean_over(each, hit) for size, each in corpora.items()}
    return {"accuracy_by_size": by_size, "mean_accuracy": sum(by_size.values()) / len(by_size)}


# per task and train.mode: train flags, the checkpoint they write, and eval overrides
# that draw enough sets for hits and misses
SCORED_RUNS = {
    "digitsum": (["--steps", "4"] + DIGIT_ARGS, "checkpoint.4",
                 {"eval.count": "40", "digitsum.test_sizes": "1,2,4"}),
    "pointset": (["--steps", "4"] + POINTSET_ARGS, "checkpoint.4", {"eval.count": "3"}),
    "mog-unsupervised": (["--steps", "3", "--set", "train.mode=unsupervised"] + MOG_ARGS,
                         "checkpoint.3", {"eval.count": "5", "eval.seed": "11"}),
    "digitsum-unsupervised": (["--steps", "3", "--set", "train.mode=unsupervised"] + DIGIT_ARGS,
                              "checkpoint.3", {"eval.count": "5"}),
}


@pytest.mark.parametrize("source", ["generated", "corpus"])
@pytest.mark.parametrize("run_name", sorted(SCORED_RUNS))
def test_score_equals_the_per_set_loop_bit_for_bit(run_name, source, tmp_path):
    task = run_name.split("-")[0]
    flags, ck_name, overrides = SCORED_RUNS[run_name]
    assert run(["train", "--task", task, "--out", str(tmp_path)] + flags) == 0
    ck = load_checkpoint(tmp_path / ck_name)
    cfg = config.config_from_json_dict(ck.config).with_overrides(overrides)
    entry = cli.TASK_TABLE[task]
    net, bank, named = entry.build(cfg, None)
    assign_parameters(named, ck.params)
    sets = None
    if source == "corpus":  # labels of a file: whole numbers as JSON gives them, hits and misses
        sets = entry.eval_sets(cfg)[:12]
        for i, batch in enumerate(sets):
            if cfg["train.mode"] == "supervised":
                guess = net.summarize_with_prediction(batch.points)[1].data
                hit = int(np.rint(guess[0])) if task == "digitsum" else int(np.argmax(guess))
                batch.label = float(hit) if i % 3 == 0 else hit + i % 3 - 1
    expected = per_set_score(task, cfg, net, bank, sets)
    assert entry.evaluate(cfg, net, bank, sets, None) == expected
    if cfg["train.mode"] == "supervised":
        shares = [v for v in (expected.get("accuracy_by_size") or expected).values()]
        assert any(0.0 < share < 1.0 for share in shares), expected  # both outcomes are scored


@pytest.mark.parametrize("prediction, labels, accuracy", [
    (7.4, [7, 8], 0.5),
    (7.6, [7, 8], 0.5),
    (6.5, [6, 7], 0.5),  # half to even
    (7.5, [7, 8], 0.5),
    (2.0**53, [2**53, 2**53 + 1], 0.5),  # an int64 label array would call both equal
    (2.0**70, [2**70, 2**70 + 1], 0.5),
    (float("nan"), [0, 7], 0.0),  # a NaN or an infinity rounds to no whole number
    (float("inf"), [0, 7], 0.0),
    (float("-inf"), [0, 7], 0.0),
])
def test_digitsum_accuracy_compares_each_rounded_prediction_with_its_label_exactly(
        prediction, labels, accuracy):
    # a model fed points near the largest float can predict a NaN or an infinity
    cfg = config.resolve_config(overrides={"task": "digitsum"})
    net = cli.TASK_TABLE["digitsum"].build(cfg, None)[0]
    last = net.predict_head.layers[-1]
    last.weight.data[:] = 0.0
    last.bias.data[:] = prediction  # every set's prediction, bit for bit
    sets = [SetBatch(np.eye(10)[:3], set_id=i, label=label) for i, label in enumerate(labels)]
    assert cli.TASK_TABLE["digitsum"].score(cfg, net, sets) == {"accuracy": accuracy}


def test_eval_missing_checkpoint_exits_3(tmp_path):
    assert run(["eval", "--checkpoint", str(tmp_path / "none.ck")]) == cli.EXIT_MISSING_FILE


def test_eval_corrupt_checkpoint_exits_4(tmp_path):
    bad = tmp_path / "bad.ck"
    bad.write_text("{broken")
    assert run(["eval", "--checkpoint", str(bad)]) == cli.EXIT_BAD_CHECKPOINT


# an edit of a trained checkpoint's payload -> what its refusal says
BAD_PAYLOADS = {
    "not-an-object": (lambda p: [p], "is not a checkpoint: expected an object"),
    "no-format-version": (lambda p: {k: v for k, v in p.items() if k != "format_version"},
                          "is missing format_version"),
    "params-a-list": (lambda p: p | {"params": list(p["params"].values())},
                      "params must be a name -> array mapping"),
    "step-negative": (lambda p: p | {"step": -1}, "has a malformed step -1"),
    "step-a-float": (lambda p: p | {"step": 5.0}, "has a malformed step 5.0"),
    "step-a-string": (lambda p: p | {"step": "5"}, "has a malformed step '5'"),
    "step-true": (lambda p: p | {"step": True}, "has a malformed step True"),
    "config-a-list": (lambda p: p | {"config": sorted(p["config"])}, "config must be an object"),
}


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_eval_malformed_checkpoint_payload_exits_4(case, tmp_path, capsys):
    edit, message = BAD_PAYLOADS[case]
    _, ck_path = train_task("mog", tmp_path / "run")
    ck_path.write_text(json.dumps(edit(json.loads(ck_path.read_text()))))
    capsys.readouterr()
    out = tmp_path / "ev"
    assert run(["eval", "--checkpoint", str(ck_path), "--out", str(out)]) == cli.EXIT_BAD_CHECKPOINT
    assert f"{ck_path.name} {message}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_tampered_config_exits_4(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["config"]["seed"] = 999  # hash no longer matches
    ck_path.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_BAD_CHECKPOINT


@pytest.mark.parametrize("entry", ['"x"', "NaN", "Infinity", "-Infinity"])
def test_eval_checkpoint_entry_not_a_finite_number_exits_4(entry, tmp_path, capsys):
    # "x" in place of the base64 data; a float as the bits of the array's first value
    ck_path = tmp_path / "run" / "checkpoint.2"
    flags = ["--steps", "2"] + MOG_ARGS + ["--out", str(ck_path.parent)]
    assert run(["train", "--task", "mog"] + flags) == 0
    text = ck_path.read_text()
    first = json.loads(text)["params"]
    name = next(iter(first))
    data = first[name]["data"]
    bad = json.loads(entry)
    if isinstance(bad, float):
        values = np.frombuffer(base64.b64decode(data), dtype="<f8").copy()
        values[0] = bad
        bad = base64.b64encode(values.tobytes()).decode("ascii")
    stored = f'"{name}":{{"data":{json.dumps(data)}'
    assert text.count(stored) == 1
    ck_path.write_text(text.replace(stored, f'"{name}":{{"data":{json.dumps(bad)}'))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_BAD_CHECKPOINT
    err = capsys.readouterr().err
    assert f"{name!r} " in err
    assert ("not a finite number" if entry != '"x"' else "not valid base64") in err


def test_eval_checkpoint_shape_holding_true_exits_4(tmp_path, capsys):
    # JSON true is no count, even where 1 would fit the data
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    name, record = next(iter(payload["params"].items()))
    record["shape"] = [True] + record["shape"]
    ck_path.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_BAD_CHECKPOINT
    assert f"array {name!r} has a malformed shape [True, " in capsys.readouterr().err


def test_eval_checkpoint_record_without_shape_or_data_exits_4(tmp_path, capsys):
    _, ck_path = train_task("mog", tmp_path / "run")
    for field in ("shape", "data"):
        payload = json.loads(ck_path.read_text())
        name, record = next(iter(payload["params"].items()))
        del record[field]
        ck_path.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev")]
        assert run(argv) == cli.EXIT_BAD_CHECKPOINT
        assert capsys.readouterr().err == f"error: array {name!r} is missing shape or data\n"
    assert not (tmp_path / "ev").exists()


# the README's exit-code table, per failure class: a class missing here fails
README_EXIT_CODES = {
    errors.ShapeError: 2, errors.DomainError: 2, errors.ConfigError: 2,
    errors.DegenerateInputError: 2, errors.InvalidMarginalsError: 2,
    errors.CheckpointError: 4, errors.CheckpointVersionError: 5,
    errors.NumericalError: 6, errors.TrainingDivergedError: 6,
}


def test_every_failure_class_exits_with_its_readme_code(monkeypatch, capsys):
    classes, stack = set(), [errors.ProtosetError]
    while stack:
        subclasses = stack.pop().__subclasses__()
        classes.update(subclasses)
        stack.extend(subclasses)
    assert classes == set(README_EXIT_CODES)
    for cls, code in README_EXIT_CODES.items():
        def fail(args, cls=cls):
            raise cls(f"a {cls.__name__}")

        monkeypatch.setattr(cli, "cmd_gradcheck", fail)
        assert cls.exit_code == code
        assert run(["gradcheck"]) == code, cls.__name__
        assert capsys.readouterr().err == f"error: a {cls.__name__}\n"


def test_eval_of_a_supervised_corpus_says_it_takes_no_key(tmp_path, capsys):
    _, ck_path = train_task("digitsum", tmp_path / "run")
    data = tmp_path / "data"
    assert run(["gen", "--task", "digitsum", "--out", str(data)] + GEN_SMALL["digitsum"]) == 0
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(ck_path), "--corpus", str(data / "corpus.jsonl"),
            "--seed", "4", "--out", str(tmp_path / "ev")]
    assert run(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: eval of digitsum cannot change eval.seed, which "
                                       "the checkpoint fixes or eval never reads; it takes no key\n")


def test_train_with_a_non_finite_parameter_exits_6_without_a_checkpoint(
    tmp_path, capsys, monkeypatch
):
    # the checkpoint stores opaque bytes, so nothing in the file would show the NaN
    task = cli.TASK_TABLE["mog"]
    real_build, real_train = task.build, task.train
    built = {}

    def build(cfg, sets):
        net, bank, named = real_build(cfg, sets)
        built.update(named)
        return net, bank, named

    def train(*args):
        trace = real_train(*args)
        built["bank"].data[0, 0] = float("nan")
        return trace

    monkeypatch.setattr(task, "build", build)
    monkeypatch.setattr(task, "train", train)
    out = tmp_path / "run"
    argv = ["train", "--task", "mog", "--steps", "2", "--out", str(out)] + MOG_ARGS
    assert run(argv) == cli.EXIT_NUMERIC
    assert "'bank' holds a NaN or an infinity" in capsys.readouterr().err
    assert not list(out.glob("checkpoint.*"))


def test_mog_eval_of_a_parameter_the_score_overflows_on_exits_6_without_a_warning(
        tmp_path, capsys):
    # a finite weight whose predicted means square past the largest float: the
    # likelihood once warned of the overflow before the report check refused it
    ck_path = tmp_path / "run" / "checkpoint.2"
    assert run(["train", "--task", "mog", "--steps", "2", "--out", str(ck_path.parent)]
               + MOG_ARGS) == 0
    ck = load_checkpoint(ck_path)
    named = {name: Value(array) for name, array in ck.params.items()}
    named["encoder.0.weight"].data[0, 0] = 1e300
    save_checkpoint(ck_path, named, ck.step, ck.config, ck.config_hash)
    capsys.readouterr()
    out = tmp_path / "eval"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["eval", "--checkpoint", str(ck_path), "--count", "3", "--out", str(out)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == cli.EXIT_NUMERIC
    assert "the report holds a NaN or infinite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["wrong-type-stale-hash", "wrong-type", "missing-key"])
def test_eval_malformed_stored_config_exits_4(case, tmp_path, capsys):
    # a recomputed hash stands for a hand-made file; no stored value may reach
    # the bounds checks before its type is checked
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    stored = payload["config"]
    if case == "missing-key":
        del stored["mog.sigma"]
    else:
        stored["model.k"] = "5"
    if case != "wrong-type-stale-hash":
        text = json.dumps(stored, sort_keys=True, separators=(",", ":"))
        payload["config_hash"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    ck_path.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_BAD_CHECKPOINT
    named = {"wrong-type-stale-hash": "recorded hash", "wrong-type": "model.k"}
    assert named.get(case, "mog.sigma") in capsys.readouterr().err


# the stored change under a recomputed hash, and the error
REFUSED_STORED = {"out-of-bounds": ("model.k", 0, "stored config: model.k must be positive, got 0"),
                  "unknown-key": ("no.such", 1, "stored config: unknown config key 'no.such'")}


@pytest.mark.parametrize("case", sorted(REFUSED_STORED))
def test_eval_stored_config_the_checks_refuse_exits_4(case, tmp_path, capsys):
    # given by the user, either is bad input (exit 2); stored, a corrupt checkpoint
    key, value, message = REFUSED_STORED[case]
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["config"][key] = value
    payload["config_hash"] = config.ResolvedConfig(payload["config"]).config_hash()
    ck_path.write_text(json.dumps(payload))
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ck_path), "--out", str(out)]) == cli.EXIT_BAD_CHECKPOINT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_eval_key_the_checks_refuse_exits_2(tmp_path, capsys):
    _, ck_path = train_task("mog", tmp_path / "run")
    argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev")]
    assert run(argv + ["--set", "mog.sigma=0"]) == cli.EXIT_CONFIG
    assert "error: mog.sigma must be" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_eval_version_mismatch_exits_5(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    ck_path.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_VERSION_MISMATCH


def test_eval_v1_checkpoint_exits_5(tmp_path, capsys):
    # format 1 also stored Adam moments and a meta block; this build reads neither
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["format_version"] = 1
    payload["optimizer"] = {"main": {"arrays": {}, "steps": [5]}}
    payload["meta"] = {"task": "mog", "bank_space": "data-space"}
    ck_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_VERSION_MISMATCH
    err = capsys.readouterr().err
    assert "format 1" in err and f"reads {FORMAT_VERSION}" in err


def test_eval_v2_checkpoint_exits_5(tmp_path, capsys):
    # format 2 wrote each array as a JSON list of numbers; there is no second reader
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["format_version"] = 2
    for record in payload["params"].values():
        record["data"] = np.frombuffer(base64.b64decode(record["data"]), dtype="<f8").tolist()
    ck_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_VERSION_MISMATCH
    err = capsys.readouterr().err
    assert "format 2" in err and f"reads {FORMAT_VERSION}" in err


def test_eval_v3_checkpoint_exits_5(tmp_path, capsys):
    # format 3 stored the run's out and corpus paths in its config
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["format_version"] = 3
    payload["config"].update(out=str(tmp_path / "run"), corpus="")
    text = json.dumps(payload["config"], sort_keys=True, separators=(",", ":"))
    payload["config_hash"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    ck_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_VERSION_MISMATCH
    err = capsys.readouterr().err
    assert "format 3" in err and f"reads {FORMAT_VERSION}" in err


# -- other tasks through the CLI ------------------------------------------------------


def test_digitsum_cli_round_trip(tmp_path):
    _, ck_path = train_task("digitsum", tmp_path / "run")
    metrics = eval_task("digitsum", ck_path, tmp_path / "ev")
    assert set(metrics["accuracy_by_size"]) == {"4", "8"}


def test_pointset_cli_round_trip(tmp_path):
    _, ck_path = train_task("pointset", tmp_path / "run")
    metrics = eval_task("pointset", ck_path, tmp_path / "ev")
    assert 0.0 <= metrics["accuracy"] <= 1.0


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_fewshot_corpus_exits_2(verb, tmp_path, capsys):
    # episodes come from the seed, so a corpus would be silently ignored
    data = tmp_path / "data"
    assert run(["gen", "--task", "mog", "--count", "2", "--out", str(data)]) == 0
    corpus = ["--corpus", str(data / "corpus.jsonl")]
    if verb == "train":
        argv = ["train", "--task", "fewshot", "--out", str(tmp_path / "run")]
        argv += TASK_RUNS["fewshot"][0] + corpus
    else:
        _, ck_path = train_task("fewshot", tmp_path / "run")
        # the corpus is refused before a key that eval would take with one
        argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev"),
                "--seed", "4"] + corpus
    capsys.readouterr()
    assert run(argv) == cli.EXIT_CONFIG
    assert "corpus must be empty" in capsys.readouterr().err


def test_metagan_eval_corpus_exits_2(tmp_path, capsys):
    # eval scores generated tasks from eval.seed, so a corpus would be silently ignored
    data = tmp_path / "data"
    assert run(["gen", "--task", "metagan", "--count", "2", "--out", str(data)]) == 0
    _, ck_path = train_task("metagan", tmp_path / "run")
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(ck_path), "--corpus", str(data / "corpus.jsonl"),
            "--out", str(tmp_path / "ev"), "--seed", "4"]  # refused for the corpus, not the key
    assert run(argv) == cli.EXIT_CONFIG
    assert "corpus must be empty" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


# the key an unread input names -> (that input's key, value, flag or None)
UNREAD_INPUTS = {
    "fewshot.episodes": ("train.steps", "3", "--steps"),
    "metagan.iterations": ("train.steps", "3", "--steps"),
    "train.lambda_ot": ("train.lambda_ot", "0.5", "--lambda-ot"),
    "optim.lr_final": ("optim.lr_final", "0.0001", None),
    "train.batch_sets": ("train.batch_sets", "2", None),
    "train.batch_points": ("train.batch_points", "10", None),
    "train.metric": ("train.metric", "euclidean", None),
    "train.mode": ("train.mode", "unsupervised", None),
}
# the encoder's keys, which neither fewshot nor metagan reads
ENCODER_ONLY = [(task, key) for task in ("fewshot", "metagan")
                for key in ("train.batch_sets", "train.batch_points", "train.metric", "train.mode")]


@pytest.mark.parametrize("task,key", [("fewshot", "fewshot.episodes"), ("metagan", "metagan.iterations"),
                                      ("metagan", "train.lambda_ot"), ("metagan", "optim.lr_final")]
                         + ENCODER_ONLY)
def test_steps_flag_on_task_without_train_steps_exits_2(task, key, tmp_path, capsys):
    # these loops never read the given key (fewshot and metagan run for their
    # own length key), so it would be silently ignored, whether it comes from
    # a flag, --set or a config file
    given, value, flag = UNREAD_INPUTS[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"task = {task}\n{given} = {value}\n")
    sources = {
        "set": ["--task", task, "--set", f"{given}={value}"],
        "file": ["--config", str(cfg)],
    }
    if flag:
        sources["flag"] = ["--task", task, flag, value]
    for name, source in sources.items():
        out = tmp_path / name
        capsys.readouterr()
        assert run(["train", "--out", str(out)] + source + TASK_RUNS[task][0]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert given in err and key in err
        assert not out.exists()


# a value for every model.* key, none of them its default
MODEL_VALUES = {"model.k": "7", "model.encoder_widths": "8,8", "model.activation": "tanh",
                "model.pooling": "max", "model.head_hidden": "8", "model.predict_hidden": "8"}
# the key that does the job of a model.* key for metagan
METAGAN_MODEL = {"model.k": "metagan.k", "model.encoder_widths": "metagan.summary_widths"}
# (verb, task, the input, the key it sets, the key that does its job there or None)
NEVER_READ = (
    [("train", "fewshot", ["--set", f"{key}={value}"], key, None)
     for key, value in MODEL_VALUES.items()]
    + [("train", "metagan", ["--set", f"{key}={value}"], key, METAGAN_MODEL.get(key))
       for key, value in MODEL_VALUES.items()]
    + [("train", "fewshot", ["--set", "count=5"], "count", None),
       ("train", "pointset", ["--set", "count=5"], "count", "pointset.count_per_class"),
       ("gen", "pointset", ["--count", "5"], "count", "pointset.count_per_class"),
       ("train", "fewshot", ["--steps", "3"], "train.steps", "fewshot.episodes"),
       ("gen", "metagan", ["--set", "model.k=7"], "model.k", "metagan.k")]
    + [("train", task, ["--set", "train.metric=euclidean"], "train.metric", f"{task}.metric")
       for task in ("fewshot", "metagan")]
    # another task's keys once went into the config header and hash; the
    # first in schema order is named
    + [("train", "fewshot", ["--set", "fewshot.episodes=2", "--set", "mog.sigma=2.0"],
        "mog.sigma", None),
       ("train", "mog", ["--set", "fewshot.n_way=3", "--set", "metagan.batch=7"],
        "fewshot.n_way", None),
       ("gen", "digitsum", ["--set", "mog.sigma=3"], "mog.sigma", None),
       ("gen", "metagan", ["--components", "3"], "mog.components", None)]
)


@pytest.mark.parametrize("verb,task,given,key,instead", NEVER_READ,
                         ids=[f"{v}-{t}-{k}" for v, t, _, k, _ in NEVER_READ])
def test_a_key_the_task_never_reads_exits_2(verb, task, given, key, instead, tmp_path, capsys):
    # each of these runs once wrote the same artifacts as a run without the key
    assert set(MODEL_VALUES) == {k for k in config.SCHEMA if k.startswith("model.")}
    flags = TASK_RUNS[task][0] if verb == "train" else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([verb, "--task", task, "--out", str(out)] + given + flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    flag = "" if given[0] == "--set" else f" (or {given[0]})"  # a flag is named beside its key
    assert f"error: {key}{flag} is not read by {task}" in err
    assert (f"; set {instead}" in err) if instead else ("; set" not in err)
    assert not out.exists()


FLOAT_BOUND_KEYS = ("optim.lr", "optim.lr_final", "train.lambda_ot", "metagan.lr_generator",
                    "metagan.lr_critic", "metagan.mse_weight", "mog.sigma", "fewshot.sigma",
                    "digitsum.noise_sigma", "pointset.noise_sigma", "mog.mean_low",
                    "mog.mean_high", "fewshot.mean_low", "fewshot.mean_high")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_BOUND_KEYS)
def test_non_finite_float_key_exits_2_naming_the_key(key, value, tmp_path, capsys):
    # every key is resolved whatever the task; optim.lr=nan and inf once
    # trained with exit 0, and train.lambda_ot=nan exited 1 in the step loop
    out = tmp_path / "run"
    argv = ["train", "--task", "mog", "--set", f"{key}={value}", "--out", str(out)]
    assert run(argv + TASK_RUNS["mog"][0]) == cli.EXIT_CONFIG
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_log_every_prints_progress_to_stderr(tmp_path, capsys):
    # the package logs progress; train shows it on stderr at log_every > 0 and
    # leaves the protoset logger as it found it when main returns
    lengths = {"mog": [], "fewshot": ["--set", "fewshot.episodes=5"],
               "metagan": ["--set", "metagan.iterations=5"]}
    package = logging.getLogger("protoset")
    for task, length in lengths.items():
        argv = ["train", "--task", task, "--out", str(tmp_path / task)]
        argv += TASK_RUNS[task][0] + length
        captured = []
        for log_every in ("0", "2"):
            capsys.readouterr()
            assert run(argv + ["--set", f"train.log_every={log_every}"]) == 0
            captured.append(capsys.readouterr())
            assert package.handlers == [] and package.level == logging.NOTSET
        quiet, logged = captured
        assert quiet.err == ""
        assert logged.out == quiet.out
        assert [int(n) for n in re.findall(r"step (\d+)", logged.err)] == [0, 2, 4], task


def test_mean_low_above_mean_high_exits_2(tmp_path, capsys):
    # equal bounds stay legal; a reversed box is a config error, not a crash in the sampler
    argv = ["gen", "--task", "mog", "--count", "2", "--set", "mog.n_min=5", "--set", "mog.n_max=5"]
    assert run(argv + ["--set", "mog.mean_low=4", "--out", str(tmp_path / "eq")]) == 0
    capsys.readouterr()
    code = run(argv + ["--set", "mog.mean_low=5", "--out", str(tmp_path / "rev")])
    assert code == cli.EXIT_CONFIG
    assert "mog.mean_low" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["gen", "--task", "mog", "--set", "mog.mean_high=-5"],
     "mog.mean_low=-4.0 must not exceed mog.mean_high=-5.0"),
    (["train", "--task", "fewshot", "--set", "fewshot.mean_high=-6"],
     "fewshot.mean_low=-5.0 must not exceed fewshot.mean_high=-6.0"),
], ids=["mog", "fewshot"])
def test_a_reversed_mean_box_names_both_keys(argv, message, tmp_path, capsys):
    # a bad high end once named only the low end's key
    assert run(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_eval_with_no_digitsum_test_sizes_exits_2(tmp_path, capsys):
    _, ck_path = train_task("digitsum", tmp_path / "run")
    argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev")]
    capsys.readouterr()
    assert run(argv + ["--set", "digitsum.test_sizes="]) == cli.EXIT_CONFIG
    assert "digitsum.test_sizes" in capsys.readouterr().err


# (task, eval inputs, the key eval refuses or None): eval takes eval.count,
# eval.seed and the keys of the data it draws and of how it scores
EVAL_INPUTS = [
    ("mog", ["--set", "model.k=7"], "model.k"),  # exited 4, as if the checkpoint were corrupt
    ("mog", ["--set", "model.activation=tanh"], "model.activation"),  # scored another model
    ("mog", ["--set", "train.steps=99"], "train.steps"),  # changed only the config_hash
    ("mog", ["--set", "task=digitsum"], "task"),
    ("mog", ["--set", "seed=3"], "seed"),
    ("mog", ["--set", "count=3"], "count"),
    ("mog", ["--set", "mog.components=3"], "mog.components"),
    ("mog", ["--set", "train.mode=unsupervised"], "train.mode"),
    ("mog", ["--set", "optim.lr=0.1"], "optim.lr"),
    ("mog", ["--set", "sinkhorn.epsilon=0.2"], "sinkhorn.epsilon"),
    ("mog", ["--set", "digitsum.test_sizes=4"], "digitsum.test_sizes"),
    ("mog", ["--config", "train.steps = 99\n"], "train.steps"),
    ("fewshot", ["--set", "fewshot.dim=5"], "fewshot.dim"),
    ("fewshot", ["--set", "fewshot.bank=3"], "fewshot.bank"),
    ("fewshot", ["--set", "fewshot.episodes=3"], "fewshot.episodes"),
    ("metagan", ["--set", "metagan.k=3"], "metagan.k"),
    ("metagan", ["--set", "metagan.iterations=2"], "metagan.iterations"),
    ("metagan", ["--set", "metagan.family=multi1d"], "metagan.family"),
    ("mog", ["--set", "mog.mean_low=-3", "--set", "mog.encode_cap=10", "--set", "eval.seed=4"],
     None),
    ("mog", ["--config", "eval.count = 2\nmog.n_min = 35\n"], None),
    ("pointset", ["--set", "pointset.n_points=12", "--set", "pointset.rotate=false"], None),
    ("fewshot", ["--set", "fewshot.n_way=3", "--set", "fewshot.class_seed=2",
                 "--set", "fewshot.sigma=2"], None),
]


@pytest.mark.parametrize("task,given,key", EVAL_INPUTS,
                         ids=[f"{t}-{k or 'taken'}-{i}" for i, (t, _, k) in enumerate(EVAL_INPUTS)])
def test_eval_refuses_a_key_the_checkpoint_fixes_or_eval_never_reads(task, given, key, tmp_path,
                                                                     capsys):
    _, ck_path = train_task(task, tmp_path / "run")
    if given[0] == "--config":
        (tmp_path / "eval.cfg").write_text(given[1])
        given = ["--config", str(tmp_path / "eval.cfg")]
    out = tmp_path / "ev"
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(ck_path), "--out", str(out), "--count", "2"] + given)
    if key is None:
        assert code == 0
        return
    assert code == cli.EXIT_CONFIG
    assert f"error: eval of {task} cannot change {key}, " in capsys.readouterr().err
    assert not out.exists()


# (task, train.mode of its checkpoint, whether eval reads a corpus, eval flags,
# the key refused or None)
EVAL_PATHS = [
    ("mog", "supervised", True, ["--count", "7"], "eval.count"),  # rewrote only the config_hash
    ("mog", "supervised", True, ["--set", "mog.sigma=2.0"], "mog.sigma"),  # likewise
    ("mog", "supervised", True, ["--set", "mog.n_min=35"], "mog.n_min"),
    ("mog", "supervised", True, ["--set", "mog.encode_cap=5", "--set", "eval.seed=4"], None),
    ("mog", "unsupervised", False, ["--set", "mog.encode_cap=5"], "mog.encode_cap"),  # likewise
    ("mog", "unsupervised", False, ["--set", "mog.sigma=2.0", "--count", "2"], None),
    ("mog", "unsupervised", True, ["--count", "2"], "eval.count"),
    ("mog", "unsupervised", True, ["--set", "eval.seed=4"], None),
    ("digitsum", "supervised", True, ["--set", "digitsum.test_sizes=4"], "digitsum.test_sizes"),
    ("pointset", "supervised", True, ["--set", "pointset.rotate=false"], "pointset.rotate"),
    # a supervised digitsum or pointset score of a corpus draws nothing
    ("digitsum", "supervised", True, ["--set", "eval.seed=4"], "eval.seed"),
    ("pointset", "supervised", True, ["--seed", "4"], "eval.seed"),
]
GEN_SMALL = {"mog": ["--count", "2"], "digitsum": ["--count", "2"],
             "pointset": ["--set", "pointset.count_per_class=1"]}


@pytest.mark.parametrize("task,mode,corpus,given,key", EVAL_PATHS,
                         ids=[f"{t}-{m}-{'corpus' if c else 'drawn'}-{k or 'taken'}-{i}"
                              for i, (t, m, c, _, k) in enumerate(EVAL_PATHS)])
def test_eval_refuses_a_key_its_path_does_not_read(task, mode, corpus, given, key, tmp_path,
                                                   capsys):
    # a corpus replaces the drawn data and its count, and only the supervised
    # score reads mog.encode_cap
    flags, ck_name, _ = TASK_RUNS[task]
    argv = ["train", "--task", task, "--out", str(tmp_path / "run"), "--set", f"train.mode={mode}"]
    assert run(argv + flags) == 0
    if corpus:
        data = tmp_path / "data"
        assert run(["gen", "--task", task, "--out", str(data)] + GEN_SMALL[task]) == 0
        given = ["--corpus", str(data / "corpus.jsonl")] + given
    out = tmp_path / "ev"
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(tmp_path / "run" / ck_name), "--out", str(out)] + given)
    if key is None:
        assert code == 0
        return
    assert code == cli.EXIT_CONFIG
    assert f"error: eval of {task} cannot change {key}, " in capsys.readouterr().err
    assert not out.exists()


def test_fewshot_cli_round_trip(tmp_path):
    _, ck_path = train_task("fewshot", tmp_path / "run")
    metrics = eval_task("fewshot", ck_path, tmp_path / "ev")
    assert metrics["n_episodes"] == 5
    assert 0.0 <= metrics["mean_accuracy"] <= 1.0


def test_metagan_cli_round_trip(tmp_path):
    trace_path, ck_path = train_task("metagan", tmp_path / "run")
    body = [l for l in trace_path.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "step,critic_loss,generator_loss,transport_loss"
    ck = load_checkpoint(ck_path)
    assert set(json.loads(ck_path.read_text())) == CHECKPOINT_KEYS
    assert any(n.startswith("summary.") for n in ck.params)
    metrics = eval_task("metagan", ck_path, tmp_path / "ev")
    assert metrics["n_tasks"] == 2


def test_write_metrics_refuses_a_non_finite_value(tmp_path):
    path = tmp_path / "ev" / "metrics.json"
    with pytest.raises(NumericalError):
        cli._write_metrics(path, {"metrics": {"score": float("nan")}})
    assert not path.parent.exists()


def test_eval_non_finite_metric_exits_6_without_metrics(tmp_path, capsys, monkeypatch):
    _, ck_path = train_task("mog", tmp_path / "run")
    # on the class: undone, the attribute is deleted, so no instance shadows a later patch
    monkeypatch.setattr(cli.MogTask, "evaluate", lambda *a: {"score": float("inf")})
    out = tmp_path / "ev"
    assert run(["eval", "--checkpoint", str(ck_path), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_metagan_eval_of_non_finite_samples_exits_6(tmp_path, capsys, monkeypatch):
    # the energy distance refuses them; before, a NaN score reached metrics.json
    _, ck_path = train_task("metagan", tmp_path / "run")
    real_forward = metagan_module.generator_forward
    monkeypatch.setattr(
        metagan_module, "generator_forward", lambda *a: real_forward(*a) * float("nan")
    )
    out = tmp_path / "ev"
    argv = ["eval", "--checkpoint", str(ck_path), "--out", str(out), "--count", "2"]
    assert run(argv) == cli.EXIT_NUMERIC
    assert "energy distance of a sample with a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_metagan_library_default_transport_step_is_the_cli_default():
    # train_metagan called from Python runs the transport step that
    # protoset train --task metagan runs at the default config
    model, _, _ = cli.TASK_TABLE["metagan"].build(config.default_config(), None)
    library = GanConfig().ot
    assert library.sinkhorn == model.config.ot.sinkhorn
    assert library.metric == model.config.ot.metric


# -- gradcheck -----------------------------------------------------------------------


def test_gradcheck_mog_reports_small_error(capsys):
    for seed in ("0", "1", "2"):
        code = run(["gradcheck", "--task", "mog", "--seed", seed])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_err"] < 1e-4


@pytest.mark.parametrize("task", [t for t in cli.TASK_TABLE if t != "mog"])
def test_gradcheck_other_tasks_pass(task, capsys):
    for seed in ("0", "1", "2"):
        assert run(["gradcheck", "--task", task, "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["max_rel_err"] < 1e-4


# one path per loss that a training loop differentiates
GRADCHECK_PATHS = {
    "mog": {"mog-combined"},
    "digitsum": {"digitsum-combined"},
    "pointset": {"pointset-combined"},
    "fewshot": {"fewshot-episode"},
    "metagan": {"metagan-critic", "metagan-generator", "metagan-transport"},
}


@pytest.mark.parametrize("task", list(cli.TASK_TABLE))
def test_gradcheck_path_names(task, capsys):
    assert run(["gradcheck", "--task", task]) == 0
    assert set(json.loads(capsys.readouterr().out)["paths"]) == GRADCHECK_PATHS[task]


def test_gradcheck_negative_seed_exits_2_as_train_does(tmp_path, capsys):
    assert run(["gradcheck", "--seed", "-1"]) == cli.EXIT_CONFIG
    gradcheck_err = capsys.readouterr().err
    assert run(["train", "--seed", "-1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert gradcheck_err == capsys.readouterr().err
    assert "seed must be nonnegative" in gradcheck_err


def test_gradcheck_nan_gradient_exits_6(monkeypatch, capsys):
    x = Value(np.ones(2), requires_grad=True)
    paths = [("nan", lambda: (x * np.nan).sum(), [x])]
    monkeypatch.setattr(cli.TASK_TABLE["mog"], "gradcheck", lambda seed: paths)
    assert run(["gradcheck", "--task", "mog"]) == cli.EXIT_NUMERIC
    assert np.isnan(json.loads(capsys.readouterr().out)["max_rel_err"])


# -- argument handling ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "gradcheck" in capsys.readouterr().out


def test_encoder_tasks_are_the_encoder_entries_of_the_task_table():
    assert config.ENCODER_TASKS == tuple(name for name, task in cli.TASK_TABLE.items()
                                         if isinstance(task, cli.EncoderTask))


def test_help_names_the_readers_of_every_shared_key_that_some_task_refuses(capsys):
    assert run(["--help"]) == 0
    lines = {line.split(" = ")[0].strip(): line
             for line in capsys.readouterr().out.splitlines() if " = " in line}
    for key in config.SCHEMA:
        if key.partition(".")[0] in cli.TASK_TABLE:
            continue  # a key of a task's section, which that task alone reads
        readers = [task for task in cli.TASK_TABLE if not _refused(task, key, "train")]
        marked = f"read by {', '.join(readers)} only" in lines[key]
        assert marked == (readers != list(cli.TASK_TABLE)), lines[key]
        assert marked or "read by" not in lines[key]


def test_unknown_verb_exits_2(capsys):
    assert run(["explode"]) == cli.EXIT_CONFIG


# a valid value, none of them the default, for every key that a flag sets
FLAG_VALUES = {"task": "digitsum", "count": "7", "seed": "3", "mog.components": "3",
               "train.steps": "7", "train.lambda_ot": "0.5", "eval.seed": "3", "eval.count": "7",
               "sinkhorn.epsilon": "0.2", "sinkhorn.tol": "1e-05", "sinkhorn.max_iters": "77"}
# what each verb requires beside its key flags
REQUIRED = {"eval": ["--checkpoint", "ck"], "ot": ["--cost", "cost.csv"]}
KEY_FLAG_CASES = [(verb, flag, key) for verb, flags in cli.KEY_FLAGS.items()
                  for flag, key in flags.items()]


@pytest.mark.parametrize("verb,flag,key", KEY_FLAG_CASES,
                         ids=[f"{verb}{flag}" for verb, flag, _ in KEY_FLAG_CASES])
def test_a_key_flag_resolves_as_set_does(verb, flag, key):
    value = FLAG_VALUES[key]

    def resolved(argv):
        args = cli.build_parser().parse_args([verb] + REQUIRED.get(verb, []) + argv)
        return config.resolve_config(overrides=cli._override_strings(args)).as_dict()

    by_flag = resolved([flag, value])
    assert by_flag == config.resolve_config(overrides={key: value}).as_dict()
    assert by_flag != config.default_config().as_dict()
    if verb in ("gen", "train", "eval"):  # the verbs that take --set
        assert resolved(["--set", f"{key}={value}"]) == by_flag


@pytest.mark.parametrize("verb,given,key", [("train", ["--steps", "x"], "train.steps"),
                                            ("ot", ["--eps", "x"], "sinkhorn.epsilon"),
                                            ("gen", ["--count", "1.5"], "count")])
def test_a_malformed_flag_value_exits_2_naming_the_key(verb, given, key, tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    cost.write_text("0,1\n1,0\n")
    out = tmp_path / "out"
    extra = ["--cost", str(cost)] if verb == "ot" else []
    assert run([verb, "--out", str(out)] + extra + given) == cli.EXIT_CONFIG
    assert f"error: {key} expects " in capsys.readouterr().err
    assert not out.exists()


def test_malformed_set_pair_exits_2(tmp_path, capsys):
    code = run(["gen", "--task", "mog", "--out", str(tmp_path), "--set", "epsilon"])
    assert code == cli.EXIT_CONFIG
    assert "key=value" in capsys.readouterr().err


# -- every key a run accepts is a key it reads: reads recorded, not declared ---------

ENCODER_TASKS = config.ENCODER_TASKS
SHARED_SECTIONS = ("train", "optim", "sinkhorn", "model")
SHARED_KEYS = [key for key in config.SCHEMA
               if key == "count" or key.partition(".")[0] in SHARED_SECTIONS]
# (task, train.mode or None where the task reads no mode, whether a corpus is given)
RUN_PATHS = ([(task, mode, corpus) for task in ENCODER_TASKS
              for mode in ("supervised", "unsupervised") for corpus in (False, True)]
             + [("fewshot", None, False), ("metagan", None, False)])
TRAIN_PATHS = RUN_PATHS + [("metagan", None, True)]  # metagan's eval refuses a corpus
GEN_TASKS = ("mog", "digitsum", "pointset", "metagan")  # fewshot writes no corpus
GEN_SMALL_ALL = {**GEN_SMALL, "metagan": ["--count", "2"]}


def _path_id(path) -> str:
    task, mode, corpus = path
    return "-".join([task] + ([mode] if mode else []) + ["corpus" if corpus else "drawn"])


@pytest.fixture(scope="module")
def key_reads(tmp_path_factory):
    """{(verb, task, mode, corpus): the keys that run read} at tiny shapes.

    A key is read when ``ResolvedConfig.__getitem__`` returns it or
    ``ResolvedConfig.build`` fills a field from it.  Resolving a config, which
    builds every owner to check it, reads nothing, and neither does eval's
    bookkeeping: its reads are those of the task's ``build`` and ``evaluate``.
    """
    tmp = tmp_path_factory.mktemp("reads")
    reads, recording = {}, [False]
    seen: set = set()

    def recorded(method):
        def wrapper(self, *args, **kwargs):
            if recording[0]:
                if method is getitem:
                    seen.add(args[0])
                else:
                    seen.update(key for key, f in config.SCHEMA.items()
                                if f.owner is args[0] and f.attr not in kwargs)
            return method(self, *args, **kwargs)
        return wrapper

    def switched(method, on: bool):
        def wrapper(*args, **kwargs):
            was, recording[0] = recording[0], on
            try:
                return method(*args, **kwargs)
            finally:
                recording[0] = was
        return wrapper

    def read_by(key, argv, whole_call: bool):
        seen.clear()
        recording[0] = whole_call
        try:
            assert cli.main(argv) == 0, argv
        finally:
            recording[0] = False
        reads[key] = set(seen)

    getitem, build = config.ResolvedConfig.__getitem__, config.ResolvedConfig.build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config.ResolvedConfig, "__getitem__", recorded(getitem))
        mp.setattr(config.ResolvedConfig, "build", recorded(build))
        mp.setattr(config, "_checked", switched(config._checked, False))
        for entry in cli.TASK_TABLE.values():
            for name in ("build", "evaluate"):
                mp.setattr(entry, name, switched(getattr(entry, name), True))
        for task in GEN_TASKS:
            out = tmp / "gen" / task
            read_by(("gen", task, None, False),
                    ["gen", "--task", task, "--out", str(out)] + GEN_SMALL_ALL[task], True)
        for task, mode, corpus in TRAIN_PATHS:
            flags, ck_name, eval_flags = TASK_RUNS[task]
            out = tmp / "train" / _path_id((task, mode, corpus))
            given = ["--set", f"train.mode={mode}"] if mode else []
            data = ["--corpus", str(tmp / "gen" / task / "corpus.jsonl")] if corpus else []
            read_by(("train", task, mode, corpus),
                    ["train", "--task", task, "--out", str(out)] + flags + given + data, True)
            if (task, mode, corpus) not in RUN_PATHS:
                continue
            # with a corpus, eval takes neither eval.count nor the data keys
            read_by(("eval", task, mode, corpus),
                    ["eval", "--checkpoint", str(out / ck_name), "--out", str(out / "ev")]
                    + (data if corpus else eval_flags), False)
    return reads


def _refused(task: str, key: str, verb: str) -> bool:
    try:
        cli.TASK_TABLE[task].refuse_unread({key}, verb)
    except cli.ConfigError:
        return True
    return False


def test_no_run_reads_a_key_its_task_refuses(key_reads):
    refused_reads = {(verb, task, key) for (verb, task, _, _), keys in key_reads.items()
                     for key in keys if _refused(task, key, verb)}
    assert refused_reads == set()


@pytest.mark.parametrize("path", RUN_PATHS, ids=[_path_id(p) for p in RUN_PATHS])
def test_eval_reads_every_key_it_takes(key_reads, path):
    task, mode, corpus = path
    cfg = config.resolve_config(overrides={"train.mode": mode or "supervised"})
    takes = set(cli.TASK_TABLE[task].eval_takes(cfg, "corpus.jsonl" if corpus else None))
    assert takes - key_reads[("eval", *path)] == set()


@pytest.mark.parametrize("path", TRAIN_PATHS, ids=[_path_id(p) for p in TRAIN_PATHS])
def test_train_reads_or_refuses_every_shared_key(key_reads, path):
    # one config file serves gen and then train --corpus, so on a corpus path
    # a key that the task's gen reads, such as count, is taken too
    task, _, corpus = path
    read = key_reads[("train", *path)] | (key_reads[("gen", task, None, False)] if corpus else set())
    unread = {key for key in SHARED_KEYS if key not in read and not _refused(task, key, "train")}
    assert unread == set()


@pytest.mark.parametrize("task", GEN_TASKS)
def test_gen_reads_or_refuses_every_shared_key_the_task_reads(key_reads, task):
    # gen records the whole config in the corpus, so a key that the task's
    # training reads is taken too; any other must be refused
    trained = set().union(*(keys for (verb, t, _, _), keys in key_reads.items()
                            if verb == "train" and t == task))
    unread = {key for key in SHARED_KEYS
              if key not in key_reads[("gen", task, None, False)] | trained
              and not _refused(task, key, "gen")}
    assert unread == set()
