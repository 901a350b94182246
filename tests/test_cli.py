"""End-to-end harness tests: verbs, artifacts, exit codes, reproducibility."""

import hashlib
import importlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from protoset import cli, config
from protoset.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from protoset.diffcore import Value
from protoset.metagan import GanConfig
from protoset.tasks import load_corpus

# the package attribute protoset.ot.sinkhorn is the function, not the module
sinkhorn_module = importlib.import_module("protoset.ot.sinkhorn")
mog_module = importlib.import_module("protoset.tasks.mog")

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


MALFORMED = {
    "bad-json": ("corpus.jsonl", '{"points": [[1.0, 2.0]]}\n{"points": [[1.0, \n', ":2:"),
    "no-points": ("corpus.jsonl", '{"set_id": 0, "label": 1}\n', ":1:"),
    "ragged-points": ("corpus.jsonl", '{"points": [[1.0, 2.0], [3.0]]}\n', ":1:"),
    "non-numeric-cost": ("c.csv", "# costs\n0,1\n1,zero\n", ":3:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_file_and_line(case, tmp_path, capsys):
    name, text, where = MALFORMED[case]
    path = tmp_path / name
    path.write_text(text)
    if name == "c.csv":
        argv = ["ot", "--cost", str(path)]
    else:
        argv = ["train", "--task", "mog", "--corpus", str(path), "--steps", "1",
                "--out", str(tmp_path / "run")] + MOG_ARGS
    assert run(argv) == cli.EXIT_CONFIG
    assert f"{path}{where}" in capsys.readouterr().err


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
    "eval": ("eval_mog_loglik", ["eval", "--count", "2"]),
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
    meta, sets, truths = load_corpus(out / "corpus.jsonl")
    assert meta["seed"] == 7
    assert meta["config"]["mog.components"] == 3
    assert len(sets) == 4
    assert truths[0]["means"] is not None  # ground truth rides along


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


def test_gen_metagan_corpus_carries_truths(tmp_path):
    out = tmp_path / "g"
    assert run(["gen", "--task", "metagan", "--count", "3", "--seed", "2",
                "--out", str(out), "--set", "metagan.n_points=10"]) == 0
    _, sets, truths = load_corpus(out / "corpus.jsonl")
    assert len(sets) == 3 and sets[0].points.shape == (10, 1)
    assert truths[0]["family"] == "gauss1d"


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


def test_train_divergence_exits_6(tmp_path):
    with np.errstate(all="ignore"):
        code = run(["train", "--task", "mog", "--steps", "4", "--out", str(tmp_path / "d"),
                    "--set", "optim.lr=1e150"] + MOG_ARGS)
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


def test_eval_missing_checkpoint_exits_3(tmp_path):
    assert run(["eval", "--checkpoint", str(tmp_path / "none.ck")]) == cli.EXIT_MISSING_FILE


def test_eval_corrupt_checkpoint_exits_4(tmp_path):
    bad = tmp_path / "bad.ck"
    bad.write_text("{broken")
    assert run(["eval", "--checkpoint", str(bad)]) == cli.EXIT_BAD_CHECKPOINT


def test_eval_tampered_config_exits_4(tmp_path):
    _, ck_path = train_task("mog", tmp_path / "run")
    payload = json.loads(ck_path.read_text())
    payload["config"]["seed"] = 999  # hash no longer matches
    ck_path.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", str(ck_path)]) == cli.EXIT_BAD_CHECKPOINT


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
    assert "format 1" in err and "reads 2" in err


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
        argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev")] + corpus
    capsys.readouterr()
    assert run(argv) == cli.EXIT_CONFIG
    assert "corpus must be empty" in capsys.readouterr().err


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


def test_eval_with_no_digitsum_test_sizes_exits_2(tmp_path, capsys):
    _, ck_path = train_task("digitsum", tmp_path / "run")
    argv = ["eval", "--checkpoint", str(ck_path), "--out", str(tmp_path / "ev")]
    capsys.readouterr()
    assert run(argv + ["--set", "digitsum.test_sizes="]) == cli.EXIT_CONFIG
    assert "digitsum.test_sizes" in capsys.readouterr().err


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


def test_unknown_verb_exits_2(capsys):
    assert run(["explode"]) == cli.EXIT_CONFIG


def test_malformed_set_pair_exits_2(tmp_path, capsys):
    code = run(["gen", "--task", "mog", "--out", str(tmp_path), "--set", "epsilon"])
    assert code == cli.EXIT_CONFIG
    assert "key=value" in capsys.readouterr().err
