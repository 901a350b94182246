"""Golden capture: hash every artifact of a fixed gen/train/eval/gradcheck matrix.

Runs ``protoset.cli.main`` in-process at the tiny shapes of
``tests/test_cli.py`` with relative paths under ``--dir`` and prints one
``sha256  name`` line per artifact, per captured stdout and per exit code;
it exits 1 if any verb exited nonzero.  ``protoset --help`` is captured too,
so the rendered config schema (every key, default and help) is compared,
and so is ``protoset ot`` on a small cost CSV written under ``--dir``: solved
to convergence, stopped at ``--max-iters 3`` in the solver's plain warm-up,
and stopped at ``--max-iters 30`` while it over-relaxes.  Two fewshot evals
run past two blocks of episodes, so that block boundaries are compared, one
of them at sigma 3, where accuracies vary enough that a mis-scored episode
moves the metrics.  Two mog evals score 11 drawn sets of 400 to 500 points,
several likelihood blocks, with the oracle; one of them from ``train/mog-cap``,
so the eval's subsample draws run across blocks too.  One mog run trains on
subsamples of 600 points, whose task loss sums an array large enough for
diffcore to reduce its short axis as a chain of whole-array adds.
One train run reads its keys from a ``--config`` file,
the flags of ``train/mog``, and must write the same artifacts; the capture
exits 1 if not.
Two runs of the same program in different directories must print the same
lines (the README's byte-identical-rerun contract); a refactor that claims
to keep behaviour can diff its output against the parent commit's.

    PYTHONPATH=src python tools/golden.py --dir /tmp/golden-a > a.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # BLAS reductions then sum in one order
os.environ["COLUMNS"] = "80"  # argparse wraps --help to this width, not the terminal's

from protoset.cli import main as protoset_main  # noqa: E402 (after the BLAS pin)

MOG = ["--set", "count=4", "--set", "mog.n_min=30", "--set", "mog.n_max=40",
       "--set", "model.encoder_widths=16,8", "--set", "model.k=5",
       "--set", "model.head_hidden=8", "--set", "train.batch_points=20",
       "--set", "sinkhorn.unroll_iters=8"]
DIGIT = ["--set", "count=6", "--set", "model.encoder_widths=16,8", "--set", "model.k=5",
         "--set", "model.head_hidden=8", "--set", "train.batch_points=8",
         "--set", "sinkhorn.unroll_iters=8"]
POINTSET = ["--set", "pointset.count_per_class=1", "--set", "model.encoder_widths=16,8",
            "--set", "model.k=5", "--set", "model.head_hidden=8",
            "--set", "train.batch_points=16", "--set", "sinkhorn.unroll_iters=8"]
FEWSHOT = ["--lambda-ot", "0.3", "--set", "fewshot.episodes=10",
           "--set", "fewshot.encoder_widths=12,6", "--set", "fewshot.bank=4",
           "--set", "fewshot.n_base=10", "--set", "fewshot.n_novel=6",
           "--set", "sinkhorn.unroll_iters=6"]
METAGAN = ["--set", "count=5", "--set", "metagan.iterations=6", "--set", "metagan.batch=10",
           "--set", "metagan.n_points=12", "--set", "metagan.summary_widths=10,8",
           "--set", "metagan.generator_widths=12,10", "--set", "metagan.critic_widths=12,10",
           "--set", "sinkhorn.unroll_iters=6"]

GENS = {
    "mog": ["--task", "mog", "--count", "4", "--seed", "1",
            "--set", "mog.n_min=30", "--set", "mog.n_max=40"],
    "digitsum": ["--task", "digitsum", "--count", "6", "--seed", "1"],
    "digitsum-size12": ["--task", "digitsum", "--count", "3", "--set", "digitsum.size=12"],
    "pointset": ["--task", "pointset", "--seed", "1", "--set", "pointset.count_per_class=1"],
    "metagan": ["--task", "metagan", "--count", "5", "--seed", "2", "--set", "metagan.n_points=12"],
    "metagan-multi1d": ["--task", "metagan", "--count", "5", "--seed", "2",
                        "--set", "metagan.n_points=12", "--set", "metagan.family=multi1d"],
    "metagan-gauss2d": ["--task", "metagan", "--count", "5", "--seed", "2",
                        "--set", "metagan.n_points=12", "--set", "metagan.family=gauss2d"],
}
EVAL = {"mog": ["--count", "3", "--seed", "11"],
        "digitsum": ["--count", "2", "--set", "digitsum.test_sizes=4,8"],
        "pointset": ["--count", "1"], "fewshot": ["--count", "5"], "metagan": ["--count", "2"]}
BASE = {"mog": ["--seed", "3"] + MOG, "digitsum": ["--steps", "4"] + DIGIT,
        "pointset": ["--steps", "4"] + POINTSET, "fewshot": ["--seed", "1"] + FEWSHOT,
        "metagan": ["--seed", "1"] + METAGAN}
UNSUP = ["--set", "train.mode=unsupervised"]
ENVELOPE = ["--set", "sinkhorn.grad_mode=envelope"]
# run name -> (task, train flags beyond the task's base)
TRAINS = {
    "mog": ("mog", ["--steps", "5"]),
    "mog-steps20": ("mog", ["--steps", "20"]),
    "mog-sgd": ("mog", ["--steps", "5", "--set", "optim.kind=sgd"]),
    "mog-lrfinal": ("mog", ["--steps", "5", "--set", "optim.lr_final=0.0001"]),
    "mog-envelope": ("mog", ["--steps", "5"] + ENVELOPE),
    "mog-envelope-unsup": ("mog", ["--steps", "5"] + ENVELOPE + UNSUP),
    "mog-unsup": ("mog", ["--steps", "5"] + UNSUP),
    "mog-bs2": ("mog", ["--steps", "5", "--set", "train.batch_sets=2"]),
    "mog-bs3": ("mog", ["--steps", "5", "--set", "train.batch_sets=3"]),
    "mog-bs2-unsup": ("mog", ["--steps", "5", "--set", "train.batch_sets=2"] + UNSUP),
    "mog-bs3-unsup": ("mog", ["--steps", "5", "--set", "train.batch_sets=3"] + UNSUP),
    "mog-eps0.01": ("mog", ["--steps", "5", "--set", "sinkhorn.epsilon=0.01"]),
    "mog-lam0": ("mog", ["--steps", "5", "--lambda-ot", "0"]),
    "mog-lam0.5-euclid": ("mog", ["--steps", "5", "--lambda-ot", "0.5",
                                  "--set", "train.metric=euclidean"]),
    "mog-maxpool": ("mog", ["--steps", "5", "--set", "model.pooling=max"]),
    "mog-sumpool": ("mog", ["--steps", "5", "--set", "model.pooling=sum"]),
    "mog-cap": ("mog", ["--steps", "5", "--set", "mog.encode_cap=10"]),
    "mog-tanh": ("mog", ["--steps", "5", "--set", "model.activation=tanh"]),
    "mog-sqeuclid": ("mog", ["--steps", "5", "--set", "train.metric=sqeuclidean"]),
    "mog-corpus": ("mog", ["--steps", "3", "--corpus", "gen/mog/corpus.jsonl"]),
    # 600 points x 4 components x 2 coordinates: the task loss's sums over the
    # coordinates reach diffcore's chained reduction of a short axis
    "mog-batch600": ("mog", ["--steps", "3", "--set", "mog.n_min=600", "--set", "mog.n_max=640",
                             "--set", "train.batch_points=600"]),
    "digitsum": ("digitsum", []),
    "digitsum-unsup": ("digitsum", UNSUP),
    "pointset": ("pointset", []),
    "pointset-unsup": ("pointset", UNSUP),
    "fewshot": ("fewshot", []),
    "fewshot-nolam": ("fewshot", ["--lambda-ot", "0"]),
    "fewshot-lrfinal": ("fewshot", ["--set", "optim.lr_final=0.0001"]),
    "fewshot-envelope": ("fewshot", ENVELOPE),
    "metagan": ("metagan", []),
    "metagan-cond": ("metagan", ["--set", "metagan.conditioning=conditional-critic"]),
    "metagan-noot": ("metagan", ["--set", "metagan.use_ot=false"]),
    "metagan-nonsat": ("metagan", ["--set", "metagan.non_saturating=true"]),
    "metagan-corpus": ("metagan", ["--corpus", "gen/metagan/corpus.jsonl"]),
    "metagan-multi1d": ("metagan", ["--set", "metagan.family=multi1d"]),
    "metagan-gauss2d-cond": ("metagan", ["--set", "metagan.family=gauss2d",
                                         "--set", "metagan.conditioning=conditional-critic"]),
}
# a 6x4 cost for the ot runs, written to ot/cost.csv
OT_COST = ("0.0,1.3,0.7,1.9\n1.1,0.2,1.6,0.8\n0.5,1.7,0.1,1.2\n"
           "1.8,0.9,1.4,0.3\n0.6,0.4,1.0,1.5\n1.3,1.1,0.2,0.9\n")
# ot run name -> flags beyond the cost file; the "stopped" runs run out of
# iterations, "relaxed-stopped" 10 past the solver's 20 plain ones
OT_RUNS = {"converged": ["--eps", "0.05", "--b", "0.1,0.2,0.3,0.4"],
           "stopped": ["--eps", "0.05", "--b", "0.1,0.2,0.3,0.4", "--max-iters", "3"],
           "relaxed-stopped": ["--eps", "0.05", "--b", "0.1,0.2,0.3,0.4", "--max-iters", "30"]}
# eval run name -> (train run whose checkpoint it reads, eval flags)
CORPUS_EVALS = {
    "mog-on-corpus": ("mog", ["--corpus", "gen/mog/corpus.jsonl"]),
    "digitsum-on-corpus": ("digitsum", ["--corpus", "gen/digitsum-size12/corpus.jsonl"]),
    "pointset-on-corpus": ("pointset", ["--corpus", "gen/pointset/corpus.jsonl"]),
}
# fewshot eval scores episodes in blocks of fewshot.EVAL_BLOCK = 4; 11 episodes
# are two full blocks and a partial one; at fewshot.sigma=3 the mean accuracy is
# about 0.67, so a mis-scored episode shows (literals, so older src runs them too)
BLOCK_EVALS = {"fewshot-count11": ("fewshot", ["--count", "11"]),
               "fewshot-sigma3-count11": ("fewshot", ["--count", "11", "--set", "fewshot.sigma=3"]),
               "mog-count11": ("mog", ["--count", "11", "--seed", "11", "--set", "mog.n_min=400",
                                       "--set", "mog.n_max=500"]),
               "mog-cap-count11": ("mog-cap", ["--count", "11", "--seed", "11",
                                               "--set", "mog.n_min=400", "--set", "mog.n_max=500"])}
# train/mog's flags (BASE["mog"] and --steps 5) as the lines of config/mog.cfg
MOG_CONFIG = "task = mog\nseed = 3\ntrain.steps = 5\n" + "".join(
    pair.replace("=", " = ", 1) + "\n" for pair in MOG[1::2])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, argv: list, out: str | None = None) -> int:
    """Run one verb, print the hashes of its exit code, stdout and files, return the code."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = protoset_main(argv + (["--out", out] if out else []))
    print(f"{_sha(str(code).encode())}  {name}/exit")
    print(f"{_sha(stdout.getvalue().encode())}  {name}/stdout")
    for path in sorted(Path(out).rglob("*")) if out else ():
        if path.is_file():
            print(f"{_sha(path.read_bytes())}  {path.as_posix()}")
    if code != 0:
        print(f"{name} exited {code}", file=sys.stderr)
    return code


def artifacts(out: str) -> dict:
    """{name under ``out``: sha256} of the files a run wrote."""
    return {p.relative_to(out).as_posix(): _sha(p.read_bytes())
            for p in sorted(Path(out).rglob("*")) if p.is_file()}


def checkpoint(run_name: str) -> str:
    found = sorted(Path("train", run_name).glob("checkpoint.*"))
    return found[0].as_posix() if len(found) == 1 else f"train/{run_name}/missing-checkpoint"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, help="empty or new working directory")
    args = parser.parse_args(argv)
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        parser.error(f"{work} is not empty")
    os.chdir(work)
    codes = [run("help", ["--help"])]
    codes += [run(f"gen/{name}", ["gen"] + flags, f"gen/{name}") for name, flags in GENS.items()]
    for name, (task, flags) in TRAINS.items():
        argv = ["train", "--task", task] + BASE[task] + flags
        codes.append(run(f"train/{name}", argv, f"train/{name}"))
    evals = {name: (name, EVAL[task]) for name, (task, _) in TRAINS.items()}
    evals |= CORPUS_EVALS | BLOCK_EVALS
    for name, (source, flags) in evals.items():
        argv = ["eval", "--checkpoint", checkpoint(source)] + flags
        codes.append(run(f"eval/{name}", argv, f"eval/{name}"))
    codes.append(run("gradcheck/all", ["gradcheck"]))
    for task in EVAL:
        codes.append(run(f"gradcheck/{task}", ["gradcheck", "--task", task, "--seed", "1"]))
    cost = Path("ot", "cost.csv")
    cost.parent.mkdir()
    cost.write_text(OT_COST)
    for name, flags in OT_RUNS.items():
        codes.append(run(f"ot/{name}", ["ot", "--cost", cost.as_posix()] + flags, f"ot/{name}"))
    config = Path("config", "mog.cfg")
    config.parent.mkdir()
    config.write_text(MOG_CONFIG)
    codes.append(run("train/mog-config", ["train", "--config", config.as_posix()],
                     "train/mog-config"))
    if artifacts("train/mog-config") != artifacts("train/mog"):
        print("train/mog-config wrote other artifacts than train/mog", file=sys.stderr)
        codes.append(1)
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
