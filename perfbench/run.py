"""protoset benchmark: train and eval throughput per workload, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mog-unrolled --seed 0 --seconds 10 --trace 0

The workload's inputs come from ``--seed`` alone.  Most workloads run one
input draw; a workload whose cost or quality depends strongly on its draw runs
several, each with its own corpus and training seed derived from ``--seed``.
Each run sets up (imports, then rounds of ``gen`` and warm-up ``train``/``eval``
calls over the draws; ``setup_s`` is the import time plus the median round),
then for ``--seconds`` seconds alternates the timed ``train`` and ``eval``
calls, cycling through the draws, all through ``protoset.cli.main``.  Every call is checked: exit code 0, finite
trace losses, artifacts byte-identical to the first write of the same path,
and an eval score inside the band recorded in ``perfbench/reference.json``.

Timings are scaled to a fixed machine speed.  A fixed calibration loop
(``calibrate``) of the kind of work the verb does runs before and after every
timed call; each call's wall time is multiplied by the loop's time in
``calibration_s`` of ``reference.json`` over the mean of the two loops around
the call.  On a shared virtual machine the same call drifts by half its length
within minutes, and the loop drifts with it, so the scaled figures are steady
where raw wall times are not.  The loop is not part of the program, so a
faster program still reads proportionally faster.  The raw rates are printed
too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
from a run with timing wrappers installed (see tracer.py), whose ``trace.csv``
must match an untraced call byte for byte.  Spans are written under
``.perfbench_runs/``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads: one BLAS thread is steadier than the default on 2 cores
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

SETUP_ROUNDS = 3  # set-up is repeated and its median round reported
MIN_REPS = 3  # timed rounds, even when --seconds runs out first
EVAL_SEED_OFFSET = 7919  # eval data never shares a seed with training data
DRAW_SEED_STRIDE = 100_003  # draw d of seed s uses seed s + d * stride


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program, or a malformed spec file."""


def load_program():
    """Import protoset from this checkout's src/, never from an installed copy."""
    if not (SRC / "protoset" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'protoset'} is missing")
    sys.path.insert(0, str(SRC))
    import protoset.cli

    if Path(protoset.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported protoset from {protoset.cli.__file__}, not {SRC}")
    return protoset.cli.main


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def trace_losses_finite(text: str) -> bool:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    for row in rows[1:]:  # rows[0] is the column header
        for cell in row.split(",")[1:]:
            if cell and not math.isfinite(float(cell)):
                return False
    return True


def calibrate(kind: str) -> float:
    """Seconds a fixed piece of work of the given kind takes right now.

    ``small`` is the kind of work most of the program does: a matmul and a
    rectifier of a 100-point batch through a 128-wide layer, a softmax over a
    5x16 cost matrix, and a list of Python objects like a tape's nodes.
    ``large`` builds 1000x1000 difference matrices, bound by memory like the
    energy distance of the metagan eval.  Each takes about 0.1 s.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    total = 0.0
    if kind == "large":
        line = rng.standard_normal(1000)
        start = time.perf_counter()
        for _ in range(20):
            total += float(np.abs(line[:, None] - line[None, :]).mean())
        return time.perf_counter() - start
    points = rng.standard_normal((100, 128))
    weights = 0.1 * rng.standard_normal((128, 50))
    cost = rng.standard_normal((5, 16))
    start = time.perf_counter()
    for _ in range(3000):
        hidden = np.maximum(points @ weights, 0.0)
        kernel = np.exp(-cost / 0.1)
        kernel /= kernel.sum(axis=1, keepdims=True)
        nodes = [(i, kernel) for i in range(64)]
        total += float(hidden[0, 0]) + float(kernel[0, 0]) + len(nodes)
    return time.perf_counter() - start


class Run:
    """Verb calls for one workload and one input draw, and the checks that count failures."""

    def __init__(self, workload, seed: int, workdir: Path, main, band):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.score = None  # eval score of the timed checkpoint
        self.band = band
        self._first: dict = {}  # artifact path -> sha256 of its first write

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {self.w.name} seed {self.seed}: {message}", file=sys.stderr)

    def _call(self, argv: list, artifact: Path):
        """Run one verb; return (wall seconds, artifact text or None on failure)."""
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            self.fail(f"{argv[0]} exited {code}")
            return wall, None
        data = artifact.read_bytes()
        digest = hashlib.sha256(data).digest()
        if self._first.setdefault(str(artifact), digest) != digest:
            self.fail(f"{artifact.parent.name}/{artifact.name} differs from its first write")
            return wall, None
        return wall, data.decode("utf-8")

    def _corpus(self) -> Path:
        return self.dir / "data" / "corpus.jsonl"

    def gen(self) -> None:
        corpus = self._corpus()
        argv = ["gen", "--task", self.w.task, "--count", str(self.w.gen_count),
                "--seed", str(self.seed), "--out", str(corpus.parent)]
        self._call(argv + self._sets(), corpus)

    def _sets(self) -> list:
        return [arg for flag in self.w.flags for arg in ("--set", flag)]

    def train(self, steps: int, name: str = "train") -> float:
        out = self.dir / name
        argv = ["train", "--task", self.w.task, "--seed", str(self.seed), "--out", str(out),
                "--set", f"{self.w.steps_key}={steps}"] + self._sets()
        if self.w.gen_count:
            argv += ["--corpus", str(self._corpus())]
        else:  # fewshot draws its classes and episodes from seeds, not from a corpus
            argv += ["--set", f"fewshot.class_seed={self.seed}"]
        wall, text = self._call(argv, out / "trace.csv")
        if text is not None and not trace_losses_finite(text):
            self.fail(f"{out.name}/trace.csv holds a non-finite loss")
        return wall

    def eval(self, warm: bool = False) -> float:
        steps, train, count = self.w.steps, "train", self.w.eval_count
        if warm:
            steps, train, count = self.w.warmup_steps, "warm", max(1, count // 5)
        out = self.dir / f"{train}-eval"
        argv = ["eval", "--checkpoint", str(self.dir / train / f"checkpoint.{steps}"),
                "--seed", str(self.seed + EVAL_SEED_OFFSET), "--count", str(count),
                "--out", str(out)]
        wall, text = self._call(argv, out / "metrics.json")
        if text is not None and not warm:
            self.score = self.w.score(json.loads(text)["metrics"])
        return wall

    def setup_round(self) -> float:
        start = time.perf_counter()
        if self.w.gen_count:
            self.gen()
        self.train(self.w.warmup_steps, "warm")
        self.eval(warm=True)
        return time.perf_counter() - start


def eval_score(runs: list) -> float:
    """Mean score of the draws' timed checkpoints, checked against the reference band."""
    scores = [run.score for run in runs]
    if None in scores:
        return 0.0  # a failed eval is already counted
    score = statistics.fmean(scores)
    lo, hi = runs[0].band
    if not lo <= score <= hi:  # also false for NaN
        runs[0].fail(f"eval_score {score!r} outside the reference band [{lo}, {hi}]")
        return 0.0
    return score


def timed(seconds: float, calls: list, calibration: dict, min_rounds: int = MIN_REPS) -> list:
    """Run rounds of calls until seconds are spent, at least min_rounds rounds.

    A round makes each (fn, kind) of calls once, in order, and fn gets the
    round number.  A calibration loop of the call's kind runs right before and
    right after the call; one loop between two calls of the same kind serves
    both.  Returns, per entry of calls, (wall seconds, speed factor) per round:
    the loop's reference time over the mean of the two loops around the call,
    so that wall * factor is the call's time at the reference machine speed.
    """
    results = [[] for _ in calls]
    last_kind, last_loop = None, 0.0
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for (fn, kind), out in zip(calls, results):
            before = last_loop if kind == last_kind else calibrate(kind)
            wall = fn(rounds)
            last_kind, last_loop = kind, calibrate(kind)
            out.append((wall, 2 * calibration[kind] / (before + last_loop)))
        rounds += 1
    return results


def rate(work: int, calls: list, draws: int) -> float:
    """Items per scaled second over one pass through the draws.

    Call i ran on draw i % draws; each draw counts with the median scaled time
    of its calls.
    """
    per_draw = [statistics.median(wall * factor for wall, factor in calls[d::draws])
                for d in range(draws)]
    return work * draws / sum(per_draw)


def traced_run(runs: list, seconds: float, calibration: dict) -> dict:
    w = runs[0].w
    tracer = Tracer(w.roles)

    def traced(tr, phase, call):
        tr.phase = phase
        tr.install()
        try:
            return call()
        finally:
            tr.uninstall()

    if w.gen_count:
        traced(tracer, "gen", runs[0].gen)
    # counting tape nodes walks each step's graph, so it gets a train call of its
    # own whose spans are dropped; its trace.csv is still checked like the others
    counter = Tracer(w.roles, count_tape=True)
    counter.begin_train()
    traced(counter, "train", lambda: runs[0].train(w.steps))

    def traced_train(r):
        tracer.begin_train()
        return traced(tracer, "train", lambda: runs[r % len(runs)].train(w.steps))

    # an untraced and a traced train call on one draw in each round: their
    # difference is the tracing overhead, and both must write the same bytes
    untraced, wrapped, _ = timed(seconds, [
        (lambda r: runs[r % len(runs)].train(w.steps), "small"),
        (traced_train, "small"),
        (lambda r: traced(tracer, "eval", runs[r % len(runs)].eval), w.eval_calibration),
    ], calibration, max(MIN_REPS, len(runs)))
    eval_score(runs)
    missing = sorted(set(w.layers) - tracer.called())
    if missing:
        raise TraceError(f"{w.name}: the traced run never called {', '.join(missing)}")
    spans = WORK / f"spans-{w.name}-seed{runs[0].seed}.jsonl"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    values = tracer.metrics()
    values["diffcore.tape_nodes"] = counter.tape_nodes_per_step()
    values["trace.overhead_frac"] = (statistics.median(wall * f for wall, f in wrapped)
                                     / statistics.median(wall * f for wall, f in untraced) - 1.0)
    return values


def untraced_run(runs: list, seconds: float, setup_s: float, calibration: dict) -> dict:
    w, draws = runs[0].w, len(runs)
    # train and eval calls alternate, so both sample the whole run
    train_calls, eval_calls = timed(seconds, [
        (lambda r: runs[r % draws].train(w.steps), "small"),
        (lambda r: runs[r % draws].eval(), w.eval_calibration),
    ], calibration, max(MIN_REPS, draws))
    rates = {}
    for verb, work, calls in (("train", w.steps, train_calls), ("eval", w.eval_count, eval_calls)):
        raw = rate(work, [(wall, 1.0) for wall, _ in calls], draws)
        rates[verb] = rate(work, calls, draws)
        print(f"{verb} calls: {len(calls)} over {draws} draw(s), {work} items each; wall s: "
              + " ".join(f"{wall:.3f}" for wall, _ in calls)
              + "; speed factors: " + " ".join(f"{factor:.3f}" for _, factor in calls))
        print(f"{verb} items/s: {raw:.6g} raw, {rates[verb]:.6g} scaled")
    return {
        "train_steps_per_s": rates["train"],
        "eval_items_per_s": rates["eval"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_score": eval_score(runs),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: reference)")
    parser.add_argument("--seconds", type=int, default=22, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        cli_main = load_program()
    except (OSError, ValueError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    w = WORKLOADS[args.workload]
    seed = reference["default_seed"] if args.seed is None else args.seed
    workdir = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    score = reference["eval_score"][w.name]
    band = (score["reference"] * (1 - score["tolerance"]), score["reference"] * (1 + score["tolerance"]))
    calibration = reference["calibration_s"]
    runs = [Run(w, seed + d * DRAW_SEED_STRIDE, workdir / f"draw-{d}", cli_main, band)
            for d in range(w.draws)]
    try:
        # every draw gets a round, so every corpus is made during set-up
        rounds, = timed(0, [(lambda r: runs[r % w.draws].setup_round(), "small")], calibration,
                        max(SETUP_ROUNDS, w.draws))
        print("setup rounds, wall s: " + " ".join(f"{import_s + wall:.3f}" for wall, _ in rounds))
        setup_s = statistics.median((import_s + wall) * factor for wall, factor in rounds)
        if args.trace:
            values = traced_run(runs, args.seconds, calibration)
        else:
            values = untraced_run(runs, args.seconds, setup_s, calibration)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        print(f"error: BENCHMARK.json metrics differ from those measured: {sorted(values)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"ops_failed_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
