"""The benchmark's workloads: what each one generates, trains and evaluates.

Every workload drives the public CLI verbs (``gen``, ``train``, ``eval``)
in-process through ``protoset.cli.main``.  Shapes are pinned here rather than
taken from the program's defaults, so a change of defaults cannot change what
a workload measures.  ``steps`` is the length of one timed ``train`` call and
``eval_count`` the size of one timed ``eval`` call; both are sized so that one
call lasts about a second on a 2-core x86 machine with one BLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# encoder shape shared by both mixture workloads: K=50, 128x3 ELU, cosine cost
MOG_SHAPE = (
    "model.k=50",
    "model.encoder_widths=128,128,128",
    "model.activation=elu",
    "train.batch_points=100",
    "train.metric=cosine",
    "mog.components=4",
)

# layers every workload's traced run must reach; names as in tracer._targets
COMMON_LAYERS = ("diffcore.backward", "diffcore.optim_step", "checkpoint.save", "checkpoint.load")


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    steps_key: str  # config key holding the number of training steps
    steps: int  # steps in one timed train call
    warmup_steps: int  # steps in each set-up round's train call
    eval_count: int  # sets, episodes or tasks in one timed eval call
    flags: tuple  # key=value overrides passed to gen and train with --set
    score: Callable[[dict], float]  # eval metrics -> eval_score in (0, 1]
    layers: tuple  # wrapped layers the traced run must see called
    gen_count: Optional[int] = None  # corpus size; None trains without a corpus
    roles: tuple = ("main",)  # optimizers in the order they first step per iteration
    draws: int = 1  # input draws a run cycles through, each its own corpus and training seed
    eval_calibration: str = "small"  # run.calibrate kind whose work is like the eval's


def mog_score(metrics: dict) -> float:
    """Oracle NLL over model NLL per point: 1 when the head matches the truth."""
    return metrics["oracle_mean_loglik"] / metrics["mean_loglik"]


def fewshot_score(metrics: dict) -> float:
    return metrics["mean_accuracy"]


def metagan_score(metrics: dict) -> float:
    """1 / (1 + energy distance): 1 when generated and real laws coincide."""
    return 1.0 / (1.0 + metrics["energy_distance_mean"])


MOG_LAYERS = COMMON_LAYERS + (
    "ot.cost",
    "ot.transport_fwd",
    "summarynet.forward",
    "summarynet.eval_forward",
    "tasks.gen",
    "tasks.loss",
    "protolearn.guard",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mog-unrolled",
            task="mog",
            steps_key="train.steps",
            steps=40,
            warmup_steps=20,
            eval_count=500,
            gen_count=400,
            flags=MOG_SHAPE
            + ("train.mode=supervised", "sinkhorn.grad_mode=unrolled", "sinkhorn.epsilon=0.1",
               "sinkhorn.unroll_iters=50"),
            score=mog_score,
            layers=MOG_LAYERS,
        ),
        Workload(
            name="mog-envelope",
            task="mog",
            steps_key="train.steps",
            steps=30,
            warmup_steps=15,
            eval_count=500,
            gen_count=400,
            flags=MOG_SHAPE
            + ("train.mode=supervised", "sinkhorn.grad_mode=envelope", "sinkhorn.epsilon=0.03",
               "sinkhorn.max_iters=500", "sinkhorn.tol=1e-6"),
            score=mog_score,
            layers=MOG_LAYERS + ("ot.sinkhorn",),
            # solver iterations depend on the corpus and the initial model: over
            # seeds 0-7 the iterations of 30 steps spread 0.18 (IQR over median),
            # so a run averages four draws
            draws=4,
        ),
        Workload(
            name="fewshot-ot",
            task="fewshot",
            steps_key="fewshot.episodes",
            steps=40,
            warmup_steps=20,
            eval_count=5000,
            # sigma=3 keeps accuracy near 0.85 (at the default 1 it is 1.0), so a
            # change that hurts accuracy can show in eval_score
            flags=("train.lambda_ot=1", "fewshot.n_way=5", "fewshot.k_shot=5", "fewshot.dim=20",
                   "fewshot.bank=16", "fewshot.sigma=3", "sinkhorn.unroll_iters=20",
                   "sinkhorn.grad_mode=unrolled"),
            score=fewshot_score,
            layers=COMMON_LAYERS
            + ("ot.cost", "ot.transport_fwd", "fewshot.embed", "fewshot.eval", "protolearn.guard"),
        ),
        Workload(
            name="metagan",
            task="metagan",
            steps_key="metagan.iterations",
            steps=100,
            warmup_steps=50,
            eval_count=20,
            gen_count=200,
            flags=("metagan.family=gauss1d", "metagan.use_ot=true", "metagan.eta_critic=1"),
            score=metagan_score,
            layers=COMMON_LAYERS
            + ("ot.cost", "ot.transport_fwd", "summarynet.forward", "summarynet.eval_forward",
               "tasks.gen", "metagan.transport_step", "metagan.energy_distance"),
            roles=("critic", "transport", "generator"),
            # a GAN's quality depends on its seed: over seeds 0-9 the eval_score
            # of one model spreads 0.20 (IQR over median), the mean of four 0.16
            # and the mean of eight 0.08, so a run averages eight draws
            draws=8,
            eval_calibration="large",
        ),
    )
}
