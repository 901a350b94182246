"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions at the sites the program looks
them up (module globals and class attributes) with timing wrappers, and
``uninstall`` puts the originals back.  Spans are kept in memory as
(name, start, end, parent, step, phase) and turned into per-layer metrics
when the traced run ends.  A missing target raises at install time, so a
rename in the program cannot silently turn a layer metric into zero.

A training step ends when the optimizer named last in the workload's roles
takes its step; every span opened since the previous step end belongs to it.
Layer metrics are per-step medians of self time (span minus child spans);
the loop phases ``metagan.*`` and ``protolearn.step`` are inclusive.

With ``count_tape`` the tracer also walks the graph reachable from each loss
before ``Value.backward``.  That walk is the tracer's own work and would
inflate the enclosing spans, so a counting tracer's timings are not reported.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path


class TraceError(RuntimeError):
    """The program no longer has a wrapped function, or the run never reached one."""


def _targets():
    """(owner, attribute, layer) for every wrapped function."""
    value = importlib.import_module("protoset.diffcore.value")
    optim = importlib.import_module("protoset.diffcore.optim")
    # the package attribute protoset.ot.sinkhorn is the function, not the module
    sinkhorn_mod = importlib.import_module("protoset.ot.sinkhorn")
    protolearn = importlib.import_module("protoset.protolearn")
    summarynet = importlib.import_module("protoset.summarynet")
    fewshot = importlib.import_module("protoset.fewshot")
    metagan = importlib.import_module("protoset.metagan")
    cli = importlib.import_module("protoset.cli")
    return [
        (value.Value, "backward", "diffcore.backward"),
        (optim.Adam, "step", "diffcore.optim_step"),
        (optim.SGD, "step", "diffcore.optim_step"),
        (protolearn, "build_cost_value", "ot.cost"),
        (fewshot, "build_cost_value", "ot.cost"),
        (protolearn, "differentiable_transport_loss", "ot.transport_fwd"),
        (fewshot, "differentiable_transport_loss", "ot.transport_fwd"),
        (sinkhorn_mod, "sinkhorn", "ot.sinkhorn"),
        (summarynet.SummaryNet, "summarize", "summarynet.forward"),
        (summarynet.SummaryNet, "summarize_with_prediction", "summarynet.forward"),
        (cli, "gen_mog_corpus", "tasks.gen"),
        (cli, "gen_task_corpus", "tasks.gen"),
        (cli, "mog_task_loss", "tasks.loss"),
        (protolearn.PrototypeBank, "guard_cosine_columns", "protolearn.guard"),
        (fewshot, "support_embeddings", "fewshot.embed"),
        (fewshot, "query_logits", "fewshot.embed"),
        (cli, "eval_fewshot", "fewshot.eval"),
        (metagan, "transport_step", "metagan.transport_step"),
        (metagan, "energy_distance", "metagan.energy_distance"),
        (cli, "save_checkpoint", "checkpoint.save"),
        (cli, "load_checkpoint", "checkpoint.load"),
    ]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


class Tracer:
    def __init__(self, roles: tuple, count_tape: bool = False):
        self.roles = roles
        self.count_tape = count_tape
        self.phase = "setup"
        self.spans: list = []  # [name, start, end, parent, step, phase]
        self._stack: list = []
        self._patches: list = []
        self._step = 0
        self._rep = 0
        self._opt_roles: dict = {}
        self.boundaries: list = []  # (rep, step, time) at each step end
        self.role_ends: dict = {}  # (step, role) -> time the role's optimizer stepped
        self.tape_nodes: dict = defaultdict(int)  # step -> reachable graph nodes
        self.solves: list = []  # (iterations, converged, seconds) per train-phase solve
        self.guard_cols: dict = defaultdict(int)  # rep -> re-randomised columns
        self.episodes: list = []  # (seconds, episodes) per eval_fewshot call
        self.ckpt_bytes: list = []

    # -- installing wrappers ----------------------------------------------------

    def install(self) -> None:
        value_mod = importlib.import_module("protoset.diffcore.value")
        hooks = {
            "diffcore.backward": (self._count_tape(value_mod) if self.count_tape else None, None),
            "diffcore.optim_step": (None, self._after_optim),
            "ot.sinkhorn": (None, self._after_sinkhorn),
            "protolearn.guard": (None, self._after_guard),
            "fewshot.eval": (None, self._after_fewshot_eval),
            "checkpoint.save": (None, self._after_save),
        }
        for owner, attr, layer in _targets():
            original = getattr(owner, attr, None)
            if not callable(original):
                self.uninstall()
                raise TraceError(f"cannot trace {layer}: {owner.__name__}.{attr} is missing")
            before, after = hooks.get(layer, (None, None))
            setattr(owner, attr, self._wrap(layer, original, before, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer, original, before, after):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.spans)
            name = "summarynet.eval_forward" if (
                layer == "summarynet.forward" and self.phase == "eval"
            ) else layer
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                               self._step, self.phase])
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(idx, args, result)
            return result

        return functools.update_wrapper(wrapper, original)

    # -- hooks ------------------------------------------------------------------

    def _count_tape(self, value_mod):
        linearize = getattr(value_mod, "_linearize", None)
        if not callable(linearize):
            raise TraceError("cannot count tape nodes: protoset.diffcore.value._linearize is missing")

        def before(args):
            root = args[0]
            if root.requires_grad:
                self.tape_nodes[self._step] += len(linearize(root))

        return before

    def _after_optim(self, idx, args, result):
        if self.phase != "train":
            return
        opt = args[0]
        if id(opt) not in self._opt_roles:
            if len(self._opt_roles) >= len(self.roles):
                raise TraceError(f"more optimizers stepped than the roles {self.roles}")
            self._opt_roles[id(opt)] = self.roles[len(self._opt_roles)]
        role = self._opt_roles[id(opt)]
        end = self.spans[idx][2]
        self.role_ends[(self._step, role)] = end
        if role == self.roles[-1]:
            self.boundaries.append((self._rep, self._step, end))
            self._step += 1

    def _after_sinkhorn(self, idx, args, result):
        if self.phase == "train":
            start, end = self.spans[idx][1:3]
            self.solves.append((result.iterations, result.converged, end - start))

    def _after_guard(self, idx, args, result):
        self.guard_cols[self._rep] += int(result)

    def _after_fewshot_eval(self, idx, args, result):
        start, end = self.spans[idx][1:3]
        self.episodes.append((end - start, result["n_episodes"]))

    def _after_save(self, idx, args, result):
        self.ckpt_bytes.append(os.path.getsize(args[0]))

    # -- run structure --------------------------------------------------------------

    def begin_train(self) -> None:
        """Start a fresh train call: optimizers are new objects every call."""
        self._rep += 1
        self._step += 1  # spans before the first step end never join the last call's step
        self._opt_roles = {}

    def called(self) -> set:
        return {span[0] for span in self.spans}

    # -- metrics ------------------------------------------------------------------------

    def _self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[2] - span[1] - c for span, c in zip(self.spans, child)]

    def tape_nodes_per_step(self) -> float:
        """Median graph nodes reachable from a step's loss; needs count_tape."""
        return _median([self.tape_nodes[step] for _, step, _ in self.boundaries])

    def metrics(self) -> dict:
        """The per-layer metrics from spans, in milliseconds unless the name says otherwise."""
        done = [step for _, step, _ in self.boundaries]
        per_step = defaultdict(lambda: defaultdict(float))  # layer -> step -> self seconds
        calls = defaultdict(lambda: defaultdict(int))
        per_call = defaultdict(list)  # layer -> inclusive seconds per call
        gen_s = 0.0
        for span, own in zip(self.spans, self._self_times()):
            name, start, end, _, step, phase = span
            per_call[name].append(end - start)
            if phase == "train":
                per_step[name][step] += own
                calls[name][step] += 1
            if phase == "gen" and name == "tasks.gen":
                gen_s += end - start

        def step_ms(layer):
            return 1e3 * _median([per_step[layer][s] for s in done])

        def call_ms(layer):  # inclusive, per call, in any phase
            return 1e3 * _median(per_call[layer])

        intervals, critic, transport, generator = [], [], [], []
        transport_end = {}
        for name, start, end, _, step, phase in self.spans:
            if name == "metagan.transport_step" and phase == "train":
                transport_end[step] = end
                transport.append(end - start)
        for (rep, step, end), (prev_rep, _, prev_end) in zip(self.boundaries[1:], self.boundaries):
            if rep != prev_rep:
                continue
            intervals.append(end - prev_end)
            if (step, "critic") in self.role_ends:
                critic.append(self.role_ends[(step, "critic")] - prev_end)
            if step in transport_end:
                generator.append(end - transport_end[step])

        iters = [it for it, _, _ in self.solves]
        solve_s = sum(s for _, _, s in self.solves)
        fewshot_eval = [s / n for s, n in self.episodes if n]
        return {
            "diffcore.backward_ms": step_ms("diffcore.backward"),
            "diffcore.optim_step_ms": step_ms("diffcore.optim_step"),
            "ot.cost_ms": step_ms("ot.cost"),
            "ot.transport_fwd_ms": step_ms("ot.transport_fwd"),
            "ot.sinkhorn_ms": step_ms("ot.sinkhorn"),
            "ot.sinkhorn_calls": _median([calls["ot.sinkhorn"][s] for s in done]),
            "ot.sinkhorn_iters_p50": _median(iters),
            "ot.sinkhorn_iters_p90": _p90(iters),
            "ot.sinkhorn_us_per_iter": 1e6 * solve_s / sum(iters) if iters else 0.0,
            "ot.sinkhorn_converged_frac": (
                sum(1 for _, ok, _ in self.solves if ok) / len(self.solves) if self.solves else 0.0
            ),
            "summarynet.forward_ms": step_ms("summarynet.forward"),
            "summarynet.eval_forward_ms": call_ms("summarynet.eval_forward"),
            "tasks.gen_s": gen_s,
            "tasks.loss_ms": step_ms("tasks.loss"),
            "protolearn.step_ms_p50": 1e3 * _median(intervals),
            "protolearn.step_ms_p90": 1e3 * _p90(intervals),
            "protolearn.guard_cols": _median(list(self.guard_cols.values())),
            "fewshot.embed_ms": step_ms("fewshot.embed"),
            "fewshot.eval_episode_ms": 1e3 * _median(fewshot_eval),
            "metagan.transport_step_ms": 1e3 * _median(transport),
            "metagan.critic_ms": 1e3 * _median(critic),
            "metagan.generator_ms": 1e3 * _median(generator),
            "metagan.energy_distance_ms": call_ms("metagan.energy_distance"),
            "checkpoint.save_ms": call_ms("checkpoint.save"),
            "checkpoint.load_ms": call_ms("checkpoint.load"),
            "checkpoint.bytes": _median(self.ckpt_bytes),
        }

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, step, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
