"""Contracts under hostile input: no CLI input exits 1.

Hypothesis draws ``--set`` values per config key, the verbs' key flags,
config-file lines, corpus lines in both ``points`` forms, cost CSVs with
``--a``/``--b`` marginals and mutated checkpoints, and runs ``cli.main``
in-process at tiny shapes.  Every run must exit 0, 2, 3, 4, 5 or 6: exit 1 is
the harness's "unexpected error", so an input that reaches it is a refusal
missing at the boundary.  On exit 0 every JSON artifact (and ``ot``'s report)
must be strict JSON, and a rerun into another directory must write the same
bytes.  Each input that a hand probe once found is an ``@example``.

Size keys draw only small values: a valid size too large for memory exits 1
through MemoryError, as the README says.  Runs are derandomized and keep no
example database, so every run of the suite draws the same inputs.
"""

import base64
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from protoset import cli
from protoset.config import ENCODER_TASKS, SCHEMA, ResolvedConfig, reads

ALLOWED = {0, 2, 3, 4, 5, 6}

CONTRACT = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# tiny shapes per task, as --set pairs
TINY = {
    "mog": {"count": "3", "mog.n_min": "5", "mog.n_max": "8", "model.encoder_widths": "6",
            "model.k": "3", "model.head_hidden": "4", "train.batch_points": "6",
            "sinkhorn.unroll_iters": "4", "train.steps": "2"},
    "digitsum": {"count": "3", "digitsum.max_train_size": "4", "digitsum.test_sizes": "3,5",
                 "model.encoder_widths": "6", "model.k": "3", "model.head_hidden": "4",
                 "train.batch_points": "4", "sinkhorn.unroll_iters": "4", "train.steps": "2"},
    "pointset": {"pointset.count_per_class": "1", "pointset.n_points": "8",
                 "model.encoder_widths": "6", "model.k": "3", "model.head_hidden": "4",
                 "train.batch_points": "8", "sinkhorn.unroll_iters": "4", "train.steps": "2"},
    "fewshot": {"fewshot.episodes": "2", "fewshot.n_way": "2", "fewshot.k_shot": "2",
                "fewshot.q_queries": "2", "fewshot.dim": "3", "fewshot.encoder_widths": "6,4",
                "fewshot.bank": "3", "fewshot.n_base": "4", "fewshot.n_novel": "3",
                "sinkhorn.unroll_iters": "4", "train.lambda_ot": "0.5"},
    "metagan": {"count": "3", "metagan.iterations": "2", "metagan.batch": "5",
                "metagan.n_points": "6", "metagan.summary_widths": "6",
                "metagan.generator_widths": "6", "metagan.critic_widths": "6",
                "sinkhorn.unroll_iters": "4"},
}
GEN_TASKS = ("mog", "digitsum", "pointset", "metagan")


def _sets(pairs) -> list:
    return [arg for key, value in pairs for arg in ("--set", f"{key}={value}")]


def _tiny(task, verb) -> list:
    pairs = TINY[task].items()
    if verb == "gen":  # gen takes every key its task reads, but needs only the data's
        pairs = [(k, v) for k, v in pairs if k == "count" or k.startswith(task + ".")]
    return _sets(pairs)


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _strict(text: str) -> None:
    json.loads(text, parse_constant=_no_constant)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _artifacts(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check(argv) -> int:
    """Run ``argv`` with ``--out`` in a fresh directory and hold it to the contract."""
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work, "a"), Path(work, "b")]
        code, stdout, err = _run(argv + ["--out", str(outs[0])])
        assert code in ALLOWED, f"{argv} exited {code}: {err}"
        if code != 0:
            return code
        files = _artifacts(outs[0])
        for name, data in files.items():
            text = data.decode("utf-8")
            if name.endswith(".jsonl"):
                for line in text.splitlines():
                    _strict(line)
            elif name.endswith(".json") or name.startswith("checkpoint."):
                _strict(text)
        if argv[0] == "ot":
            _strict(stdout.splitlines()[0])
        again = _run(argv + ["--out", str(outs[1])])
        assert again[0] == 0, f"{argv} exited 0, then {again[0]}: {again[2]}"
        assert _artifacts(outs[1]) == files, f"{argv} wrote other bytes on a rerun"
    return code


# -- values ---------------------------------------------------------------------

JUNK = st.sampled_from(["", "x", " ", "1,2", "none", "1e3", "0x10", "1_0", "+3", "٣", "1.5",
                        "true"])
FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-320", "1e300",
                     "-1e300", "1e-170", "0", "-0.0", "1e999", "-1e999", "0.5", "2"]),
    st.floats().map(repr),
    JUNK,
)
# int keys that size no array and no loop, so any whole number is safe
FREE_INTS = {"seed", "eval.seed", "fewshot.class_seed", "mog.encode_cap",
             "train.batch_points", "train.log_every"}
SIZE = st.integers(-2, 6)


def _choices(key) -> tuple:
    field = SCHEMA[key]
    bound = field.bound
    if field.owner is not None:
        bound = field.owner.__dataclass_fields__[field.attr].metadata.get("bound")
    return bound if isinstance(bound, tuple) else ()


def value_text(key: str):
    """A strategy of raw value strings for ``key``, valid and not."""
    kind = SCHEMA[key].kind
    if kind in ("float", "opt_float"):
        return FLOAT_TEXT
    if kind == "int":
        if key in FREE_INTS:
            whole = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))
        else:
            whole = SIZE.filter(bool) if key == "eval.count" else SIZE  # 0 draws a full eval
        return st.one_of(whole.map(str), JUNK, st.sampled_from(["1e308", "inf", "nan"]))
    if kind == "int_list":
        return st.one_of(st.lists(SIZE, max_size=3).map(lambda xs: ",".join(map(str, xs))), JUNK)
    if kind == "bool":
        return st.sampled_from(["true", "false", "yes", "off", "1", "0", "TRUE", "2", ""])
    return st.one_of(st.sampled_from(_choices(key) or ("x",)), JUNK)


def _read_keys(task) -> list:
    """The keys that ``task`` reads, as the schema declares them."""
    return [key for key in SCHEMA if reads(task, key)]


ANY_KEY = st.sampled_from(sorted(SCHEMA) + ["out", "corpus", "mog.sgima", "", "=", "a b"])


def pair(keys):
    key = st.one_of(st.sampled_from(keys), st.sampled_from(keys), ANY_KEY)
    return key.flatmap(lambda k: st.tuples(st.just(k), value_text(k) if k in SCHEMA else JUNK))


def task_pairs(tasks, keys_of, max_size=3):
    return st.sampled_from(tasks).flatmap(
        lambda t: st.tuples(st.just(t), st.lists(pair(keys_of(t)), min_size=1,
                                                 max_size=max_size)))


# -- --set values ------------------------------------------------------------------


@settings(CONTRACT, max_examples=150)
@given(task_pairs(GEN_TASKS, _read_keys))
@example(("mog", [("mog.sigma", "1e300")]))
@example(("mog", [("mog.sigma", "1e-170")]))
@example(("mog", [("mog.mean_low", "-1e308"), ("mog.mean_high", "1e308")]))
@example(("mog", [("mog.mean_high", "-5")]))
@example(("mog", [("optim.lr", "nan")]))
def test_gen_set_values(case):
    task, pairs = case
    check(["gen", "--task", task] + _tiny(task, "gen") + _sets(pairs))


@settings(CONTRACT, max_examples=150)
@given(task_pairs(tuple(TINY), _read_keys))
@example(("mog", [("optim.lr", "nan")]))
@example(("mog", [("sinkhorn.epsilon", "1e-320")]))
@example(("fewshot", [("fewshot.mean_low", "-1e308"), ("fewshot.mean_high", "1e308")]))
@example(("metagan", [("metagan.lr_critic", "1e308")]))
def test_train_set_values(case):
    task, pairs = case
    check(["train", "--task", task] + _tiny(task, "train") + _sets(pairs))


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A checkpoint per task, trained at its tiny shape."""
    found = {}
    for task in TINY:
        out = tmp_path_factory.mktemp(task)
        argv = ["train", "--task", task, "--out", str(out)] + _tiny(task, "train")
        assert _run(argv)[0] == 0
        found[task] = next(out.glob("checkpoint.*"))
    return found


def _eval_keys(task) -> list:
    entry = cli.TASK_TABLE[task]
    return ["eval.count", "eval.seed", *entry.eval_keys, *entry.score_keys]


@settings(CONTRACT, max_examples=100)
@given(task_pairs(tuple(TINY), _eval_keys, max_size=2))
@example(("mog", [("mog.sigma", "1e300")]))
@example(("fewshot", [("fewshot.mean_low", "-1e308"), ("fewshot.mean_high", "1e308")]))
def test_eval_set_values(checkpoints, case):
    task, pairs = case
    check(["eval", "--checkpoint", str(checkpoints[task]), "--set", "eval.count=2"]
          + _sets(pairs))


# -- key flags -------------------------------------------------------------------------

OUT_FILE = "<a file>"  # --out naming an existing file


def flag_cases():
    flags = [(verb, flag) for verb, table in cli.KEY_FLAGS.items() for flag in table]
    flags += [(verb, "--out") for verb in ("gen", "train", "eval")]

    def values(verb, flag):
        if flag == "--out":
            return st.just(OUT_FILE)
        return value_text(cli.KEY_FLAGS[verb][flag])

    return st.sampled_from(flags).flatmap(
        lambda vf: st.tuples(st.just(vf[0]), st.just(vf[1]), values(*vf)))


def _verb_base(verb, checkpoints, work: Path) -> list:
    if verb == "gen":
        return ["gen", "--task", "mog"] + _tiny("mog", "gen")
    if verb == "train":
        return ["train", "--task", "mog"] + _tiny("mog", "train")
    if verb == "eval":
        return ["eval", "--checkpoint", str(checkpoints["mog"])]
    if verb == "ot":
        cost = work / "cost.csv"
        cost.write_text("0,1,2\n1,0,1\n")
        return ["ot", "--cost", str(cost)]
    return ["gradcheck", "--task", "mog"]


@settings(CONTRACT, max_examples=80)
@given(flag_cases())
@example(("ot", "--eps", "inf"))
@example(("ot", "--tol", "nan"))
@example(("ot", "--eps", "1e-320"))
@example(("train", "--out", OUT_FILE))
@example(("train", "--lambda-ot", "nan"))
@example(("eval", "--seed", "4"))
def test_key_flags(checkpoints, case):
    verb, flag, value = case
    with tempfile.TemporaryDirectory() as work:
        argv = _verb_base(verb, checkpoints, Path(work))
        if value == OUT_FILE:
            taken = Path(work, "taken")
            taken.write_text("")
            code, _, err = _run(argv + ["--out", str(taken)])
            assert code == 3, err
            return
        argv += [flag, value]
        if verb == "gradcheck":  # writes nothing, prints a JSON line
            code, stdout, err = _run(argv)
            assert code in ALLOWED, f"{argv} exited {code}: {err}"
            if code == 0:
                _strict(stdout)
            return
        if verb == "eval" and flag != "--count":
            argv += ["--count", "2"]
        check(argv)


# -- config files ------------------------------------------------------------------


def config_line():
    key_value = pair(_read_keys("mog")).map(lambda kv: f"{kv[0]} = {kv[1]}")
    return st.one_of(key_value, key_value,
                     st.sampled_from(["", "# comment", "   ", "no equals sign", "= 3",
                                      "task==mog", "seed = 1 = 2", "count = 2"]),
                     st.text(max_size=8))


CONFIG_TEXT = st.one_of(
    st.lists(config_line(), max_size=5).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=16),
)


@settings(CONTRACT, max_examples=100)
@given(CONFIG_TEXT)
@example(b"count = 2\ncount = 3\n")
@example(b"mog.sigma = 1e300\n")
@example(b"mog.mean_high = -5\n")
@example(b"\xff\xfe = 1\n")
@example(b"out = x\n")
def test_config_file_lines(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "run.cfg")
        path.write_bytes(text)
        check(["gen", "--task", "mog", "--config", str(path)] + _tiny("mog", "gen"))


# -- corpus lines ----------------------------------------------------------------------

NUMBER = st.one_of(
    st.floats(-10, 10),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([1e308, -1e308, 5e-324]),
)
LEAF = st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=3))
# no whole number that could size an array
SMALL_LEAF = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-3, 8),
                       st.text(max_size=3))
JSON_VALUE = st.recursive(LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)


def _clean_rows(d):
    """One to four rows of ``d`` finite numbers: small ones, or any up to the largest float."""
    return st.one_of(*(st.lists(st.lists(number, min_size=d, max_size=d), min_size=1, max_size=4)
                       for number in (st.floats(-10, 10), st.floats(allow_nan=False,
                                                                    allow_infinity=False))))


def rows_points(d):
    """``points`` as a JSON list of rows: mostly ``d`` numbers each, sometimes not."""
    dirty = st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(st.one_of(NUMBER, LEAF), min_size=w, max_size=w), max_size=4))
    return st.one_of(_clean_rows(d), _clean_rows(d), dirty, JSON_VALUE)


def record_points(d):
    """``points`` as an array record: mostly ``d`` columns, its shape or data sometimes broken."""
    def record(rows):
        values = np.asarray(rows, dtype="<f8")
        data = base64.b64encode(values.tobytes()).decode("ascii")
        return {"shape": list(values.shape), "data": data}

    any_width = st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(st.floats(), min_size=w, max_size=w), min_size=1, max_size=4))
    broken = st.fixed_dictionaries({}, optional={
        "shape": st.one_of(st.lists(st.one_of(st.integers(-1, 4), LEAF), max_size=3), LEAF),
        "data": st.one_of(st.binary(max_size=24).map(lambda b: base64.b64encode(b).decode()),
                          st.text(max_size=6), LEAF),
    })
    return st.one_of(_clean_rows(d).map(record), _clean_rows(d).map(record),
                     any_width.map(record), broken)


def corpus_record(d):
    fields = st.fixed_dictionaries(
        {"points": st.one_of(rows_points(d), record_points(d))},
        optional={"set_id": st.one_of(st.integers(0, 3), LEAF),
                  "label": st.one_of(st.integers(0, 7), st.integers(0, 7), LEAF),
                  "truth": JSON_VALUE})
    line = fields.map(json.dumps)
    return st.one_of(line, line, line, line, JSON_VALUE.map(json.dumps), st.text(max_size=6))


CORPUS = st.sampled_from(ENCODER_TASKS).flatmap(lambda task: st.tuples(
    st.just(task),
    st.sampled_from(["train", "train", "train", "eval", "eval", "eval --seed 4"]),
    st.one_of(st.none(), st.none(), st.dictionaries(st.text(max_size=3), JSON_VALUE, max_size=2),
              JSON_VALUE).map(lambda meta: meta and json.dumps({"meta": meta})),
    st.lists(corpus_record(cli.TASK_TABLE[task].input_dim), max_size=4),
))


def _rows_line(rows, set_id=0, label=None):
    return json.dumps({"set_id": set_id, "points": rows, "label": label})


@settings(CONTRACT, max_examples=200)
@given(CORPUS)
@example(("mog", "train", '{"meta": [1]}', [_rows_line([[0.5, 1.0], [1.0, 2.0]])]))
@example(("mog", "train", None, [_rows_line([[True, "2.5"]])]))
@example(("mog", "train", None, [_rows_line([[1e308, -1e308], [0.0, 1.0]])]))
@example(("mog", "train", None, [_rows_line([[10**400, 0.0]])]))
@example(("mog", "train", None, [_rows_line([[], []])]))
@example(("digitsum", "eval --seed 4", None, [_rows_line([[0.0] * 10], label=3)]))
@example(("digitsum", "eval", None, [_rows_line([[1.7847861270960808e308] + [0.0] * 9], label=0)]))
@example(("pointset", "train", None, [_rows_line([[0.0, 1.0, 2.0]], label=8)]))
def test_corpus_lines(checkpoints, case):
    task, verb, meta, records = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "corpus.jsonl")
        path.write_text("\n".join(([meta] if meta else []) + records) + "\n", encoding="utf-8")
        if verb == "train":
            argv = ["train", "--task", task, "--corpus", str(path)] + _tiny(task, "train")
        else:
            argv = ["eval", "--checkpoint", str(checkpoints[task]), "--corpus", str(path)]
            argv += verb.split()[1:]
        check(argv)


# -- cost CSVs and marginals ---------------------------------------------------------

COST_ENTRY = st.one_of(
    st.floats(0, 10).map(repr), st.floats(0, 10).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-3", "", "x", " 1 ",
                     "1e999"]),
)
COST_TEXT = st.lists(
    st.one_of(st.lists(COST_ENTRY, min_size=1, max_size=3).map(",".join),
              st.sampled_from(["# comment", "", "1,2 # tail"]), st.text(max_size=5)),
    max_size=4,
).map("\n".join)


def _simplex_text(ws):
    total = sum(ws)
    return ",".join(repr(w / total) for w in ws)


MARGINAL = st.one_of(
    st.none(),
    st.lists(st.floats(0.01, 1), min_size=1, max_size=4).map(_simplex_text),
    st.lists(st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "0", "-0.5",
                                                                "1e308", "1e-320", "x", ""])),
             min_size=1, max_size=4).map(",".join),
)


@settings(CONTRACT, max_examples=150)
@given(COST_TEXT, MARGINAL, MARGINAL)
@example("0,1\n1,0\n", "nan,0.5", None)
@example("0,1\n1,0\n", "inf,0.5", None)
@example("0,1\n1,0\n", "0.5,0.5", "1,0")
@example("0,nan\n1,0\n", None, None)
@example("0,1e308\n1,0\n", None, None)
@example("0,1\n1\n", None, None)
def test_cost_csv_and_marginals(cost, a, b):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "cost.csv")
        path.write_text(cost, encoding="utf-8")
        argv = ["ot", "--cost", str(path), "--max-iters", "40"]
        argv += ["--a", a] if a is not None else []
        argv += ["--b", b] if b is not None else []
        check(argv)


# -- mutated checkpoints ---------------------------------------------------------------

TOP_KEYS = ("format_version", "step", "config", "config_hash", "params")


def config_value(key):
    kind = SCHEMA[key].kind
    if kind in ("float", "opt_float"):
        typed = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 1e-320, 1e300]))
    elif kind == "int":
        typed = SIZE
    elif kind == "int_list":
        typed = st.lists(SIZE, max_size=3)
    elif kind == "bool":
        typed = st.booleans()
    else:
        typed = st.sampled_from(_choices(key) or ("x",))
    return st.one_of(typed, typed, SMALL_LEAF)


CONFIG_MUTATION = st.sampled_from(sorted(SCHEMA)).flatmap(lambda k: st.tuples(
    st.just("config"), st.just(k), st.one_of(st.just("<delete>"), config_value(k)),
    st.sampled_from([True, True, True, False])))
MUTATION = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(TOP_KEYS),
              st.one_of(st.just("<delete>"), JSON_VALUE,
                        st.sampled_from([True, 5.0, -1, 2**70, 1, 2, 3, 4]))),
    CONFIG_MUTATION, CONFIG_MUTATION, CONFIG_MUTATION,
    st.tuples(st.just("param"), st.integers(0, 50), st.sampled_from(["shape", "data", None]),
              st.one_of(st.just("<delete>"), JSON_VALUE)),
    st.tuples(st.just("bytes"), st.integers(0, 4000), st.binary(max_size=4)),
)


def _mutated(text: str, mutation) -> bytes:
    payload = json.loads(text)
    kind = mutation[0]
    if kind == "bytes":  # cut the file at a byte and splice bytes in
        _, at, splice = mutation
        raw = text.encode("utf-8")
        return raw[:at] + splice
    if kind == "top":
        _, key, value = mutation
        if value == "<delete>":
            payload.pop(key)
        else:
            payload[key] = value
    elif kind == "config":
        _, key, value, rehash = mutation
        if value == "<delete>":
            payload["config"].pop(key)
        else:
            payload["config"][key] = value
        if rehash:  # past the hash check, so the stored config itself is checked
            payload["config_hash"] = ResolvedConfig(payload["config"]).config_hash()
    else:
        _, index, field, value = mutation
        names = sorted(payload["params"])
        name = names[index % len(names)]
        if field is None:
            target, field = payload["params"], name
        else:
            target = payload["params"][name]
        if value == "<delete>":
            target.pop(field)
        else:
            target[field] = value
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@settings(CONTRACT, max_examples=200)
@given(st.sampled_from(tuple(TINY)), MUTATION)
@example("mog", ("top", "step", True))
@example("mog", ("top", "step", 5.0))
@example("mog", ("top", "format_version", 3))
@example("mog", ("config", "mog.sigma", 1e300, True))
@example("mog", ("config", "model.k", 4, True))
@example("mog", ("config", "model.k", 0, True))
@example("mog", ("config", "no.such", 1, True))
@example("fewshot", ("config", "fewshot.mean_high", 1e308, True))
@example("digitsum", ("param", 0, "shape", [True, 2]))
@example("metagan", ("bytes", 10, b"\xff"))
def test_mutated_checkpoints(checkpoints, task, mutation):
    text = checkpoints[task].read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, checkpoints[task].name)
        path.write_bytes(_mutated(text, mutation))
        check(["eval", "--checkpoint", str(path), "--count", "2"])


# -- the refusals at the config boundary -------------------------------------------

BOX = "{0}.mean_low=-1e+308 and {0}.mean_high=1e+308 are further apart than the largest float"
WIDE = ["--set", "{0}.mean_low=-1e308", "--set", "{0}.mean_high=1e308"]


@pytest.mark.parametrize("verb, task, flags, message", [
    ("gen", "mog", ["--set", "mog.sigma=1e300"],
     "mog.sigma must square to a positive finite float, got 1e+300"),
    ("gen", "mog", [f.format("mog") for f in WIDE], BOX.format("mog")),
    ("train", "fewshot", [f.format("fewshot") for f in WIDE], BOX.format("fewshot")),
    ("eval", "fewshot", [f.format("fewshot") for f in WIDE], BOX.format("fewshot")),
])
def test_refusals_at_the_config_boundary_exit_2_naming_the_key(
        checkpoints, tmp_path, verb, task, flags, message):
    if verb == "eval":
        argv = ["eval", "--checkpoint", str(checkpoints[task])]
    else:
        argv = [verb, "--task", task] + _tiny(task, verb)
    code, _, err = _run(argv + flags + ["--out", str(tmp_path)])
    assert (code, err) == (2, f"error: {message}\n")
    assert not any(tmp_path.iterdir())
