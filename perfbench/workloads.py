"""The four workloads: their inputs, the jobs that call the program, and the
check each job's output must pass.  README.md in this directory says why
each workload exists and which layers it loads.

Every library input is item i of a fixed pool, rebuilt from
random.Random("<pool>:<i>") by the generators in oracle.py.  The run seed
only chooses which pool items a pass uses, so the expected result of every
item could be recorded once, from the seed commit, by record.py.  Pools
whose jobs differ widely in cost are sampled by cost stratum (one item from
each of `count` consecutive slices of the pool sorted by recorded cost), so
that two seeds load the program alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kripkebench as kb
from kripkebench import cli as kb_cli

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

# Passes per run.  Each job is timed by its best latency over the passes,
# so every commit gets the same number of tries whatever its speed.  On a
# 2-core Xeon with Python 3.11 that slows by up to 2.6x, the slowest
# passes seen take 5.1 s (headline), 11 s (decide-mix), 4.1 s (valid-wide)
# and 0.6 s (lib-small), so these fit in a run of 30 s.
PASSES = {"headline": 5, "decide-mix": 2, "valid-wide": 5, "lib-small": 30}

# Seconds of reference samples whose best scales a job (see run.py).  The
# jobs of headline and decide-mix each get a sample of their own, and the
# host changes speed within a second or two, so the latest sample tracks
# them best.  Most valid-wide and lib-small jobs take a few milliseconds
# and many share one sample; there one noisy sample would move thousands
# of jobs, and over their many passes the best of a 2 s window spreads less.
REF_WINDOW_S = {"headline": 0.0, "decide-mix": 0.0, "valid-wide": 2.0, "lib-small": 2.0}

# Jobs per pass.  No job takes much over a second; see README.md.
DECIDE_JOBS = 30
DECIDE_BOUND = 5
DECIDE_POOL = 240
WIDE_SPARSE_JOBS = 64
WIDE_POOL = 320
WIDE_UPSETS = 24
SMALL_JOBS = {"parse": 1000, "force": 1000, "valid": 1500, "export": 500}
SMALL_POOL = {"parse": 2000, "force": 2000, "valid": 3000, "export": 1000}

# OEIS A001035(6) labeled posets on six worlds, A000112(5) unlabeled
# posets on five.
LABELED_6 = 130023
UNLABELED_5 = 63

LOGIC_NAMES = ("ipc", "gl", "bd2", "gl+bd2")
ATOMS = ("p", "q", "r", "s")

# Three-atom IPC theorems: valid on every frame, so the search is full.
IPC_THEOREMS = (
    "(p->q)->((q->r)->(p->r))",
    "(p->(q->r))->((p->q)->(p->r))",
    "((p|q)->r)->((p->r)&(q->r))",
    "((p->r)&(q->r))->((p|q)->r)",
    "(p&(q|r))->((p&q)|(p&r))",
    "(p->q)->((r|p)->(r|q))",
    "~~(p->q)->(~~p->~~q)",
    "(p->(q&r))->((p->q)&(p->r))",
)


@dataclass
class Job:
    """One call into the program.  run() is timed; check(output) is not.
    A run() that raises hands its exception to check()."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    cost_s: float = 0.0


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_expected(workload: str) -> dict:
    with open(EXPECTED / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def stratified(rng: random.Random, items: list, count: int, cost) -> list:
    """One item from each of `count` equal slices of items sorted by cost."""
    ranked = sorted(items, key=lambda it: (cost(it), it["i"]))
    step = len(ranked) / count
    return [ranked[int(k * step) + rng.randrange(max(1, int(step)))] for k in range(count)]


def _cm_json(cm):
    return None if cm is None else kb.countermodel_to_json(cm)


def _valid_check(f, expected) -> Callable[[object], bool]:
    def check(out) -> bool:
        if isinstance(out, BaseException):
            return False
        got = _cm_json(out)
        if got != expected:
            return False
        return got is None or oracle.refutes(got, f)

    return check


# ---------------------------------------------------------------- headline

HEADLINE = (
    ("correspond", "(p->q)|(q->p)", "lin", "--max-n", "5", "--dedup"),
    ("correspond", "p|(p->(q|~q))", "bd2-chain", "--max-n", "5", "--dedup"),
    ("correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"),
    ("valid", "perfbench/data/3chain.json", "(p->q)|(q->p)"),
    ("valid", "perfbench/data/3chain.json", "p|(p->(q|~q))"),
    ("valid", "perfbench/data/fork.json", "p|(p->(q|~q))"),
    ("valid", "perfbench/data/fork.json", "(p->q)|(q->p)"),
    ("witness", "bd2", "perfbench/data/3chain.json"),
    ("witness", "gl", "perfbench/data/fork.json"),
    ("decide", "gl+bd2", "(p->q)|(q->p)", "--bound", "2"),
    ("decide", "gl+bd2", "p|~p", "--bound", "2"),
    ("decide", "cpc", "p|~p"),
    ("decide", "ipc", "~~(p|~p)", "--bound", "5"),
    ("enumerate", "--n", "6"),
    ("enumerate", "--n", "5", "--dedup"),
)


def cli_env() -> dict:
    """Environment of the CLI child processes: the program from src/, and
    bytecode cached under .bench_build so the source tree stays clean and
    children do not recompile the program on every start."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


# A CLI child runs the package's __main__ through runpy, as `python -m
# kripkebench` does, and on exit writes its own peak resident memory to
# stderr.  The parent cannot take that from rusage: a child's ru_maxrss
# starts at the parent's resident size at the fork, which here is larger
# than the CLI's own peak.
PEAK_TAG = "perfbench-peak-rss-kb"
CLI_CODE = f"""
import atexit, runpy, sys
def peak():
    try:
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\\n{PEAK_TAG} %d\\n" % kb)
atexit.register(peak)
runpy.run_module("kripkebench", run_name="__main__", alter_sys=True)
"""


def run_cli_process(argv, env) -> tuple[int, str, int]:
    """Exit code, stdout and peak resident kB of one CLI command."""
    # -S skips site hooks (.pth files) that belong to the machine, not to
    # the program; interpreter start and the program's imports still count.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CLI_CODE, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        check=False,
    )
    tag = proc.stderr.decode("utf-8").rsplit(PEAK_TAG, 1)
    peak_kb = int(tag[1]) if len(tag) == 2 else 0
    return proc.returncode, proc.stdout.decode("utf-8"), peak_kb


def run_cli_inprocess(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kb_cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _headline_check(argv, expected) -> Callable[[object], bool]:
    def check(out) -> bool:
        if isinstance(out, BaseException):
            return False
        code, stdout = out[:2]
        if code != expected["exit"] or stdout != expected["stdout"]:
            return False
        if argv[0] == "enumerate":
            m = re.match(r"n=\d: (\d+) ", stdout)
            want = UNLABELED_5 if "--dedup" in argv else LABELED_6
            return m is not None and int(m.group(1)) == want
        return True

    return check


def headline_jobs(seed: int, expected: dict, inprocess: bool = False) -> list[Job]:
    env = cli_env()
    jobs = []
    for argv, exp in zip(HEADLINE, expected["commands"]):
        if list(argv) != exp["argv"]:
            raise ValueError(f"expected/headline.json does not match command {argv}")
        if inprocess:
            run = lambda argv=argv: run_cli_inprocess(argv)
        else:
            run = lambda argv=argv: run_cli_process(argv, env)
        jobs.append(Job(" ".join(argv), run, _headline_check(argv, exp), exp["cost_s"]))
    random.Random(seed).shuffle(jobs)
    return jobs


# -------------------------------------------------------------- decide-mix

def decide_item(i: int):
    """Pool item i: a logic and a classical tautology over 2-3 atoms."""
    rng = random.Random(f"decide-mix:{i}")
    logic = rng.choice(LOGIC_NAMES)
    while True:
        names = ATOMS[: rng.choice((2, 3))]
        f = oracle.random_formula(rng, rng.choice((3, 4)), names)
        if oracle.classical_taut(f):
            return logic, f


def decide_mix_jobs(seed: int, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for item in stratified(rng, expected["pool"], DECIDE_JOBS, lambda it: it["cost_s"]):
        logic_name, f = decide_item(item["i"])
        logic = kb.get_logic(logic_name)

        def check(out, f=f, want=item["result"]) -> bool:
            if isinstance(out, BaseException) or out.to_json() != want:
                return False
            cm = want.get("countermodel")
            return cm is None or oracle.refutes(cm, f)

        run = lambda logic=logic, f=f: kb.decide(logic, f, DECIDE_BOUND)
        jobs.append(Job(f"decide-mix:{item['i']}", run, check, item["cost_s"]))
    rng.shuffle(jobs)
    return jobs


# -------------------------------------------------------------- valid-wide

WIDE_FIXED = (
    ("antichain4", 4, "antichain", "(p->q)|(q->r)|(r->p)|~~s"),
    ("antichain5", 5, "antichain", "(p->q)|(q->r)|(r->p)"),
    ("chain16", 16, "chain", "(p->q)|(q->p)"),
    ("chain17", 17, "chain", "(p->q)->(~q->~p)"),
    ("chain18", 18, "chain", "(p->q)|(q->p)"),
)


def wide_fixed_inputs():
    for name, n, shape, text in WIDE_FIXED:
        fr = kb.chain(n) if shape == "chain" else kb.antichain(n)
        yield name, fr, kb.parse(text)


def wide_item(i: int):
    """Pool item i: a sparse order on 5-7 worlds with at most WIDE_UPSETS
    upsets, and either an IPC theorem or a three-atom classical tautology."""
    rng = random.Random(f"valid-wide:{i}")
    while True:
        n = rng.randint(5, 7)
        pairs = oracle.random_order(rng, n, rng.uniform(0.25, 0.45))
        if len(oracle.upsets(n, pairs)) <= WIDE_UPSETS:
            break
    if rng.random() < 0.5:
        return n, pairs, rng.choice(IPC_THEOREMS)
    while True:
        f = oracle.random_formula(rng, 4, ATOMS[:3])
        if len(oracle.atom_names(f)) == 3 and oracle.classical_taut(f):
            return n, pairs, f


def _wide_formula(f):
    return kb.parse(f) if isinstance(f, str) else f


def valid_wide_jobs(seed: int, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for (name, fr, f), exp in zip(wide_fixed_inputs(), expected["fixed"]):
        run = lambda fr=fr, f=f: kb.frame_valid(fr, f)
        jobs.append(Job(f"valid-wide:{name}", run, _valid_check(f, exp["result"]), exp["cost_s"]))
    for item in stratified(rng, expected["sparse"], WIDE_SPARSE_JOBS, lambda it: it["cost_s"]):
        n, pairs, f = wide_item(item["i"])
        fr, f = kb.make_frame(n, pairs), _wide_formula(f)
        run = lambda fr=fr, f=f: kb.frame_valid(fr, f)
        jobs.append(Job(f"valid-wide:{item['i']}", run, _valid_check(f, item["result"]), item["cost_s"]))
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------- lib-small

def small_item(kind: str, i: int):
    """Pool item i of one lib-small kind, as plain data."""
    rng = random.Random(f"lib-small/{kind}:{i}")
    if kind == "parse":
        names = ATOMS[: rng.randint(1, 4)]
        return oracle.random_formula(rng, rng.randint(2, 5), names)
    n = rng.randint(1, 5 if kind == "force" else 4)
    pairs = oracle.random_order(rng, n, 0.4)
    names = ATOMS[: rng.randint(1, 3)]
    f = oracle.random_formula(rng, rng.randint(2, 4), names)
    if kind == "valid":
        return n, pairs, f
    succ = oracle.closure(n, pairs)
    valuation = {}
    for name in names:
        seeds = [w for w in range(n) if rng.random() < 0.5]
        valuation[name] = sorted(set().union(*(succ[w] for w in seeds)))
    if kind == "force":
        return n, pairs, valuation, f
    # export: redraw the formula until some world fails it, then name the
    # first such world, so that the item is a genuine countermodel.
    while True:
        failing = set(range(n)) - set(oracle.forced_worlds(n, pairs, valuation, f))
        if failing:
            return n, pairs, valuation, min(failing), f
        f = oracle.random_formula(rng, rng.randint(2, 4), names)


def small_output(kind: str, out):
    """The JSON-able part of a job's output that its digest covers."""
    if kind == "parse":
        return out[1]
    if kind == "valid":
        return _cm_json(out)
    return out


def _small_job(kind: str, i: int, want: str | None) -> Job:
    item = small_item(kind, i)
    if kind == "parse":
        f = item
        source = oracle.text(f)

        def run():
            g = kb.parse(source)
            return g, kb.render(g)

        def check(out) -> bool:
            return not isinstance(out, BaseException) and out[0] == f and digest(out[1]) == want

    elif kind == "force":
        n, pairs, valuation, f = item
        model = kb.make_model(kb.make_frame(n, pairs), valuation)
        run = lambda: kb.force_set(model, f)

        def check(out) -> bool:
            return (
                not isinstance(out, BaseException)
                and sorted(out) == oracle.forced_worlds(n, pairs, valuation, f)
            )

    elif kind == "valid":
        n, pairs, f = item
        fr = kb.make_frame(n, pairs)
        run = lambda: kb.frame_valid(fr, f)

        def check(out) -> bool:
            if isinstance(out, BaseException):
                return False
            got = _cm_json(out)
            return digest(got) == want and (got is None or oracle.refutes(got, f))

    else:
        n, pairs, valuation, world, f = item
        cm = kb.Countermodel(kb.make_model(kb.make_frame(n, pairs), valuation), world, f)
        run = lambda: (kb.countermodel_to_json(cm), kb.to_dot(cm.model))

        def check(out) -> bool:
            return not isinstance(out, BaseException) and digest(list(out)) == want

    return Job(f"lib-small/{kind}:{i}", run, check)


# ROADMAP's deep inputs.  Their results are fixed by construction: ~^(2k)p
# behaves as ~~p, a parenthesised p|~p as p|~p, and the p-> chain is valid.
# A ParseError is also accepted.  At the seed commit all three die with a
# RecursionError; see README.md for why they are reported apart from the
# correctness gate.
DEEP_PROBES = (
    ("deep-not", "~" * 5000 + "p", "~~p"),
    ("deep-parens", "(" * 3000 + "p|~p" + ")" * 3000, "p|~p"),
    ("deep-imp", "p->" * 3000 + "p", "p->p"),
)


def probe_jobs() -> list[Job]:
    fr = kb.chain(2)
    jobs = []
    for name, source, small in DEEP_PROBES:
        want = _cm_json(kb.frame_valid(fr, kb.parse(small)))

        def run(source=source):
            return kb.frame_valid(fr, kb.parse(source))

        def check(out, want=want) -> bool:
            if isinstance(out, kb.ParseError):
                return True
            if isinstance(out, BaseException):
                return False
            got = _cm_json(out)
            if got is None or want is None:
                return got == want
            return (got["world"], got["valuation"]) == (want["world"], want["valuation"])

        jobs.append(Job(f"lib-small/{name}", run, check))
    return jobs


def lib_small_jobs(seed: int, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for kind, count in SMALL_JOBS.items():
        wants = expected.get(kind)
        for i in sorted(rng.sample(range(SMALL_POOL[kind]), count)):
            jobs.append(_small_job(kind, i, None if wants is None else wants[i]))
    rng.shuffle(jobs)
    return jobs


def build(workload: str, seed: int, inprocess: bool = False,
          expected: dict | None = None) -> tuple[list[Job], list[Job]]:
    """The jobs of one pass and the known-defect probes run beside them.
    expected defaults to the recorded expected/<workload>.json."""
    if expected is None:
        expected = load_expected(workload)
    if workload == "headline":
        return headline_jobs(seed, expected, inprocess), []
    if workload == "decide-mix":
        return decide_mix_jobs(seed, expected), []
    if workload == "valid-wide":
        return valid_wide_jobs(seed, expected), []
    if workload == "lib-small":
        return lib_small_jobs(seed, expected), probe_jobs()
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("headline", "decide-mix", "valid-wide", "lib-small")
