"""Record the expected result of every workload input from the current commit.

Run once, at the commit the benchmark was defined on, from the repository
root:

    python3 perfbench/record.py

It writes perfbench/expected/<workload>.json.  Later commits are checked
against these files, so do not re-record them to make a run pass.  Each
entry also keeps its job's best time here over ROUNDS rounds (cost_s),
which the workloads use only to stratify their samples and to pick smoke
jobs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kripkebench as kb  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402


# Each round calls every job of a workload once, so that the tries of one
# job fall minutes apart; back-to-back tries share the host's speed of the
# moment, and on a host whose speed changes every few seconds that made
# the cost ranking, and so each seed's draw, noisy.
ROUNDS = 5


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, round(time.perf_counter() - start, 4)


def best_costs(calls) -> list[float]:
    best = [float("inf")] * len(calls)
    for _ in range(ROUNDS):
        for k, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[k] = min(best[k], time.perf_counter() - start)
    return [round(b, 6) for b in best]


def record_headline() -> dict:
    env = wl.cli_env()
    commands = []
    for argv in wl.HEADLINE:
        code, stdout, _ = wl.run_cli_process(argv, env)
        commands.append({"argv": list(argv), "exit": code, "stdout": stdout})
    costs = best_costs([lambda argv=argv: wl.run_cli_process(argv, env) for argv in wl.HEADLINE])
    for command, cost in zip(commands, costs):
        command["cost_s"] = cost
    return {"commands": commands}


def record_decide_mix() -> dict:
    pool, calls = [], []
    for i in range(wl.DECIDE_POOL):
        logic, f = wl.decide_item(i)
        call = lambda logic=logic, f=f: kb.decide(kb.get_logic(logic), f, wl.DECIDE_BOUND)
        result = call().to_json()
        cm = result.get("countermodel")
        if cm is not None and not oracle.refutes(cm, f):
            raise AssertionError(f"decide-mix item {i}: countermodel does not refute")
        pool.append({"i": i, "logic": logic, "formula": oracle.text(f), "result": result})
        calls.append(call)
    for item, cost in zip(pool, best_costs(calls)):
        item["cost_s"] = cost
    return {"pool": pool}


def record_valid_wide() -> dict:
    fixed, calls = [], []
    for name, fr, f in wl.wide_fixed_inputs():
        call = lambda fr=fr, f=f: kb.frame_valid(fr, f)
        fixed.append({"id": name, "result": wl._cm_json(call())})
        calls.append(call)
    # Keep only sparse items whose search is long: valid, or refuted no
    # earlier than a quarter of the way through the valuation space.
    sparse = []
    i = 0
    while len(sparse) < wl.WIDE_POOL:
        n, pairs, f = wl.wide_item(i)
        f = wl._wide_formula(f)
        call = lambda n=n, pairs=pairs, f=f: kb.frame_valid(kb.make_frame(n, pairs), f)
        cm = call()
        ups, names = oracle.upsets(n, pairs), oracle.atom_names(f)
        space = len(ups) ** len(names)
        result = wl._cm_json(cm)
        if result is None:
            rank = space
        else:
            if not oracle.refutes(result, f):
                raise AssertionError(f"valid-wide item {i}: countermodel does not refute")
            rank = oracle.valuation_rank(ups, names, result["valuation"])
        if 4 * rank >= space:
            sparse.append({"i": i, "result": result, "space": space, "rank": rank})
            calls.append(call)
        i += 1
    for item, cost in zip(fixed + sparse, best_costs(calls)):
        item["cost_s"] = cost
    return {"fixed": fixed, "sparse": sparse}


def record_lib_small() -> dict:
    out = {}
    for kind in ("parse", "valid", "export"):
        wants = []
        for i in range(wl.SMALL_POOL[kind]):
            job = wl._small_job(kind, i, None)
            wants.append(wl.digest(wl.small_output(kind, job.run())))
        out[kind] = wants
    return out


RECORDERS = {
    "headline": record_headline,
    "decide-mix": record_decide_mix,
    "valid-wide": record_valid_wide,
    "lib-small": record_lib_small,
}


def main(argv: list[str]) -> int:
    wl.EXPECTED.mkdir(exist_ok=True)
    for name in argv or wl.WORKLOADS:
        data, cost = timed(RECORDERS[name])
        with open(wl.EXPECTED / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{name}: recorded in {cost:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
