"""Self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

1. A smoke run (a few cheap jobs) of every workload, untraced and traced,
   must pass its correctness gate and emit every metric BENCHMARK.json
   names for that mode.
2. A run against one deliberately corrupted expected result must count a
   failed job: failed > 0, ok_rate < 1 and correct false.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = {m["name"] for m in spec[section]} - set(result["metrics"])
            if missing:
                problems.append(f"{label}: missing metrics {sorted(missing)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correctness gate failed")
            print(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} jobs checked")
    return problems


def corrupted() -> list[str]:
    import run
    import workloads as wl

    expected = wl.load_expected("decide-mix")
    first = run.smoke_subset(wl.build("decide-mix", 1, expected=expected)[0])[0]
    index = int(first.id.split(":")[1])
    item = next(it for it in expected["pool"] if it["i"] == index)
    item["result"] = dict(item["result"], bound=item["result"]["bound"] + 1)
    result, _ = run.measure("decide-mix", 1, 1.0, trace=False, smoke=True, expected=expected)
    ok_rate = result["metrics"]["ok_rate"]["value"]
    print(f"corrupted {first.id}: failed={result['failed']} ok_rate={ok_rate:.3f}")
    if result["failed"] == 0 or ok_rate >= 1 or result["correct"]:
        return [f"a corrupted expected result for {first.id} went unnoticed"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    if not run.prepare():
        print("error: no kripkebench sources under src/", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = smoke(spec) + corrupted()
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
