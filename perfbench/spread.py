"""Run workloads on several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py WORKLOAD[,WORKLOAD...] SEED[,SEED...] [--out FILE]

Run from the repository root.  Each run is untraced, with --seconds set to
run_seconds from BENCHMARK.json.  For every metric it prints the median over
the seeds and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
flagged when it is not below a third of the metric's bound in
BENCHMARK.json.  --out writes the values, medians and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads")
    parser.add_argument("seeds")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    report = {"seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
                return 1
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            report.setdefault("provenance", detail["provenance"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} passes={detail['passes']}/{detail['passes_planned']}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, xs in values.items():
            s = spread(xs)
            flag = "" if name not in bounds or s < bounds[name] / 3 else "  <-- not below bound/3"
            print(f"  {workload} {name:32s} median {statistics.median(xs):<12.6g} spread {s:.4f}{flag}")
            summary[name] = {"median": statistics.median(xs), "spread": s, "values": xs}
        report["workloads"][workload] = {"seeds": args.seeds, "metrics": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
