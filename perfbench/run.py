"""kripkebench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client runs the workload's
jobs one at a time, in the workload's fixed number of passes
(workloads.PASSES); S only caps the time spent in passes: the run stops
early, and says so, when the passes so far and the next one would take
more than S seconds.  Every job's output is
checked after its pass.
Each job is timed by its best latency over the passes of the run, scaled
by a reference job timed just before it (REF_S below): wall_s is the sum of
those, job_p50_s and job_tail_s percentiles of them (see README.md for
why).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it gives the
details (provenance, pass walls, tail percentile, known-defect probes).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass (headline: a CLI-process pass, an untraced in-process pass
and a traced in-process pass), reports the per-layer metrics, and writes
the spans to .bench_build/trace/.  --smoke keeps a few cheap jobs per kind.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# setup_s: the median, over SETUP_SAMPLES fresh interpreters (after one
# discarded warm-up), of the time each takes to import the program, scaled
# by a reference that uses none of the program: a fresh interpreter that
# imports a fixed set of standard-library modules, run just before and just
# after each sample.  An import is mostly file lookups, unmarshalling and
# module bodies, so another import follows the host's speed changes far
# more closely than a pure-Python job does.  The samples are taken in
# equal groups before the first pass and after each pass, outside the
# timed passes, so that their median covers the host's speed over the
# whole run rather than over the few seconds a burst of them would take.
# SETUP_REF_S is near the reference import's time in the fast state of
# the host this was built on, as REF_S below is for the reference job.
SETUP_SAMPLES = 20
SETUP_REF_S = 0.05
IMPORT_CODE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
PROGRAM_IMPORT = IMPORT_CODE.format("kripkebench, kripkebench.cli")
REFERENCE_IMPORT = IMPORT_CODE.format("decimal, fractions, email.parser, http.client, xml.dom.minidom, csv")

# The host this was built on slows every process on it by up to 2.6x, in
# stretches from a fraction of a second to minutes (see README.md).  A fixed
# reference job that uses none of the program is timed, best of two runs,
# before every job that starts at least REF_EVERY_S after the previous
# sample, and every end-to-end time is scaled by REF_S over the reference's
# best sample in the workload's window (workloads.REF_WINDOW_S) before it:
# times read as seconds at the host speed at which the reference takes REF_S.
REF_S = 0.0028
REF_EVERY_S = 0.05


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest whole percentile with at least ten of one pass's jobs beyond it."""
    return max(0, 100 * (jobs_per_pass - 10) // jobs_per_pass)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


class Reference:
    """A sample is the best of two runs of ten naive-forcing evaluations of
    a fixed formula on a fixed model, all done by oracle.py.  Call
    refresh() before timing something and convert() on the time measured.
    The level a time is scaled by is the best sample of the last window_s
    seconds, or the latest sample when window_s is 0."""

    def __init__(self, window_s: float):
        import oracle

        f = oracle.random_formula(random.Random("reference"), 7, ("p", "q", "r"))
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5)]
        valuation = {"p": [3, 4], "q": [1, 3, 4], "r": [2, 3, 4, 5]}
        self._job = lambda: oracle.forced_worlds(6, pairs, valuation, f)
        self.window_s = window_s
        self.samples: list[float] = []
        self.times: list[float] = []
        self.last = 0.0
        self.level = 0.0

    def sample(self) -> None:
        runs = []
        for _ in range(2):
            start = perf_counter()
            for _ in range(10):
                self._job()
            self.last = perf_counter()
            runs.append(self.last - start)
        self.samples.append(min(runs))
        self.times.append(self.last)
        recent = bisect.bisect_left(self.times, self.last - self.window_s)
        self.level = min(self.samples[recent:])

    def refresh(self) -> None:
        if perf_counter() - self.last > REF_EVERY_S:
            self.sample()

    def convert(self, seconds: float) -> float:
        """Seconds measured since the latest sample, in reference seconds."""
        return seconds * REF_S / self.level


def import_time(env: dict, code: str) -> float:
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def setup_samples(env: dict, count: int) -> list[float]:
    """Scaled seconds that each of `count` fresh interpreters spends
    importing the program."""
    samples = []
    if count:
        before = import_time(env, REFERENCE_IMPORT)
        for _ in range(count):
            elapsed = import_time(env, PROGRAM_IMPORT)
            after = import_time(env, REFERENCE_IMPORT)
            samples.append(elapsed * SETUP_REF_S / ((before + after) / 2))
            before = after
    return samples


def provenance() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": tree.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
    }


def smoke_subset(jobs):
    kept, per_kind = [], {}
    for job in jobs:
        kind = job.id.split(":")[0].split(" ")[0]
        if job.cost_s < 0.5 and per_kind.get(kind, 0) < 2:
            per_kind[kind] = per_kind.get(kind, 0) + 1
            kept.append(job)
    return kept


class Tally:
    """Outcome of the checked job executions of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: dict[str, str] = {}

    def check(self, jobs, outs) -> None:
        for job, out in zip(jobs, outs):
            self.attempted += 1
            if not job.check(out):
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{job.id}: {type(out).__name__}")

    def check_probes(self, probes, outs) -> None:
        for job, out in zip(probes, outs):
            self.probes[job.id] = "ok" if job.check(out) else type(out).__name__


def run_pass(jobs, probes, tracer=None, reference=None):
    """Run every job once, back to back.  Returns the pass wall time, the
    per-job latencies and the outputs (an exception stands for its job's
    output).  With a tracer, the pass and each job get a bench span; with a
    reference, latencies are in reference seconds."""
    latencies, outs = [], []
    start = perf_counter()
    for job in list(jobs) + list(probes):
        if reference is not None:
            reference.refresh()
        t = perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                tracer.job = job.id
                with tracer.span("bench.job"):
                    out = job.run()
        except Exception as exc:  # a raising job is a failed job, not a failed run
            out = exc
        elapsed = perf_counter() - t
        latencies.append(elapsed if reference is None else reference.convert(elapsed))
        outs.append(out)
    wall = perf_counter() - start
    n = len(jobs)
    return wall, latencies[:n], outs[:n], outs[n:]


def traced_pass(jobs, probes):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            result = run_pass(jobs, probes, tracer)
    finally:
        tracer.uninstall()
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    return tracer, (wall,) + result[1:]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    import workloads as wl

    def jobs_for(inprocess=False):
        jobs, probes = wl.build(workload, seed, inprocess, expected)
        return (smoke_subset(jobs), probes) if smoke else (jobs, probes)

    tally = Tally()
    jobs, probes = jobs_for()
    pct = tail_percentile(len(jobs))
    detail = {"workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
              "provenance": provenance(), "jobs_per_pass": len(jobs), "client": "closed loop, 1"}

    if not trace:
        # One CPU for the loop, its CLI children and the reference job, so
        # that each time is scaled by a reference sample from the same CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        env = wl.cli_env()
        planned = wl.PASSES[workload]
        group = -(-SETUP_SAMPLES // (planned + 1))
        setup = setup_samples(env, 1 + group)[1:]  # the first is a warm-up
        reference = Reference(wl.REF_WINDOW_S[workload])
        walls, best, peak_kb = [], None, 0
        while len(walls) < planned:
            if walls:
                setup += setup_samples(env, min(group, SETUP_SAMPLES - len(setup)))
            wall, lat, outs, probe_outs = run_pass(jobs, probes, reference=reference)
            tally.check(jobs, outs)
            tally.check_probes(probes, probe_outs)
            walls.append(wall)
            if workload == "headline":
                peak_kb = max([peak_kb] + [out[2] for out in outs if isinstance(out, tuple)])
            best = lat if best is None else list(map(min, best, lat))
            if sum(walls) + wall > seconds:
                break
        setup += setup_samples(env, SETUP_SAMPLES - len(setup))
        if len(walls) < planned:
            print(f"warning: {len(walls)} of {planned} passes fit in {seconds:g} s; "
                  "the times are best-of-fewer and not comparable", file=sys.stderr)
        ranked = sorted(best)
        if workload != "headline":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (sum(best), "s"),
            "job_p50_s": (statistics.median(ranked), "s"),
            "job_tail_s": (nearest_rank(ranked, pct), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "ok_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
        detail.update(passes=len(walls), passes_planned=planned, pass_walls_s=walls,
                      tail_percentile=pct,
                      tail_jobs=len(ranked), setup_samples=SETUP_SAMPLES,
                      reference_samples=len(reference.samples),
                      reference_best_s=min(reference.samples),
                      reference_median_s=statistics.median(reference.samples))
    else:
        overhead_s = 0.0
        if workload == "headline":
            _, proc_lat, outs, _ = run_pass(jobs, probes)
            tally.check(jobs, outs)
            jobs, probes = jobs_for(inprocess=True)
        untraced_wall, lat, outs, probe_outs = run_pass(jobs, probes)
        tally.check(jobs, outs)
        if workload == "headline":
            overhead_s = sum(p - i for p, i in zip(proc_lat, lat))
        tracer, (wall, _, outs, probe_outs) = traced_pass(jobs, probes)
        tally.check(jobs, outs)
        tally.check_probes(probes, probe_outs)
        metrics = tracer.layer_metrics(wall, untraced_wall)
        metrics["cli.process_overhead_s"] = (overhead_s, "s")
        metrics["formula.deep_failed"] = (sum(v != "ok" for v in tally.probes.values()), "count")
        trace_file = BUILD / "trace" / f"{workload}-seed{seed}.json"
        tracer.write(trace_file, {"workload": workload, "seed": seed})
        detail.update(untraced_wall_s=untraced_wall, traced_wall_s=wall,
                      spans=len(tracer.spans), trace_file=str(trace_file.relative_to(ROOT)))

    detail.update(failures=tally.failures, deep_probes=tally.probes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def prepare() -> bool:
    """Make the program under src/ and the benchmark's modules importable,
    with bytecode cached under .bench_build.  False when src/ is missing."""
    if not (SRC / "kripkebench" / "__init__.py").is_file():
        return False
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few cheap jobs per kind")
    args = parser.parse_args(argv)

    if not prepare():
        print(f"error: no kripkebench sources under {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
