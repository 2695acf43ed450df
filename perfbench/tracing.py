"""Spans around the program's public functions, recorded from outside.

Tracer.install() replaces each traced function in every kripkebench module
that binds it by name (cli, logics and correspondence import frame_valid,
enumerate_frames and eval_condition directly), so calls between layers are
seen as well as the benchmark's own calls.  Spans stay in memory as
[name, start, end, parent, job] and are written out once, at the end.

Every "_s" layer metric is a self time: a span's duration minus the time
covered by its direct children.  Together with the benchmark's own spans
(bench.*) they add up to the traced pass's wall time.  kripke.upsets is the
tracer's own re-run of Frame.upsets() (frame_valid's scan stays inside its
span), so trace.accounted_share leaves it out with the bench.* spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import kripkebench
from kripkebench import cli, correspondence, formula, kripke, logics

import oracle

MODULES = (kripkebench, formula, kripke, correspondence, logics, cli)

# function -> span name, for the functions wrapped without extra bookkeeping
PLAIN = {
    (formula, "parse"): "formula.parse",
    (formula, "render"): "formula.render",
    (kripke, "forces"): "kripke.forcing",
    (kripke, "force_set"): "kripke.forcing",
    (kripke, "countermodel_to_json"): "kripke.export",
    (kripke, "to_dot"): "kripke.export",
    (correspondence, "check_correspondence"): "correspondence.sweep",
    (correspondence, "collapse_check"): "correspondence.sweep",
    (cli, "main"): "cli.main",
}

BENCH = ("bench.pass", "bench.job", "trace.bookkeeping")
# Spans that are not the program's own work.
NOT_PROGRAM = BENCH + ("kripke.upsets",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.upset_masks: dict = {}
        self.frames_yielded = 0
        self.frames_searched = 0
        self.valuations = 0
        self.conditions_true = 0
        self.refute_sizes: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
        stack.append(idx)
        spans[idx][1] = perf_counter()
        try:
            yield
        finally:
            spans[idx][2] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return traced

    # -- wrappers with bookkeeping ------------------------------------------

    def _frame_valid(self, fn):
        inner = self._wrap("kripke.frame_valid", fn)

        def frame_valid(fr, f):
            masks = self.upset_masks.get(fr)
            if masks is None:
                with self.span("kripke.upsets"):
                    found = fr.upsets()
                masks = sorted(sum(1 << w for w in s) for s in found)
                self.upset_masks[fr] = masks
            cm = inner(fr, f)
            with self.span("trace.bookkeeping"):
                names = oracle.atom_names(f)
                if cm is None:
                    self.valuations += len(masks) ** len(names)
                else:
                    valuation = cm.model.valuation_dict()
                    self.valuations += oracle.valuation_rank(masks, names, valuation) + 1
            return cm

        return frame_valid

    def _enumerate_frames(self, fn):
        tracer = self

        class Frames:
            def __init__(self, it, name):
                self.it, self.name = it, name

            def __iter__(self):
                return self

            def __next__(self):
                spans, stack = tracer.spans, tracer.stack
                parent = stack[-1] if stack else -1
                idx = len(spans)
                spans.append([self.name, 0.0, 0.0, parent, tracer.job])
                stack.append(idx)
                spans[idx][1] = perf_counter()
                try:
                    fr = next(self.it)
                finally:
                    spans[idx][2] = perf_counter()
                    stack.pop()
                tracer.frames_yielded += 1
                if parent >= 0 and spans[parent][0] == "logics.decide":
                    tracer.frames_searched += 1
                return fr

        def enumerate_frames(n, dedup=False):
            name = "kripke.enum_dedup" if dedup else "kripke.enum_labeled"
            return Frames(fn(n, dedup), name)

        return enumerate_frames

    def _on_condition(self, out, args, kwargs):
        self.conditions_true += bool(out)

    def _on_decide(self, out, args, kwargs):
        if out.verdict is logics.Verdict.REFUTED:
            self.refute_sizes.append(out.bound)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for (home, name), span_name in PLAIN.items():
            fn = getattr(home, name)
            wrapped[fn] = (name, self._wrap(span_name, fn))
        fn = kripke.frame_valid
        wrapped[fn] = ("frame_valid", self._frame_valid(fn))
        fn = kripke.enumerate_frames
        wrapped[fn] = ("enumerate_frames", self._enumerate_frames(fn))
        fn = correspondence.eval_condition
        wrapped[fn] = ("eval_condition", self._wrap("correspondence.condition", fn, self._on_condition))
        fn = logics.decide
        wrapped[fn] = ("decide", self._wrap("logics.decide", fn, self._on_decide))
        for module in MODULES:
            for fn, (name, replacement) in wrapped.items():
                if getattr(module, name, None) is fn:
                    setattr(module, name, replacement)
                    self._restore.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(spans, covered):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        self_s, calls = self.self_times()

        def s(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def c(*names):
            return sum(calls.get(n, 0) for n in names)

        enum_s = s("kripke.enum_labeled", "kripke.enum_dedup")
        valid_s = s("kripke.frame_valid")
        conditions = c("correspondence.condition")
        bench_self = s(*BENCH)
        m = {
            "formula.parse_s": (s("formula.parse"), "s"),
            "formula.parse_calls": (c("formula.parse"), "count"),
            "formula.render_s": (s("formula.render"), "s"),
            "kripke.enum_labeled_s": (s("kripke.enum_labeled"), "s"),
            "kripke.enum_dedup_s": (s("kripke.enum_dedup"), "s"),
            "kripke.frames_yielded": (self.frames_yielded, "count"),
            "kripke.frames_per_s": (self.frames_yielded / enum_s if enum_s else 0.0, "1/s"),
            "kripke.frame_valid_s": (valid_s, "s"),
            "kripke.frame_valid_calls": (c("kripke.frame_valid"), "count"),
            "kripke.valuation_space": (self.valuations, "count"),
            "kripke.valuations_per_s": (self.valuations / valid_s if valid_s else 0.0, "1/s"),
            "kripke.upsets_s": (s("kripke.upsets"), "s"),
            "kripke.upsets": (sum(len(m) for m in self.upset_masks.values()), "count"),
            "kripke.forcing_s": (s("kripke.forcing"), "s"),
            "kripke.forcing_calls": (c("kripke.forcing"), "count"),
            "kripke.export_s": (s("kripke.export"), "s"),
            "correspondence.condition_s": (s("correspondence.condition"), "s"),
            "correspondence.condition_calls": (conditions, "count"),
            "correspondence.class_pass_ratio": (
                self.conditions_true / conditions if conditions else 0.0, "ratio"),
            "correspondence.sweep_self_s": (s("correspondence.sweep"), "s"),
            "logics.decide_self_s": (s("logics.decide"), "s"),
            "logics.frames_searched": (self.frames_searched, "count"),
            "logics.refute_n": (
                sum(self.refute_sizes) / len(self.refute_sizes) if self.refute_sizes else 0.0,
                "worlds"),
            "cli.main_self_s": (s("cli.main"), "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.bench_self_s": (bench_self, "s"),
            "trace.accounted_share": (
                (sum(self_s.values()) - s(*NOT_PROGRAM)) / traced_wall if traced_wall else 0.0,
                "ratio"),
        }
        return m

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 7), round(end - origin, 7), parent, job]
            for name, start, end, parent, job in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "job"], "spans": rows}, handle)
            handle.write("\n")
