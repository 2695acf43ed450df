"""Command-line front end.

Subcommands: parse, eval, valid, decide, correspond, witness, enumerate,
export-dot.  Exit codes are a contract: 0 positive verdict, 1 a
countermodel or mismatch was produced, 2 malformed input, 3 inconclusive
or precondition failed.  All output is byte-deterministic.  Each
subcommand returns its exit code, its JSON object (None for export-dot,
whose only output is DOT) and its text lines, and main prints one of them.
"""

from __future__ import annotations

import argparse
import sys

from .formula import ast_repr, atoms, parse, render
from .kripke import (
    Countermodel,
    Frame,
    Model,
    _class_reps,
    _labeled_count,
    countermodel_to_json,
    force_set,
    forces,
    frame_from_json,
    frame_valid,
    model_from_json,
    to_dot,
)
from .correspondence import (
    WITNESSES,
    PreconditionFailed,
    check_correspondence,
    condition_from_name,
    condition_spellings,
)
from .logics import LOGICS, Verdict, decide, get_logic

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _load_json(path: str):
    import json  # here and in main, so that text-mode commands never load it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None


def _write_dot(path: str | None, obj) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_dot(obj))


def _set_text(worlds) -> str:
    return "{" + ",".join(str(w) for w in sorted(worlds)) + "}"


def _frame_text(fr: Frame) -> str:
    pairs = " ".join(f"{i}<{j}" for i, j in fr.strict_pairs())
    return f"{fr.size} worlds" + (f", order {pairs}" if pairs else ", discrete")


def _countermodel_text(cm: Countermodel) -> list[str]:
    lines = [f"countermodel: world {cm.world} does not force {render(cm.formula)}"]
    lines.append("frame: " + _frame_text(cm.model.frame))
    parts = [
        f"{name}={_set_text(worlds)}"
        for name, worlds in cm.model.valuation_dict().items()
    ]
    lines.append("valuation: " + (", ".join(parts) if parts else "(empty)"))
    return lines


def cmd_parse(args) -> tuple[int, dict | None, list[str]]:
    f = parse(args.formula)
    text, tree, names = render(f), ast_repr(f), sorted(atoms(f))
    data = {"input": args.formula, "formula": text, "ast": tree, "atoms": names}
    lines = [
        f"formula: {text}",
        f"ast: {tree}",
        "atoms: " + (" ".join(names) if names else "(none)"),
    ]
    return EXIT_OK, data, lines


def cmd_eval(args) -> tuple[int, dict | None, list[str]]:
    model = model_from_json(_load_json(args.model))
    f = parse(args.formula)
    text = render(f)
    if args.world is not None:
        verdict = forces(model, args.world, f)
        data = {"formula": text, "world": args.world, "forced": verdict}
        lines = [f"world {args.world} {'forces' if verdict else 'does not force'} {text}"]
        return (EXIT_OK if verdict else EXIT_REFUTED), data, lines
    forced = force_set(model, f)
    every = len(forced) == model.frame.size
    data = {"formula": text, "forced_worlds": sorted(forced), "all_forced": every}
    lines = [
        f"world {w} {'forces' if w in forced else 'does not force'} {text}"
        for w in range(model.frame.size)
    ]
    return (EXIT_OK if every else EXIT_REFUTED), data, lines


def cmd_valid(args) -> tuple[int, dict | None, list[str]]:
    fr = frame_from_json(_load_json(args.frame))
    f = parse(args.formula)
    cm = frame_valid(fr, f)
    if cm is None:
        return EXIT_OK, {"verdict": "valid", "formula": render(f)}, ["Valid"]
    _write_dot(args.dot, cm.model)
    data = {"verdict": "countermodel", **countermodel_to_json(cm)}
    return EXIT_REFUTED, data, _countermodel_text(cm)


def cmd_decide(args) -> tuple[int, dict | None, list[str]]:
    logic = get_logic(args.logic)
    f = parse(args.formula)
    decision = decide(logic, f, args.bound)
    data = {"logic": logic.name, "formula": render(f), **decision.to_json()}
    if decision.verdict is Verdict.VALID:
        head = f"valid in {logic.name} (search complete at n <= {decision.bound})"
        return EXIT_OK, data, [head]
    if decision.verdict is Verdict.REFUTED:
        lines = [f"refuted in {logic.name}", *_countermodel_text(decision.countermodel)]
        return EXIT_REFUTED, data, lines
    head = f"no countermodel in {logic.name} up to n = {decision.bound}"
    return EXIT_INCONCLUSIVE, data, [head]


def cmd_correspond(args) -> tuple[int, dict | None, list[str]]:
    schema = parse(args.schema)
    condition = condition_from_name(args.condition)
    report = check_correspondence(schema, condition, args.max_n, args.dedup)
    code = EXIT_OK if report.ok else EXIT_REFUTED
    return code, report.to_json(), [report.format_text()]


def cmd_witness(args) -> tuple[int, dict | None, list[str]]:
    fr = frame_from_json(_load_json(args.frame))
    cm = WITNESSES[args.kind](fr)
    _write_dot(args.dot, cm.model)
    return EXIT_REFUTED, countermodel_to_json(cm), _countermodel_text(cm)


def cmd_enumerate(args) -> tuple[int, dict | None, list[str]]:
    if args.dedup or args.stats:
        # A class's labeled members, counted in growth, share its depth and width.
        frames, labelings = _class_reps((), args.n)
        weights = [1] * len(frames) if args.dedup else labelings
        count = sum(weights)
    else:
        count = _labeled_count(args.n)
    histogram: dict[tuple[int, int], int] = {}
    if args.stats:
        for fr, weight in zip(frames, weights):
            key = (fr.depth(), fr.width())
            histogram[key] = histogram.get(key, 0) + weight
    kind = "isomorphism classes" if args.dedup else "labeled frames"
    data = {"n": args.n, "dedup": args.dedup, "count": count}
    lines = [f"n={args.n}: {count} {kind}"]
    if args.stats:
        stats = sorted(histogram.items())
        data["stats"] = [{"depth": d, "width": w, "count": c} for (d, w), c in stats]
        lines += [f"  depth={d} width={w}: {c}" for (d, w), c in stats]
    return EXIT_OK, data, lines


def cmd_export_dot(args) -> tuple[int, dict | None, list[str]]:
    source = _load_json(args.input)
    if isinstance(source, dict) and "valuation" in source:
        obj: Frame | Model = model_from_json(source)
    else:
        obj = frame_from_json(source)
    _write_dot(args.dot, obj)
    return EXIT_OK, None, [] if args.dot else to_dot(obj).splitlines()


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kripkebench",
        description="Kripke-semantics workbench for intuitionistic and intermediate logics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("parse", cmd_parse, "parse a formula and show its structure")
    p.add_argument("formula")

    p = add("eval", cmd_eval, "evaluate forcing of a formula on a model file")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formula")
    p.add_argument("--world", type=int, default=None)

    p = add("valid", cmd_valid, "decide frame validity by exhaustive valuation search")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("formula")
    p.add_argument("--dot", metavar="PATH", default=None)

    p = add("decide", cmd_decide, "bounded countermodel search in a logic's frame class")
    p.add_argument("logic", help="one of: " + ", ".join(LOGICS))
    p.add_argument("formula")
    p.add_argument("--bound", type=int, default=4, metavar="K")

    p = add("correspond", cmd_correspond, "compare schema validity against a frame condition")
    p.add_argument("schema")
    p.add_argument("condition", help=", ".join(condition_spellings()))
    p.add_argument("--max-n", type=int, default=4, metavar="K")
    p.add_argument("--dedup", action="store_true")

    p = add("witness", cmd_witness, "build the explicit countermodel on a violating frame")
    p.add_argument("kind", choices=tuple(WITNESSES))
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--dot", metavar="PATH", default=None)

    p = add("enumerate", cmd_enumerate, "enumerate all partial orders on n worlds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--stats", action="store_true")

    p = add("export-dot", cmd_export_dot, "emit Graphviz source for a frame or model file")
    p.add_argument("input", help="frame or model JSON file")
    p.add_argument("--dot", metavar="PATH", default=None)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, data, lines = args.func(args)
        if data is not None and args.format == "json":
            import json

            print(json.dumps(data, sort_keys=True, indent=2))
        elif lines:
            print("\n".join(lines))
        return code
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
