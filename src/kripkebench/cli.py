"""Command-line front end.

Subcommands: parse, eval, valid, decide, correspond, witness, enumerate,
export-dot.  Exit codes are a contract: 0 positive verdict, 1 a
countermodel or mismatch was produced, 2 malformed input, 3 inconclusive
or precondition failed.  All output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formula import ast_repr, atoms, parse, render
from .kripke import (
    Countermodel,
    Frame,
    Model,
    countermodel_to_json,
    enumerate_frames,
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
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None


def _print_json(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


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


def cmd_parse(args) -> int:
    f = parse(args.formula)
    names = sorted(atoms(f))
    if args.format == "json":
        _print_json(
            {
                "input": args.formula,
                "formula": render(f),
                "ast": ast_repr(f),
                "atoms": names,
            }
        )
    else:
        print(f"formula: {render(f)}")
        print(f"ast: {ast_repr(f)}")
        print("atoms: " + (" ".join(names) if names else "(none)"))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = model_from_json(_load_json(args.model))
    f = parse(args.formula)
    if args.world is not None:
        verdict = forces(model, args.world, f)
        if args.format == "json":
            _print_json(
                {"formula": render(f), "world": args.world, "forced": verdict}
            )
        else:
            print(
                f"world {args.world} "
                + ("forces" if verdict else "does not force")
                + f" {render(f)}"
            )
        return EXIT_OK if verdict else EXIT_REFUTED
    forced = force_set(model, f)
    every = len(forced) == model.frame.size
    if args.format == "json":
        _print_json(
            {
                "formula": render(f),
                "forced_worlds": sorted(forced),
                "all_forced": every,
            }
        )
    else:
        for w in range(model.frame.size):
            mark = "forces" if w in forced else "does not force"
            print(f"world {w} {mark} {render(f)}")
    return EXIT_OK if every else EXIT_REFUTED


def cmd_valid(args) -> int:
    fr = frame_from_json(_load_json(args.frame))
    f = parse(args.formula)
    cm = frame_valid(fr, f)
    if cm is None:
        if args.format == "json":
            _print_json({"verdict": "valid", "formula": render(f)})
        else:
            print("Valid")
        return EXIT_OK
    _write_dot(args.dot, cm.model)
    if args.format == "json":
        _print_json({"verdict": "countermodel", **countermodel_to_json(cm)})
    else:
        print("\n".join(_countermodel_text(cm)))
    return EXIT_REFUTED


def cmd_decide(args) -> int:
    logic = get_logic(args.logic)
    f = parse(args.formula)
    decision = decide(logic, f, args.bound)
    if args.format == "json":
        _print_json({"logic": logic.name, "formula": render(f), **decision.to_json()})
    else:
        if decision.verdict is Verdict.VALID:
            print(f"valid in {logic.name} (search complete at n <= {decision.bound})")
        elif decision.verdict is Verdict.REFUTED:
            print(f"refuted in {logic.name}")
            print("\n".join(_countermodel_text(decision.countermodel)))
        else:
            print(f"no countermodel in {logic.name} up to n = {decision.bound}")
    if decision.verdict is Verdict.VALID:
        return EXIT_OK
    if decision.verdict is Verdict.REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def cmd_correspond(args) -> int:
    schema = parse(args.schema)
    condition = condition_from_name(args.condition)
    report = check_correspondence(schema, condition, args.max_n, args.dedup)
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(report.format_text())
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_witness(args) -> int:
    fr = frame_from_json(_load_json(args.frame))
    cm = WITNESSES[args.kind](fr)
    _write_dot(args.dot, cm.model)
    if args.format == "json":
        _print_json(countermodel_to_json(cm))
    else:
        print("\n".join(_countermodel_text(cm)))
    return EXIT_REFUTED


def cmd_enumerate(args) -> int:
    histogram: dict[tuple[int, int], int] = {}
    count = 0
    for fr in enumerate_frames(args.n, args.dedup):
        count += 1
        if args.stats:
            key = (fr.depth(), fr.width())
            histogram[key] = histogram.get(key, 0) + 1
    kind = "isomorphism classes" if args.dedup else "labeled frames"
    if args.format == "json":
        data = {"n": args.n, "dedup": args.dedup, "count": count}
        if args.stats:
            data["stats"] = [
                {"depth": d, "width": w, "count": c}
                for (d, w), c in sorted(histogram.items())
            ]
        _print_json(data)
    else:
        print(f"n={args.n}: {count} {kind}")
        if args.stats:
            for (d, w), c in sorted(histogram.items()):
                print(f"  depth={d} width={w}: {c}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "valuation" in data:
        obj: Frame | Model = model_from_json(data)
    else:
        obj = frame_from_json(data)
    if args.dot:
        _write_dot(args.dot, obj)
    else:
        print(to_dot(obj), end="")
    return EXIT_OK


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
        return args.func(args)
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
