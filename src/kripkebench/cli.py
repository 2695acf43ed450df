"""Command-line front end.

Subcommands: parse, eval, valid, decide, correspond, witness, enumerate,
export-dot.  Exit codes are a contract: 0 positive verdict, 1 a
countermodel or mismatch was produced, 2 malformed input, 3 inconclusive
or precondition failed.  All output is byte-deterministic.  Each
subcommand returns its exit code, its JSON object (None for export-dot,
whose only output is DOT) and its text lines, and main prints one of them.
One table, _COMMANDS, gives every subcommand's arguments.  main reads a
plain command line from it directly; argparse, built from the same table,
serves only help, usage errors and the forms the fast path leaves to it.
A frame or model file is read by json's own C scanner, without importing
json, whose import loads re and enum: json loads only for --format json
and for a document the scanner does not read whole, so that json.loads
words its error.
"""

from __future__ import annotations

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
_JSON_SPACE = " \t\n\r"  # json.decoder.WHITESPACE


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        # json.loads's own C scanner and settings, without importing json,
        # whose import loads re and enum.  Anything the scanner does not read
        # whole, json.loads reads again and words the error for.
        from _json import make_scanner

        settings = _Args({
            "strict": True, "object_hook": None, "object_pairs_hook": None,
            "parse_float": float, "parse_int": int,
            "parse_constant": {
                "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan"),
            }.__getitem__,
        })
        start = len(text) - len(text.lstrip(_JSON_SPACE))
        value, end = make_scanner(settings)(text, start)
        if not text[end:].lstrip(_JSON_SPACE):
            return value
    except Exception:  # without json loaded, 3.10 and 3.11 raise SystemError here
        pass
    import json  # only here and for --format json

    try:
        return json.loads(text)
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


# The subcommands, the one source of both parsers: each name maps to its
# function, help text, positionals as (name, help, choices) and options as
# (flag, type, default, metavar, required, choices).  The type is int, None
# for a string, or bool for a store_true flag.  Each subcommand takes
# _FORMAT first; an option's dest is its flag less "--", with - as _.
_FORMAT = ("--format", None, "text", None, False, ("text", "json"))
_DOT = ("--dot", None, None, "PATH", False, None)
_FORMULA = ("formula", None, None)
_FRAME = ("frame", "frame JSON file", None)
_DEDUP = ("--dedup", bool, False, None, False, None)
_COMMANDS = {
    "parse": (cmd_parse, "parse a formula and show its structure", (_FORMULA,), ()),
    "eval": (cmd_eval, "evaluate forcing of a formula on a model file",
             (("model", "model JSON file", None), _FORMULA), (("--world", int, None, None, False, None),)),
    "valid": (cmd_valid, "decide frame validity by exhaustive valuation search", (_FRAME, _FORMULA), (_DOT,)),
    "decide": (cmd_decide, "bounded countermodel search in a logic's frame class",
               (("logic", "one of: " + ", ".join(LOGICS), None), _FORMULA),
               (("--bound", int, 4, "K", False, None),)),
    "correspond": (cmd_correspond, "compare schema validity against a frame condition",
                   (("schema", None, None), ("condition", ", ".join(condition_spellings()), None)),
                   (("--max-n", int, 4, "K", False, None), _DEDUP)),
    "witness": (cmd_witness, "build the explicit countermodel on a violating frame",
                (("kind", None, tuple(WITNESSES)), _FRAME), (_DOT,)),
    "enumerate": (cmd_enumerate, "enumerate all partial orders on n worlds", (),
                  (("--n", int, None, None, True, None), _DEDUP, ("--stats", bool, False, None, False, None))),
    "export-dot": (cmd_export_dot, "emit Graphviz source for a frame or model file",
                   (("input", "frame or model JSON file", None),), (_DOT,)),
}


def _build_parser():
    import argparse  # only for help and usage errors: see _fast_args

    top = argparse.ArgumentParser(
        prog="kripkebench",
        description="Kripke-semantics workbench for intuitionistic and intermediate logics",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, kind, default, metavar, required, choices in (_FORMAT, *options):
            if kind is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(
                    flag, type=kind, default=default, metavar=metavar,
                    required=required, choices=choices,
                )
        for arg, arg_help, choices in positionals:
            p.add_argument(arg, help=arg_help, choices=choices)
    return top


class _Args:
    """Values as attributes: the parsed command line, as argparse's
    Namespace holds it, and the JSON scanner's settings."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _fast_args(argv) -> _Args | None:
    """The namespace argparse makes of argv, if argv keeps to plain form:
    an exact subcommand, then its positionals and its options by exact
    flag, each option but a flag followed by its own value, and no
    positional or value starting with "-"; every value passing its type
    and choices, the positionals all there and every required option
    given.  None for anything else, which argparse parses: so argparse
    writes every help and usage message, and a plain command never
    imports it or builds its parser.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positionals, options = _COMMANDS[argv[0]]
    specs = {flag: (flag[2:].replace("-", "_"), *spec) for flag, *spec in (_FORMAT, *options)}
    values = {"command": argv[0], "func": func}
    values.update((dest, default) for dest, _, default, *_ in specs.values())
    if any(required and flag not in argv for flag, _, _, _, required, _ in options):
        return None
    free = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            free.append(arg)
            continue
        if arg not in specs:
            return None
        dest, kind, _, _, _, choices = specs[arg]
        if kind is bool:
            value = True
        else:
            value = next(rest, "-")  # a missing value falls back as a "-" would
            if value[:1] == "-":
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if choices and value not in choices:
                return None
        values[dest] = value
    if len(free) != len(positionals):
        return None
    for (name, _, choices), value in zip(positionals, free):
        if choices and value not in choices:
            return None
        values[name] = value
    return _Args(values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or _build_parser().parse_args(argv)
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
