"""Packaging guards: the library has no runtime dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kripkebench


def test_runtime_imports_are_stdlib_only():
    sources = sorted(Path(kripkebench.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cli_import_loads_no_typing_dataclasses_or_inspect():
    # Annotations stay unevaluated strings, which import nothing; the value
    # types are records rather than dataclasses, which import inspect; atom
    # names are scanned without re, memos are dicts rather than functools'
    # caches, Verdict is no enum, and argparse loads only for help and
    # errors: the CLI's start-up pays for none of these modules.
    src = Path(kripkebench.__file__).parent.parent
    unloaded = (
        "typing", "dataclasses", "inspect", "re", "enum", "functools", "collections",
        "argparse", "gettext", "shutil", "locale",
    )
    code = (
        "import sys, kripkebench, kripkebench.cli; "
        f"print([m for m in {unloaded} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


TEXT_COMMANDS = """
import contextlib, io, sys, kripkebench, kripkebench.cli
from kripkebench import correspondence, kripke, logics
from kripkebench.formula import _Compiled
unused = (kripke.Countermodel, logics.Decision, correspondence.SizeTally,
          correspondence.CorrespondenceReport)
seen = ["json" in sys.modules]
seen.append([cls.__name__ for cls in unused if any(
    not isinstance(vars(cls)[name], _Compiled) for name in ("__init__", "__eq__"))])
with contextlib.redirect_stdout(io.StringIO()):
    seen.append([kripkebench.cli.main(argv) for argv in (
        ["decide", "cpc", "p|~p"],
        ["enumerate", "--n", "4", "--stats"],
        ["correspond", "(p->q)|(q->p)", "lin", "--max-n", "3"],
    )])
seen.append("json" in sys.modules)
seen.append("argparse" in sys.modules)
print(seen)
"""


def test_text_mode_commands_load_no_json_and_records_compile_on_first_use():
    # json is imported only to write --format json and to word what its
    # scanner does not read whole, and a record class compiles its methods
    # on its first use: the import leaves the classes that no module
    # constant builds uncompiled, and text-mode commands never load json.
    src = Path(kripkebench.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", TEXT_COMMANDS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[False, [], [0, 0, 0], False, False]\n"


ONE_COMMAND = """
import contextlib, io, sys, kripkebench.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = kripkebench.cli.main(sys.argv[1:])
print(code, [m for m in ("json", "re", "enum") if m in sys.modules])
"""
FILES = {
    "frame": '{"worlds": 3, "le": [[0, 1], [0, 2]]}',
    "model": '{"worlds": 2, "le": [[0, 1]], "valuation": {"p": [1]}}',
    "bad": '{"worlds" 3}',
}
JSON_OR_NOT = [
    (["valid", "{frame}", "(p->q)|(q->p)"], "1 []"),
    (["valid", "{frame}", "p|(p->(q|~q))"], "0 []"),
    (["witness", "gl", "{frame}"], "1 []"),
    (["eval", "{model}", "p"], "1 []"),
    (["eval", "{model}", "p", "--world", "1"], "0 []"),
    (["export-dot", "{frame}"], "0 []"),
    (["export-dot", "{model}"], "0 []"),
    (["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"], "1 []"),
    (["valid", "{frame}", "p|(p->(q|~q))", "--format", "json"], "0 ['json', 're', 'enum']"),
    (["valid", "{bad}", "p"], "2 ['json', 're', 'enum']"),
]


@pytest.mark.parametrize("argv, want", JSON_OR_NOT, ids=[" ".join(argv) for argv, _ in JSON_OR_NOT])
def test_text_mode_file_commands_load_no_json_re_or_enum(tmp_path, argv, want):
    # The CLI reads a frame or model file with json's C scanner and prints a
    # mismatch's frame itself; json, and with it re and enum, loads only for
    # --format json and for a document the scanner does not read whole.
    paths = {name: str(tmp_path / f"{name}.json") for name in FILES}
    for name, text in FILES.items():
        Path(paths[name]).write_text(text, encoding="utf-8")
    src = Path(kripkebench.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", ONE_COMMAND, *(arg.format(**paths) for arg in argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == want + "\n"


FALLBACK = """
import contextlib, io, sys, kripkebench.cli
for argv in (["decide", "--help"], ["parse", "p", "--colour"]):
    sys.modules.pop("argparse", None)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            kripkebench.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(code, "argparse" in sys.modules)
"""


def test_help_and_usage_errors_load_argparse():
    # argparse writes every help and usage message, so a command line that
    # asks for help or that the fast path does not read loads it.
    src = Path(kripkebench.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", FALLBACK],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "0 True\n2 True\n"


def test_ci_runs_the_slow_checks_in_place_of_one_liners():
    # The checks past tier-1's sizes are named tests in tests/slow_checks.py,
    # which run locally and by name; a `python -c` step would hide one in the
    # workflow again.  The one left prints the trace step's ignore paths.
    workflow = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    steps = workflow.split("\n      - name: ")[1:]
    assert [step.split("\n")[0] for step in steps if "python -c" in step] == [
        "Tier-1 runs every line of src/kripkebench"
    ]
    assert "\n        run: PYTHONPATH=src python -m pytest -q tests/slow_checks.py\n" in workflow


def test_readme_library_quick_start_runs_and_prints_its_comments():
    # Each statement of the README's "Library quick start" block runs in
    # order, and each expression's "# value" comment, read as Python,
    # equals the expression's value.
    import io
    import tokenize

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = ast.Module([node], [])
        if not isinstance(node, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        want = eval(comments[node.end_lineno], {"Verdict": kripkebench.Verdict})
        assert got == want, (ast.unparse(node), got)
        checked += 1
    assert checked == 5
