"""Packaging guards: the library has no runtime dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    # Annotations stay unevaluated, so collections.abc serves them, and the
    # value types are records rather than dataclasses, which import inspect:
    # the CLI's start-up pays for none of these modules.
    src = Path(kripkebench.__file__).parent.parent
    code = (
        "import sys, kripkebench, kripkebench.cli; "
        "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])"
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
print(seen)
"""


def test_text_mode_commands_load_no_json_and_records_compile_on_first_use():
    # json is imported where JSON is read or written, and a record class
    # compiles its methods on its first use: the import leaves the classes
    # that no module constant builds uncompiled, and text-mode commands
    # never load json.
    src = Path(kripkebench.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", TEXT_COMMANDS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[False, [], [0, 0, 0], False]\n"


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
