"""CLI fuzzing: every input exits with a contract code 0-3 and no exception
escapes main.

The work of valid and decide grows exponentially with the number of atoms,
and no work budget bounds it yet, so they are fuzzed with formulas over p
and q only: on frames of at most six worlds (64 upsets) valid tries at most
4,096 valuations, and decide searches up to three worlds.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kripkebench.cli import main
from kripkebench.formula import ParseError, parse, render
from kripkebench.logics import LOGICS

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

WORLD = st.integers(-2, 6)
JUNK = st.recursive(
    st.none() | st.booleans() | WORLD | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# Well-typed documents, so that frames and models get built and evaluated,
# beside junk ones.  Small worlds come up more often, so that pairs and
# valuations name worlds of the frame.
SIZE = st.integers(1, 3) | WORLD
ITEM = st.integers(0, 2) | WORLD
PAIRS = st.lists(st.lists(ITEM, min_size=2, max_size=2), max_size=3)
NAMES = st.sampled_from(["p", "q", "T", "p_1", "1p", "é"]) | st.text(max_size=2)
FRAMES = st.fixed_dictionaries({"worlds": SIZE, "le": PAIRS})
MODELS = st.fixed_dictionaries(
    {
        "worlds": SIZE,
        "le": PAIRS,
        "valuation": st.dictionaries(NAMES, st.lists(ITEM, max_size=3), max_size=2),
    }
)
DOCUMENTS = MODELS | FRAMES | JUNK
FORMULA_TEXT = st.text() | st.text(" pqTF()~&|->")
FORMULA_SAMPLES = st.sampled_from(["p", "p -> q", "~p | p", "(p->q)|(q->p)"])
FORMULAS = FORMULA_SAMPLES | FORMULA_TEXT
# Formulas over p and q only, for the commands whose work is exponential in
# the number of atoms.
PQ_FORMULAS = FORMULA_SAMPLES | st.text(" pqTF()~&|->")
LOGIC_NAMES = st.sampled_from(sorted(LOGICS) + ["GL", "ipc "]) | st.text(max_size=6)
CONDITION_TEXT = (
    st.sampled_from(["lin", "bd2-chain", "BD2-Paper", "discrete", "depth-le-2", "cone-size-le-0"])
    | st.text(max_size=12)
)


def run(argv) -> int:
    """main's exit code, with argparse's usage exits counted as codes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@contextlib.contextmanager
def json_file(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        yield path


@FUZZ
@given(FORMULA_TEXT)
def test_parse_fuzz(text):
    assert run(["parse", text]) in (0, 1, 2, 3)


@FUZZ
@given(FORMULA_TEXT)
def test_parse_render_contract_fuzz(text):
    # Every text either parses to a formula that render prints back to
    # itself, or fails with a position inside the text or just past its end.
    try:
        f = parse(text)
    except ParseError as err:
        assert 1 <= err.position <= len(text) + 1
    else:
        assert parse(render(f)) == f


@FUZZ
@given(DOCUMENTS, FORMULAS, st.none() | WORLD)
def test_eval_fuzz(doc, formula, world):
    with json_file(doc) as path:
        argv = ["eval", path, formula] + ([] if world is None else ["--world", str(world)])
        assert run(argv) in (0, 1, 2, 3)


@FUZZ
@given(DOCUMENTS, PQ_FORMULAS)
def test_valid_fuzz(doc, formula):
    with json_file(doc) as path:
        assert run(["valid", path, formula]) in (0, 1, 2, 3)


@FUZZ
@given(LOGIC_NAMES, PQ_FORMULAS, st.integers(-1, 3))
def test_decide_fuzz(logic, formula, bound):
    assert run(["decide", logic, formula, "--bound", str(bound)]) in (0, 1, 2, 3)


@FUZZ
@given(st.sampled_from(["gl", "bd2"]), DOCUMENTS)
@example("gl", {"worlds": 3, "le": [[0, 1], [0, 2]]})
@example("bd2", {"worlds": 3, "le": [[0, 1], [1, 2]]})
def test_witness_fuzz(schema, doc):
    with json_file(doc) as path:
        assert run(["witness", schema, path]) in (0, 1, 2, 3)


# The schema has one atom, so a sweep up to three worlds stays cheap.
@FUZZ
@given(CONDITION_TEXT, st.integers(-1, 3), st.booleans())
def test_correspond_fuzz(condition, max_n, dedup):
    argv = ["correspond", "p", condition, "--max-n", str(max_n)] + (["--dedup"] if dedup else [])
    assert run(argv) in (0, 1, 2, 3)


@FUZZ
@given(st.integers(-2, 5), st.booleans(), st.booleans())
def test_enumerate_fuzz(n, dedup, stats):
    argv = ["enumerate", "--n", str(n)] + ["--dedup"] * dedup + ["--stats"] * stats
    assert run(argv) in (0, 1, 2, 3)


@FUZZ
@given(DOCUMENTS)
def test_export_dot_fuzz(doc):
    with json_file(doc) as path:
        assert run(["export-dot", path]) in (0, 1, 2, 3)
