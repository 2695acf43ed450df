"""CLI fuzzing: every input exits with a contract code 0-3 and no exception
escapes main.  Differential tests: the CLI's argparse-free parse of a plain
command line against argparse, its JSON file reader against json.load, and
the tokenizer and the model's atom-name check against the regular expression
they replaced.

The work of valid and decide grows exponentially with the number of atoms,
and no work budget bounds it yet, so they are fuzzed with formulas over p
and q only: on frames of at most six worlds (64 upsets) valid tries at most
4,096 valuations, and decide searches up to three worlds.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kripkebench.cli import _build_parser, _fast_args, _load_json, main
from kripkebench.formula import NESTING_LIMIT, ParseError, _tokenize, parse, render
from kripkebench.kripke import InvalidModel, chain, make_model
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


# --- the plain command line, against argparse ----------------------------------

# Values that the subcommands take, then bad ints and choices and the forms
# that argparse alone parses: values starting with -, --x=y, abbreviations,
# --, - and help.
FORMATS = st.sampled_from(["text", "json"])
INTS = st.sampled_from(["3", "0", " 4", "+2", "1_0", "\u0663"])
TEXTS = st.sampled_from(["p|~p", "cpc", "lin", "f.json", "gl", ""])
ODD = st.sampled_from(
    ["xml", "x", "3.0", "-1", "-p", "-", "--", "-h", "--help", "--form", "--max", "--n=3",
     "--format=json", "--colour", "--dedup", "--stats", "--n", "--world", "--bound", "--max-n"]
)
WORDS = FORMATS | INTS | TEXTS | ODD | st.text(max_size=3)
# Each subcommand's positionals, each with the values it takes, and its
# options, each with its values or None for a flag.
SHAPES = {
    "parse": ([TEXTS], {"--format": FORMATS}),
    "eval": ([TEXTS, TEXTS], {"--format": FORMATS, "--world": INTS}),
    "valid": ([TEXTS, TEXTS], {"--format": FORMATS, "--dot": TEXTS}),
    "decide": ([TEXTS, TEXTS], {"--format": FORMATS, "--bound": INTS}),
    "correspond": ([TEXTS, TEXTS], {"--format": FORMATS, "--max-n": INTS, "--dedup": None}),
    "witness": ([st.sampled_from(["gl", "bd2"]), TEXTS], {"--format": FORMATS, "--dot": TEXTS}),
    "enumerate": ([], {"--format": FORMATS, "--n": INTS, "--dedup": None, "--stats": None}),
    "export-dot": ([TEXTS], {"--format": FORMATS, "--dot": TEXTS}),
}


@st.composite
def command_lines(draw):
    # Mostly what the subcommand takes: a word from WORDS in place of a value
    # a quarter of the time, options anywhere between the positionals in
    # order, and a positional dropped or added or an odd word added each a
    # tenth of the time.  enumerate's --n is required, so it is always drawn.
    def value(values):
        return draw(WORDS if draw(st.integers(0, 3)) == 3 else values)

    name = draw(st.sampled_from(sorted(SHAPES)))
    positionals, options = SHAPES[name]
    units = [[value(values)] for values in positionals]
    flags = ["--n"] * (name == "enumerate") + draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    for flag in flags:
        unit = [flag] if options[flag] is None else [flag, value(options[flag])]
        units.insert(draw(st.integers(0, len(units))), unit)
    change = draw(st.integers(0, 9))
    if change == 7 and units:
        units.pop(draw(st.integers(0, len(units) - 1)))
    elif change in (8, 9):
        units.insert(draw(st.integers(0, len(units))), [draw(TEXTS if change == 8 else ODD)])
    return [name] + [word for unit in units for word in unit]


PARSER = _build_parser()


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(st.one_of(command_lines(), command_lines(), st.lists(st.sampled_from(sorted(SHAPES)) | WORDS, max_size=6)))
@example(["enumerate", "--n", "3", "--stats", "--n", "4", "--stats"])
@example(["witness", "gl", "f.json", "--format", "json", "--dot", ""])
@example(["decide", "--bound", "\u0663", "cpc", "p"])
def test_fast_args_agree_with_argparse(argv):
    # A namespace from the fast path is argparse's, func included; None
    # leaves argv to argparse, which then parses it or writes the error.
    fast = _fast_args(argv)
    if fast is not None:
        assert vars(fast) == vars(PARSER.parse_args(argv))


# --- the JSON file reader, against json.load --------------------------------------

def json_load(path):
    """The CLI's reader as it was: json.load, deep nesting worded."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None


def value_or_error(load, path):
    # repr tells NaN, -0.0, 1 and 1.0 and True apart, and shows key order
    try:
        return repr(load(path))
    except Exception as err:
        return type(err), str(err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
# Characters that move the scanner to another branch or error, beside any.
JSON_DAMAGE = st.text(st.sampled_from(' \t\n\r\x00{}[]:,"\\/0123456789.eE+-ntfuNaIy\ufeff\ud800') | st.characters(), max_size=3)


@st.composite
def json_texts(draw):
    """A document as json.dumps writes it, then edited in up to three
    places, and with a BOM, whitespace or trailing data around it."""
    text = json.dumps(
        draw(JSON_VALUES), ensure_ascii=draw(st.booleans()), indent=draw(st.none() | st.integers(0, 2))
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(JSON_DAMAGE) + text[i + draw(st.integers(0, 2)):]
    head = draw(st.sampled_from(["", " ", "\n\t\r", "\ufeff", "\f", "\u00a0"]))
    tail = draw(st.sampled_from(["", " \r\n", "x", "{}", "1", "\x00", "\u2028"]))
    return head + text + tail


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(json_texts() | st.text(max_size=8))
@example("")
@example(" \n\t\r")
@example('\ufeff{"worlds": 2}')
@example('{"worlds": 2} x')
@example('{"worlds" 3}')
@example('{"worlds": 3,}')
@example('[NaN, Infinity, -Infinity, -0.0, 1e400, 1E-400]')
@example('{"\\ud800": "\\udc00\\ud83d\\ude00", "\\u0070": "\\n\\/\\\\"}')
@example('"\\ud800')
@example('["tab\tand nul\x00"]')
@example("9" * 4300)
@example("9" * 4301)
@example("[" * 100000 + "]" * 100000)
@example("\ud800")
def test_load_json_matches_json_load(text):
    # the same value, or the same exception type and message; pytest has
    # loaded json, so the SystemError that 3.10's and 3.11's scanner raise
    # without it is seen only in tests/test_cli.py's fresh interpreters
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        assert value_or_error(_load_json, path) == value_or_error(json_load, path)


# --- the tokenizer and atom names, against the regular expression -------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def regex_tokenize(text):
    """The tokenizer as it was with atom names matched by _IDENT."""
    out = []
    connectives = depth = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isascii() and (c.isalpha() or c == "_"):
            m = _IDENT.match(text, i)
            out.append((m.group(), i + 1))
            i = m.end()
            continue
        if c in "()":
            depth += 1 if c == "(" else -1
            if depth > NESTING_LIMIT:
                raise ParseError(f"parentheses nest deeper than {NESTING_LIMIT}", i + 1)
            tok = c
        else:
            if c in "~&|":
                tok = c
            elif text.startswith("->", i):
                tok = "->"
            elif c == "-":
                raise ParseError("expected '->'", i + 1)
            else:
                raise ParseError(f"unexpected character {c!r}", i + 1)
            connectives += 1
            if connectives > NESTING_LIMIT:
                raise ParseError(f"more than {NESTING_LIMIT} connectives", i + 1)
        out.append((tok, i + 1))
        i += len(tok)
    return out


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.position


# ASCII name characters beside letters and digits that are not ASCII, which
# isalpha, isidentifier or isdigit take: é, superscript two, the titlecase
# digraph, the Arabic-Indic three and the fullwidth A.
NAME_TEXT = st.text(st.sampled_from("pqTF_19 \u00e9\u00b2\u01c5\u0663\uff21") | st.characters(), max_size=8)


@FUZZ
@given(NAME_TEXT | st.text(st.sampled_from("pq_1\u00e9\u00b2 ()~&|->TF"), max_size=16))
@example("p" + "&p" * NESTING_LIMIT)
@example("(" * (NESTING_LIMIT + 1) + "p")
@example("_1 p\u00b2 \u01c5 p\u00e9q")
def test_tokenizer_matches_the_regular_expression(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(regex_tokenize, text)


@FUZZ
@given(NAME_TEXT)
@example("_1")
@example("p\u00e9")
@example("p\u00b2")
@example("\u01c5")
@example("p\n")
@example("if")
def test_model_atom_names_are_the_regular_expressions(name):
    try:
        make_model(chain(1), {name: []})
    except InvalidModel as err:
        assert str(err) == f"bad atom name {name!r}"
        taken = False
    else:
        taken = True
    assert taken == (_IDENT.fullmatch(name) is not None and name not in ("T", "F"))
