import random

import pytest

from kripkebench.formula import (
    NESTING_LIMIT,
    And,
    Atom,
    Bottom,
    Imp,
    Not,
    Or,
    ParseError,
    Top,
    ast_repr,
    atoms,
    parse,
    render,
    substitute,
)
from kripkebench.kripke import chain, countermodel_to_json, frame_valid
from oracles import random_formula

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_disjunction_of_implications():
    assert parse("(p->q)|(q->p)") == Or(Imp(P, Q), Imp(Q, P))


def test_parse_negation_desugars():
    assert parse("~p") == Imp(P, Bottom())


def test_parse_precedence():
    # ~ > & > | > ->, with -> right-associative and & , | left-associative
    assert parse("p|p->q|~q") == Imp(Or(P, P), Or(Q, Imp(Q, Bottom())))
    assert parse("~p&q") == And(Imp(P, Bottom()), Q)
    assert parse("p&q|r") == Or(And(P, Q), R)
    assert parse("p->q->r") == Imp(P, Imp(Q, R))
    assert parse("p|q|r") == Or(Or(P, Q), R)
    assert parse("p&q&r") == And(And(P, Q), R)


def test_parse_constants_and_identifiers():
    assert parse("T") == Top()
    assert parse("F") == Bottom()
    # T and F are reserved, but longer identifiers starting with them are atoms
    assert parse("Tx") == Atom("Tx")
    assert parse("_a1") == Atom("_a1")


def test_parse_whitespace_insensitive():
    assert parse("  p ->  q ") == Imp(P, Q)


# The full error text of each case; together the cases reach every raise in
# _tokenize and parse.
_PARSE_ERRORS = [
    ("p->", 4, "unexpected end of input"),
    ("", 1, "unexpected end of input"),
    ("p q", 3, "unexpected 'q' after formula"),
    (")", 1, "unexpected ')'"),
    ("(p", 3, "expected ')'"),
    ("~", 2, "unexpected end of input"),
    ("p $", 3, "unexpected character '$'"),
    ("p - q", 3, "expected '->'"),
    ("p | | q", 5, "unexpected '|'"),
    ("é", 1, "unexpected character 'é'"),
    ("pé", 2, "unexpected character 'é'"),
]


@pytest.mark.parametrize(
    "text,position,message",
    _PARSE_ERRORS,
    ids=[f"{text}-{position}" for text, position, _ in _PARSE_ERRORS],
)
def test_parse_errors_carry_position(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)
    assert str(err.value) == f"syntax error at position {position}: {message}"


def test_render_examples():
    assert render(Or(Imp(P, Q), Imp(Q, P))) == "(p -> q) | (q -> p)"
    assert render(Imp(P, Bottom())) == "~p"
    assert render(Top()) == "T"


def test_render_minimal_parentheses():
    assert render(Or(P, Or(Q, R))) == "p | (q | r)"
    assert render(Or(Or(P, Q), R)) == "p | q | r"
    assert render(Imp(P, Imp(Q, R))) == "p -> q -> r"
    assert render(Imp(Imp(P, Q), R)) == "(p -> q) -> r"
    assert render(Not(Or(P, Q))) == "~(p | q)"
    assert render(And(Not(P), Q)) == "~p & q"
    assert render(Not(Not(P))) == "~~p"
    assert render(Imp(P, Not(Q))) == "p -> ~q"
    assert render(Not(Top())) == "~T"


def test_str_is_concrete_syntax():
    f = parse("p & (q | r)")
    assert str(f) == "p & (q | r)"


def test_roundtrip_random_formulas():
    rng = random.Random(20240817)
    for _ in range(600):
        f = random_formula(rng, rng.randint(0, 6), ["p", "q", "r", "s_1"])
        assert parse(render(f)) == f


def _formulas_of_depth_at_most(depth: int) -> set:
    """Every formula over p, q, T, F of height <= depth; ~A is A -> F."""
    level = {P, Q, Top(), Bottom()}
    for _ in range(depth):
        level |= {cls(a, b) for cls in (And, Or, Imp) for a in level for b in level}
    return level


def _without_one_pair_of_parentheses(text: str):
    """text with each matching pair of parentheses deleted in turn."""
    opened = []
    for i, c in enumerate(text):
        if c == "(":
            opened.append(i)
        elif c == ")":
            j = opened.pop()
            yield text[:j] + text[j + 1 : i] + text[i + 1 :]


def test_render_roundtrips_with_minimal_parentheses_up_to_depth_2():
    formulas = _formulas_of_depth_at_most(2)
    assert len(formulas) == 8116
    for f in formulas:
        text = render(f)
        assert parse(text) == f, text
        for shorter in _without_one_pair_of_parentheses(text):
            try:
                assert parse(shorter) != f, (text, shorter)
            except ParseError:
                pass


def test_substitute_schema_instances():
    A, B = Atom("A"), Atom("B")
    gl = Or(Imp(A, B), Imp(B, A))
    assert substitute(gl, {"A": P, "B": Q}) == parse("(p->q)|(q->p)")
    bd2 = Or(A, Imp(A, Or(B, Not(B))))
    assert substitute(bd2, {"A": P, "B": Q}) == parse("p|(p->(q|~q))")


def test_substitute_identity_and_missing_atoms():
    assert substitute(P, {}) == P
    assert substitute(parse("p->q"), {"p": R}) == Imp(R, Q)


def test_substitute_composition():
    # with domains disjoint from the atoms the images introduce,
    # substituting twice equals substituting the composed map once
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, 4, ["p", "q"])
        sigma = {
            "p": random_formula(rng, 2, ["a", "b"]),
            "q": random_formula(rng, 2, ["c", "d"]),
        }
        tau = {name: random_formula(rng, 2, ["x", "y"]) for name in "abcd"}
        composed = {name: substitute(img, tau) for name, img in sigma.items()}
        assert substitute(substitute(f, sigma), tau) == substitute(f, composed)


def test_substitute_atom_bound():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, 4, ["p", "q", "r"])
        sigma = {"p": random_formula(rng, 2, ["a", "q"])}
        allowed = atoms(sigma["p"]) | (atoms(f) - {"p"})
        assert atoms(substitute(f, sigma)) <= allowed


def test_atoms():
    assert atoms(parse("(p->q)|(q->p)")) == {"p", "q"}
    assert atoms(Top()) == frozenset()
    assert atoms(parse("~~(p|~p)")) == {"p"}


def test_formula_nodes_hash_structurally():
    assert parse("p->q") == Imp(P, Q)
    assert hash(parse("p & q")) == hash(And(P, Q))
    assert len({parse("p|q"), Or(P, Q)}) == 1


# --- nesting limit ------------------------------------------------------------

def _deep(shape: str, k: int) -> str:
    """k connectives or k nested parentheses of one shape."""
    if shape == "not":
        return "~" * k + "p"
    if shape == "imp":
        return "p->" * k + "q"
    if shape == "and":
        return "p&" * k + "p"
    if shape == "parens":
        return "(" * k + "p|q" + ")" * k
    return "(p->" * k + "q" + ")" * k  # parentheses and connectives together


_SHAPES = ("not", "imp", "and", "parens", "mixed")


@pytest.mark.parametrize("shape", _SHAPES)
def test_formula_at_nesting_limit_goes_through_the_pipeline(shape):
    f = parse(_deep(shape, NESTING_LIMIT))
    assert parse(render(f)) == f
    tree = ast_repr(f)
    assert tree.count("(") == tree.count(")")
    assert "p" not in atoms(substitute(f, {"p": Atom("r")}))
    cm = frame_valid(chain(2), f)
    assert cm is not None
    assert countermodel_to_json(cm)["formula"] == render(f)


@pytest.mark.parametrize("shape", _SHAPES)
def test_formula_beyond_nesting_limit_is_a_parse_error(shape):
    with pytest.raises(ParseError, match="connectives|parentheses"):
        parse(_deep(shape, NESTING_LIMIT + 1))
