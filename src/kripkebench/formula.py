"""Propositional formulas: AST, concrete syntax, and structural helpers.

The connectives are T, F, atoms, &, | and ->.  Negation is not a node of
its own: ~A is parsed to, and printed back from, A -> F.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass


class Formula:
    """Base class of all formula nodes.

    Nodes are frozen dataclasses, so they hash and compare structurally
    and can be shared freely between threads.
    """

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return ast_repr(self)


@dataclass(frozen=True, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


def Not(f: Formula) -> Formula:
    """Negation sugar: ~A is A -> F."""
    return Imp(f, Bottom())


def ast_repr(f: Formula) -> str:
    """Compact structural form, e.g. Or(Imp(p, q), Imp(q, p))."""
    if isinstance(f, Top):
        return "Top"
    if isinstance(f, Bottom):
        return "Bottom"
    if isinstance(f, Atom):
        return f.name
    return f"{type(f).__name__}({ast_repr(f.left)}, {ast_repr(f.right)})"


class ParseError(ValueError):
    """Malformed concrete syntax; carries the 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Most connectives (~, &, |, ->) and deepest parenthesis nesting that parse
# accepts.  Every node above an atom comes from one connective, so this
# bounds the tree height and keeps the parser and every recursive walk
# well inside Python's default recursion limit of 1000.
NESTING_LIMIT = 100


def _tokenize(text: str) -> list[tuple[str, int]]:
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


class _Parser:
    """Recursive descent over the grammar

        formula := imp
        imp     := or ("->" imp)?
        or      := and ("|" and)*
        and     := neg ("&" neg)*
        neg     := "~" neg | atomexpr
        atomexpr:= "T" | "F" | ident | "(" formula ")"

    with -> right-associative and & , | left-associative.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.end = len(text) + 1

    def _peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.end

    def _advance(self) -> str:
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def imp(self) -> Formula:
        left = self.disjunction()
        if self._peek() == "->":
            self._advance()
            return Imp(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self._peek() == "|":
            self._advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self._peek() == "&":
            self._advance()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        if self._peek() == "~":
            self._advance()
            return Imp(self.negation(), Bottom())
        return self.atomexpr()

    def atomexpr(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        if tok == "T":
            self._advance()
            return Top()
        if tok == "F":
            self._advance()
            return Bottom()
        if tok == "(":
            self._advance()
            f = self.imp()
            if self._peek() != ")":
                raise ParseError("expected ')'", self._here())
            self._advance()
            return f
        if tok[0].isalpha() or tok[0] == "_":
            self._advance()
            return Atom(tok)
        raise ParseError(f"unexpected {tok!r}", self._here())


def parse(text: str) -> Formula:
    """Parse concrete syntax to a Formula; ~A desugars to A -> F."""
    p = _Parser(text)
    f = p.imp()
    if p.pos < len(p.tokens):
        raise ParseError(f"unexpected {p._peek()!r} after formula", p._here())
    return f


# Printer precedence levels; higher binds tighter.
_IMP, _OR, _AND, _NEG = 1, 2, 3, 4


def render(f: Formula) -> str:
    """Concrete syntax with minimal parentheses; parse(render(f)) == f.

    Subterms of shape A -> F are printed as ~A.
    """
    return _render(f, 0)


def _render(f: Formula, min_prec: int) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Imp) and isinstance(f.right, Bottom):
        text, prec = "~" + _render(f.left, _NEG), _NEG
    elif isinstance(f, Imp):
        text = _render(f.left, _IMP + 1) + " -> " + _render(f.right, _IMP)
        prec = _IMP
    elif isinstance(f, Or):
        text = _render(f.left, _OR) + " | " + _render(f.right, _OR + 1)
        prec = _OR
    else:
        text = _render(f.left, _AND) + " & " + _render(f.right, _AND + 1)
        prec = _AND
    if prec < min_prec:
        return "(" + text + ")"
    return text


def substitute(schema: Formula, assignment: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms.

    Atoms missing from the assignment map to themselves.
    """
    if isinstance(schema, Atom):
        return assignment.get(schema.name, schema)
    if isinstance(schema, (Top, Bottom)):
        return schema
    cls = type(schema)
    return cls(substitute(schema.left, assignment), substitute(schema.right, assignment))


def atoms(f: Formula) -> frozenset[str]:
    """The atom names occurring in f."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (And, Or, Imp)):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)
