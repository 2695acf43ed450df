"""Propositional formulas: AST, concrete syntax, and structural helpers.

The connectives are T, F, atoms, &, | and ->.  Negation is not a node of
its own: ~A is parsed to, and printed back from, A -> F.
"""

from __future__ import annotations


class _Compiled:
    """A record class's __init__, __eq__ or __hash__ before the class's
    first use.  Looking up any of the three, as a call, a comparison, a
    hash or Cls.__init__ does, compiles all three, sets them on the class
    in place of these stand-ins, and returns the one looked up, bound as
    the function would bind it.  Threads that race here compile equal
    functions, so whichever the class keeps is right.
    """

    __slots__ = ("cls", "name")

    def __init__(self, cls: type, name: str):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner=None):
        # Compiled per class, on the class's first use (dataclasses compiles
        # when the class is created): generic methods that read the fields
        # by name made formula == and hash 1.4 to 4 times slower.
        cls = self.cls
        names = cls._fields
        mine = "".join(f"self.{name}, " for name in names)
        theirs = mine.replace("self.", "other.")
        scope: dict = {"_set": object.__setattr__}
        exec(
            f"def __init__(self, {', '.join(names)}):\n"
            + "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
            + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "    pass\n")
            + f"def __eq__(self, other):\n    return ({mine}) == ({theirs}) "
            "if other.__class__ is self.__class__ else NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n",
            scope,
        )
        init = scope["__init__"]
        init.__defaults__, init.__annotations__ = cls._defaults, {n: cls.__slots__[n] for n in names}
        for method in ("__init__", "__eq__", "__hash__"):
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, scope[method])
        return scope[self.name].__get__(obj, owner)


class _Record:
    """Base of the package's value types, in place of dataclasses.

    A subclass's __slots__ maps each of its fields, in order, to its type,
    and _defaults holds the defaults of its last fields; a slot whose name
    starts with _ is private state, not a field, and stays unset until the
    class sets it with object.__setattr__.  Its __init__ takes the fields
    and then calls its __post_init__, if any.  Records of one class with
    equal fields are equal, hash as the tuple of their fields and print as
    Name(field=value, ...).  A record refuses assignment, so it is safe to
    share between threads.
    __init__, __eq__ and __hash__ are compiled on the class's first use,
    not when it is created, since most record classes go unused in a
    short process (see _Compiled).
    (Fields are not read from annotations: that takes a metaclass, and one
    made isinstance on records 3.5 times slower.)
    """

    __slots__ = ()
    _defaults: tuple = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")
        for method in ("__init__", "__eq__", "__hash__"):
            setattr(cls, method, _Compiled(cls, method))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self._fields}


class Formula(_Record):
    """Base class of all formula nodes.

    Nodes are frozen records, so they hash and compare structurally and
    can be shared freely between threads.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return ast_repr(self)


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = {"name": "str"}


class And(Formula):
    __slots__ = {"left": "Formula", "right": "Formula"}


class Or(Formula):
    __slots__ = {"left": "Formula", "right": "Formula"}


class Imp(Formula):
    __slots__ = {"left": "Formula", "right": "Formula"}


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


# The characters of an atom name after its first, [A-Za-z0-9_]; the first
# is an ASCII letter or _.
_IDENT = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")

# Most connectives (~, &, |, ->) and deepest parenthesis nesting that parse
# accepts.  Every node above an atom comes from one connective, so this
# bounds the tree height and keeps the parser and every recursive walk
# well inside Python's default recursion limit of 1000.
NESTING_LIMIT = 100

# Most worlds a frame or model file may declare.  make_frame is quadratic in
# the world count, and a 1,000-world chain builds in well under a second.
WORLD_LIMIT = 1000


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
            start, i = i, i + 1
            while i < n and text[i] in _IDENT:
                i += 1
            out.append((text[start:i], start + 1))
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


# The binary connectives: symbol -> (precedence, node class); higher binds
# tighter.  -> is right-associative, & and | left-associative.  parse and
# render both read this table, and both read the precedence of ~, which
# binds tighter than all of them, from _NEG.
_BINARY = {"->": (1, Imp), "|": (2, Or), "&": (3, And)}
_SYMBOL = {cls: (symbol, prec) for symbol, (prec, cls) in _BINARY.items()}
_NEG = 4


def parse(text: str) -> Formula:
    """Parse concrete syntax to a Formula; ~A desugars to A -> F."""
    tokens = _tokenize(text)
    tokens.append((None, len(text) + 1))  # end of input
    f, pos = _climb(tokens, 0, 1)
    tok, at = tokens[pos]
    if tok is not None:
        raise ParseError(f"unexpected {tok!r} after formula", at)
    return f


def _climb(tokens: list, pos: int, min_prec: int) -> tuple[Formula, int]:
    # Precedence climbing over _BINARY: the formula at tokens[pos] with every
    # connective binding at least as tightly as min_prec, and the position
    # after it.  Not a closure: a recursive closure is a reference cycle.
    tok, at = tokens[pos]
    pos += 1
    if tok == "~":
        left, pos = _climb(tokens, pos, _NEG)
        left = Not(left)
    elif tok == "(":
        left, pos = _climb(tokens, pos, 1)
        if tokens[pos][0] != ")":
            raise ParseError("expected ')'", tokens[pos][1])
        pos += 1
    elif tok == "T":
        left = Top()
    elif tok == "F":
        left = Bottom()
    elif tok is None:
        raise ParseError("unexpected end of input", at)
    elif tok[0].isalpha() or tok[0] == "_":
        left = Atom(tok)
    else:
        raise ParseError(f"unexpected {tok!r}", at)
    while True:
        prec, cls = _BINARY.get(tokens[pos][0], (0, None))
        if prec < min_prec:
            return left, pos
        right, pos = _climb(tokens, pos + 1, prec + (cls is not Imp))
        left = cls(left, right)


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
    cls = type(f)
    if cls is Imp and isinstance(f.right, Bottom):
        text, prec = "~" + _render(f.left, _NEG), _NEG
    else:
        symbol, prec = _SYMBOL[cls]
        left = _render(f.left, prec + (cls is Imp))
        text = f"{left} {symbol} {_render(f.right, prec + (cls is not Imp))}"
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
