"""Frame conditions, schema/condition correspondence sweeps, explicit
witness countermodels, and the paper's collapse as one such sweep."""

from __future__ import annotations

from .formula import And, Atom, Formula, Imp, Not, Or, _Record, render, substitute
from .kripke import (
    Countermodel,
    Frame,
    _bits,
    _class_reps,
    _first_failure,
    frame_to_json,
)
from .kripke import chain, fork, frame_valid, make_model


class PreconditionFailed(Exception):
    """The frame does not violate the condition this witness refutes."""


class FrameCondition(_Record):
    """A frame property decided by quantifying over worlds: cond(fr) is
    eval_condition(cond, fr).  Built-in ones are isomorphism-invariant.  kind
    is a key of CONDITIONS; k is a positive int if it takes a bound, else None."""

    __slots__ = {"kind": "str", "k": "int | None"}
    _defaults = (None,)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in CONDITIONS:
            raise ValueError(f"unknown frame condition kind {self.kind!r}")
        if CONDITIONS[self.kind][1]:
            if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
                raise ValueError(f"{self.kind} needs a positive int bound, not {self.k!r}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} takes no bound, got {self.k!r}")

    def __call__(self, fr: Frame) -> bool:
        return eval_condition(self, fr)

    @property
    def id(self) -> str:
        if self.k is None:
            return self.kind
        return f"{self.kind}({self.k})"


_CHAINS: dict[int, Frame] = {}


def _chain(n: int) -> Frame:
    # Each n-chain built once, for DEPTH_LE.
    fr = _CHAINS.get(n)
    if fr is None:
        fr = _CHAINS[n] = chain(n)
    return fr


_FORK, _CHAIN3, _CHAIN2 = fork(), _chain(3), _chain(2)

# Each built-in kind: its test on (frame, k), which gives a truth value or a
# frame the kind forbids as a subframe, and whether it takes the bound k.
# LIN forbids the fork, BD2_CHAIN the 3-chain, BD2_PAPER and DISCRETE the
# 2-chain and DEPTH_LE(k) the (k+1)-chain, built only for frames of more
# than k worlds.
# eval_condition and the CLI spellings read only this table.  A new kind must
# be isomorphism-invariant, and hereditary (closed under deleting a world) if
# a logic's class uses it; a kind that forbids a frame is both by construction.
CONDITIONS = {
    "LIN": (lambda fr, k: _FORK, False),
    "BD2_PAPER": (lambda fr, k: _CHAIN2, False),
    "BD2_CHAIN": (lambda fr, k: _CHAIN3, False),
    "DISCRETE": (lambda fr, k: _CHAIN2, False),
    "DEPTH_LE": (lambda fr, k: k >= fr.size or _chain(k + 1), True),
    "CONE_SIZE_LE": (lambda fr, k: all(m.bit_count() <= k for m in fr.up), True),
}

# Local linearity: any two worlds above a common world are comparable.
LIN = FrameCondition("LIN")
# The published two-branch form of the depth-2 condition (x <= y, x <= z
# and y <= z imply y = x or z = x), kept for comparison.  Taking z = y, any
# x < y violates it, so it forbids the 2-chain as DISCRETE does (see
# README); tests/oracles.py keeps the literal first-order form.
BD2_PAPER = FrameCondition("BD2_PAPER")
# No chain of three distinct worlds; the form the soundness argument and
# the witness construction actually use.
BD2_CHAIN = FrameCondition("BD2_CHAIN")
# No two distinct worlds are related at all.
DISCRETE = FrameCondition("DISCRETE")


def depth_le(k: int) -> FrameCondition:
    """Longest chain has at most k worlds."""
    return FrameCondition("DEPTH_LE", k)


def cone_size_le(k: int) -> FrameCondition:
    """Every generated subframe has at most k worlds."""
    return FrameCondition("CONE_SIZE_LE", k)


def eval_condition(cond: FrameCondition, fr: Frame) -> bool:
    """Evaluate a built-in condition on a frame."""
    verdict = CONDITIONS[cond.kind][0](fr, cond.k)
    return _embedding(verdict, fr) is None if isinstance(verdict, Frame) else verdict


def _embedding(pattern: Frame, fr: Frame) -> tuple[int, ...] | None:
    """The lexicographically first order-embedding of pattern into fr, as
    the images of its worlds, or None.  pattern is rooted and lists each
    world after the worlds below it."""
    m = pattern.size
    for x, row in enumerate(fr.up):  # a root sees all m worlds
        if row.bit_count() >= m:
            found = _extend(pattern.up, fr.up, (x,), 1 << x)
            if found:
                return found
    return None


def _extend(
    rel: tuple[int, ...], up: tuple[int, ...], image: tuple[int, ...], used: int
) -> tuple[int, ...] | None:
    # The first embedding of the frame with rows rel that begins with image,
    # the worlds of used.  World i goes to an unused world above the images
    # of the worlds below it, outside the upsets of the others, below no
    # image, and seeing at least as many worlds as it does.  A module-level
    # function rather than a closure: a recursive closure is a reference
    # cycle, left for the garbage collector on every call.
    i = len(image)
    if i == len(rel):
        return image
    options, sees = ~used, rel[i].bit_count()  # the root's upset bounds options
    for row, w in zip(rel, image):
        options &= up[w] if row >> i & 1 else ~up[w]
    for v in _bits(options):
        if not up[v] & used and up[v].bit_count() >= sees:
            found = _extend(rel, up, image + (v,), used | 1 << v)
            if found:
                return found
    return None


def condition_spellings() -> list[str]:
    """The CLI spellings in table order; K stands for a positive bound."""
    return [
        kind.lower().replace("_", "-") + ("-K" if takes_k else "")
        for kind, (_, takes_k) in CONDITIONS.items()
    ]


def condition_from_name(name: str) -> FrameCondition:
    """Resolve a spelling of condition_spellings(), case-insensitively, with
    K written in ASCII digits."""
    low = name.lower()
    for kind, spelling in zip(CONDITIONS, condition_spellings()):
        stem = spelling.removesuffix("K")
        if stem == spelling:
            if low == spelling:
                return FrameCondition(kind)
        elif low.startswith(stem):
            k = low[len(stem) :]
            if k.isascii() and k.isdigit() and int(k) >= 1:
                return FrameCondition(kind, int(k))
    raise ValueError(f"unknown frame condition {name!r}")


_A, _B = Atom("A"), Atom("B")

# Axiom schemas over the placeholders A and B.
LEM_SCHEMA = Or(_A, Not(_A))
GL_SCHEMA = Or(Imp(_A, _B), Imp(_B, _A))
BD2_SCHEMA = Or(_A, Imp(_A, Or(_B, Not(_B))))


def schema_instance(schema: Formula, left: str = "p", right: str = "q") -> Formula:
    """Instantiate a schema's placeholders A and B with atoms."""
    return substitute(schema, {"A": Atom(left), "B": Atom(right)})


# The two schema instances whose frame validity the conditions track.
GL_INSTANCE = schema_instance(GL_SCHEMA)
BD2_INSTANCE = schema_instance(BD2_SCHEMA)


class SizeTally(_Record):
    __slots__ = {
        "frames": "int",
        "schema_valid": "int",
        "condition_true": "int",
        "mismatches": "int",
    }
    _defaults = (0, 0, 0, 0)


class CorrespondenceReport(_Record):
    """Per-size comparison of schema validity against a frame condition.

    first_mismatch, when present, is (n, frame, side) where side names
    which of the two held: "schema" or "condition".  The mismatch total
    is zero exactly when first_mismatch is absent.
    """

    __slots__ = {
        "schema": "Formula",
        "condition": "FrameCondition",
        "max_n": "int",
        "dedup": "bool",
        "sizes": "dict[int, SizeTally]",
        "first_mismatch": "tuple[int, Frame, str] | None",
    }

    @property
    def total_mismatches(self) -> int:
        return sum(t.mismatches for t in self.sizes.values())

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    def to_json(self) -> dict:
        data = {
            "schema": render(self.schema),
            "condition": self.condition.id,
            "max_n": self.max_n,
            "dedup": self.dedup,
            "sizes": {str(n): t._asdict() for n, t in self.sizes.items()},
            "mismatches": self.total_mismatches,
            "equivalent": self.ok,
        }
        if self.first_mismatch is not None:
            n, fr, side = self.first_mismatch
            data["first_mismatch"] = {
                "n": n,
                "frame": frame_to_json(fr),
                "held": side,
            }
        else:
            data["first_mismatch"] = None
        return data

    def format_text(self) -> str:
        # Each column but the last is as wide as its header or its widest
        # number, whichever is wider.
        rows = [("n", "frames", "schema-valid", "condition-true", "mismatches")]
        rows += [(n, *self.sizes[n]._asdict().values()) for n in sorted(self.sizes)]
        widths = [max(len(str(row[i])) for row in rows) for i in range(4)] + [0]
        lines = [f"schema: {render(self.schema)}", f"condition: {self.condition.id}"]
        lines += ["  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows]
        if self.first_mismatch is None:
            lines.append(f"equivalent on all frames up to n={self.max_n}")
        else:
            n, fr, side = self.first_mismatch
            other = "condition" if side == "schema" else "schema"
            # The frame as json.dumps(data, sort_keys=True) writes it: a list
            # of int lists prints the same from Python, so json is not loaded.
            data = frame_to_json(fr)
            lines.append(
                f"first mismatch at n={n}: {side} holds, {other} fails "
                f'on frame {{"le": {data["le"]}, "worlds": {data["worlds"]}}}'
            )
        return "\n".join(lines)


def check_correspondence(
    schema: Formula, condition: FrameCondition, max_n: int, dedup: bool = False
) -> CorrespondenceReport:
    """Compare frame validity of the schema against the condition on every
    frame with at most max_n worlds, recording the minimal mismatch
    (smallest size first, then enumeration order).  Both sides are
    isomorphism-invariant, so each class representative counts for its
    labeled members, counted in growth (once with dedup); it is its class's
    first labeled frame, so the first mismatch is always a representative."""
    if type(max_n) is not int or max_n < 1:
        raise ValueError("check_correspondence needs max_n >= 1")
    sizes, first_mismatch = {}, None
    for n in range(1, max_n + 1):
        frames = schema_valid = condition_true = mismatches = 0
        for fr, labelings in zip(*_class_reps((), n)):
            weight = 1 if dedup else labelings
            frames += weight
            valid = _first_failure(fr, schema) is None
            holds = condition(fr)
            if valid:
                schema_valid += weight
            if holds:
                condition_true += weight
            if valid != holds:
                mismatches += weight
                if first_mismatch is None:
                    first_mismatch = (n, fr, "schema" if valid else "condition")
        sizes[n] = SizeTally(frames, schema_valid, condition_true, mismatches)
    return CorrespondenceReport(schema, condition, max_n, dedup, sizes, first_mismatch)


def gl_witness(fr: Frame) -> Countermodel:
    """Countermodel to (p -> q) | (q -> p) carried from the fork LIN forbids."""
    return _transfer(_FORK, GL_INSTANCE, fr, "every cone of the frame is linear")


def bd2_witness(fr: Frame) -> Countermodel:
    """Countermodel to p | (p -> (q | ~q)) carried from the 3-chain BD2_CHAIN forbids."""
    return _transfer(_CHAIN3, BD2_INSTANCE, fr, "the frame has no chain of three worlds")


def _transfer(pattern: Frame, f: Formula, fr: Frame, missing: str) -> Countermodel:
    # f's first countermodel on pattern, carried along the first embedding phi:
    # each atom holds on the upset generated by phi of its worlds.  The re-check
    # refuses it where f holds on fr, as ~p | ~~p does on the fork plus a top.
    phi = _embedding(pattern, fr)
    if phi is None:
        raise PreconditionFailed(missing)
    cm = frame_valid(pattern, f)
    lifted = {a: {v for w in _bits(m) for v in _bits(fr.up[phi[w]])} for a, m in cm.model.valuation}
    return Countermodel(make_model(fr, lifted), phi[cm.world], f)


# The witness builders by the schema they refute, as the CLI names them.
WITNESSES = {"gl": gl_witness, "bd2": bd2_witness}


def collapse_check(max_n: int) -> CorrespondenceReport:
    """The paper's collapse as one correspondence: a frame validates both
    schema instances iff each of its cones has at most two worlds."""
    return check_correspondence(And(GL_INSTANCE, BD2_INSTANCE), cone_size_le(2), max_n)
