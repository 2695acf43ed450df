"""Frame conditions, schema/condition correspondence sweeps, explicit
witness countermodels, and the small-frame collapse audit."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .formula import Atom, Formula, Imp, Not, Or, render, substitute
from .kripke import (
    Countermodel,
    Frame,
    Model,
    _bits,
    _frames_upto,
    frame_to_json,
    frame_valid,
)


class PreconditionFailed(Exception):
    """The frame does not violate the condition this witness refutes."""


@dataclass(frozen=True)
class FrameCondition:
    """A first-order frame property, decided by exhaustive quantification
    over worlds.  All built-in conditions are isomorphism-invariant."""

    kind: str
    k: int | None = None

    @property
    def id(self) -> str:
        if self.k is None:
            return self.kind
        return f"{self.kind}({self.k})"


def _branching(fr: Frame) -> tuple[int, int, int] | None:
    # The first x <= y, x <= z in index order with y, z incomparable.
    up = fr.up
    for x in range(fr.size):
        for y in _bits(up[x]):
            for z in _bits(up[x] & ~up[y]):
                if not up[z] >> y & 1:
                    return x, y, z
    return None


def _three_chain(fr: Frame) -> tuple[int, int, int] | None:
    # The first strict chain x < y < z in index order.
    up = fr.up
    for x in range(fr.size):
        for y in _bits(up[x] & ~(1 << x)):
            above = up[y] & ~(1 << y)
            if above:
                return x, y, (above & -above).bit_length() - 1
    return None


def _bd2_paper(fr: Frame, _k) -> bool:
    for x in range(fr.size):
        cone = _bits(fr.up[x])
        for y in cone:
            for z in cone:
                if fr.le(y, z) and y != x and z != x:
                    return False
    return True


# Each built-in kind: its predicate on (frame, k) and whether it takes the
# bound k.  eval_condition and the CLI spellings read only this table.  A
# new kind must be isomorphism-invariant, and hereditary (closed under
# deleting a world) if a logic's class uses it.
CONDITIONS = {
    "LIN": (lambda fr, k: _branching(fr) is None, False),
    "BD2_PAPER": (_bd2_paper, False),
    "BD2_CHAIN": (lambda fr, k: _three_chain(fr) is None, False),
    "DISCRETE": (lambda fr, k: all(fr.up[i] == 1 << i for i in range(fr.size)), False),
    "DEPTH_LE": (lambda fr, k: fr.depth() <= k, True),
    "CONE_SIZE_LE": (lambda fr, k: all(bin(m).count("1") <= k for m in fr.up), True),
}

# Local linearity: any two worlds above a common world are comparable.
LIN = FrameCondition("LIN")
# The published two-branch form of the depth-2 condition (x <= y, x <= z
# and y <= z imply y = x or z = x), kept verbatim for comparison;
# extensionally it coincides with DISCRETE (see README).
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
    try:
        predicate, _ = CONDITIONS[cond.kind]
    except KeyError:
        raise ValueError(f"unknown frame condition kind {cond.kind!r}") from None
    return predicate(fr, cond.k)


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


@dataclass
class SizeTally:
    frames: int = 0
    schema_valid: int = 0
    condition_true: int = 0
    mismatches: int = 0


@dataclass
class CorrespondenceReport:
    """Per-size comparison of schema validity against a frame condition.

    first_mismatch, when present, is (n, frame, side) where side names
    which of the two held: "schema" or "condition".  The mismatch total
    is zero exactly when first_mismatch is absent.
    """

    schema: Formula
    condition: FrameCondition
    max_n: int
    dedup: bool
    sizes: dict[int, SizeTally] = field(default_factory=dict)
    first_mismatch: tuple[int, Frame, str] | None = None

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
            "sizes": {
                str(n): {
                    "frames": t.frames,
                    "schema_valid": t.schema_valid,
                    "condition_true": t.condition_true,
                    "mismatches": t.mismatches,
                }
                for n, t in self.sizes.items()
            },
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
        lines = [
            f"schema: {render(self.schema)}",
            f"condition: {self.condition.id}",
            "  n  frames  schema-valid  condition-true  mismatches",
        ]
        for n in sorted(self.sizes):
            t = self.sizes[n]
            lines.append(
                f"  {n}  {t.frames:<6}  {t.schema_valid:<12}  "
                f"{t.condition_true:<14}  {t.mismatches}"
            )
        if self.first_mismatch is None:
            lines.append(f"equivalent on all frames up to n={self.max_n}")
        else:
            n, fr, side = self.first_mismatch
            other = "condition" if side == "schema" else "schema"
            lines.append(
                f"first mismatch at n={n}: {side} holds, {other} fails "
                f"on frame {json.dumps(frame_to_json(fr), sort_keys=True)}"
            )
        return "\n".join(lines)


def check_correspondence(
    schema: Formula, condition: FrameCondition, max_n: int, dedup: bool = False
) -> CorrespondenceReport:
    """Compare frame validity of the schema against the condition on every
    frame with at most max_n worlds, recording the minimal mismatch
    (smallest size first, then enumeration order)."""
    if max_n < 1:
        raise ValueError("check_correspondence needs max_n >= 1")
    report = CorrespondenceReport(schema, condition, max_n, dedup)
    for fr in _frames_upto(max_n, dedup):
        tally = report.sizes.setdefault(fr.size, SizeTally())
        tally.frames += 1
        valid = frame_valid(fr, schema) is None
        holds = eval_condition(condition, fr)
        if valid:
            tally.schema_valid += 1
        if holds:
            tally.condition_true += 1
        if valid != holds:
            tally.mismatches += 1
            if report.first_mismatch is None:
                side = "schema" if valid else "condition"
                report.first_mismatch = (fr.size, fr, side)
    return report


def gl_witness(fr: Frame) -> Countermodel:
    """Countermodel to (p -> q) | (q -> p) on a frame with a branching.

    Picks the lexicographically first triple x, y, z with x <= y, x <= z
    and y, z incomparable, the one LIN finds, and assigns p the upset of
    y and q the upset of z; the root x then forces neither implication.
    """
    return _witness(fr, _branching(fr), GL_INSTANCE, "every cone of the frame is linear")


def bd2_witness(fr: Frame) -> Countermodel:
    """Countermodel to p | (p -> (q | ~q)) on a frame with a 3-chain.

    Picks the lexicographically first strict chain x < y < z, the one
    BD2_CHAIN finds, and assigns p the upset of y and q the upset of z;
    x then neither forces p nor the guarded implication (its witness y
    sees q undecided).
    """
    return _witness(fr, _three_chain(fr), BD2_INSTANCE, "the frame has no chain of three worlds")


def _witness(fr: Frame, found, instance: Formula, missing: str) -> Countermodel:
    if found is None:
        raise PreconditionFailed(missing)
    x, y, z = found
    model = Model(fr, (("p", fr.up[y]), ("q", fr.up[z])))
    return Countermodel(model, x, instance)


# The witness builders by the schema they refute, as the CLI names them.
WITNESSES = {"gl": gl_witness, "bd2": bd2_witness}


@dataclass
class CollapseViolation:
    n: int
    frame: Frame
    check: str
    detail: str


@dataclass
class CollapseReport:
    """Audit of the collapse of the combined frame class.

    Over every frame up to max_n worlds: local linearity plus no-3-chain
    must hold exactly when every cone has at most two worlds, and every
    frame of one or two worlds must validate both schema instances.
    """

    max_n: int
    frames: dict[int, int] = field(default_factory=dict)
    violations: list[CollapseViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "max_n": self.max_n,
            "frames": {str(n): c for n, c in self.frames.items()},
            "violations": [
                {
                    "n": v.n,
                    "frame": frame_to_json(v.frame),
                    "check": v.check,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "ok": self.ok,
        }

    def format_text(self) -> str:
        total = sum(self.frames.values())
        lines = [f"checked {total} frames up to n={self.max_n}"]
        if self.ok:
            lines.append("no violations")
        else:
            for v in self.violations:
                frame = json.dumps(frame_to_json(v.frame), sort_keys=True)
                lines.append(f"violation ({v.check}) at n={v.n} on {frame}: {v.detail}")
        return "\n".join(lines)


def collapse_check(max_n: int) -> CollapseReport:
    """Verify the two-world collapse over all frames up to max_n worlds."""
    if max_n < 1:
        raise ValueError("collapse_check needs max_n >= 1")
    cone2 = cone_size_le(2)
    report = CollapseReport(max_n)
    for fr in _frames_upto(max_n, False):
        n = fr.size
        report.frames[n] = report.frames.get(n, 0) + 1
        both = eval_condition(LIN, fr) and eval_condition(BD2_CHAIN, fr)
        small_cones = eval_condition(cone2, fr)
        if both != small_cones:
            report.violations.append(
                CollapseViolation(
                    n,
                    fr,
                    "cone-bound",
                    f"LIN and BD2_CHAIN {both} but CONE_SIZE_LE(2) {small_cones}",
                )
            )
        if n <= 2:
            for instance in (GL_INSTANCE, BD2_INSTANCE):
                if frame_valid(fr, instance) is not None:
                    report.violations.append(
                        CollapseViolation(
                            n,
                            fr,
                            "small-frame-validity",
                            f"{render(instance)} fails on a {n}-world frame",
                        )
                    )
    return report
