"""Frame conditions, schema/condition correspondence sweeps, explicit
witness countermodels, and the small-frame collapse audit."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from .formula import Atom, Formula, Imp, Not, Or, render
from .kripke import (
    Countermodel,
    Frame,
    Model,
    _bits,
    enumerate_frames,
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

    def holds(self, fr: Frame) -> bool:
        return eval_condition(self, fr)


# Local linearity: any two worlds above a common world are comparable.
LIN = FrameCondition("LIN")
# The published two-branch form of the depth-2 condition, kept verbatim
# for comparison; extensionally it coincides with DISCRETE (see README).
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
    """Evaluate a built-in condition on a frame.

    LIN: for all x, y, z with x <= y and x <= z, y <= z or z <= y.
    BD2_PAPER: for all x, y, z with x <= y and x <= z, if y <= z then
    y = x or z = x.  BD2_CHAIN: for all x <= y <= z, x = y or y = z.
    DEPTH_LE(k), CONE_SIZE_LE(k), DISCRETE as their names say.
    """
    kind = cond.kind
    if kind == "LIN":
        return _lin(fr)
    if kind == "BD2_PAPER":
        return _bd2_paper(fr)
    if kind == "BD2_CHAIN":
        return _bd2_chain(fr)
    if kind == "DEPTH_LE":
        return fr.depth() <= cond.k
    if kind == "CONE_SIZE_LE":
        return all(bin(mask).count("1") <= cond.k for mask in fr.up)
    if kind == "DISCRETE":
        return all(fr.up[i] == 1 << i for i in range(fr.size))
    raise ValueError(f"unknown frame condition kind {kind!r}")


def _lin(fr: Frame) -> bool:
    for x in range(fr.size):
        cone = _bits(fr.up[x])
        for a, y in enumerate(cone):
            for z in cone[a + 1 :]:
                if not fr.le(y, z) and not fr.le(z, y):
                    return False
    return True


def _bd2_paper(fr: Frame) -> bool:
    for x in range(fr.size):
        cone = _bits(fr.up[x])
        for y in cone:
            for z in cone:
                if fr.le(y, z) and y != x and z != x:
                    return False
    return True


def _bd2_chain(fr: Frame) -> bool:
    # A three-world chain exists iff some world has both a strict
    # predecessor and a strict successor.
    down = fr._down_masks()
    for y in range(fr.size):
        bit = 1 << y
        if fr.up[y] & ~bit and down[y] & ~bit:
            return False
    return True


_BY_NAME = {
    "lin": LIN,
    "bd2-paper": BD2_PAPER,
    "bd2-chain": BD2_CHAIN,
    "discrete": DISCRETE,
}


def condition_from_name(name: str) -> FrameCondition:
    """Resolve a CLI spelling: lin, bd2-paper, bd2-chain, discrete,
    depth-le-K, cone-size-le-K."""
    low = name.lower()
    if low in _BY_NAME:
        return _BY_NAME[low]
    for prefix, kind in (("depth-le-", "DEPTH_LE"), ("cone-size-le-", "CONE_SIZE_LE")):
        if low.startswith(prefix):
            suffix = low[len(prefix) :]
            if suffix.isdigit() and int(suffix) >= 1:
                return FrameCondition(kind, int(suffix))
    raise ValueError(f"unknown frame condition {name!r}")


# The two schema instances whose frame validity the conditions track.
_P, _Q = Atom("p"), Atom("q")
GL_INSTANCE = Or(Imp(_P, _Q), Imp(_Q, _P))
BD2_INSTANCE = Or(_P, Imp(_P, Or(_Q, Not(_Q))))


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
    for n in range(1, max_n + 1):
        tally = SizeTally()
        report.sizes[n] = tally
        for fr in enumerate_frames(n, dedup):
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
                    report.first_mismatch = (n, fr, side)
    return report


def gl_witness(fr: Frame) -> Countermodel:
    """Countermodel to (p -> q) | (q -> p) on a frame with a branching.

    Picks the lexicographically first triple x, y, z with x <= y, x <= z
    and y, z incomparable, and assigns p the upset of y and q the upset
    of z; the root x then forces neither implication.
    """
    worlds = range(fr.size)
    found = next(
        (
            (x, y, z)
            for x in worlds
            for y in worlds
            if fr.le(x, y)
            for z in worlds
            if fr.le(x, z) and not fr.le(y, z) and not fr.le(z, y)
        ),
        None,
    )
    if found is None:
        raise PreconditionFailed("every cone of the frame is linear")
    x, y, z = found
    model = Model(fr, (("p", fr.up[y]), ("q", fr.up[z])))
    return Countermodel(model, x, GL_INSTANCE)


def bd2_witness(fr: Frame) -> Countermodel:
    """Countermodel to p | (p -> (q | ~q)) on a frame with a 3-chain.

    Picks the lexicographically first strict chain x < y < z and assigns
    p the upset of y and q the upset of z; x then neither forces p nor
    the guarded implication (its witness y sees q undecided).
    """
    worlds = range(fr.size)
    found = next(
        (
            (x, y, z)
            for x in worlds
            for y in worlds
            if x != y and fr.le(x, y)
            for z in worlds
            if y != z and fr.le(y, z)
        ),
        None,
    )
    if found is None:
        raise PreconditionFailed("the frame has no chain of three worlds")
    x, y, z = found
    model = Model(fr, (("p", fr.up[y]), ("q", fr.up[z])))
    return Countermodel(model, x, BD2_INSTANCE)


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
    for n in range(1, max_n + 1):
        count = 0
        for fr in enumerate_frames(n):
            count += 1
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
        report.frames[n] = count
    return report
