"""Registry of the five logics and bounded validity decision.

Each logic is the base intuitionistic consequence plus zero or more axiom
schemas, matched with the class of frames on which the schemas are valid.
Deciding validity searches the class for a countermodel up to a frame
size bound; the verdict Valid is only ever issued when the class carries
an exact completeness bound covered by the search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import Formula
from .kripke import Countermodel, Frame, _frames_upto, countermodel_to_json, frame_valid
from .correspondence import BD2_CHAIN, DISCRETE, LIN, FrameCondition, eval_condition
# The schemas live beside their conditions; they are re-exported from here.
from .correspondence import BD2_SCHEMA, GL_INSTANCE, GL_SCHEMA, LEM_SCHEMA, schema_instance

# Valid on every frame whose cones have at most two worlds, yet refutable
# on the three-world fork: the combined class validates formulas beyond
# the base logic even though neither restriction contains the other.
INTERSECTION_WITNESS = GL_INSTANCE


@dataclass(frozen=True)
class LogicSpec:
    """A logic given by its extra schemas and its class of frames.

    The class, the frames meeting every condition, must be hereditary:
    deleting a world from a class frame leaves a class frame, so the
    class is closed under cones too.  decide relies on both.

    exact_bound, when set, is a frame size at which countermodel search
    over the class is complete: no countermodel up to that size means
    the formula is valid in the logic.
    """

    name: str
    axiom_schemas: tuple[Formula, ...]
    conditions: tuple[FrameCondition, ...]
    exact_bound: int | None = None

    def frame_class(self, fr: Frame) -> bool:
        """Whether fr lies in the logic's class of frames."""
        return all(eval_condition(cond, fr) for cond in self.conditions)


IPC = LogicSpec("ipc", (), ())
CPC = LogicSpec("cpc", (LEM_SCHEMA,), (DISCRETE,), exact_bound=1)
GL = LogicSpec("gl", (GL_SCHEMA,), (LIN,))
BD2 = LogicSpec("bd2", (BD2_SCHEMA,), (BD2_CHAIN,))
GLBD2 = LogicSpec("gl+bd2", (GL_SCHEMA, BD2_SCHEMA), (LIN, BD2_CHAIN), exact_bound=2)

LOGICS = {logic.name: logic for logic in (IPC, CPC, GL, BD2, GLBD2)}


def get_logic(name: str) -> LogicSpec:
    try:
        return LOGICS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown logic {name!r} (choose from {', '.join(sorted(LOGICS))})"
        ) from None


class Verdict(enum.Enum):
    VALID = "valid"
    REFUTED = "refuted"
    NO_COUNTERMODEL = "no-countermodel"


@dataclass(frozen=True)
class Decision:
    """Outcome of a bounded search: the verdict, the frame size the search
    covered, and the countermodel when one was found."""

    verdict: Verdict
    bound: int
    countermodel: Countermodel | None = None

    def to_json(self) -> dict:
        data: dict = {"verdict": self.verdict.value, "bound": self.bound}
        if self.countermodel is not None:
            data["countermodel"] = countermodel_to_json(self.countermodel)
        return data


def decide(logic: LogicSpec, f: Formula, bound: int) -> Decision:
    """Search the logic's frame class for a countermodel to f.

    Sizes are tried in increasing order, and at each size the rooted
    isomorphism-class representatives of the class, in enumeration
    order.  That is the whole search: a world refuting f refutes it in
    its cone, and the class is closed under cones, so at the smallest
    refuting size no frame without a least world refutes, and Refuted
    carries the first countermodel of the first refuting class
    representative of that size.  The class is hereditary, so one walk
    grows each size once, from the previous size's class representatives
    alone, and its filter admits only rooted ones at the last size.
    Valid is returned only when the class's exact completeness bound was
    covered; otherwise the search was merely exhaustive up to the bound.
    """
    if bound < 1:
        raise ValueError("decide needs bound >= 1")
    limit = bound if logic.exact_bound is None else min(bound, logic.exact_bound)
    keep = lambda fr: (fr.size < limit or fr.full_mask in fr.up) and logic.frame_class(fr)
    for fr in _frames_upto(limit, True, keep):
        if fr.full_mask in fr.up:
            cm = frame_valid(fr, f)
            if cm is not None:
                return Decision(Verdict.REFUTED, fr.size, cm)
    if logic.exact_bound is not None and logic.exact_bound <= bound:
        return Decision(Verdict.VALID, limit)
    return Decision(Verdict.NO_COUNTERMODEL, bound)


def audit_schemas(logic: LogicSpec, max_n: int) -> Countermodel | None:
    """Check that the logic's class validates its axiom schemas.

    Walks the class representatives up to max_n worlds as decide does and
    returns the first countermodel to a schema's p, q instance, or None
    when every class frame validates every schema.
    """
    instances = [schema_instance(s) for s in logic.axiom_schemas]
    for fr in _frames_upto(max_n, True, logic.frame_class):
        for f in instances:
            cm = frame_valid(fr, f)
            if cm is not None:
                return cm
    return None
