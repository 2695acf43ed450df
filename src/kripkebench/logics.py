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
from .kripke import Countermodel, Frame, countermodel_to_json, frame_valid, rooted_frames
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

    The class, the frames meeting every condition, must be closed under
    cones (generated subframes): decide finds the smallest refuting size
    on rooted frames alone, which is sound only for such classes.

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
    frames of the isomorphism-class representatives, in enumeration
    order, filtered through the class predicate.  That is the whole
    search: a world refuting f refutes it in its cone, and the class is
    closed under cones, so at the smallest refuting size no frame without
    a least world refutes, and Refuted carries the first countermodel of
    the first refuting class representative of that size.  Valid is
    returned only when the class's exact completeness bound was covered;
    otherwise the search was merely exhaustive up to the bound.
    """
    if bound < 1:
        raise ValueError("decide needs bound >= 1")
    limit = bound if logic.exact_bound is None else min(bound, logic.exact_bound)
    for n in range(1, limit + 1):
        for fr in rooted_frames(n):
            if logic.frame_class(fr):
                cm = frame_valid(fr, f)
                if cm is not None:
                    return Decision(Verdict.REFUTED, n, cm)
    if logic.exact_bound is not None and logic.exact_bound <= bound:
        return Decision(Verdict.VALID, limit)
    return Decision(Verdict.NO_COUNTERMODEL, bound)

