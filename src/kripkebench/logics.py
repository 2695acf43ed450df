"""Registry of the five logics and bounded validity decision.

Each logic is the base intuitionistic consequence plus zero or more axiom
schemas, matched with the class of frames on which the schemas are valid.
Deciding validity searches the class for a countermodel up to a frame
size bound; the verdict Valid is only ever issued when the class carries
an exact completeness bound covered by the search.
"""

from __future__ import annotations

import enum

from .formula import Formula, _Record
from .kripke import Countermodel, Frame, _class_reps, countermodel_to_json, frame_valid
from .correspondence import BD2_CHAIN, DISCRETE, LIN, FrameCondition
# The schemas live beside their conditions; they are re-exported from here.
from .correspondence import BD2_SCHEMA, GL_SCHEMA, LEM_SCHEMA, schema_instance


class LogicSpec(_Record):
    """A logic given by its extra schemas and its class of frames.

    The class, the frames meeting every condition, must be hereditary:
    deleting a world from a class frame leaves a class frame, so the
    class is closed under cones too.  decide relies on both.

    exact_bound, when set, is a frame size at which countermodel search
    over the class is complete: no countermodel up to that size means
    the formula is valid in the logic.
    """

    __slots__ = {
        "name": "str",
        "axiom_schemas": "tuple[Formula, ...]",
        "conditions": "tuple[FrameCondition, ...]",
        "exact_bound": "int | None",
    }
    _defaults = (None,)

    def __post_init__(self):
        bound = self.exact_bound
        if bound is not None and (type(bound) is not int or bound < 1):
            raise ValueError(f"exact_bound must be None or a positive int, not {bound!r}")

    def frame_class(self, fr: Frame) -> bool:
        """Whether fr lies in the logic's class of frames."""
        return all(cond(fr) for cond in self.conditions)


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


class Decision(_Record):
    """Outcome of a bounded search: the verdict, the frame size the search
    covered, and the countermodel when one was found."""

    __slots__ = {"verdict": "Verdict", "bound": "int", "countermodel": "Countermodel | None"}
    _defaults = (None,)

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
    representative of that size.  The class is hereditary, so each size
    grows from the previous size's class representatives alone, and the
    last size grows rooted ones only.  The grown lists stay in kripke's
    class store for the life of the process, keyed by the class's
    conditions, so a later call on the same class grows only sizes no
    call has grown yet.  A searched frame keeps its search record (see
    kripke._first_failure), so a later call does less work on it; at
    bound 8 ipc keeps 4,495 frames and the records of the 2,451 rooted
    ones.  Each frame is searched by frame_valid, which compiles f once
    for all of them, as kripke keeps the programs of recent formulas, and
    builds the countermodel from the search that found it.
    Valid is returned only when the class's exact completeness bound was
    covered; otherwise the search was merely exhaustive up to the bound.
    """
    if bound < 1:
        raise ValueError("decide needs bound >= 1")
    limit = bound if logic.exact_bound is None else min(bound, logic.exact_bound)
    for n in range(1, limit + 1):
        full = (1 << n) - 1  # the row of a least world
        for fr in _class_reps(tuple(logic.conditions), n, n == limit)[0]:
            if full in fr.up:
                cm = frame_valid(fr, f)
                if cm is not None:
                    return Decision(Verdict.REFUTED, n, cm)
    if logic.exact_bound is not None and logic.exact_bound <= bound:
        return Decision(Verdict.VALID, limit)
    return Decision(Verdict.NO_COUNTERMODEL, bound)


def audit_schemas(logic: LogicSpec, max_n: int) -> Countermodel | None:
    """Check that the logic's class validates its axiom schemas.

    Walks the class representatives up to max_n worlds, from the class
    store decide reads, searches each by frame_valid for each schema's p, q
    instance in turn, and returns the first countermodel, or None when every
    class frame validates every schema.  kripke keeps each instance's
    program, so each compiles once per call.
    """
    if max_n < 1:
        raise ValueError("audit_schemas needs max_n >= 1")
    instances = [schema_instance(schema) for schema in logic.axiom_schemas]
    if not instances:
        return None
    for n in range(1, max_n + 1):
        for fr in _class_reps(tuple(logic.conditions), n)[0]:
            for f in instances:
                cm = frame_valid(fr, f)
                if cm is not None:
                    return cm
    return None
