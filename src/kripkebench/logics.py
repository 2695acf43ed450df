"""Registry of the five logics and bounded validity decision.

Each logic is the base intuitionistic consequence plus zero or more axiom
schemas, matched with the class of frames on which the schemas are valid.
Deciding validity searches the class for a countermodel up to a frame
size bound; the verdict Valid is only ever issued when the search covered
every rooted frame of the class.
"""

from __future__ import annotations

from .formula import Formula, _Record
from .kripke import Countermodel, Frame, _class_reps, _coverage, _fold, _rooted_reps, countermodel_to_json, frame_valid, refutes
from .correspondence import BD2_CHAIN, DISCRETE, LIN, FrameCondition
# The schemas live beside their conditions; they are re-exported from here.
from .correspondence import BD2_SCHEMA, GL_SCHEMA, LEM_SCHEMA, schema_instance


class LogicSpec(_Record):
    """A logic given by its extra schemas and its class of frames.

    The class, the frames meeting every condition, must be hereditary:
    deleting a world from a class frame leaves a class frame.  So the
    class is closed under cones, and deleting a maximal non-root world
    from a rooted class frame leaves a rooted class frame: once a size
    has no rooted class frame, no larger size has one.  decide relies on
    both.  Every built-in condition is hereditary, and a condition must be
    one of them: an arbitrary predicate could make decide's Valid false.
    """

    __slots__ = {
        "name": "str",
        "axiom_schemas": "tuple[Formula, ...]",
        "conditions": "tuple[FrameCondition, ...]",
    }

    def __post_init__(self):
        for cond in self.conditions:
            if not isinstance(cond, FrameCondition):
                raise ValueError(f"a logic's condition must be a FrameCondition, not {cond!r}")

    def frame_class(self, fr: Frame) -> bool:
        """Whether fr lies in the logic's class of frames."""
        return all(cond(fr) for cond in self.conditions)


IPC = LogicSpec("ipc", (), ())
CPC = LogicSpec("cpc", (LEM_SCHEMA,), (DISCRETE,))
GL = LogicSpec("gl", (GL_SCHEMA,), (LIN,))
BD2 = LogicSpec("bd2", (BD2_SCHEMA,), (BD2_CHAIN,))
GLBD2 = LogicSpec("gl+bd2", (GL_SCHEMA, BD2_SCHEMA), (LIN, BD2_CHAIN))

LOGICS = {logic.name: logic for logic in (IPC, CPC, GL, BD2, GLBD2)}


def get_logic(name: str) -> LogicSpec:
    try:
        return LOGICS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown logic {name!r} (choose from {', '.join(sorted(LOGICS))})"
        ) from None


class Verdict:
    """A decision's verdict: Verdict.VALID, REFUTED or NO_COUNTERMODEL,
    each one object with a name and a value, compared by identity.  Not an
    enum.Enum: importing enum loads functools, collections, types and
    reprlib, which nothing else in the package needs."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        self.name, self.value = name, value

    def __repr__(self) -> str:
        return f"<Verdict.{self.name}: {self.value!r}>"

    def __reduce__(self):
        return getattr, (Verdict, self.name)


Verdict.VALID = Verdict("VALID", "valid")
Verdict.REFUTED = Verdict("REFUTED", "refuted")
Verdict.NO_COUNTERMODEL = Verdict("NO_COUNTERMODEL", "no-countermodel")


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
    order, each by kripke.refutes, which holds every atom that occurs
    with one polarity fixed.  A world refuting f refutes it in its cone, a
    rooted class frame, so Refuted carries the first countermodel, by
    frame_valid, of the first refuting representative of the smallest
    refuting size.  Valid is returned once every rooted class frame was
    searched (see LogicSpec): at the first size n with none, with bound
    n - 1, or at bound when no rooted class frame has bound + 1 worlds.
    Otherwise the search was merely exhaustive up to the bound.  A
    formula that refutes folds to T fails on no frame, so it searches
    none and gets that coverage answer at once (kripke._coverage, kept
    per conditions and bound).
    """
    if type(bound) is not int or bound < 1:
        raise ValueError("decide needs bound >= 1")
    conditions = tuple(logic.conditions)
    if _fold(f) is not None:  # f does not fold to T
        for n in range(1, bound + 1):
            rooted = _rooted_reps(conditions, n, bound)
            if not rooted:
                break
            for fr in rooted:
                if refutes(fr, f):
                    return Decision(Verdict.REFUTED, n, frame_valid(fr, f))
    n, exact = _coverage(conditions, bound)
    return Decision(Verdict.VALID if exact else Verdict.NO_COUNTERMODEL, n)


def audit_schemas(logic: LogicSpec, max_n: int) -> Countermodel | None:
    """Check that the logic's class validates its axiom schemas.

    Walks the class representatives up to max_n worlds, from the class
    store decide reads, asks kripke.refutes of each for each schema's p, q
    instance in turn, and returns frame_valid's countermodel of the first
    refuting pair, or None when every class frame validates every schema.
    kripke keeps each instance's program, so each compiles once per call.
    """
    if type(max_n) is not int or max_n < 1:
        raise ValueError("audit_schemas needs max_n >= 1")
    instances = [schema_instance(schema) for schema in logic.axiom_schemas]
    if not instances:
        return None
    for n in range(1, max_n + 1):
        for fr in _class_reps(tuple(logic.conditions), n)[0]:
            for f in instances:
                if refutes(fr, f):
                    return frame_valid(fr, f)
    return None
