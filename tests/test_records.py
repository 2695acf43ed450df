"""The value types' record contract: construction, equality, hashing,
immutability and repr of the formula nodes, frames, models, conditions,
logics, decisions and the correspondence report."""

import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kripkebench

from kripkebench.correspondence import (
    GL_INSTANCE,
    LIN,
    CorrespondenceReport,
    FrameCondition,
    SizeTally,
)
from kripkebench.formula import And, Atom, Bottom, Imp, Or, Top, _Compiled, _Record, parse
from kripkebench.kripke import Countermodel, Frame, InvalidModel, Model, chain, fork, frame_valid
from kripkebench.logics import GL, GL_SCHEMA, Decision, LogicSpec, Verdict

P, Q = Atom("p"), Atom("q")
LEM = parse("p|~p")


def _model():
    return Model(chain(2), (("p", 2),))


def _countermodel():
    return Countermodel(_model(), 0, LEM)


# Each class with a function building a fresh instance, and its field values
# in declaration order.
FROZEN = [
    (Top, lambda: Top(), ()),
    (Bottom, lambda: Bottom(), ()),
    (Atom, lambda: Atom("p"), ("p",)),
    (And, lambda: And(P, Q), (P, Q)),
    (Or, lambda: Or(P, Q), (P, Q)),
    (Imp, lambda: Imp(P, Q), (P, Q)),
    (Frame, lambda: Frame((3, 2)), ((3, 2),)),
    (Model, _model, (chain(2), (("p", 2),))),
    (Countermodel, _countermodel, (_model(), 0, LEM)),
    (FrameCondition, lambda: FrameCondition("DEPTH_LE", 2), ("DEPTH_LE", 2)),
    (LogicSpec, lambda: LogicSpec("x", (GL_SCHEMA,), (LIN,)), ("x", (GL_SCHEMA,), (LIN,))),
    (Decision, lambda: Decision(Verdict.REFUTED, 2, _countermodel()),
     (Verdict.REFUTED, 2, _countermodel())),
    (SizeTally, lambda: SizeTally(1, 2, 3, 4), (1, 2, 3, 4)),
]
# The report holds a dict, so it does not hash.
UNHASHABLE = [
    (CorrespondenceReport, lambda: CorrespondenceReport(GL_INSTANCE, LIN, 3, False, {}, None)),
]
ALL = [(cls, build) for cls, build, _ in FROZEN] + UNHASHABLE


@pytest.mark.parametrize("cls, build", ALL, ids=[cls.__name__ for cls, _ in ALL])
def test_records_compare_structurally(cls, build):
    a, b = build(), build()
    assert a is not b and type(a) is cls
    assert a == b and not a != b
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    for other_cls, other in ALL:
        if other_cls is not cls:
            assert a != other() and not a == other()


def test_equal_fields_in_different_classes_differ():
    assert And(P, Q) != Or(P, Q) != Imp(P, Q) != And(P, Q)
    assert Top() != Bottom()
    assert And(P, Q) != And(Q, P)
    assert Frame((3, 2)) != Frame((1, 2))
    assert Frame((3, 2)) != (3, 2)


@pytest.mark.parametrize("cls, build, fields", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_records_hash_their_field_tuple(cls, build, fields):
    assert hash(build()) == hash(fields)
    assert len({build(), build()}) == 1


@pytest.mark.parametrize("cls, build", UNHASHABLE, ids=[cls.__name__ for cls, _ in UNHASHABLE])
def test_reports_with_dict_or_list_fields_are_unhashable(cls, build):
    with pytest.raises(TypeError):
        hash(build())


@pytest.mark.parametrize("cls, build", ALL, ids=[cls.__name__ for cls, _ in ALL])
def test_frozen_records_reject_assignment(cls, build):
    value = build()
    for name in ("left", "up", "frame", "world", "kind", "name", "bound", "anything"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    with pytest.raises(AttributeError):
        del value.anything
    assert value == build()


def test_frame_search_tables_are_not_a_field():
    # a frame's search record, its tables and the layouts it keeps, is
    # private state: a searched frame compares, hashes, prints and pickles
    # as a fresh one with the same rows
    fr = fork()
    assert frame_valid(fr, parse("(p->q)|(q->p)")) is not None
    assert frame_valid(fr, LEM) is not None
    assert fr._tables
    assert list(fr._tables[2]) == [2, 1]
    fresh = Frame(fr.up)
    assert fr == fresh and hash(fr) == hash(fresh) == hash((fr.up,))
    assert repr(fr) == repr(fresh) == "Frame(up=(7, 2, 4))"
    assert fr._asdict() == fresh._asdict() == {"up": (7, 2, 4)}
    assert Frame._fields == Frame.__match_args__ == ("up",)
    assert list(Frame.__init__.__annotations__) == ["up"]
    assert [name for name in Frame.__slots__ if name.startswith("_")] == ["_tables"]
    for copied in (pickle.loads(pickle.dumps(fr)), copy.copy(fr), copy.deepcopy(fr)):
        assert copied == fr and hash(copied) == hash(fr)
        assert not hasattr(copied, "_tables")
    with pytest.raises(AttributeError):
        fresh._tables
    with pytest.raises(AttributeError):
        fresh._tables = fr._tables
    with pytest.raises(TypeError):
        Frame(fr.up, fr._tables)
    with pytest.raises(TypeError):
        Frame(up=fr.up, _tables=fr._tables)


def test_record_reprs():
    fr = chain(2)
    assert repr(fr) == "Frame(up=(3, 2))"
    model = Model(fr, (("p", 2),))
    assert repr(model) == "Model(frame=Frame(up=(3, 2)), valuation=(('p', 2),))"
    assert repr(FrameCondition("DEPTH_LE", k=2)) == "FrameCondition(kind='DEPTH_LE', k=2)"
    assert repr(GL) == (
        "LogicSpec(name='gl', axiom_schemas=(Or(Imp(A, B), Imp(B, A)),), "
        "conditions=(FrameCondition(kind='LIN', k=None),))"
    )
    assert repr(Decision(Verdict.VALID, 2)) == (
        "Decision(verdict=<Verdict.VALID: 'valid'>, bound=2, countermodel=None)"
    )
    assert repr(Decision(Verdict.REFUTED, 2, _countermodel())) == (
        "Decision(verdict=<Verdict.REFUTED: 'refuted'>, bound=2, countermodel="
        "Countermodel(model=Model(frame=Frame(up=(3, 2)), valuation=(('p', 2),)), "
        "world=0, formula=Or(p, Imp(p, Bottom))))"
    )
    assert repr(SizeTally(1, 2)) == (
        "SizeTally(frames=1, schema_valid=2, condition_true=0, mismatches=0)"
    )
    assert repr(Imp(P, Bottom())) == "Imp(p, Bottom)"
    assert repr(Top()) == "Top"


def test_record_fields_defaults_and_keywords():
    assert FrameCondition("DEPTH_LE", k=2) == FrameCondition(kind="DEPTH_LE", k=2)
    assert FrameCondition("LIN").k is None
    spec = LogicSpec("x", axiom_schemas=(), conditions=(LIN,))
    assert (spec.name, spec.axiom_schemas, spec.conditions) == ("x", (), (LIN,))
    decision = Decision(Verdict.NO_COUNTERMODEL, bound=4)
    assert (decision.verdict, decision.bound, decision.countermodel) == (
        Verdict.NO_COUNTERMODEL, 4, None
    )
    cm = Countermodel(model=_model(), world=0, formula=LEM)
    assert (cm.model, cm.world, cm.formula) == (_model(), 0, LEM)
    assert Model(frame=chain(2), valuation=()).valuation == ()
    assert Frame(up=(1,)).up == (1,)
    assert And(left=P, right=Q) == And(P, Q)
    assert Atom(name="p").name == "p"
    tally = SizeTally(schema_valid=2)
    assert (tally.frames, tally.schema_valid) == (0, 2)
    assert (tally.condition_true, tally.mismatches) == (0, 0)
    report = CorrespondenceReport(
        schema=GL_INSTANCE, condition=LIN, max_n=3, dedup=True, sizes={}, first_mismatch=None
    )
    assert (report.schema, report.condition, report.max_n) == (GL_INSTANCE, LIN, 3)
    assert (report.dedup, report.sizes, report.first_mismatch) == (True, {}, None)
    with pytest.raises(TypeError, match="sizes"):
        CorrespondenceReport(GL_INSTANCE, LIN, 3, True, first_mismatch=None)
    with pytest.raises(TypeError, match=r"Atom\.__init__\(\) missing 1 required"):
        Atom()
    with pytest.raises(TypeError):
        Frame((1,), (1,))
    with pytest.raises(TypeError):
        FrameCondition("LIN", None, None)
    with pytest.raises(TypeError):
        Decision(Verdict.VALID, 1, bogus=2)


def test_records_match_by_position():
    match parse("p->~q"):
        case Imp(Atom(left), Imp(Atom(right), Bottom())):
            assert (left, right) == ("p", "q")
        case _:
            raise AssertionError("no match")
    match FrameCondition("DEPTH_LE", 2):
        case FrameCondition(kind, k):
            assert (kind, k) == ("DEPTH_LE", 2)


def test_record_validation_still_fires():
    with pytest.raises(ValueError, match="unknown frame condition kind"):
        FrameCondition("NOPE")
    with pytest.raises(ValueError, match="needs a positive int bound"):
        FrameCondition("DEPTH_LE", k=0)
    with pytest.raises(ValueError, match="takes no bound"):
        FrameCondition("LIN", 2)
    with pytest.raises(InvalidModel, match="not upward closed"):
        Model(chain(2), (("p", 1),))
    with pytest.raises(InvalidModel, match="unique and sorted"):
        Model(chain(2), (("q", 2), ("p", 2)))
    with pytest.raises(ValueError, match="not a countermodel"):
        Countermodel(Model(chain(2), (("p", 3),)), 0, LEM)


# Each of the package's 15 record classes is probed in a fresh interpreter,
# with one probe as the first thing done to every class there, and then
# again once the class has compiled its methods; a probe reads a class's
# methods through their stand-ins only when it comes first.  A blank record
# is made without __init__, so that hash and == come first too.
FIRST_USE_PROBES = """
import inspect, sys
from kripkebench import correspondence, formula, kripke, logics
from kripkebench.formula import _Compiled, _Record

def blank(cls, start):
    record = object.__new__(cls)
    for i, name in enumerate(cls._fields):
        object.__setattr__(record, name, start + i)
    return record

def error(call):
    try:
        call()
    except TypeError as exc:
        return str(exc)

PROBES = {
    "signature": lambda cls: str(inspect.signature(cls)),
    "qualname": lambda cls: cls.__init__.__qualname__,
    "annotations": lambda cls: cls.__init__.__annotations__,
    "defaults": lambda cls: cls.__init__.__defaults__,
    "missing": lambda cls: error(cls),
    "extra": lambda cls: error(lambda: cls(*range(len(cls._fields) + 1))),
    "hash": lambda cls: error(lambda: hash(blank(cls, 0))) or hash(blank(cls, 0)),
    "eq": lambda cls: (blank(cls, 0) == blank(cls, 0), blank(cls, 0) == blank(cls, 1)),
}
classes = [
    cls for module in (formula, kripke, correspondence, logics) for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, _Record) and cls is not _Record
    and cls.__module__ == module.__name__
]
probe = PROBES[sys.argv[1]]
lazy = [cls.__name__ for cls in classes if isinstance(vars(cls)["__init__"], _Compiled)]
first = [probe(cls) for cls in classes]
for cls in classes:
    cls.__init__
compiled = all(not isinstance(vars(cls)[name], _Compiled) for cls in classes for name in vars(cls))
print(len(classes), lazy, compiled, first == [probe(cls) for cls in classes])
"""


@pytest.mark.parametrize(
    "probe", ["signature", "qualname", "annotations", "defaults", "missing", "extra", "hash", "eq"]
)
def test_records_read_the_same_before_and_after_first_use(probe):
    src = Path(kripkebench.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", FIRST_USE_PROBES, probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lazy = ["Formula", "Top", "And", "Model", "Countermodel", "SizeTally",
            "CorrespondenceReport", "Decision"]
    assert out == f"15 {lazy} True True\n"


def test_every_record_class_hashes_and_refuses_assignment():
    # the classes FIRST_USE_PROBES finds: every _Record subclass the package defines
    modules = (kripkebench.formula, kripkebench.kripke, kripkebench.correspondence,
               kripkebench.logics)
    classes = [
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, _Record) and cls is not _Record
        and cls.__module__ == module.__name__
    ]
    assert len(classes) == 15
    for cls in classes:
        assert cls.__hash__ is not None, cls
        blank = object.__new__(cls)
        for name in cls._fields or ("anything",):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(blank, name, 1)
    with pytest.raises(TypeError):
        class Loose(_Record, frozen=False):
            __slots__ = {"value": "int"}


def test_records_unpickle_and_print_the_same_when_unpickling_is_their_first_use():
    # ALL lists the records whose fields hash (FROZEN) first
    records = [build() for _, build in ALL]
    code = (
        "import pickle, sys; records = pickle.load(sys.stdin.buffer); "
        "print([repr(r) for r in records]); "
        "print(records == pickle.loads(pickle.dumps(records)), "
        f"[hash(r) == hash(tuple(r._asdict().values())) for r in records[:{len(FROZEN)}]])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        input=pickle.dumps(records),
        env={**os.environ, "PYTHONPATH": str(Path(kripkebench.__file__).parent.parent)},
        capture_output=True,
        check=True,
    ).stdout.decode()
    assert out == f"{[repr(r) for r in records]}\nTrue {[True] * len(FROZEN)}\n"


def _fresh_record_class():
    class Pair(_Record):
        __slots__ = {"left": "int", "right": "int"}
        _defaults = (0,)

    return Pair


def test_a_fresh_record_class_compiles_on_its_first_use():
    Pair = _fresh_record_class()
    assert all(isinstance(vars(Pair)[m], _Compiled) for m in ("__init__", "__eq__", "__hash__"))
    first = object.__new__(Pair)
    object.__setattr__(first, "left", 1)
    object.__setattr__(first, "right", 2)
    assert hash(first) == hash((1, 2))
    assert not any(isinstance(vars(Pair)[m], _Compiled) for m in ("__init__", "__eq__", "__hash__"))
    assert vars(Pair)["__init__"].__qualname__.endswith("Pair.__init__")
    assert first == Pair(1, 2) != Pair(1) == Pair(1, 0)
    match Pair(5, 6):
        case Pair(left, right):
            assert (left, right) == (5, 6)


def test_threads_racing_on_a_record_class_first_use_agree():
    Pair = _fresh_record_class()
    results = [None] * 8
    start = threading.Barrier(8, timeout=60)

    def work(i):
        start.wait()
        pair = Pair(i, i + 1)
        results[i] = (pair == Pair(i, i + 1), hash(pair) == hash((i, i + 1)), pair != Pair(i))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [(True, True, True)] * 8
    methods = [vars(Pair)[m] for m in ("__init__", "__eq__", "__hash__")]
    assert not any(isinstance(method, _Compiled) for method in methods)
    assert [method.__qualname__.rsplit(".", 2)[-2:] for method in methods] == [
        ["Pair", "__init__"], ["Pair", "__eq__"], ["Pair", "__hash__"]
    ]
    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
