import random
import sys
import threading

import pytest

from kripkebench.formula import parse, render
from kripkebench.kripke import chain, enumerate_frames, frame_valid, make_frame
from kripkebench import correspondence, kripke
from kripkebench.correspondence import BD2_CHAIN, GL_INSTANCE, LIN, eval_condition
from kripkebench.logics import (
    BD2,
    BD2_SCHEMA,
    CPC,
    GL,
    GLBD2,
    GL_SCHEMA,
    IPC,
    LEM_SCHEMA,
    LOGICS,
    Decision,
    LogicSpec,
    Verdict,
    audit_schemas,
    decide,
    get_logic,
    schema_instance,
)
from oracles import classical_taut, iso_classes, random_formula

# tautology flag is the classical truth-table verdict
CORPUS = [
    ("p->p", True),
    ("p|~p", True),
    ("~~p->p", True),
    ("((p->q)->p)->p", True),  # by truth table: p=T gives T; p=F makes (p->q)->p false
    ("(p->q)|(q->p)", True),
    ("p|(p->(q|~q))", True),
    ("~~(p|~p)", True),
    ("(p->q)->(~q->~p)", True),
    ("(~q->~p)->(p->q)", True),
    ("p->(q->p)", True),
    ("(p->(q->r))->((p->q)->(p->r))", True),
    ("p&q->p", True),
    ("p->p|q", True),
    ("(p->r)->((q->r)->(p|q->r))", True),
    ("F->p", True),
    ("T", True),
    ("~(p&~p)", True),
    ("p->~~p", True),
    ("~~~p->~p", True),
    ("(p&(p->q))->q", True),
    ("((p|q)&~p)->q", True),
    ("~p|~~p", True),
    ("(p->q)|(p->~q)", True),
    ("p", False),
    ("~p", False),
    ("F", False),
    ("p->q", False),
    ("p|q", False),
    ("p&~p", False),
    ("(p->q)->(q->p)", False),
    ("~(p|q)", False),
    ("p->p&q", False),
    ("q->p&q", False),
    ("~~p->q", False),
    ("(p|~p)->F", False),
]


def test_registry_shape():
    assert set(LOGICS) == {"ipc", "cpc", "gl", "bd2", "gl+bd2"}
    assert IPC.axiom_schemas == ()
    assert IPC.exact_bound is None
    assert CPC.axiom_schemas == (LEM_SCHEMA,)
    assert CPC.exact_bound == 1
    assert GL.axiom_schemas == (GL_SCHEMA,)
    assert GL.exact_bound is None
    assert BD2.axiom_schemas == (BD2_SCHEMA,)
    assert BD2.exact_bound is None
    assert GLBD2.axiom_schemas == (GL_SCHEMA, BD2_SCHEMA)
    assert GLBD2.exact_bound == 2


def test_frame_classes():
    assert IPC.frame_class(chain(3))
    assert CPC.frame_class(make_frame(1)) and not CPC.frame_class(chain(2))
    assert GL.frame_class(chain(3)) and not GL.frame_class(make_frame(3, [(0, 1), (0, 2)]))
    assert BD2.frame_class(make_frame(3, [(0, 1), (0, 2)])) and not BD2.frame_class(chain(3))
    assert GLBD2.frame_class(chain(2)) and not GLBD2.frame_class(chain(3))


def test_get_logic():
    assert get_logic("GL") is GL
    assert get_logic("gl+bd2") is GLBD2
    with pytest.raises(ValueError):
        get_logic("modal")


def test_schema_instance():
    assert schema_instance(GL_SCHEMA) == parse("(p->q)|(q->p)")
    assert schema_instance(BD2_SCHEMA) == parse("p|(p->(q|~q))")
    assert schema_instance(LEM_SCHEMA, left="r") == parse("r|~r")
    assert render(schema_instance(GL_SCHEMA, "a", "b")) == "(a -> b) | (b -> a)"


def test_decide_cpc_excluded_middle():
    decision = decide(CPC, parse("p|~p"), 1)
    assert decision.verdict is Verdict.VALID
    assert decision.countermodel is None


def test_decide_ipc_refutes_excluded_middle():
    decision = decide(IPC, parse("p|~p"), 2)
    assert decision.verdict is Verdict.REFUTED
    cm = decision.countermodel
    assert cm.model.frame == chain(2)
    assert cm.world == 0
    assert cm.model.valuation_dict() == {"p": frozenset({1})}


def test_decide_gl_refutes_depth_schema_on_three_chain():
    decision = decide(GL, schema_instance(BD2_SCHEMA), 3)
    assert decision.verdict is Verdict.REFUTED
    fr = decision.countermodel.model.frame
    assert fr == chain(3)
    assert decision.countermodel.world == 0


def test_decide_bd2_refutes_linearity_schema_on_fork():
    decision = decide(BD2, schema_instance(GL_SCHEMA), 3)
    assert decision.verdict is Verdict.REFUTED
    fr = decision.countermodel.model.frame
    # the fork representative reached first in enumeration order has
    # its root labeled 2; the shape is what matters
    assert fr.size == 3 and fr.depth() == 2 and fr.width() == 2
    root = decision.countermodel.world
    assert all(fr.le(root, w) for w in range(3))


def test_decide_glbd2_still_refutes_excluded_middle():
    decision = decide(GLBD2, parse("p|~p"), 2)
    assert decision.verdict is Verdict.REFUTED
    assert decision.countermodel.model.frame == chain(2)


def test_decide_glbd2_valid_needs_covered_bound():
    decision = decide(GLBD2, parse("~~(p|~p)"), 2)
    assert decision.verdict is Verdict.VALID
    assert decision.bound == 2
    # bound below the completeness bound stays inconclusive
    low = decide(GLBD2, parse("~~(p|~p)"), 1)
    assert low.verdict is Verdict.NO_COUNTERMODEL
    assert low.bound == 1


def test_decide_glbd2_refutes_double_negation_elimination():
    # the two-world chain is in the class and refutes ~~(p|~p) -> (p|~p)
    decision = decide(GLBD2, parse("~~(p|~p)->(p|~p)"), 2)
    assert decision.verdict is Verdict.REFUTED
    assert decision.countermodel.model.frame == chain(2)


def test_decide_ipc_never_claims_valid():
    decision = decide(IPC, parse("~~(p|~p)"), 5)
    assert decision.verdict is Verdict.NO_COUNTERMODEL
    assert decision.bound == 5
    assert decide(IPC, parse("p->p"), 3).verdict is Verdict.NO_COUNTERMODEL


def test_decide_rejects_bad_bound():
    with pytest.raises(ValueError):
        decide(IPC, parse("p"), 0)


@pytest.mark.parametrize("bound", [0, -2, "2", 2.0, True])
def test_logic_spec_rejects_a_bad_exact_bound(bound):
    # A bound below 1 would make decide answer Valid with no frame searched.
    with pytest.raises(ValueError, match="exact_bound"):
        LogicSpec("x", (), (), exact_bound=bound)
    assert LogicSpec("x", (), (), exact_bound=1).exact_bound == 1


@pytest.mark.parametrize("max_n", [0, -3])
def test_audit_schemas_rejects_bad_bound(max_n):
    # A bound below 1 checks no frame, so None would claim a vacuous pass.
    with pytest.raises(ValueError, match="max_n >= 1"):
        audit_schemas(GL, max_n)


def _compiles(monkeypatch):
    # every formula kripke compiles from here on, with the program memo empty
    compiled = []
    real = kripke._compile

    def counted(f):
        compiled.append(f)
        return real(f)

    monkeypatch.setattr(kripke, "_compile", counted)
    monkeypatch.setattr(kripke, "_PROGRAMS", {})
    return compiled


def test_audit_schemas_compiles_each_instance_once_per_call(monkeypatch):
    # gl+bd2's two instances are searched in turn on each of its 44 class
    # frames up to 7 worlds, and kripke keeps both programs: 2 compiles, not 88
    compiled = _compiles(monkeypatch)
    assert audit_schemas(GLBD2, 7) is None
    assert len(compiled) == 2
    assert audit_schemas(IPC, 7) is None
    assert len(compiled) == 2


def _audit_schema_by_schema(logic, max_n):
    # the reference walk: each class frame, each instance in turn
    instances = [schema_instance(schema) for schema in logic.axiom_schemas]
    for n in range(1, max_n + 1):
        for fr in kripke._class_reps(tuple(logic.conditions), n)[0]:
            for f in instances:
                cm = frame_valid(fr, f)
                if cm is not None:
                    return cm
    return None


def test_audit_schemas_returns_the_first_refuted_schemas_countermodel():
    # with no conditions the gl instance fails first (on the fork), with LIN
    # only the bd2 instance (on the 3-chain); the schemas in either order
    firsts = []
    for conditions in ((), (LIN,)):
        for schemas in ((GL_SCHEMA, BD2_SCHEMA), (BD2_SCHEMA, GL_SCHEMA), (LEM_SCHEMA,)):
            logic = LogicSpec("x", schemas, conditions)
            cm = audit_schemas(logic, 4)
            assert cm is not None and cm == _audit_schema_by_schema(logic, 4)
            firsts.append(cm.formula)
    gl, bd2, lem = (schema_instance(s) for s in (GL_SCHEMA, BD2_SCHEMA, LEM_SCHEMA))
    assert firsts == [gl, gl, lem, bd2, bd2, lem]


def test_decision_json():
    decision = decide(IPC, parse("p|~p"), 2)
    data = decision.to_json()
    assert data["verdict"] == "refuted"
    assert data["countermodel"]["world"] == 0
    valid = decide(CPC, parse("p|~p"), 1).to_json()
    assert valid == {"verdict": "valid", "bound": 1}


def test_classical_taut_examples():
    assert classical_taut(parse("p|~p")) is True
    assert classical_taut(parse("p")) is False
    assert classical_taut(parse("((p->q)->p)->p")) is True
    assert classical_taut(parse("T")) is True
    assert classical_taut(parse("F")) is False


def test_classical_taut_matches_corpus_flags():
    for text, expected in CORPUS:
        assert classical_taut(parse(text)) is expected, text


def test_classical_taut_agrees_with_single_world_validity():
    assert len(CORPUS) >= 30
    trivial = make_frame(1)
    for text, _ in CORPUS:
        f = parse(text)
        assert classical_taut(f) == (frame_valid(trivial, f) is None), text


def test_peirce_classical_but_refutable():
    peirce = parse("((p->q)->p)->p")
    assert classical_taut(peirce) is True
    assert decide(IPC, peirce, 3).verdict is Verdict.REFUTED


def test_schemas_sound_over_their_classes():
    pairs = [("p", "p"), ("p", "q"), ("q", "p"), ("q", "q")]
    for n in range(1, 5):
        for fr in enumerate_frames(n, dedup=True):
            for a, b in pairs:
                if GL.frame_class(fr):
                    assert frame_valid(fr, schema_instance(GL_SCHEMA, a, b)) is None
                if BD2.frame_class(fr):
                    assert frame_valid(fr, schema_instance(BD2_SCHEMA, a, b)) is None
                if GLBD2.frame_class(fr):
                    for schema in GLBD2.axiom_schemas:
                        assert frame_valid(fr, schema_instance(schema, a, b)) is None
                if CPC.frame_class(fr):
                    assert frame_valid(fr, schema_instance(LEM_SCHEMA, a, b)) is None


def test_axiom_schemas_sound_on_grown_class_frames():
    for logic in LOGICS.values():
        assert audit_schemas(logic, 5) is None, logic.name
    # a schema its class does not validate is caught on the first such frame
    cm = audit_schemas(LogicSpec("lin+lem", (LEM_SCHEMA,), (LIN,)), 5)
    assert cm is not None and cm.model.frame == chain(2)
    assert cm.formula == schema_instance(LEM_SCHEMA)


def test_restricted_refutations_are_ipc_refutations():
    # a countermodel inside a restricted class is an unrestricted one too
    for text, _ in CORPUS:
        f = parse(text)
        ipc = decide(IPC, f, 3)
        for logic in (GL, BD2, GLBD2):
            restricted = decide(logic, f, 3)
            if restricted.verdict is Verdict.REFUTED:
                assert ipc.verdict is Verdict.REFUTED, text


def test_single_world_refutation_carries_to_glbd2():
    # the class of gl+bd2 contains the one-world frame
    for text, _ in CORPUS:
        f = parse(text)
        if decide(CPC, f, 1).verdict is Verdict.REFUTED:
            assert decide(GLBD2, f, 2).verdict is Verdict.REFUTED, text


def test_intersection_witness():
    assert GL_INSTANCE == schema_instance(GL_SCHEMA)
    # valid on every frame of the combined class at its completeness bound
    assert decide(GLBD2, GL_INSTANCE, 2).verdict is Verdict.VALID
    # yet refutable on a plain intuitionistic frame
    fr = make_frame(3, [(0, 1), (0, 2)])
    assert frame_valid(fr, GL_INSTANCE) is not None


def test_logic_classes_use_conditions():
    for n in (1, 2, 3):
        for fr in enumerate_frames(n):
            assert GL.frame_class(fr) == eval_condition(LIN, fr)
            assert BD2.frame_class(fr) == eval_condition(BD2_CHAIN, fr)
            assert GLBD2.frame_class(fr) == (
                eval_condition(LIN, fr) and eval_condition(BD2_CHAIN, fr)
            )


# --- decide against the single-phase reference ------------------------------

# the first labeled frame of every class, grouped by the permutation oracle
_CLASSES = {n: [c[0] for c in iso_classes(list(enumerate_frames(n)))] for n in range(1, 5)}


def _reference_decide(logic, f, bound):
    """Scan every isomorphism class of every size up to the bound."""
    limit = bound if logic.exact_bound is None else min(bound, logic.exact_bound)
    for n in range(1, limit + 1):
        for fr in _CLASSES[n]:
            if logic.frame_class(fr):
                cm = frame_valid(fr, f)
                if cm is not None:
                    return Decision(Verdict.REFUTED, n, cm)
    if logic.exact_bound is not None and logic.exact_bound <= bound:
        return Decision(Verdict.VALID, limit)
    return Decision(Verdict.NO_COUNTERMODEL, bound)


# first refuted in ipc at 2, 3 and 4 worlds; bd2 at 3 and 4; gl at 4
_DEEP_CASES = [
    "p|~p",
    "(p->q)|(q->p)",
    "~p|~~p",
    "p|(p->(q|~q))",
    "p|(p->(q|(q->(r|~r))))",
    "(p->(q|r))|(q->(p|r))|(r->(p|q))",
]


def _differential_formulas():
    # half classical tautologies, so the search gets past one world
    rng = random.Random(20261018)
    tautologies, others = [], []
    while len(tautologies) < 30 or len(others) < 30:
        names = ["p", "q", "r"][: rng.randint(1, 3)]
        f = random_formula(rng, rng.randint(2, 4), names)
        bucket = tautologies if classical_taut(f) else others
        if len(bucket) < 30:
            bucket.append(f)
    return [parse(text) for text in _DEEP_CASES] + tautologies + others


def test_decide_matches_single_phase_reference():
    refuted_at = set()
    for f in _differential_formulas():
        for logic in LOGICS.values():
            for bound in range(1, 5):
                got = decide(logic, f, bound)
                assert got.to_json() == _reference_decide(logic, f, bound).to_json(), (
                    logic.name, render(f), bound)
                if got.verdict is Verdict.REFUTED:
                    refuted_at.add(got.bound)
    assert refuted_at == {1, 2, 3, 4}


def test_decide_pins_a_five_world_refutation():
    # first refuted on the 5-chain; bd2 forbids three-world chains
    f = parse("p|(p->(q|(q->(r|(r->(s|~s))))))")
    chain5 = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    for logic in (IPC, GL):
        got = decide(logic, f, 6).to_json()
        assert got["verdict"] == "refuted" and got["bound"] == 5, logic.name
        cm = got["countermodel"]
        assert (cm["worlds"], cm["le"], cm["world"]) == (5, chain5, 0)
        assert cm["valuation"] == {"p": [1, 2, 3, 4], "q": [2, 3, 4], "r": [3, 4], "s": [4]}
    assert decide(BD2, f, 6).to_json() == {"verdict": "no-countermodel", "bound": 6}


def test_decide_answers_the_same_cold_and_warm(monkeypatch):
    # the store of grown class representatives changes no answer, however
    # earlier calls filled it
    cases = [(logic, f) for f in _differential_formulas() for logic in LOGICS.values()]
    cold = {}
    for logic, f in cases:
        for bound in range(1, 5):
            kripke._CLASS_REPS.clear()
            cold[logic.name, f, bound] = decide(logic, f, bound).to_json()
            assert decide(logic, f, bound).to_json() == cold[logic.name, f, bound]
    for bounds in (range(1, 5), range(4, 0, -1)):
        for logic, f in cases:
            kripke._CLASS_REPS.clear()
            for bound in bounds:
                assert decide(logic, f, bound).to_json() == cold[logic.name, f, bound], (
                    logic.name, render(f), bound, list(bounds))
    # lin+lem shares gl's conditions, so it walks the lists gl's call grew
    lin_lem = LogicSpec("lin+lem", (LEM_SCHEMA,), (LIN,))
    kripke._CLASS_REPS.clear()
    cold_audit = audit_schemas(lin_lem, 5)
    kripke._CLASS_REPS.clear()
    decide(GL, parse("~~(p|~p)"), 5)
    assert audit_schemas(lin_lem, 5) == cold_audit
    # conditions given as a list share the entries of their tuple
    lin_list = LogicSpec("lin-list", (), [LIN])
    assert decide(lin_list, parse("~~(p|~p)"), 5) == decide(GL, parse("~~(p|~p)"), 5)
    assert decide(lin_list, parse("p|(p->(q|~q))"), 5) == decide(GL, parse("p|(p->(q|~q))"), 5)
    # LIN runs while the store grows, and the calls that find their sizes
    # grown under the same conditions, as a tuple or a list, run it never
    predicate, takes_k = correspondence.CONDITIONS["LIN"]
    calls = []

    def counted(fr, k):
        calls.append(fr)
        return predicate(fr, k)

    monkeypatch.setitem(correspondence.CONDITIONS, "LIN", (counted, takes_k))
    kripke._CLASS_REPS.clear()
    decide(GL, parse("~~(p|~p)"), 5)
    assert calls
    calls.clear()
    decide(lin_list, parse("~~(p|~p)"), 5)
    audit_schemas(lin_lem, 4)
    assert calls == []


def test_decide_threads_share_the_store():
    texts = ["~~(p|~p)", "p|~p", "(p->q)|(q->p)", "p|(p->(q|~q))"]
    jobs = [(logic, parse(text)) for text in texts for logic in LOGICS.values()]
    kripke._CLASS_REPS.clear()
    want = [decide(logic, f, 6).to_json() for logic, f in jobs]
    store = dict(kripke._CLASS_REPS)

    def tables(reps):
        # entry equality compares the frames' fields; their search tables are not one
        return {
            key: [getattr(fr, "_tables", None) for fr in frames]
            for key, (frames, _) in reps.items()
        }

    kripke._CLASS_REPS.clear()
    results = [None] * 4
    start = threading.Barrier(4, timeout=60)

    def work(i):
        # the threads start together, each at another job, so they grow
        # and read entries at once
        order = jobs[i * 5:] + jobs[:i * 5]
        start.wait()
        got = {id(job): decide(*job, 6).to_json() for job in order}
        results[i] = [got[id(job)] for job in jobs]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * 4
    assert kripke._CLASS_REPS == store
    assert tables(kripke._CLASS_REPS) == tables(store)
    assert any(t is not None for kept in tables(store).values() for t in kept)


def test_frame_classes_closed_under_cones():
    # decide's rooted search is sound only for cone-closed classes
    for logic in LOGICS.values():
        for n in range(1, 6):
            for fr in enumerate_frames(n, dedup=True):
                if logic.frame_class(fr):
                    for x in range(fr.size):
                        assert logic.frame_class(fr.cone(x)[0]), (logic.name, fr.up, x)
