import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import threading
from collections.abc import Iterable
from itertools import count, permutations, product
from math import factorial

import pytest

from kripkebench import cli, correspondence, kripke
from kripkebench.formula import And, Atom, Bottom, Imp, Or, Top, atoms, parse, render, substitute
from kripkebench.kripke import (
    AntisymmetryViolation,
    Countermodel,
    Frame,
    InvalidModel,
    Model,
    UnknownWorld,
    _CLASS_REPS,
    _below,
    _canonical_key,
    _class_reps,
    _closed_masks,
    _compile,
    _extensions,
    _grow,
    _verdict_program,
    antichain,
    chain,
    countermodel_to_json,
    enumerate_frames,
    force_set,
    forces,
    fork,
    frame_from_json,
    frame_to_json,
    frame_valid,
    make_frame,
    make_model,
    model_from_json,
    model_to_json,
    refutes,
    to_dot,
)
from kripkebench.logics import IPC, LOGICS, audit_schemas, decide
from oracles import (
    CONDITION_ORACLES,
    _isomorphic,
    brute_force_posets,
    classical_taut,
    frame_pairs,
    iso_classes,
    naive_forces,
    naive_first_countermodel,
    naive_upsets,
    naive_width,
    polarities,
    random_formula,
    random_frame,
    random_model,
)

GL_INSTANCE = parse("(p->q)|(q->p)")
BD2_INSTANCE = parse("p|(p->(q|~q))")


# --- construction ---------------------------------------------------------

def test_make_frame_closes_relation():
    fr = make_frame(3, [(0, 1), (1, 2)])
    assert fr.le(0, 2)
    assert fr.le(0, 0)
    assert not fr.le(2, 0)
    assert fr == chain(3)


def test_make_frame_fork():
    fr = make_frame(3, [(0, 1), (0, 2)])
    assert fr.le(0, 1) and fr.le(0, 2)
    assert not fr.le(1, 2) and not fr.le(2, 1)
    assert fr == fork()


def test_make_frame_rejects_two_cycle():
    with pytest.raises(AntisymmetryViolation) as err:
        make_frame(2, [(0, 1), (1, 0)])
    assert err.value.pair == (0, 1)
    # indirect cycle through a third world
    with pytest.raises(AntisymmetryViolation):
        make_frame(3, [(0, 1), (1, 2), (2, 0)])


def test_make_frame_validates_input():
    with pytest.raises(UnknownWorld):
        make_frame(2, [(0, 5)])
    with pytest.raises(ValueError):
        make_frame(0)
    # reflexive pairs are harmless
    assert make_frame(1, [(0, 0)]).up == (1,)


@pytest.mark.parametrize("world", [True, False, 0.0, None, "0", -1, 2])
def test_make_frame_rejects_unknown_world(world):
    # the world check of forces and Countermodel: True is not world 1
    for pair in ((world, 0), (0, world)):
        with pytest.raises(UnknownWorld) as err:
            make_frame(2, [pair])
        assert err.value.world is world


@pytest.mark.parametrize("rows", [(3,), (2, 2), (0,), (3, 6, 4), [1], (True,), ("a",), (1.0,)])
def test_frame_rejects_rows_that_are_not_an_order(rows):
    # a bit past the last world, a missing own bit (twice), and 0 <= 1 <= 2
    # without 0 <= 2; then rows that are not a tuple of ints: a list, which
    # would not hash, a bool, which would equal Frame((1,)), a str and a float
    with pytest.raises(ValueError, match="not a partial order") as err:
        Frame(rows)
    assert type(err.value) is ValueError


def test_frame_rejects_two_way_rows():
    with pytest.raises(AntisymmetryViolation) as err:
        Frame((3, 3))
    assert err.value.pair == (0, 1)
    assert Frame(()).up == ()


def test_bad_rows_never_reach_a_frame_condition():
    # LIN, depth_le(1) and BD2_CHAIN once answered True on these rows, and
    # frame_valid raised IndexError: now the constructor refuses them.
    checks = [
        ((3,), correspondence.LIN),
        ((3,), correspondence.depth_le(1)),
        ((3, 3), correspondence.BD2_CHAIN),
        ((3,), lambda fr: frame_valid(fr, parse("p|~p"))),
    ]
    for rows, check in checks:
        with pytest.raises(ValueError) as err:
            check(Frame(rows))
        assert err.traceback[-1].name == "__post_init__"


def _first_two_way_pair(size, pairs):
    # make_frame's own antisymmetry loop, from before the Frame constructor
    # checked its rows: the first i < j the closure relates both ways.
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        up[x] |= 1 << y
    for k in range(size):
        for i in range(size):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(size):
        for j in range(i + 1, size):
            if up[i] >> j & 1 and up[j] >> i & 1:
                return i, j
    return None


def test_make_frame_reports_the_first_two_way_pair():
    rng = random.Random(3333)
    for _ in range(400):
        size = rng.randint(2, 6)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, size))]
        cycle = rng.sample(range(size), rng.randint(2, size))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
        rng.shuffle(pairs)
        with pytest.raises(AntisymmetryViolation) as err:
            make_frame(size, pairs)
        assert err.value.pair == _first_two_way_pair(size, pairs), (size, pairs)


def test_growth_and_cones_build_only_orders():
    # _grow and Frame.cone skip the constructor's check; every frame they
    # built must pass it.
    for conditions in [()] + [tuple(logic.conditions) for logic in LOGICS.values()]:
        for rooted in (False, True):
            for n in range(1, 7):
                for fr in _class_reps(conditions, n, rooted)[0]:
                    assert Frame(fr.up) == fr
    for n in range(1, 7):
        for fr in _class_reps((), n)[0]:
            for x in range(n):
                cone = fr.cone(x)[0]
                assert Frame(cone.up) == cone


# --- forcing --------------------------------------------------------------

def test_forces_on_two_chain():
    model = make_model(chain(2), {"p": [1]})
    assert forces(model, 0, parse("p|~p")) is False
    assert forces(model, 0, parse("~~p")) is True
    assert forces(model, 1, parse("p")) is True
    # agreement with the naive recursive evaluator
    for f in ("p|~p", "~~p", "p", "~p", "p->p", "F", "T"):
        for w in (0, 1):
            assert forces(model, w, parse(f)) == naive_forces(
                2, [(0, 1)], {"p": [1]}, w, parse(f)
            )


def test_forces_unknown_world():
    model = make_model(chain(2), {"p": [1]})
    with pytest.raises(UnknownWorld):
        forces(model, 2, parse("p"))
    with pytest.raises(UnknownWorld):
        forces(model, -1, parse("p"))


def test_forces_agrees_with_naive_oracle_randomized():
    rng = random.Random(123456)
    for _ in range(300):
        fr = random_frame(rng, 4)
        model = random_model(rng, fr, ["p", "q"])
        f = random_formula(rng, 4, ["p", "q"])
        val = model.valuation_dict()
        expected = {
            w for w in range(fr.size) if naive_forces(fr.size, fr.strict_pairs(), val, w, f)
        }
        assert force_set(model, f) == expected
        w = rng.randrange(fr.size)
        assert forces(model, w, f) == (w in expected)


@pytest.mark.parametrize(
    "text", ["T", "F", "T->F", "p->q", "(p->q)->p", "~~p->p", "(p->q)|(q->p)"]
)
def test_force_set_agrees_with_naive_oracle_on_every_small_model(text):
    # Labeled frames order worlds both ways, so a strict pair x < y has
    # its lower world on either side of its upper one in the labeling.
    f = parse(text)
    for n in range(1, 4):
        for rel in brute_force_posets(n):
            pairs = sorted(rel)
            fr = make_frame(n, pairs)
            for p, q in product(naive_upsets(n, pairs), repeat=2):
                val = {"p": p, "q": q}
                expected = {w for w in range(n) if naive_forces(n, pairs, val, w, f)}
                assert force_set(make_model(fr, val), f) == expected, (pairs, val)


def test_force_set_upward_closed():
    rng = random.Random(777)
    for _ in range(200):
        fr = random_frame(rng, 5)
        model = random_model(rng, fr, ["p", "q"])
        f = random_formula(rng, 5, ["p", "q"])
        worlds = force_set(model, f)
        for x in worlds:
            for y in range(fr.size):
                if fr.le(x, y):
                    assert y in worlds


def _structural_compile(f, slot):
    # reference: share subterms by Formula equality, first occurrence wins
    prog, index = [], {}

    def walk(g):
        if g in index:
            return index[g]
        if isinstance(g, Atom):
            node = ("atom", slot[g.name], 0)
        elif isinstance(g, Top):
            node = ("top", 0, 0)
        elif isinstance(g, Bottom):
            node = ("bot", 0, 0)
        else:
            a, b = walk(g.left), walk(g.right)
            op = "and" if isinstance(g, And) else "or" if isinstance(g, Or) else "imp"
            node = (op, a, b)
        index[g] = len(prog)
        prog.append(node)
        return index[g]

    walk(f)
    return prog


def check_search(f):
    # The searched atoms are those with a negative occurrence: they are
    # numbered first and the positive-only atoms after them, each group in
    # name order, and the program's atom nodes hold those numbers.
    signs = polarities(f)
    searched = sorted(name for name in signs if "-" in signs[name])
    names = searched + sorted(name for name in signs if "-" not in signs[name])
    slot = {name: i for i, name in enumerate(names)}
    assert _compile(f) == (names, _structural_compile(f, slot), len(searched)), f


def test_compile_matches_structural_sharing():
    rng = random.Random(4242)
    fixed = ["(p->q)&(p->q)", "((p|q)->(p|q))|~(p|q)", "T&T|F->F", "~~p->~~p&q"]
    formulas = [parse(text) for text in fixed]
    formulas += [random_formula(rng, rng.randint(0, 6), ["p", "q", "r"]) for _ in range(500)]
    for f in formulas:
        check_search(f)
    assert len(_compile(parse("(p->q)&(p->q)"))[1]) == 4
    assert len(_compile(parse("~" * 100 + "p"))[1]) == 102


def test_compile_refuses_what_is_not_a_formula():
    for f in ("p", And(Atom("p"), None)):
        with pytest.raises(TypeError, match="not a formula"):
            frame_valid(fork(), f)


def test_compile_finds_the_polarity_of_every_occurrence_of_a_shared_subterm():
    # One subterm object at both polarities: the walk visits each
    # occurrence, though the program lists the subterm once.  In the first
    # formula q is positive in one occurrence of g and negative in the other.
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    g = Imp(p, q)
    shared = [And(g, Imp(g, r)), Imp(Imp(g, r), g), Or(Imp(Imp(g, Bottom()), Bottom()), g), Imp(g, g)]
    want = [(["p", "q", "r"], 2), (["p", "r", "q"], 2), (["p", "q"], 1), (["p", "q"], 2)]
    for f, (names, searched) in zip(shared, want):
        check_search(f)
        assert _compile(f)[0::2] == (names, searched), f
    assert len(_compile(shared[0])[1]) == 6
    # with no positive-only atom, every atom is searched, in name order
    assert _compile(parse("(p->q)|(q->p)"))[0::2] == (["p", "q"], 2)
    # the positive-only p is numbered after the searched q
    prog = [("atom", 1, 0), ("atom", 0, 0), ("bot", 0, 0), ("imp", 1, 2), ("or", 0, 3)]
    assert _compile(parse("p|~q")) == (["q", "p"], prog, 1)


def test_per_call_paths_leave_no_cyclic_garbage():
    # parse and _compile recurse through module-level functions, not closures:
    # a recursive closure is a reference cycle, left for the garbage collector
    # on every call.  cli.main runs in text mode: a plain command line builds
    # no argparse parser, which is cyclic, and --format json leaves the json
    # encoder's cycle.
    fr, model = fork(), make_model(chain(2), {"p": [1]})
    gc.collect()
    gc.disable()
    try:
        for i in range(kripke._PROGRAM_FORMULAS + 8):  # fresh, past the program memo
            f = parse(f"(p{i} -> q) | (q -> ~~p{i}) & T")
            assert parse(render(f)) == f
            _compile(f)
            assert frame_valid(fr, f) is not None
            force_set(model, f)
        found = decide(IPC, parse("p|~p"), 3)
        assert found.countermodel is not None
        assert decide(IPC, parse("~~(p|~p)"), 3).countermodel is None
        report = correspondence.check_correspondence(GL_INSTANCE, correspondence.LIN, 4)
        witness = correspondence.gl_witness(fr)
        assert model_from_json(model_to_json(model)) == model
        assert frame_from_json(frame_to_json(fr)) == fr
        for data in (found.to_json(), report.to_json(), countermodel_to_json(witness)):
            json.loads(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["parse", "p|~p"], ["decide", "cpc", "p|~p"], ["enumerate", "--n", "3", "--stats"],
                         ["correspond", "(p->q)|(q->p)", "lin", "--max-n", "3", "--dedup"]):
                assert cli.main(argv) == 0
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


# --- frame validity -------------------------------------------------------

def test_frame_valid_three_chain():
    assert frame_valid(chain(3), GL_INSTANCE) is None
    cm = frame_valid(chain(3), BD2_INSTANCE)
    assert cm is not None
    assert cm.world == 0
    # the classic refuting valuation: p on the two upper worlds, q on top
    assert cm.model.valuation_dict() == {
        "p": frozenset({1, 2}),
        "q": frozenset({2}),
    }
    assert naive_forces(3, [(0, 1), (1, 2)], cm.model.valuation_dict(), 0, BD2_INSTANCE) is False


def test_frame_valid_fork():
    assert frame_valid(fork(), BD2_INSTANCE) is None
    cm = frame_valid(fork(), GL_INSTANCE)
    assert cm is not None
    assert cm.world == 0
    assert cm.model.valuation_dict() == {"p": frozenset({1}), "q": frozenset({2})}


def _first_countermodel(fr, f):
    cm = frame_valid(fr, f)
    return None if cm is None else (cm.model.valuation_dict(), cm.world)


def _all_searched(f):
    # f & (a & b & ... -> a) over f's atoms: forced exactly where f is, so
    # with the same first countermodel, and each atom occurs negatively, so
    # the search ranges over every atom of f
    names = sorted(atoms(f))
    conj = Atom(names[0])
    for name in names[1:]:
        conj = And(conj, Atom(name))
    return And(f, Imp(conj, Atom(names[0])))


# frame_valid is checked against the naive oracle on every labeled poset
# up to 4 worlds here, and in CI on the implication formulas at 5 worlds.
ORACLE_CORPUS = [
    "p->p",
    "p|~p",
    "~~p->p",
    "(p->q)|(q->p)",
    "p|(p->(q|~q))",
    "~~(p|~p)",
    "((p->q)->p)->p",
    "p&q->p",
    "T",
    "F",
    "T->F",
]


def check_against_naive_oracle(n, corpus):
    for fr in enumerate_frames(n):
        for text in corpus:
            f = parse(text)
            names = sorted({a for a in ("p", "q") if a in text})
            expected = naive_first_countermodel(n, fr.strict_pairs(), f, names)
            assert _first_countermodel(fr, f) == expected, (fr.up, text)


def test_frame_valid_agrees_with_naive_oracle():
    for n in (1, 2, 3, 4):
        check_against_naive_oracle(n, ORACLE_CORPUS)


# Formulas with positive-only atoms (held at the empty upset by the
# search), most beside atoms that also occur negatively; the ninth has no
# positive-only atom, and in the last three one sorts before a searched
# atom, so _compile numbers the atoms out of name order.
POLARITY_CORPUS = [
    "p|q",
    "(p->q)|r",
    "((p->q)->p)->p",
    "~~q|(p->~~p)",
    "p&q->p|r",
    "(p->q)|(q->p)|r",
    "((q->r)->p)->(~p->q)|r",
    "~~(p|~p)|q&r",
    "(p->q)|(q->p)",
    "p|~q",
    "a|((p->q)|(q->p))",
    "~~a|(b->c)",
]


def test_frame_valid_with_positive_only_atoms_agrees_with_naive_oracle():
    # every class representative up to 4 worlds, each formula searched
    # twice in opposite orders, so a frame's layout for some number of
    # searched atoms is read by formulas with different numbers of atoms
    formulas = [parse(text) for text in POLARITY_CORPUS]
    assert [_compile(f)[2] for f in formulas] == [0, 1, 1, 1, 2, 2, 2, 1, 2, 1, 2, 1]
    frames = [fr for n in range(1, 5) for fr in enumerate_frames(n, dedup=True)]
    expected = {}
    for order in (formulas, formulas[::-1]):
        for fr in frames:
            for f in order:
                if (fr.up, f) not in expected:
                    names = sorted(atoms(f))
                    expected[fr.up, f] = naive_first_countermodel(fr.size, fr.strict_pairs(), f, names)
                assert _first_countermodel(fr, f) == expected[fr.up, f], (fr.up, render(f))
    refuted = [want is not None for want in expected.values()]
    assert 0 < refuted.count(True) < len(refuted)


# Formulas for refutes, whose search also holds each atom that occurs only
# negatively at the full set and folds the constants that leaves: r is
# negative-only in the first four, the next three fold to T, and g sits at
# both polarities in the last.
_g = Imp(Atom("p"), Atom("q"))
VERDICT_FORMULAS = [parse(text) for text in (
    "(p->q)|(q->p)|~r",
    "p|(p->(q|~q))|~r",
    "~~(p|~p)|~q",
    "~(p&r)->(q->p)",
    "q->(p|q)",
    "((p|F)&(T->p))->p|q",
    "(p->p)|q",
)] + [And(_g, Imp(_g, Atom("r")))]


def check_verdicts_against_naive_oracle(frames, formulas):
    # frame_valid's first countermodel and refutes' verdict, both against
    # one naive search over every atom of the formula
    for fr in frames:
        for f in formulas:
            expected = naive_first_countermodel(fr.size, fr.strict_pairs(), f, sorted(atoms(f)))
            assert _first_countermodel(fr, f) == expected, (fr.up, render(f))
            assert refutes(fr, f) == (expected is not None), (fr.up, render(f))


def test_refutes_agrees_with_naive_oracle():
    # every class representative up to 4 worlds, the formulas above and
    # random ones, which draw T and F
    rng = random.Random(48)
    formulas = VERDICT_FORMULAS + [random_formula(rng, rng.randint(0, 4), ["p", "q", "r"]) for _ in range(150)]
    frames = [fr for n in range(1, 5) for fr in enumerate_frames(n, dedup=True)]
    check_verdicts_against_naive_oracle(frames, formulas)
    assert refutes(Frame(()), parse("F")) is False  # no world to fail


def test_verdict_program_fixes_negative_only_atoms_and_folds_constants():
    def verdict(text):
        return _verdict_program(*_compile(parse(text))[1:])

    # r reads as T, so ~r as F, and the disjunction is (p->q)|(q->p)'s program
    assert verdict("(p->q)|(q->p)|~r") == (2, _compile(GL_INSTANCE)[1])
    # q is negative-only, so ~q is F; p is positive and negative
    assert verdict("~~(p|~p)|~q") == (1, _compile(parse("~~(p|~p)"))[1])
    for text in ("q -> (p | q)", "((p|F)&(T->p))->p|q", "(p->p)|q", "T", "F->p", "p->T"):
        assert verdict(text) is None, text
    # p is positive-only, so F; A -> F stays a negation
    for text in ("F", "p", "~T", "p&q", "(p->F)->F"):
        assert verdict(text) == (0, [("bot", 0, 0)]), text
    # the nodes no longer read are dropped: p -> q, and r with r -> r
    assert verdict("((p->q)|T)&(q->p)") == (2, [("atom", 0, 0), ("atom", 1, 0), ("imp", 1, 0)])
    assert verdict("((r->r)->p)|(p->q)") == (1, _compile(parse("p|~p"))[1])


def test_refutes_answers_a_formula_that_folds_to_T_without_frame_work(monkeypatch):
    def searched(rows):
        raise AssertionError("built a frame's upsets")

    monkeypatch.setattr(kripke, "_closed_masks", searched)
    fr = antichain(40)
    assert refutes(fr, parse("q -> (p | q)")) is False
    assert not hasattr(fr, "_tables")


def test_refutes_answers_a_formula_that_folds_to_F_without_frame_work(monkeypatch):
    # p is held at the empty upset and q, read only negatively, at the full
    # set, so each folds to F: refuted at every world, with no atom searched
    def searched(rows):
        raise AssertionError("built a frame's upsets")

    monkeypatch.setattr(kripke, "_closed_masks", searched)
    fr = antichain(40)
    for text in ("~p", "p", "F", "p & ~q"):
        assert refutes(fr, parse(text)) is True, text
    assert not hasattr(fr, "_tables")
    assert refutes(Frame(()), parse("F")) is False


def test_frame_valid_first_countermodel_across_chunks():
    # 4 atoms on antichain(4), antichain(5) and the 5-world frame with
    # 3 < 0, 3 < 1 and 4 < 2 take 16**4, 32**4 and 15**4 valuations, more
    # than one chunk of frame_valid's bit-sliced search.  The first
    # countermodels of p -> q|r|s (all three frames), p|q -> r|s
    # (antichain(5)) and (p->q)|(r->s)|~~(p&s) (the last frame) lie past
    # the first chunk; p|q -> r|s has another minimal refutation, first if
    # the last atom were most significant.  Most of these atoms occur only
    # positively, and the search holds them at the empty upset, so each
    # formula is also searched as _all_searched(f), over all four atoms.
    refuted = [
        "p|q->r|s",
        "p->q|r|s",
        "(s->r)|(q->p)",
        "s->p|q&r",
        "p&q&r&s->F",
        "(p->q)|(r->s)|~~(p&s)",
    ]
    names = ["p", "q", "r", "s"]
    last = make_frame(5, [(3, 0), (3, 1), (4, 2)])
    for fr in (antichain(4), antichain(5), last):
        for text in refuted:
            f = parse(text)
            expected = naive_first_countermodel(fr.size, fr.strict_pairs(), f, names)
            assert expected is not None
            assert _first_countermodel(fr, f) == expected, (fr.up, text)
            assert _compile(_all_searched(f))[2] == 4
            assert _first_countermodel(fr, _all_searched(f)) == expected, (fr.up, text)
    # Each world of an antichain is its own cone, so validity there is
    # classical validity.  The last frame's labels run against its order,
    # and its cone at 3 is a fork: the first tautology first fails there at
    # 3, past the first chunk, so implication carries failures down in
    # valuations other than a chunk's first.
    tautologies = ["(p->q)|(q->r)|(r->s)|(s->p)", "(p->q)|(q->r)|(r->p)|~~s"]
    for text in tautologies:
        f = parse(text)
        assert classical_taut(f)
        for fr in (antichain(4), antichain(5)):
            assert frame_valid(fr, f) is None, (fr.size, text)
            assert frame_valid(fr, _all_searched(f)) is None, (fr.size, text)
        expected = naive_first_countermodel(5, last.strict_pairs(), f, names)
        assert _first_countermodel(last, f) == expected, text
        assert _first_countermodel(last, _all_searched(f)) == expected, text
    assert _first_countermodel(last, parse(tautologies[0]))[1] == 3


def test_frame_valid_on_no_worlds():
    # with no world there is nothing to fail
    for text in ("p", "F", "T->F"):
        assert frame_valid(Frame(()), parse(text)) is None


def test_frame_valid_countermodel_self_check():
    cm = frame_valid(chain(2), parse("p|~p"))
    assert cm.world == 0
    assert cm.model.valuation_dict() == {"p": frozenset({1})}
    assert forces(cm.model, cm.world, cm.formula) is False


def test_countermodel_constructor_rejects_forced_formula():
    model = make_model(chain(2), {"p": [0, 1]})
    with pytest.raises(ValueError):
        Countermodel(model, 0, parse("p"))


def test_countermodel_recheck_reads_the_rows_a_searched_frame_keeps(monkeypatch):
    # A searched frame's re-check reads its kept strict-below rows, and an
    # unsearched frame's builds them; a non-countermodel raises on both.
    rows = []
    real = kripke._below
    monkeypatch.setattr(kripke, "_below", lambda fr: rows.append(fr) or real(fr))
    fr, f = fork(), parse("(p->q)|(q->p)")
    cm = frame_valid(fr, f)
    assert cm is not None and rows == [fr]
    forced = make_model(fr, {"p": [1], "q": [1]})
    with pytest.raises(ValueError, match="not a countermodel"):
        Countermodel(forced, 0, f)
    assert Countermodel(cm.model, cm.world, f) == cm and rows == [fr]
    fresh = fork()
    with pytest.raises(ValueError, match="not a countermodel"):
        Countermodel(make_model(fresh, {"p": [1], "q": [1]}), 0, f)
    assert rows == [fr, fresh]
    assert force_set(make_model(fr, {"p": [1, 2]}), f) == {0, 1, 2}
    assert len(rows) == 3


@pytest.mark.parametrize("world", [5, -1, True, False, 0.0, None, "0"])
def test_countermodel_constructor_rejects_unknown_world(world):
    # as make_model does: a world is an int naming a world of the frame, and
    # forces, Frame.cone and Frame.le run the same check (True is not world 1)
    model = make_model(chain(2), {"p": [1]})
    with pytest.raises(UnknownWorld):
        Countermodel(model, world, parse("p"))
    with pytest.raises(UnknownWorld):
        forces(model, world, parse("p"))
    with pytest.raises(UnknownWorld):
        chain(2).cone(world)
    with pytest.raises(UnknownWorld):
        chain(2).le(world, 0)
    with pytest.raises(UnknownWorld):
        chain(2).le(0, world)


def _compiles(monkeypatch):
    # every formula kripke compiles from here on, with the program memo empty
    compiled = []
    real = kripke._compile
    monkeypatch.setattr(kripke, "_compile", lambda f: compiled.append(f) or real(f))
    monkeypatch.setattr(kripke, "_PROGRAMS", {})
    return compiled


def test_countermodel_recheck_reads_its_own_formula(monkeypatch):
    # kripke keeps the programs of recent formulas, by identity: a search and
    # the re-check of its countermodel compile once, every other formula
    # compiles its own, and a formula pushed out by 256 others compiles
    # again.  b is forced where a fails, so only a refutes
    model = make_model(chain(2), {"p": [1]})
    a, b = parse("p|~p"), parse("~~(p|~p)")
    compiled = _compiles(monkeypatch)

    def compiles(*formulas):
        assert compiled == list(formulas)
        compiled.clear()

    for first in (True, False):
        # the second round finds a and b still kept
        assert frame_valid(chain(2), a) == Countermodel(model, 0, a)
        compiles(*[a] * first)
        with pytest.raises(ValueError, match="not a countermodel"):
            Countermodel(model, 0, b)
        compiles(*[b] * first)
        assert frame_valid(chain(2), b) is None
        compiles()
        with pytest.raises(ValueError, match="not a countermodel"):
            Countermodel(model, 0, b)
        compiles()
        assert Countermodel(model, 0, a).formula is a
        compiles()
    others = [parse(f"p{i}") for i in range(256)]
    for f in others:
        assert frame_valid(chain(2), f) is not None
    compiles(*others)
    assert Countermodel(model, 0, a).formula is a
    compiles(a)


def test_chunk_bits_memo_keeps_at_most_256_entries():
    # ones and every of a chunk are kept per (n, per_chunk), and the memo is
    # emptied when full, as the bound on big ints kept for the process.
    for per_chunk in range(1, 300):
        assert kripke._chunk_bits(2, per_chunk) == ((1 << 2 * per_chunk) - 1, int("01" * per_chunk, 2))
        assert kripke._chunk_bits(2, per_chunk) is kripke._CHUNK_BITS[2, per_chunk]
        assert len(kripke._CHUNK_BITS) <= 256


def test_frame_valid_threads_read_their_own_program():
    # threads alternate a refuted and a valid formula over the same frames:
    # a search or re-check that ran the other formula's program would
    # miss a countermodel, report another one or raise "not a countermodel".
    # a is a classical tautology: it holds on the three antichains and fails
    # on the other 20 frames; b holds on all 23
    frames = [fr for n in (2, 3, 4) for fr in enumerate_frames(n, dedup=True)]
    a, b = parse("(p->q)|~p|(q->r)"), parse("~~(q|~q)")

    def run():
        found = [[frame_valid(fr, f) for f in (a, b)] for fr in frames]
        return [[None if cm is None else countermodel_to_json(cm) for cm in pair] for pair in found]

    want = run()
    assert [refuted is not None for refuted, _ in want].count(True) == 20
    assert all(valid is None for _, valid in want)
    results = [None] * 4
    start = threading.Barrier(4, timeout=60)

    def work(i):
        start.wait()
        results[i] = [run() for _ in range(20)]

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
    assert results == [[want] * 20] * 4


def test_formulas_searched_in_turn_compile_once_each(monkeypatch):
    # a frame-major loop alternates three formulas on every frame of 2 to 4
    # worlds: each compiles on its first search, and a second round compiles
    # nothing and answers the same
    compiled = _compiles(monkeypatch)
    frames = [fr for n in (2, 3, 4) for fr in enumerate_frames(n, dedup=True)]
    assert len(frames) == 23
    formulas = [parse(text) for text in ("(p->q)|~p|(q->r)", "~~(q|~q)", "p|~p")]
    first = [[frame_valid(fr, f) for f in formulas] for fr in frames]
    assert compiled == formulas
    compiled.clear()
    assert [[frame_valid(fr, f) for f in formulas] for fr in frames] == first
    assert compiled == []


def test_program_memo_is_bounded(monkeypatch):
    # 300 formulas: the memo never holds more than 256 programs, the first
    # formulas are pushed out, and every answer is the naive oracle's
    compiled = _compiles(monkeypatch)
    rng = random.Random(29)
    formulas = [random_formula(rng, 3, ["p", "q"]) for _ in range(300)]
    fr = fork()
    for f in formulas:
        expected = naive_first_countermodel(3, fr.strict_pairs(), f, sorted(atoms(f)))
        assert _first_countermodel(fr, f) == expected, f
        assert len(kripke._PROGRAMS) <= 256
    assert compiled == formulas
    assert id(formulas[0]) not in kripke._PROGRAMS


def test_threads_read_their_own_programs_through_eviction(monkeypatch):
    # four threads each cycle 300 formulas, from different starting points,
    # over three shared frames, so the memo is cleared while others read it:
    # a search or re-check that ran another formula's program would answer
    # otherwise than a serial run
    monkeypatch.setattr(kripke, "_PROGRAMS", {})
    rng = random.Random(2929)
    formulas = [random_formula(rng, 3, ["p", "q", "r"]) for _ in range(300)]
    frames = [chain(2), fork(), antichain(2)]

    def run(start):
        order = formulas[start:] + formulas[:start]
        return [
            [None if cm is None else countermodel_to_json(cm) for cm in (frame_valid(fr, f) for fr in frames)]
            for f in order
        ]

    want = run(0)
    assert any(row != [None] * 3 for row in want) and [None] * 3 in want
    results = [None] * 4
    barrier = threading.Barrier(4, timeout=60)

    def work(i):
        barrier.wait()
        results[i] = [run(75 * i) for _ in range(3)]

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
    assert results == [[want[75 * i:] + want[:75 * i]] * 3 for i in range(4)]
    # threads that test the size at once may each add one entry past it
    assert len(kripke._PROGRAMS) <= 256 + 3


def test_only_refutes_builds_a_verdict_program(monkeypatch):
    # frame_valid, forces and force_set build none; a formula's first
    # refutes builds one from its program, which compiles once
    compiled = _compiles(monkeypatch)
    built = []
    real = kripke._verdict_program
    monkeypatch.setattr(kripke, "_verdict_program", lambda prog, n: built.append(prog) or real(prog, n))
    f, g = parse("(p->q)|(q->p)|~r"), parse("p|~p")
    model = make_model(chain(2), {"p": [1]})
    assert frame_valid(fork(), f) is not None and frame_valid(chain(3), f) is None
    assert forces(model, 0, f) and force_set(model, f) == {0, 1}
    assert compiled == [f] and built == []
    assert refutes(fork(), f) and not refutes(chain(3), f)
    assert compiled == [f] and len(built) == 1
    assert built[0] is kripke._program(f)[1]  # the one program frame_valid runs
    assert refutes(fork(), f) and refutes(antichain(2), f) is False
    assert len(built) == 1
    # refuted first, then searched: one compile and one verdict program
    assert refutes(chain(2), g) and frame_valid(chain(2), g).world == 0
    assert compiled == [f, g] and len(built) == 2


def test_threads_read_their_own_verdict_programs_through_eviction(monkeypatch):
    # as test_threads_read_their_own_programs_through_eviction, with each
    # formula refuted and searched in turn: refutes adds its verdict program
    # to the entries frame_valid makes, and the memo is cleared under both
    monkeypatch.setattr(kripke, "_PROGRAMS", {})
    rng = random.Random(4848)
    formulas = [random_formula(rng, 3, ["p", "q", "r"]) for _ in range(300)]
    frames = [chain(2), fork(), antichain(2)]

    def run(start):
        order = formulas[start:] + formulas[:start]
        return [[(refutes(fr, f), frame_valid(fr, f) is not None) for fr in frames] for f in order]

    want = run(0)
    verdicts = [pair for row in want for pair in row]
    assert all(a == b for a, b in verdicts) and (True, True) in verdicts and (False, False) in verdicts
    results = [None] * 4
    barrier = threading.Barrier(4, timeout=60)

    def work(i):
        barrier.wait()
        results[i] = [run(75 * i) for _ in range(3)]

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
    assert results == [[want[75 * i:] + want[:75 * i]] * 3 for i in range(4)]
    assert len(kripke._PROGRAMS) <= 256 + 3


def test_frame_valid_substitution_closed():
    fr = chain(3)
    sigma = {"p": parse("a->b"), "q": parse("~c")}
    assert frame_valid(fr, substitute(GL_INSTANCE, sigma)) is None
    fr2 = fork()
    assert frame_valid(fr2, substitute(BD2_INSTANCE, sigma)) is None


def test_frame_valid_cone_local():
    corpus = [parse(t) for t in ("p|~p", "(p->q)|(q->p)", "p|(p->(q|~q))", "~~p->p")]
    for n in (1, 2, 3):
        for fr in enumerate_frames(n):
            for f in corpus:
                whole = frame_valid(fr, f) is None
                cones = all(
                    frame_valid(fr.cone(x)[0], f) is None for x in range(fr.size)
                )
                assert whole == cones


def _minimal_worlds(fr):
    return [x for x in range(fr.size) if not any(fr.le(y, x) for y in range(fr.size) if y != x)]


def test_frame_valid_cone_check_agrees_with_naive_oracle():
    # Frames with several minimal worlds whose search takes more than one
    # chunk (9**4 and 20**3 valuations), so frame_valid first searches the
    # cone of each minimal world.  Two 2-chains repeat one cone; the 6-world
    # frames put a fork and a 3-chain side by side, in both orders, and on
    # each a formula is refuted by the last cone only.  A formula with a
    # positive-only atom is searched over fewer atoms, so each is also
    # searched as _all_searched(f).
    two_chains = make_frame(4, [(0, 1), (2, 3)])
    fork_chain = make_frame(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    chain_fork = make_frame(6, [(0, 1), (1, 2), (3, 4), (3, 5)])
    cases = [
        (two_chains, "pqrs", "p->q|r|s", [False, False]),
        (two_chains, "pqrs", "(p->q)|(r->s)|~~(p&s)", [False, False]),
        (two_chains, "pqrs", "(p->q)|(q->r)|(r->s)|(s->p)", [True, True]),
        (two_chains, "pqrs", "(p->q)|(q->r)|(r->p)|~~s", [True, True]),
        (fork_chain, "pqr", "p|(p->(q|~q))|r", [True, False]),
        (fork_chain, "pqr", "(p->q)|(q->p)|r", [False, True]),
        (fork_chain, "pqr", "p|q->r", [False, False]),
        (fork_chain, "pqr", "(p->q)|(q->r)|(r->p)", [True, True]),
        (chain_fork, "pqr", "(p->q)|(q->p)|r", [True, False]),
        (chain_fork, "pqr", "p|(p->(q|~q))|r", [False, True]),
        (chain_fork, "pqr", "(p->r)->((q->r)->(p|q->r))", [True, True]),
    ]
    for fr, names, text, cones_valid in cases:
        f = parse(text)
        assert [frame_valid(fr.cone(x)[0], f) is None for x in _minimal_worlds(fr)] == cones_valid
        expected = naive_first_countermodel(fr.size, fr.strict_pairs(), f, list(names))
        assert (expected is None) == all(cones_valid), text
        assert _first_countermodel(fr, f) == expected, (fr.up, text)
        assert _first_countermodel(fr, _all_searched(f)) == expected, (fr.up, text)


def check_cones_against_naive_oracle(n, corpus):
    # Every n-world class representative with several minimal worlds.  At
    # n = 5 a 3-atom search over more than 16 upsets takes more than one
    # chunk, so it searches the cones first.  A positive-only atom is not
    # searched, so each formula is also searched as _all_searched(f), over
    # all its atoms.  Each frame is searched twice for the whole corpus: the
    # second round reads the cones, layouts and programs the first one kept.
    formulas = [parse(text) for text in corpus]
    whole = [_all_searched(f) for f in formulas]
    for fr in enumerate_frames(n, dedup=True):
        if len(_minimal_worlds(fr)) > 1:
            expected = [
                naive_first_countermodel(n, fr.strict_pairs(), f, sorted(atoms(f))) for f in formulas
            ]
            for _ in range(2):
                for f, g, want, text in zip(formulas, whole, expected, corpus):
                    assert _first_countermodel(fr, f) == want, (fr.up, text)
                    assert _first_countermodel(fr, g) == want, (fr.up, text)


def test_frame_valid_cone_check_runs_only_on_multi_chunk_searches(monkeypatch):
    # The worlds of the frame each _eval call searches, one entry per chunk.
    worlds = []
    real = kripke._eval

    def counting(prog, ones, every, below, regs):
        worlds.append((ones // every).bit_length())
        return real(prog, ones, every, below, regs)

    monkeypatch.setattr(kripke, "_eval", counting)

    def chunks(fr, text):
        worlds.clear()
        assert frame_valid(fr, parse(text)) is None
        return list(worlds)

    # 16**4 valuations on antichain(4) were 16 chunks of the whole frame;
    # its four cones are one 1-world frame, searched in one chunk.  Each
    # atom occurs on both sides of an implication, so each is searched.
    assert chunks(antichain(4), "(p->q)|(q->r)|(r->s)|(s->p)") == [1]
    # A rooted frame has one cone, itself: 17**3 valuations in 17 chunks.
    rooted = make_frame(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert chunks(rooted, "(p->(q->r))->((p->q)->(p->r))") == [5] * 17
    # 16**3 valuations fit one chunk, so the cones are not searched.
    assert chunks(antichain(4), "(p->q)|(q->r)|(r->p)") == [4]


def test_positive_only_atoms_are_left_out_of_the_slices(monkeypatch):
    # s occurs only positively, so it is held at the empty upset: the search
    # slices p, q and r alone, 16**3 valuations in one chunk, and keeps its
    # layout under 3 searched atoms
    built = _recorded_layouts(monkeypatch)
    fr = antichain(4)
    assert frame_valid(fr, parse("(p->q)|(q->r)|(r->p)|s")) is None
    assert built == [fr._tables[0]] and list(fr._tables[2]) == [3]
    sliced, ones, every, slices = fr._tables[2][3]
    assert sliced == 3 and len(slices) == 3 and ones == (1 << 4 * 16 ** 3) - 1
    # so does ~~s for s, which reads the kept layout
    assert frame_valid(fr, parse("(p->q)|(q->r)|(r->p)|~~s")) is None
    assert len(built) == 1
    # a countermodel puts the empty upset at q and s
    cm = frame_valid(chain(2), parse("(p->q)|~~s"))
    assert cm.model.valuation == (("p", 2), ("q", 0), ("s", 0)) and cm.world == 0


def test_frame_keeps_its_search_tables(monkeypatch):
    built = []
    real = kripke._search_tables

    def recorded(fr):
        built.append(fr)
        return real(fr)

    monkeypatch.setattr(kripke, "_search_tables", recorded)
    # a caller's frame builds its tables on its first search alone
    fr, f = fork(), parse("(p->q)|(q->p)")
    first = frame_valid(fr, f)
    assert first is not None and frame_valid(fr, f) == first
    assert frame_valid(fr, parse("p|~p")) is not None
    assert built == [fr] and built[0] is fr
    assert fr._tables[:2] == (_closed_masks(fr.up), _below(fr))
    # an equal frame built apart keeps its own
    other = fork()
    assert frame_valid(other, f) == first and len(built) == 2 and built[1] is other
    # a one-chunk search (20**2 valuations) on a frame with two minimal
    # worlds builds no cones
    fork_chain = make_frame(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    built.clear()
    assert frame_valid(fork_chain, f) is not None
    assert built == [fork_chain] and fork_chain._tables[3] is None
    record = fork_chain._tables
    # a multi-chunk search (20**3 valuations) searches its two cones, which
    # the frame's record keeps from then on beside its own tables, so the
    # cones' tables are built once
    g = parse("(p->q)|(q->r)|(r->p)")
    built.clear()
    assert frame_valid(fork_chain, g) is None
    assert built == [fork(), chain(3)]
    cones = built[:]
    assert all(new is old for new, old in zip(fork_chain._tables[:3], record[:3]))
    assert list(fork_chain._tables[2]) == [2]
    built.clear()
    assert frame_valid(fork_chain, g) is None
    assert built == []
    assert fork_chain._tables[3] == (fork(), chain(3))
    assert all(kept is cone for kept, cone in zip(fork_chain._tables[3], cones))


def _recorded_layouts(monkeypatch):
    # the ups list each _layout call is given, in call order
    built = []
    real = kripke._layout

    def recorded(n, ups, sliced, per_chunk):
        built.append(ups)
        return real(n, ups, sliced, per_chunk)

    monkeypatch.setattr(kripke, "_layout", recorded)
    return built


def test_frame_keeps_the_layouts_of_its_one_chunk_searches(monkeypatch):
    layout = kripke._layout
    built = _recorded_layouts(monkeypatch)
    # 5 upsets: 0 to 3 atoms fit one chunk (5**3 valuations); each atom
    # count builds its layout on its first search of the frame alone
    fr = fork()
    texts = ["T->F", "p|~p", "(p->q)|(q->p)", "(p->q)->((q->r)->(p->r))", "~~p->p", "p&q->p", "T"]
    first = [frame_valid(fr, parse(text)) for text in texts]
    assert len(built) == 4 and all(ups is fr._tables[0] for ups in built)
    assert [frame_valid(fr, parse(text)) for text in reversed(texts)] == first[::-1]
    assert len(built) == 4
    ups, _, layouts, _ = fr._tables
    assert layouts == {k: layout(3, ups, k, 5 ** k) for k in range(4)}
    sliced, ones, every, slices = layouts[2]
    assert (sliced, ones, every) == (2, 2 ** 75 - 1, sum(1 << 3 * j for j in range(25)))
    # ones and every are shared by every frame of its size and chunk
    other = fork()
    assert frame_valid(other, parse("(p->q)|(q->p)")) == first[2]
    assert len(built) == 5 and built[-1] is other._tables[0]
    kept = other._tables[2][2]
    assert kept[1] is ones and kept[2] is every and kept[3] is not slices


def test_multi_chunk_search_keeps_no_layout(monkeypatch):
    built = _recorded_layouts(monkeypatch)
    # a rooted frame with 17 upsets: 17**3 valuations take 17 chunks, so a
    # 3-atom search builds its layout on every call and keeps none; 17**2
    # fit one chunk
    fr = make_frame(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    f = parse("(p->(q->r))->((p->q)->(p->r))")
    assert frame_valid(fr, f) is None and frame_valid(fr, f) is None
    assert len(built) == 2 and fr._tables[2] == {}
    assert frame_valid(fr, GL_INSTANCE) is not None
    assert frame_valid(fr, f) is None
    assert len(built) == 4 and list(fr._tables[2]) == [2]


def test_search_answered_by_its_cones_builds_no_layout_of_the_frame(monkeypatch):
    built = _recorded_layouts(monkeypatch)
    # 20**3 valuations on a fork beside a 3-chain: the two cones, kept by
    # the frame, build and keep their own on the first round, and the frame
    # builds none
    fork_chain = make_frame(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    g = parse("(p->q)|(q->r)|(r->p)")
    built.clear()
    assert frame_valid(fork_chain, g) is None
    assert built == [_closed_masks(fork().up), _closed_masks(chain(3).up)]
    built.clear()
    assert frame_valid(fork_chain, g) is None
    assert built == []
    assert fork_chain._tables[2] == {}
    # a cone that refutes reads its kept layout, then the whole frame's
    # layout is built, and not kept (r also occurs negatively, so all three
    # atoms are searched)
    h = parse("(p->q)|(q->p)|(~~r->r)")
    assert frame_valid(fork_chain, h) is not None
    assert built == [fork_chain._tables[0]]
    assert built[-1] is fork_chain._tables[0] and fork_chain._tables[2] == {}


def test_kept_layouts_agree_with_naive_oracle():
    # 0- to 3-atom formulas interleaved on the same frames, twice, in
    # opposite orders, so the second round reads the layouts of the first;
    # the 3-atom ones put q&r for q.  Every class representative up to 4
    # worlds (one chunk for 3 atoms), and a rooted 5-world frame on which 3
    # atoms take 17 chunks and keep no layout.
    corpus = [parse(text) for text in ORACLE_CORPUS]
    corpus += [substitute(f, {"q": parse("q&r")}) for f in corpus if "q" in atoms(f)]
    rng = random.Random(27)
    rng.shuffle(corpus)
    frames = [fr for n in range(1, 5) for fr in enumerate_frames(n, dedup=True)]
    frames.append(make_frame(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    expected = {}
    for order in (corpus, corpus[::-1]):
        for f in order:
            for fr in frames:
                key = (fr.up, f)
                if key not in expected:
                    names = sorted(atoms(f))
                    expected[key] = naive_first_countermodel(fr.size, fr.strict_pairs(), f, names)
                assert _first_countermodel(fr, f) == expected[key], key
    counts = {len(atoms(f)) for f in corpus}
    assert counts == {0, 1, 2, 3}
    assert all(set(fr._tables[2]) == counts for fr in frames[:-1])
    assert set(frames[-1]._tables[2]) == {0, 1, 2}


IPC_TAUTOLOGIES = [
    "p->p",
    "T",
    "~F",
    "~~(p|~p)",
    "(p->q)->(~q->~p)",
    "p->(q->p)",
    "(p->(q->r))->((p->q)->(p->r))",
    "p&q->p",
    "p&q->q",
    "p->(q->p&q)",
    "p->p|q",
    "q->p|q",
    "(p->r)->((q->r)->(p|q->r))",
    "F->p",
    "p->~~p",
    "~(p&~p)",
    "~~~p->~p",
    "((p|q)&~p)->~~q",
    "~~(~~p->p)",
]


def test_ipc_tautology_regression_on_all_small_frames():
    formulas = [parse(t) for t in IPC_TAUTOLOGIES]
    for n in range(1, 5):
        for fr in enumerate_frames(n):
            for f in formulas:
                assert frame_valid(fr, f) is None, f"{f} failed on {fr.up}"


def test_persistence_property():
    rng = random.Random(424242)
    for _ in range(2000):
        fr = random_frame(rng, 5)
        model = random_model(rng, fr, ["p", "q", "r"])
        f = random_formula(rng, 6, ["p", "q", "r"])
        forced = force_set(model, f)
        for x in forced:
            for y in range(fr.size):
                if fr.le(x, y):
                    assert y in forced


# --- structure ------------------------------------------------------------

def test_upsets():
    assert chain(2).upsets() == [
        frozenset(),
        frozenset({1}),
        frozenset({0, 1}),
    ]
    assert len(antichain(2).upsets()) == 4
    assert make_frame(1).upsets() == [frozenset(), frozenset({0})]
    for fr in enumerate_frames(3):
        for up in fr.upsets():
            for x in up:
                for y in range(3):
                    if fr.le(x, y):
                        assert y in up
    assert len(chain(40).upsets()) == 41
    for n in range(1, 6):
        for fr in enumerate_frames(n):
            ups = fr.upsets()
            assert ups == naive_upsets(n, fr.strict_pairs())
            complements = sorted(fr.full_mask ^ sum(1 << x for x in up) for up in ups)
            assert _closed_masks(fr._down_masks()) == complements


def test_cone():
    whole, mapping = fork().cone(0)
    assert whole == fork() and mapping == (0, 1, 2)
    single, mapping = fork().cone(1)
    assert single.size == 1 and mapping == (1,)
    two, mapping = chain(3).cone(1)
    assert two == chain(2) and mapping == (1, 2)
    with pytest.raises(UnknownWorld):
        chain(2).cone(5)


def check_depth_and_width(n, frames):
    depth_le = CONDITION_ORACLES["DEPTH_LE"]
    for fr in frames:
        assert fr.width() == naive_width(n, fr.strict_pairs())
        rel = frame_pairs(fr)
        assert fr.depth() == next(k for k in count(1) if depth_le(n, rel, k)), fr.up


def test_depth_and_width():
    assert chain(3).depth() == 3
    assert fork().depth() == 2
    assert make_frame(1).depth() == 1
    assert fork().width() == 2
    assert chain(3).width() == 1
    assert antichain(2).width() == 2
    assert make_frame(1).width() == 1
    assert chain(40).depth() == 40 and chain(40).width() == 1
    assert chain(1200).depth() == 1200
    # rows that are not a partial order on the worlds 0..n-1
    for rows in ((0,), (3,), (3, 3), (2, 2)):
        for measure in (Frame.depth, Frame.width):
            with pytest.raises(ValueError):
                measure(Frame(rows))
    for n in range(1, 5):
        check_depth_and_width(n, enumerate_frames(n))
    # CI checks all 4,231 labeled 5-world frames; here their 63 classes.
    check_depth_and_width(5, enumerate_frames(5, dedup=True))


# --- enumeration ----------------------------------------------------------

def test_enumerate_counts_against_brute_force():
    for n, expected in ((1, 1), (2, 3), (3, 19), (4, 219)):
        got = [frame_pairs(fr) for fr in enumerate_frames(n)]
        assert len(got) == expected
        assert set(got) == set(brute_force_posets(n))
        assert len(set(got)) == expected  # no duplicates


def test_enumerate_order_deterministic():
    first = [fr.up for fr in enumerate_frames(3)]
    second = [fr.up for fr in enumerate_frames(3)]
    assert first == second


def test_enumerate_dedup_matches_iso_grouping():
    for n in (1, 2, 3, 4):
        labeled = list(enumerate_frames(n))
        classes = iso_classes(labeled)
        deduped = list(enumerate_frames(n, dedup=True))
        assert len(deduped) == len(classes)
        assert [fr.up for fr in deduped] == [c[0].up for c in classes]
        # the representatives are pairwise non-isomorphic
        assert len(iso_classes(deduped)) == len(deduped)


def test_enumerate_dedup_representatives_pairwise_distinct_at_five():
    reps = list(enumerate_frames(5, dedup=True))
    assert len(iso_classes(reps)) == len(reps)


# sha256 of repr([fr.up for fr in enumerate_frames(n, dedup)]), first 16 hex
# digits: the labeled and first-of-class orders as generate-then-filter gave them
_LABELED_DIGESTS = {
    1: "2f89a856b49d7814", 2: "97f69064bdcd0432", 3: "ac929a75bafa18ba",
    4: "feffa2c7c3bb791e", 5: "83edf3573d7cd89c", 6: "2cd69bb4425295e7",
}
_DEDUP_DIGESTS = {
    1: "2f89a856b49d7814", 2: "a47e87b4420e26e3", 3: "8ee7a863c58a6e12",
    4: "4be4969525b9267b", 5: "fe0c2cf576ebb00c", 6: "a8b2c85235bb5fff",
    7: "2f59b7185646ecaf",
}


def _order_digest(n, dedup):
    ups = [fr.up for fr in enumerate_frames(n, dedup)]
    return hashlib.sha256(repr(ups).encode()).hexdigest()[:16], len(ups)


def test_enumeration_order_is_pinned():
    for n, want in _LABELED_DIGESTS.items():
        assert _order_digest(n, False)[0] == want, n
    for n, want in _DEDUP_DIGESTS.items():
        assert _order_digest(n, True)[0] == want, n
    assert _order_digest(7, True)[1] == 2045  # A000112(7)


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        list(enumerate_frames(0))
    for n in [0, True, 2.0, "2"]:
        with pytest.raises(ValueError, match="n >= 1"):
            enumerate_frames(n)


def _has_root(fr):
    return any(row == fr.full_mask for row in fr.up)


@pytest.fixture(scope="module")
def dedup_frames():
    frames = {n: list(enumerate_frames(n, dedup=True)) for n in range(1, 7)}
    return {0: [Frame(())], **frames}


def test_class_growth_is_the_class_subsequence(dedup_frames):
    # the class store grows each logic's class from its own frames alone,
    # and holds the class subsequence of the dedup order, size by size
    _CLASS_REPS.clear()
    for logic in LOGICS.values():
        for n in range(1, 7):
            frames, _ = _class_reps(tuple(logic.conditions), n)
            want = [fr for fr in dedup_frames[n] if logic.frame_class(fr)]
            assert list(frames) == want, (logic.name, n)
    # every class is represented by its first labeled frame, in labeled
    # order, beside the number of labeled frames in the class: the sweeps'
    # tallies and first mismatches rest on both
    for n in range(1, 6):
        first, members = {}, {}
        for fr in enumerate_frames(n):
            key = _canonical_key(fr)
            first.setdefault(key, fr)
            members[key] = members.get(key, 0) + 1
        frames, labelings = _class_reps((), n)
        assert list(frames) == list(first.values()), n
        assert list(labelings) == list(members.values()), n


def test_rooted_growth_is_the_rooted_subsequence(dedup_frames):
    _CLASS_REPS.clear()
    for logic in LOGICS.values():
        for n in range(1, 7):
            frames, _ = _class_reps(tuple(logic.conditions), n, True)
            want = [fr for fr in dedup_frames[n] if _has_root(fr) and logic.frame_class(fr)]
            assert list(frames) == want, (logic.name, n)


def test_class_counts_are_the_labeled_members():
    # each class counts, from growth alone, the labeled frames sharing its
    # key that pass the same filter, for every entry of up to 5 worlds
    _CLASS_REPS.clear()
    for n in range(1, 6):
        labeled = [(fr, _canonical_key(fr)) for fr in enumerate_frames(n)]
        for conditions in [()] + [tuple(logic.conditions) for logic in LOGICS.values()]:
            for rooted in (False, True):
                members = {}
                for fr, key in labeled:
                    if (not rooted or _has_root(fr)) and all(cond(fr) for cond in conditions):
                        members[key] = members.get(key, 0) + 1
                frames, counts = _class_reps(conditions, n, rooted)
                assert len(frames) == len(members), (conditions, n, rooted)
                assert list(counts) == [members[_canonical_key(fr)] for fr in frames], (conditions, n, rooted)


def test_exact_bounds_are_tabular():
    # a class is hereditary: deleting non-root worlds from a rooted class
    # frame leaves a rooted class frame, so a bigger one would leave one on
    # s + 1 worlds.  An empty rooted entry at s + 1 therefore stays empty at
    # every larger size, and s is exact for every n: the paper's collapse.
    # decide finds it from the store and answers valid at exactly s
    bounds = {"cpc": 1, "gl+bd2": 2}
    for name, s in bounds.items():
        conditions = tuple(LOGICS[name].conditions)
        assert _class_reps(conditions, s + 1, True)[0] == (), name
        assert _class_reps(conditions, s, True)[0] != (), name
    f = parse("p->p")
    for name, logic in LOGICS.items():
        for bound in range(1, 7):
            s = bounds.get(name, bound + 1)
            want = {"verdict": "valid", "bound": s} if s <= bound else {"verdict": "no-countermodel", "bound": bound}
            assert decide(logic, f, bound).to_json() == want, (name, bound)


def test_rooted_growth_counts_follow_a000112_shifted(dedup_frames):
    for n, expected in zip(range(1, 7), (1, 1, 2, 5, 16, 63)):
        frames, _ = _class_reps((), n, True)
        assert len(frames) == expected
        assert all(fr.size == n and _has_root(fr) for fr in frames)
        if n <= 5:
            assert len(iso_classes(frames)) == len(frames)


def _tables(fr):
    # the frame's search tables, or None before its first search
    return getattr(fr, "_tables", None)


def _filled(key):
    # the indices of the entry's frames that have search tables
    return {i for i, fr in enumerate(_CLASS_REPS[key][0]) if _tables(fr) is not None}


def _distinct_cones(fr):
    # the distinct cones of fr's minimal worlds when it has several, else ()
    minimal = _minimal_worlds(fr)
    return tuple(dict.fromkeys(fr.cone(x)[0] for x in minimal)) if len(minimal) > 1 else ()


def _check_tables(key):
    # every table a frame of the entry keeps is its own, recomputed, and
    # holds no int as wide as a chunk
    frames, counts = _CLASS_REPS[key]
    assert len(counts) == len(frames), key
    for i in _filled(key):
        fr = frames[i]
        ups, below, layouts, cones = _tables(fr)
        assert (ups, below) == (_closed_masks(fr.up), _below(fr)), (key, i)
        assert cones is None or cones == _distinct_cones(fr), (key, i)
        assert all(
            layout == kripke._layout(fr.size, ups, k, len(ups) ** k) for k, layout in layouts.items()
        ), (key, i)
        assert all(0 <= m < 2 ** fr.size for m in ups), (key, i)
        assert all(0 <= y < fr.size and 0 < m < 2 ** fr.size for y, m in below), (key, i)


def test_class_tables_are_the_frames_tables():
    # decide's searches store tables for the frames it searched alone: at
    # sizes below its bound, the frames with a least world
    _CLASS_REPS.clear()
    decide(IPC, parse("~~(p|~p)"), 5)
    for n in range(1, 5):
        frames = _class_reps((), n)[0]
        assert _filled(((), n, False)) == {i for i, fr in enumerate(frames) if _has_root(fr)}
    # audit_schemas searches every frame of its own entries
    gl_bd2 = tuple(LOGICS["gl+bd2"].conditions)
    assert audit_schemas(LOGICS["gl+bd2"], 5) is None
    for n in range(1, 6):
        assert _filled((gl_bd2, n, False)) == set(range(len(_class_reps(gl_bd2, n)[0]))), n
    for key in _CLASS_REPS:
        if key[0] in ((), gl_bd2):
            _check_tables(key)
    # every entry of every built-in logic up to 6 worlds, once all is built
    p = parse("p")
    for logic in LOGICS.values():
        for n in range(1, 7):
            for rooted in (False, True):
                key = (tuple(logic.conditions), n, rooted)
                entry = _class_reps(*key)
                for fr in entry[0]:
                    frame_valid(fr, p)
                assert _filled(key) == set(range(len(entry[0]))), key
                _check_tables(key)
    # a regrown entry holds new frames with no tables, not the frames before
    before = _class_reps((), 5)
    _CLASS_REPS.clear()
    after = _class_reps((), 5)
    assert after[0] is not before[0] and not set(map(id, after[0])) & set(map(id, before[0]))
    assert all(_tables(fr) is not None for fr in before[0])
    assert [_tables(fr) for fr in after[0]] == [None] * len(after[0])
    assert decide(IPC, parse("~~(p|~p)"), 5).bound == 5
    assert len(_filled(((), 4, False))) == 5 and len(_filled(((), 5, True))) == 16
    for key in [((), 4, False), ((), 5, True)]:
        _check_tables(key)


def test_cleared_store_keeps_no_search_tables(monkeypatch):
    # the tables live on the store's frames, so clearing the store drops
    # every table it built: nothing in kripke refers to one any more
    built, search_tables = [], kripke._search_tables

    def recorded(fr):
        built.append(search_tables(fr))
        return built[-1]

    monkeypatch.setattr(kripke, "_search_tables", recorded)
    _CLASS_REPS.clear()
    decide(IPC, parse("~~(p|~p)"), 4)
    assert len(built) == 1 + 1 + 2 + 5  # the rooted frames of 1 to 4 worlds
    held = [_tables(fr) for frames, _ in _CLASS_REPS.values() for fr in frames]
    assert all(any(tables is kept for kept in held) for tables in built)
    del held
    _CLASS_REPS.clear()
    gc.collect()
    for tables in built:
        assert [ref for ref in gc.get_referrers(tables) if ref is not built] == []


def test_rooted_and_full_entries_share_their_class_frames(monkeypatch):
    # decide reads the rooted entry at its bound and the entry of every
    # frame below it, so bounds 5 and 6 read both five-world entries: the
    # one grown second holds the first one's frames, searched once
    key = {rooted: ((), 5, rooted) for rooted in (False, True)}
    cold = {}
    for rooted in (False, True):
        _CLASS_REPS.clear()
        cold[rooted] = _class_reps(*key[rooted])
    f = parse("(p->q)->((q->r)->(p->r))")
    sizes, search_tables = [], kripke._search_tables

    def recorded(fr):
        sizes.append(fr.size)
        return search_tables(fr)

    monkeypatch.setattr(kripke, "_search_tables", recorded)
    for first, second in [(5, 6), (6, 5)]:
        _CLASS_REPS.clear()
        decide(IPC, f, first)
        sizes.clear()
        decide(IPC, f, second)
        assert 5 not in sizes, (first, second)
        rooted, full = _CLASS_REPS[key[True]], _CLASS_REPS[key[False]]
        assert (rooted, full) == (cold[True], cold[False])
        assert len(rooted[0]) == 16
        assert all(a is b for a, b in zip(rooted[0], [fr for fr in full[0] if _has_root(fr)]))


def test_canonical_key_is_a_complete_invariant(dedup_frames):
    rng = random.Random(7)
    for n in range(1, 7):
        keys = set()
        for fr, count in zip(dedup_frames[n], _class_reps((), n)[1]):
            key = _canonical_key(fr)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                moved = make_frame(n, [(perm[i], perm[j]) for i, j in fr.strict_pairs()])
                assert _canonical_key(moved) == key, (fr.up, perm)
            if n <= 5:
                assert _isomorphic(Frame(key), fr), fr.up
                # the class's growth count is n!/|Aut(fr)|
                assert factorial(n) // count == sum(
                    all(fr.le(i, j) == fr.le(p[i], p[j]) for i in range(n) for j in range(n))
                    for p in permutations(range(n))
                ), fr.up
            keys.add(key)
        assert len(keys) == len(dedup_frames[n]), n


def _all_orders_key(fr):
    # the canonical key as trying every order gives it: the least relabeled
    # matrix over all orders listing the (successor count, predecessor
    # count) groups in ascending order
    n = fr.size
    groups = {}
    for w in range(n):
        succ = sum(fr.le(w, v) for v in range(n))
        pred = sum(fr.le(v, w) for v in range(n))
        groups.setdefault((succ, pred), []).append(w)
    keys = []
    for combo in product(*(permutations(groups[k]) for k in sorted(groups))):
        order = [w for block in combo for w in block]
        keys.append(tuple(sum(1 << i for i, v in enumerate(order) if fr.le(w, v)) for w in order))
    return min(keys)


def test_canonical_key_matches_every_order():
    # the key is built group by group, trying both ways only worlds whose
    # rows tie; it must equal the least over every order
    frames = [Frame(())] + [fr for n in range(1, 6) for fr in enumerate_frames(n)]
    rng = random.Random(30)
    for n in (6, 7):
        for fr in _class_reps((), n)[0]:
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                frames.append(make_frame(n, [(perm[i], perm[j]) for i, j in fr.strict_pairs()]))
    assert len(frames) == 1 + 1 + 3 + 19 + 219 + 4231 + 3 * (318 + 2045)
    for fr in frames:
        assert _canonical_key(fr) == _all_orders_key(fr), fr.up


def test_extension_count_is_the_grown_children(dedup_frames):
    # labeled enumerate counts a base's extensions where growth builds them
    for n in range(6):
        for base in dedup_frames[n]:
            assert sum(1 for _ in _extensions(base)) == len(list(_grow((base,)))), base.up


# --- models and validation ------------------------------------------------

def test_make_model_rejects_downset_valuation():
    with pytest.raises(InvalidModel) as err:
        make_model(chain(2), {"p": [0]})
    assert "upward closed" in str(err.value)
    assert "'p'" in str(err.value)


def test_make_model_rejects_unknown_world_and_bad_name():
    with pytest.raises(InvalidModel):
        make_model(chain(2), {"p": [3]})
    with pytest.raises(InvalidModel):
        make_model(chain(2), {"T": [1]})
    with pytest.raises(InvalidModel):
        make_model(chain(2), {"2p": [1]})
    with pytest.raises(InvalidModel, match="bad atom name 1"):
        make_model(chain(1), {1: [0]})
    with pytest.raises(InvalidModel, match="bad atom name 1"):
        make_model(chain(1), {"p": [0], 1: [0]})
    with pytest.raises(InvalidModel, match="must be a set of worlds"):
        make_model(chain(1), {"p": 1})


class _IndexOnly:
    """Iterable by iter(), through __getitem__, but not an Iterable."""

    def __getitem__(self, i):
        if i:
            raise IndexError(i)
        return 1


class _IterNone:
    __iter__ = None


@pytest.mark.parametrize(
    "worlds, taken",
    [
        (1, False),
        (None, False),
        (_IndexOnly(), False),
        (_IterNone(), False),
        ({1: "x"}, True),
        ((w for w in [1]), True),
        (frozenset([1]), True),
        (range(1, 2), True),
    ],
    ids=["int", "none", "getitem-only", "iter-none", "dict", "generator", "frozenset", "range"],
)
def test_make_model_takes_exactly_the_iterables(worlds, taken):
    # make_model takes a world set exactly when it is a
    # collections.abc.Iterable, which it imports only for a world set that is
    # not a list, tuple or set.
    assert isinstance(worlds, Iterable) is taken
    if taken:
        assert make_model(chain(2), {"p": worlds}).valuation == (("p", 2),)
    else:
        with pytest.raises(InvalidModel, match="must be a set of worlds"):
            make_model(chain(2), {"p": worlds})


@pytest.mark.parametrize(
    "valuation, message",
    [
        ((("q", 2), ("p", 2)), "unique and sorted"),
        ((("p", 2), ("p", 2)), "unique and sorted"),
        ((("p", 4),), "mentions unknown worlds"),
        ((("p\n", 2),), "bad atom name"),
        ((("F", 2),), "bad atom name"),
        (((1, 2),), "bad atom name 1"),
        ((("p", 2), (1, 2)), "bad atom name 1"),
        ((("p", "x"),), "must be a world bitmask"),
        ((("p", True),), "must be a world bitmask"),
    ],
    ids=[
        "unsorted",
        "duplicate",
        "unknown-world",
        "trailing-newline",
        "constant",
        "int-name",
        "str-and-int-names",
        "str-mask",
        "bool-mask",
    ],
)
def test_model_checks_its_own_valuation(valuation, message):
    # Model itself, not make_model, which sorts names and rejects unknown
    # worlds before Model sees them.
    with pytest.raises(InvalidModel, match=message):
        Model(chain(2), valuation)


def test_model_accepts_empty_and_full_sets():
    model = make_model(chain(2), {"p": [], "q": [0, 1]})
    assert model.valuation_dict() == {
        "p": frozenset(),
        "q": frozenset({0, 1}),
    }


# --- JSON and DOT ---------------------------------------------------------

def test_frame_json_roundtrip():
    for fr in (chain(3), fork(), antichain(2), make_frame(1)):
        assert frame_from_json(frame_to_json(fr)) == fr


def test_frame_json_accepts_generators_of_the_order():
    covering = {"worlds": 3, "le": [[0, 1], [1, 2]]}
    full = {"worlds": 3, "le": [[0, 1], [1, 2], [0, 2]]}
    assert frame_from_json(covering) == frame_from_json(full) == chain(3)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        {"worlds": 0},
        {"worlds": "three"},
        {"worlds": True},
        {"worlds": 2, "le": [[0]]},
        {"worlds": 2, "le": [[0, "x"]]},
        {"worlds": 2, "le": "nope"},
    ],
)
def test_frame_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        frame_from_json(data)


def test_model_json_roundtrip_and_validation():
    model = make_model(fork(), {"p": [1], "q": [2]})
    data = model_to_json(model)
    assert data["valuation"] == {"p": [1], "q": [2]}
    assert model_from_json(json.loads(json.dumps(data))) == model
    with pytest.raises(InvalidModel):
        model_from_json({"worlds": 2, "le": [[0, 1]], "valuation": {"p": [0]}})
    with pytest.raises(InvalidModel):
        model_from_json({"worlds": 2, "le": [[0, 1]]})
    with pytest.raises(InvalidModel, match="valuation of 'p' must be a list of worlds"):
        model_from_json({"worlds": 2, "le": [[0, 1]], "valuation": {"p": 1}})


def test_countermodel_json():
    cm = frame_valid(chain(2), parse("p|~p"))
    data = countermodel_to_json(cm)
    assert data["world"] == 0
    assert data["formula"] == "p | ~p"
    assert data["valuation"] == {"p": [1]}
    assert data["worlds"] == 2


def test_to_dot_model():
    model = make_model(fork(), {"p": [1], "q": [2]})
    assert to_dot(model) == (
        "digraph kripke {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  w0 [label="w0: -p -q"];\n'
        '  w1 [label="w1: p -q"];\n'
        '  w2 [label="w2: -p q"];\n'
        "  w0 -> w1;\n"
        "  w0 -> w2;\n"
        "}\n"
    )


def test_to_dot_frame_uses_covering_edges():
    dot = to_dot(chain(3))
    assert "w0 -> w1;" in dot and "w1 -> w2;" in dot
    assert "w0 -> w2" not in dot
    assert 'label="w0"' in dot
