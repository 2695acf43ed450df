import hashlib
import json
import random
from itertools import count, product

import pytest

from kripkebench.formula import And, Atom, Bottom, Or, Top, atoms, parse, substitute
from kripkebench.kripke import (
    AntisymmetryViolation,
    Countermodel,
    Frame,
    InvalidModel,
    Model,
    UnknownWorld,
    _closed_masks,
    _compile,
    _frames_upto,
    _grow,
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
    to_dot,
)
from kripkebench.logics import LOGICS
from oracles import (
    CONDITION_ORACLES,
    brute_force_posets,
    classical_taut,
    frame_pairs,
    iso_classes,
    naive_forces,
    naive_first_countermodel,
    naive_upsets,
    naive_width,
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
    # Labeled frames order worlds both ways, so both signs of the offset
    # y - x of a strict pair x < y occur.
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


def test_compile_matches_structural_sharing():
    rng = random.Random(4242)
    fixed = ["(p->q)&(p->q)", "((p|q)->(p|q))|~(p|q)", "T&T|F->F", "~~p->~~p&q"]
    formulas = [parse(text) for text in fixed]
    formulas += [random_formula(rng, rng.randint(0, 6), ["p", "q", "r"]) for _ in range(500)]
    for f in formulas:
        names = sorted(atoms(f))
        slot = {name: i for i, name in enumerate(names)}
        assert _compile(f) == (names, _structural_compile(f, slot)), f
    assert len(_compile(parse("(p->q)&(p->q)"))[1]) == 4
    assert len(_compile(parse("~" * 100 + "p"))[1]) == 102


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


def test_frame_valid_agrees_with_naive_oracle():
    corpus = [
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
    for n in (1, 2, 3, 4):
        for fr in enumerate_frames(n):
            for text in corpus:
                f = parse(text)
                names = sorted({a for a in ("p", "q") if a in text})
                expected = naive_first_countermodel(n, fr.strict_pairs(), f, names)
                assert _first_countermodel(fr, f) == expected, (fr.up, text)


def test_frame_valid_first_countermodel_across_chunks():
    # 4 atoms on antichain(4) and antichain(5) take 16**4 and 32**4
    # valuations, more than one chunk of frame_valid's bit-sliced search.
    # The first countermodels of p -> q|r|s (both frames) and p|q -> r|s
    # (antichain(5)) lie past the first chunk; p|q -> r|s has another
    # minimal refutation, first if the last atom were most significant.
    refuted = ["p|q->r|s", "p->q|r|s", "(s->r)|(q->p)", "s->p|q&r", "p&q&r&s->F"]
    # Each world of an antichain is its own cone, so validity there is
    # classical validity.
    valid = ["(p->q)|(q->r)|(r->s)|(s->p)", "(p->q)|(q->r)|(r->p)|~~s"]
    for fr in (antichain(4), antichain(5)):
        for text in refuted:
            f = parse(text)
            expected = naive_first_countermodel(fr.size, (), f, ["p", "q", "r", "s"])
            assert expected is not None
            assert _first_countermodel(fr, f) == expected, (fr.size, text)
        for text in valid:
            assert classical_taut(parse(text))
            assert frame_valid(fr, parse(text)) is None, (fr.size, text)


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
    depth_le = CONDITION_ORACLES["DEPTH_LE"]
    for n in range(1, 6):
        for fr in enumerate_frames(n):
            assert fr.width() == naive_width(n, fr.strict_pairs())
            rel = frame_pairs(fr)
            assert fr.depth() == next(k for k in count(1) if depth_le(n, rel, k)), fr.up


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
    with pytest.raises(ValueError):
        enumerate_frames(0)


def _has_root(fr):
    return any(row == fr.full_mask for row in fr.up)


@pytest.fixture(scope="module")
def dedup_frames():
    frames = {n: list(enumerate_frames(n, dedup=True)) for n in range(1, 7)}
    return {0: [Frame(())], **frames}


def test_class_growth_is_the_class_subsequence(dedup_frames):
    for logic in LOGICS.values():
        classes = [Frame(())]
        for n in range(1, 7):
            classes = list(_grow(classes, True, logic.frame_class))
            want = [fr for fr in dedup_frames[n] if logic.frame_class(fr)]
            assert classes == want, (logic.name, n)
    # the walk yields the same sequences, one size after another
    labeled = {n: list(enumerate_frames(n)) for n in range(1, 6)}
    keeps = {None: None, **{logic.name: logic.frame_class for logic in LOGICS.values()}}
    for name, keep in keeps.items():
        for dedup, frames in ((True, dedup_frames), (False, labeled)):
            for n in range(1, max(frames) + 1):
                want = [fr for k in range(1, n + 1) for fr in frames[k] if keep is None or keep(fr)]
                assert list(_frames_upto(n, dedup, keep)) == want, (name, dedup, n)


def test_rooted_growth_is_the_rooted_subsequence(dedup_frames):
    for logic in LOGICS.values():
        def rooted(fr):
            return _has_root(fr) and logic.frame_class(fr)

        for n in range(1, 7):
            bases = [fr for fr in dedup_frames[n - 1] if logic.frame_class(fr)]
            want = [fr for fr in dedup_frames[n] if rooted(fr)]
            assert list(_grow(bases, True, rooted)) == want, (logic.name, n)


def test_rooted_growth_counts_follow_a000112_shifted(dedup_frames):
    for n, expected in zip(range(1, 7), (1, 1, 2, 5, 16, 63)):
        frames = list(_grow(dedup_frames[n - 1], True, _has_root))
        assert len(frames) == expected
        assert all(fr.size == n and _has_root(fr) for fr in frames)
        if n <= 5:
            assert len(iso_classes(frames)) == len(frames)


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
