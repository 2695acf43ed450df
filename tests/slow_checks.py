"""Checks past tier-1's sizes, about 2 min in all.

The file name does not match test_*.py, so a bare pytest never collects
it; run it by path:

    PYTHONPATH=src python -m pytest -q tests/slow_checks.py

Four tests read the whole class store or a frame's search record, so they
start from an empty store, as they would in a fresh process.
"""

import test_kripke as t
from kripkebench import collapse_check, kripke, logics
from kripkebench.correspondence import BD2_CHAIN, LIN, cone_size_le, depth_le
from kripkebench.formula import parse
from kripkebench.kripke import _class_reps, enumerate_frames
from kripkebench.logics import LOGICS, audit_schemas
from test_logics import _audit_schema_by_schema


def test_each_logics_class_store_at_n7_is_the_class_subsequence():
    """Every built-in logic's class representatives, with their labeled
    counts, are the frames of the all-posets store that lie in its class:
    115 for gl, 164 for bd2, 15 for gl+bd2, 1 for cpc and all 2,045 for
    ipc.  Tier-1 stops at n = 6; about 2 s."""
    every = list(zip(*_class_reps((), 7)[:2]))
    stores = {name: list(zip(*_class_reps(tuple(logic.conditions), 7)[:2])) for name, logic in LOGICS.items()}
    assert all(stores[name] == [rep for rep in every if logic.frame_class(rep[0])] for name, logic in LOGICS.items())
    assert {name: len(reps) for name, reps in stores.items()} == {'ipc': 2045, 'cpc': 1, 'gl': 115, 'bd2': 164, 'gl+bd2': 15}


def test_every_logics_class_validates_its_own_schemas_up_to_n7():
    """audit_schemas asks refutes of each schema instance in turn on each
    rooted class representative up to 7 worlds, and stops at the first
    size with none: 2 for cpc, 3 for gl+bd2 (ipc has no schema).  The
    reference walk runs frame_valid on every class representative: at
    n = 7, 1 for cpc, 115 for gl, 164 for bd2 and 15 for gl+bd2.  Both
    find no countermodel.  Tier-1 stops at n = 6; about 2 s."""
    assert all(audit_schemas(l, 7) is None for l in LOGICS.values())
    assert all(_audit_schema_by_schema(l, 7) is None for l in LOGICS.values() if l.axiom_schemas)


def test_isomorphism_classes_at_n8():
    """A000112(8), and A001035(8) labeled members counted in growth; out
    of tier-1 so the suite stays short.  Keys branch only where rows
    tie, and the last group builds no orders."""
    assert sum(1 for _ in enumerate_frames(8, dedup=True)) == 16999
    assert sum(_class_reps((), 8)[1]) == 431723379


def test_decide_answers_the_same_from_the_class_store_at_bound_8():
    """The second call reads the lists the first grew: the full ipc lists
    of sizes 1-7 and the rooted one at 8 follow A000112.  Out of tier-1,
    about 1 s."""
    kripke._CLASS_REPS.clear(); kripke._COVERAGE.clear()
    f = parse('~~(p|~p)'); first = logics.decide(logics.IPC, f, 8).to_json()
    assert logics.decide(logics.IPC, f, 8).to_json() == first
    sizes = {(n, rooted): len(frames) for (_, n, rooted), (frames, _) in kripke._CLASS_REPS.items()}
    counts = [1, 2, 5, 16, 63, 318, 2045]
    assert sizes == {**{(n, False): c for n, c in zip(range(1, 8), counts)}, (8, True): 2045}


def test_decide_finds_each_completeness_bound_from_the_store_at_bound_8():
    """LIN with depth at most k, whose rooted frames are the chains of up
    to k worlds, is complete at exactly k for k = 1-6: the m = 1 column of
    the breadth x depth grid.  Then a cold decide at bound 8 for every
    built-in logic: cpc and gl+bd2 answer valid at 1 and 2, the others
    no-countermodel, and the store holds only the entries the search read,
    as the look at bound + 1 stores none.  Out of tier-1, about 2 s."""
    f = parse('p->p')
    for k in range(1, 7):
        spec = logics.LogicSpec(f'lin-depth{k}', (), (LIN, depth_le(k)))
        assert logics.decide(spec, f, 8).to_json() == {'verdict': 'valid', 'bound': k}
        assert k == 1 or logics.decide(spec, f, k - 1).to_json() == {'verdict': 'no-countermodel', 'bound': k - 1}
    kripke._CLASS_REPS.clear(); kripke._COVERAGE.clear()
    got = {name: logics.decide(logic, f, 8).to_json() for name, logic in LOGICS.items()}
    searched = {'cpc': 1, 'gl+bd2': 2}
    assert got == {name: {'verdict': 'valid', 'bound': searched[name]} if name in searched
                   else {'verdict': 'no-countermodel', 'bound': 8} for name in LOGICS}
    keys = set()
    for name, logic in LOGICS.items():
        conditions = tuple(logic.conditions)
        if name in searched:  # the full list one size past the last rooted frame
            keys |= {(conditions, n, False) for n in range(1, searched[name] + 2)}
        else:
            keys |= {(conditions, n, False) for n in range(1, 8)} | {(conditions, 8, True)}
    assert set(kripke._CLASS_REPS) == keys


def test_decide_answers_the_same_from_the_stored_search_tables_at_bound_7():
    """A cold call, then a warm one that searches every rooted frame from the
    record (upsets, strict-below rows, layouts) the first left on the store's
    frames (406 frames).  Three atoms take more than one chunk of valuations
    on 178 of them; tier-1 stops at n = 6.  The other 228, those with at most
    16 upsets, keep their 3-atom chunk layout, and the warm call reads it.
    Every searched frame is rooted: the 178 multi-chunk ones keep no
    cones, (), and the others have not looked for any, None.  Out of
    tier-1, about 1 s."""
    kripke._CLASS_REPS.clear(); kripke._COVERAGE.clear()
    f = parse('(p->q)->((q->r)->(p->r))'); first = logics.decide(logics.IPC, f, 7).to_json()
    assert logics.decide(logics.IPC, f, 7).to_json() == first == {'verdict': 'no-countermodel', 'bound': 7}
    stored = [(fr, fr._tables) for frames, _ in kripke._CLASS_REPS.values() for fr in frames if hasattr(fr, '_tables')]
    assert len(stored) == 406 and all(t[:2] == (kripke._closed_masks(fr.up), kripke._below(fr)) for fr, t in stored)
    assert all(t[3] == () if len(t[0]) ** 3 > 4096 else t[3] is None for _, t in stored)
    kept = [(fr, t[2][3]) for fr, t in stored if 3 in t[2]]
    assert len(kept) == 228 == sum(len(t[0]) ** 3 <= 4096 for _, t in stored) and all(len(fr._tables[0]) ** 3 <= 4096 for fr, _ in kept)
    assert all(set(t[2]) <= {3} for _, t in stored)
    assert all(layout == kripke._layout(fr.size, fr._tables[0], 3, len(fr._tables[0]) ** 3) for fr, layout in kept)


def test_a_second_search_of_every_class_at_n7_reads_the_kept_cones():
    """The 2,045 class representatives searched twice for a 3-atom IPC
    theorem: the second pass reads the cones, layouts and program the
    first kept, and answers the same.  The 1,629 frames with more than
    16 upsets, whose search takes several chunks, keep their cones: the
    1,463 with several minimal worlds their distinct cones, each equal
    to a fresh one, and the others (); the 416 one-chunk frames keep
    None.  Out of tier-1, about 2 s."""
    kripke._CLASS_REPS.clear()
    f = parse('(p->q)->((q->r)->(p->r))'); frames = kripke._class_reps((), 7)[0]
    assert [kripke.frame_valid(fr, f) for fr in frames] == [kripke.frame_valid(fr, f) for fr in frames] == [None] * 2045
    minimal = [[x for x in range(7) if not any(y != x and fr.up[y] >> x & 1 for y in range(7))] for fr in frames]
    fresh = [(tuple(dict.fromkeys(fr.cone(x)[0] for x in m)) if len(m) > 1 else ()) if len(fr._tables[0]) ** 3 > 4096 else None for fr, m in zip(frames, minimal)]
    assert [fr._tables[3] for fr in frames] == fresh and sum(map(bool, fresh)) == 1463 and fresh.count(None) == 416


def test_gl_bd2_collapse_on_every_labeled_poset_up_to_n6():
    """A001035 up to n = 6, checked once per class representative; out of
    tier-1, which stops at n = 4, and about 0.1 s."""
    r = collapse_check(6)
    assert r.ok and {n: t.frames for n, t in r.sizes.items()} == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}


def test_gl_bd2_frame_classes_are_one_store_entry_up_to_n7():
    """LIN with BD2_CHAIN and cones of at most two worlds grow the same
    class representatives and labeled counts: 1, 2, 3, 5, 7, 11 and 15
    classes.  Tier-1 stops at n = 5; about 0.1 s."""
    counts = []
    for n in range(1, 8):
        lin_bd2 = _class_reps((LIN, BD2_CHAIN), n)
        assert lin_bd2 == _class_reps((cone_size_le(2),), n), n
        counts.append(len(lin_bd2[0]))
    assert counts == [1, 2, 3, 5, 7, 11, 15]


def test_frame_valid_against_the_naive_oracle_on_every_labeled_poset_on_5_worlds():
    """4,231 frames (A001035): frame_valid's first countermodel and the
    verdict of refutes, on the oracle corpus formulas that have an
    implication, three in which q occurs only positively, so both
    searches hold it at the empty upset, one in which r occurs only
    negatively, which refutes holds at the full set, and one with a
    subterm object at both polarities.  Out of tier-1, which stops at
    n = 4 (the 3-atom formulas at its class representatives); about 70 s,
    50 of them the naive search of the negative-only one."""
    corpus = [s for s in t.ORACLE_CORPUS if '->' in s or '~' in s]
    corpus += ['~~q|(~~p->p)', '(p->q)|~~q', '~~(p|q)|(p->q)', '(p->q)|(q->p)|~r']
    g = t.Imp(t.Atom('p'), t.Atom('q'))
    formulas = [parse(s) for s in corpus] + [t.And(g, t.Imp(g, t.Atom('r')))]
    t.check_verdicts_against_naive_oracle(enumerate_frames(5), formulas)


def test_frame_valid_cone_check_against_the_naive_oracle_on_5_worlds():
    """The 47 class representatives with several minimal worlds and 3-atom
    formulas: the 3-atom IPC theorems; the refuted formulas of
    test_frame_valid_first_countermodel_across_chunks with s renamed r
    (less the two an r->r disjunct makes valid), which every cone
    refutes; and the paper's two schemas with a disjunct r, which only
    some cones refute.  Over 16 upsets, 3 searched atoms take more than
    one chunk, so the cones are searched first; each formula is also
    searched with every atom occurring negatively, since a positive-only
    atom is not searched.  ORACLE_CORPUS has at most 2 atoms and never
    gets there.  About 35 s."""
    t.check_cones_against_naive_oracle(5, [s for s in t.IPC_TAUTOLOGIES if len(t.atoms(t.parse(s))) == 3]
    + ['p|q->r', 'p->q|r', 'r->p|q&r', 'p&q&r->F', '(p->q)|(q->p)|r', 'p|(p->(q|~q))|r'])


def test_depth_and_width_against_the_oracles_on_every_labeled_poset_on_5_worlds():
    """4,231 frames (A001035); tier-1 checks n <= 4 and the 63 classes at
    n = 5.  About 15 s."""
    t.check_depth_and_width(5, t.enumerate_frames(5))


def test_depth_and_width_against_the_oracles_on_the_318_classes_at_n6():
    """A000112(6) class representatives; depth and width trust the rows,
    which the Frame constructor or growth made a partial order.
    Tier-1 stops at the 63 classes on 5 worlds.  About 2 s."""
    t.check_depth_and_width(6, kripke._class_reps((), 6)[0])
