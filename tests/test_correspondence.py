from functools import lru_cache

import pytest

from kripkebench import correspondence, kripke
from kripkebench.formula import And, atoms, parse, render
from kripkebench.kripke import (
    antichain,
    chain,
    enumerate_frames,
    forces,
    fork,
    frame_to_json,
    frame_valid,
    make_frame,
)
from kripkebench.correspondence import (
    BD2_CHAIN,
    BD2_INSTANCE,
    BD2_PAPER,
    CONDITIONS,
    DISCRETE,
    GL_INSTANCE,
    LIN,
    FrameCondition,
    PreconditionFailed,
    bd2_witness,
    check_correspondence,
    collapse_check,
    condition_from_name,
    cone_size_le,
    depth_le,
    eval_condition,
    gl_witness,
    _embedding,
    _transfer,
)
from kripkebench.logics import LOGICS
from oracles import (
    CONDITION_ORACLES,
    brute_force_posets,
    first_branching,
    first_embedding,
    first_three_chain,
    frame_pairs,
    iso_classes,
    naive_first_countermodel,
    naive_forces,
)


# --- condition evaluation -------------------------------------------------

def test_lin():
    assert eval_condition(LIN, fork()) is False
    assert eval_condition(LIN, chain(3)) is True
    assert eval_condition(LIN, antichain(3)) is True  # cones are trivial
    # two disjoint chains are locally linear
    assert eval_condition(LIN, make_frame(4, [(0, 1), (2, 3)])) is True


def test_bd2_paper_fails_on_two_chain():
    # instantiate x:=0, y:=1, z:=1 - premises hold, neither y nor z is x
    assert eval_condition(BD2_PAPER, chain(2)) is False
    assert eval_condition(BD2_PAPER, make_frame(1)) is True
    assert eval_condition(BD2_PAPER, antichain(3)) is True


def test_bd2_chain():
    assert eval_condition(BD2_CHAIN, chain(2)) is True
    assert eval_condition(BD2_CHAIN, chain(3)) is False
    assert eval_condition(BD2_CHAIN, fork()) is True


def test_parameterized_conditions():
    assert eval_condition(depth_le(2), fork()) is True
    assert eval_condition(depth_le(2), chain(3)) is False
    assert eval_condition(cone_size_le(2), fork()) is False
    assert eval_condition(cone_size_le(3), fork()) is True
    assert eval_condition(DISCRETE, antichain(2)) is True
    assert eval_condition(DISCRETE, chain(2)) is False


def test_depth_le_builds_each_forbidden_chain_once():
    # DEPTH_LE(k) forbids the (k+1)-chain on every frame of more than k
    # worlds: one frame per k, not one per call.
    forbidden = CONDITIONS["DEPTH_LE"][0]
    first = forbidden(chain(5), 3)
    assert first == chain(4)
    assert forbidden(antichain(5), 3) is first
    assert forbidden(fork(), 3) is True


def test_condition_ids_and_names():
    assert LIN.id == "LIN"
    assert depth_le(2).id == "DEPTH_LE(2)"
    assert condition_from_name("lin") == LIN
    assert condition_from_name("bd2-paper") == BD2_PAPER
    assert condition_from_name("bd2-chain") == BD2_CHAIN
    assert condition_from_name("discrete") == DISCRETE
    assert condition_from_name("depth-le-3") == depth_le(3)
    assert condition_from_name("cone-size-le-2") == cone_size_le(2)
    with pytest.raises(ValueError):
        condition_from_name("total")
    with pytest.raises(ValueError):
        condition_from_name("depth-le-0")
    # a malformed condition cannot be built: an unknown kind, a missing or
    # non-positive int bound on a kind that takes one, any bound on a kind
    # that does not
    malformed = [
        ("NOPE", None), ("lin", None), (["LIN"], None),
        ("DEPTH_LE", None), ("DEPTH_LE", 0), ("DEPTH_LE", -1), ("CONE_SIZE_LE", 0),
        ("DEPTH_LE", True), ("DEPTH_LE", 2.0), ("DEPTH_LE", "2"),
        ("LIN", 3), ("LIN", 0), ("DISCRETE", False),
    ]
    for kind, k in malformed:
        with pytest.raises(ValueError):
            FrameCondition(kind, k)
    assert FrameCondition("DEPTH_LE", 2) == depth_le(2)
    # the bound is ASCII digits only
    with pytest.raises(ValueError, match="unknown frame condition"):
        condition_from_name("depth-le-\u00b2")
    with pytest.raises(ValueError, match="unknown frame condition"):
        condition_from_name("depth-le-\u0663")
    # spellings are case-insensitive, but a dotless i must not read as LIN
    assert condition_from_name("BD2-Chain") == BD2_CHAIN
    with pytest.raises(ValueError):
        condition_from_name("l\u0131n")
    with pytest.raises(ValueError):
        condition_from_name("depth-le")


def test_conditions_match_first_order_oracles():
    # every kind in the table needs an oracle, so a new kind cannot slip by
    for kind, (_, takes_k) in CONDITIONS.items():
        oracle = CONDITION_ORACLES[kind]
        for n in range(1, 5):
            for rel in brute_force_posets(n):
                fr = make_frame(n, rel)
                for k in (1, 2, 3) if takes_k else (None,):
                    assert eval_condition(FrameCondition(kind, k), fr) == oracle(n, rel, k), (
                        kind, k, sorted(rel))


def test_logic_classes_are_conjunctions_of_oracle_conditions():
    for logic in LOGICS.values():
        for n in range(1, 5):
            for rel in brute_force_posets(n):
                want = all(CONDITION_ORACLES[c.kind](n, rel, c.k) for c in logic.conditions)
                assert logic.frame_class(make_frame(n, rel)) == want, (logic.name, sorted(rel))


def _induced(rel, worlds):
    """The order rel restricted to worlds, relabeled 0.. in their order."""
    pos = {w: i for i, w in enumerate(worlds)}
    return len(worlds), frozenset((pos[a], pos[b]) for a, b in rel if a in pos and b in pos)


def test_conditions_are_hereditary_and_cone_closed():
    # decide grows each size from the class frames of the size before and
    # searches rooted frames alone, which is sound only if deleting a world
    # or taking a cone never leaves a class
    frames = [(n, frame_pairs(fr)) for n in range(1, 6) for fr in enumerate_frames(n)]
    for kind, (_, takes_k) in CONDITIONS.items():
        oracle = CONDITION_ORACLES[kind]
        for k in (1, 2, 3) if takes_k else (None,):
            holds = lru_cache(maxsize=None)(lambda n, rel: oracle(n, rel, k))
            for n, rel in frames:
                if not holds(n, rel):
                    continue
                for w in range(n):
                    rest = [v for v in range(n) if v != w]
                    assert holds(*_induced(rel, rest)), (kind, k, sorted(rel), w)
                    cone = [v for v in range(n) if (w, v) in rel]
                    assert holds(*_induced(rel, cone)), (kind, k, sorted(rel), w)


def test_condition_hierarchy_on_all_small_frames():
    depth2 = depth_le(2)
    for n in range(1, 5):
        for fr in enumerate_frames(n):
            discrete = eval_condition(DISCRETE, fr)
            two_branch = eval_condition(BD2_PAPER, fr)
            chain_free = eval_condition(BD2_CHAIN, fr)
            if discrete:
                assert two_branch
            if two_branch:
                assert chain_free
            # the two-branch form collapses to discreteness
            assert two_branch == discrete
            # the chain-free form is exactly the depth bound
            assert chain_free == eval_condition(depth2, fr)


def test_conditions_isomorphism_invariant():
    # the weighted sweeps rest on this: every kind of the table, at k = 1-3
    # if it takes a bound, agrees on all labeled members of a class
    conditions = [
        FrameCondition(kind, k)
        for kind, (_, takes_k) in CONDITIONS.items()
        for k in ((1, 2, 3) if takes_k else (None,))
    ]
    for n in range(1, 5):
        for members in iso_classes(list(enumerate_frames(n))):
            for cond in conditions:
                want = eval_condition(cond, members[0])
                # calling a condition on a frame is eval_condition
                assert all(cond(fr) == eval_condition(cond, fr) for fr in members), cond.id
                for fr in members[1:]:
                    assert eval_condition(cond, fr) == want, (cond.id, members[0].up, fr.up)


# --- correspondence sweeps -------------------------------------------------

def test_gl_correspondence_holds_up_to_four():
    report = check_correspondence(GL_INSTANCE, LIN, 4)
    assert report.ok
    assert report.total_mismatches == 0
    assert report.first_mismatch is None
    assert {n: t.frames for n, t in report.sizes.items()} == {
        1: 1,
        2: 3,
        3: 19,
        4: 219,
    }
    for tally in report.sizes.values():
        assert tally.schema_valid == tally.condition_true


def test_bd2_chain_correspondence_holds_up_to_four():
    report = check_correspondence(BD2_INSTANCE, BD2_CHAIN, 4)
    assert report.ok


@pytest.mark.parametrize(
    "schema, cond, agree",
    [
        (GL_INSTANCE, LIN, True),
        (BD2_INSTANCE, BD2_CHAIN, True),
        (BD2_INSTANCE, BD2_PAPER, False),
        (parse("p|~p"), LIN, False),
    ],
    ids=["gl-lin", "bd2-bd2_chain", "bd2-bd2_paper", "lem-lin"],
)
def test_sweep_tallies_match_oracles(schema, cond, agree):
    # per-size tallies of the labeled sweep against the naive valuation
    # search and the first-order condition, on brute-force posets
    report = check_correspondence(schema, cond, 4)
    names = sorted(atoms(schema))
    total = 0
    for n in range(1, 5):
        want = {"frames": 0, "schema_valid": 0, "condition_true": 0, "mismatches": 0}
        for rel in brute_force_posets(n):
            valid = naive_first_countermodel(n, rel, schema, names) is None
            holds = CONDITION_ORACLES[cond.kind](n, rel, cond.k)
            want["frames"] += 1
            want["schema_valid"] += valid
            want["condition_true"] += holds
            want["mismatches"] += valid != holds
        assert report.to_json()["sizes"][str(n)] == want, n
        total += want["mismatches"]
    assert report.total_mismatches == total
    assert report.ok == (total == 0) == agree


def _labeled_sweep(schema, cond, max_n):
    # check_correspondence's JSON, walked frame by frame over the labeled
    # stream instead of counted from class representatives
    sizes, first = {}, None
    for n in range(1, max_n + 1):
        tally = sizes[str(n)] = dict.fromkeys(
            ("frames", "schema_valid", "condition_true", "mismatches"), 0)
        for fr in enumerate_frames(n):
            valid = frame_valid(fr, schema) is None
            holds = eval_condition(cond, fr)
            tally["frames"] += 1
            tally["schema_valid"] += valid
            tally["condition_true"] += holds
            tally["mismatches"] += valid != holds
            if valid != holds and first is None:
                side = "schema" if valid else "condition"
                first = {"n": n, "frame": frame_to_json(fr), "held": side}
    total = sum(t["mismatches"] for t in sizes.values())
    return {"schema": render(schema), "condition": cond.id, "max_n": max_n, "dedup": False,
            "sizes": sizes, "mismatches": total, "equivalent": first is None,
            "first_mismatch": first}


@pytest.mark.parametrize(
    "schema, cond",
    [(BD2_INSTANCE, BD2_PAPER), (GL_INSTANCE, BD2_CHAIN), (parse("~~p->p"), DISCRETE)],
)
def test_labeled_sweep_matches_the_labeled_stream(schema, cond):
    for max_n in range(1, 6):
        want = _labeled_sweep(schema, cond, max_n)
        assert check_correspondence(schema, cond, max_n).to_json() == want, max_n


def test_bd2_paper_correspondence_minimal_mismatch():
    report = check_correspondence(BD2_INSTANCE, BD2_PAPER, 3)
    assert not report.ok
    n, fr, side = report.first_mismatch
    assert n == 2
    assert fr == chain(2)
    assert side == "schema"  # schema valid, condition false
    assert report.sizes[1].mismatches == 0
    assert report.sizes[2].mismatches > 0
    assert report.total_mismatches > 0


def test_dedup_does_not_change_verdicts():
    cases = [
        (GL_INSTANCE, LIN, 4),
        (BD2_INSTANCE, BD2_CHAIN, 4),
        (BD2_INSTANCE, BD2_PAPER, 3),
    ]
    for schema, condition, max_n in cases:
        labeled = check_correspondence(schema, condition, max_n, dedup=False)
        deduped = check_correspondence(schema, condition, max_n, dedup=True)
        assert labeled.ok == deduped.ok
        if not labeled.ok:
            # the minimal mismatch appears at the same size either way
            assert labeled.first_mismatch[0] == deduped.first_mismatch[0]


def test_report_serialization():
    report = check_correspondence(BD2_INSTANCE, BD2_PAPER, 2)
    data = report.to_json()
    assert data["condition"] == "BD2_PAPER"
    assert data["equivalent"] is False
    assert data["first_mismatch"]["n"] == 2
    assert data["first_mismatch"]["held"] == "schema"
    assert data["sizes"]["2"]["frames"] == 3
    text = report.format_text()
    assert "first mismatch at n=2" in text
    assert '"worlds": 2' in text
    ok_report = check_correspondence(GL_INSTANCE, LIN, 2)
    assert ok_report.to_json()["first_mismatch"] is None
    assert "equivalent on all frames" in ok_report.format_text()


def test_check_correspondence_rejects_bad_bound():
    for max_n in [0, True, 2.0, "2"]:
        with pytest.raises(ValueError, match="max_n >= 1"):
            check_correspondence(GL_INSTANCE, LIN, max_n)


# --- witnesses --------------------------------------------------------------

def test_gl_witness_on_fork():
    cm = gl_witness(fork())
    assert cm.world == 0
    assert cm.formula == GL_INSTANCE
    assert cm.model.valuation_dict() == {"p": frozenset({1}), "q": frozenset({2})}
    assert naive_forces(3, [(0, 1), (0, 2)], cm.model.valuation_dict(), 0, GL_INSTANCE) is False


def test_gl_witness_precondition():
    with pytest.raises(PreconditionFailed):
        gl_witness(chain(3))
    with pytest.raises(PreconditionFailed):
        gl_witness(antichain(3))


def test_gl_witness_ignores_isolated_world():
    fr = make_frame(4, [(0, 1), (0, 2)])
    cm = gl_witness(fr)
    assert cm.world == 0
    assert cm.model.valuation_dict() == {"p": frozenset({1}), "q": frozenset({2})}
    assert forces(cm.model, cm.world, cm.formula) is False


def test_bd2_witness_on_chains():
    cm = bd2_witness(chain(3))
    assert cm.world == 0
    assert cm.formula == BD2_INSTANCE
    assert cm.model.valuation_dict() == {
        "p": frozenset({1, 2}),
        "q": frozenset({2}),
    }
    cm4 = bd2_witness(chain(4))
    assert cm4.world == 0
    assert cm4.model.valuation_dict() == {
        "p": frozenset({1, 2, 3}),
        "q": frozenset({2, 3}),
    }


def test_bd2_witness_precondition():
    with pytest.raises(PreconditionFailed):
        bd2_witness(fork())
    with pytest.raises(PreconditionFailed):
        bd2_witness(make_frame(1))


def test_witnesses_verify_on_every_violating_frame():
    for n in range(1, 5):
        for fr in enumerate_frames(n):
            if not eval_condition(LIN, fr):
                cm = gl_witness(fr)
                assert forces(cm.model, cm.world, cm.formula) is False
            if not eval_condition(BD2_CHAIN, fr):
                cm = bd2_witness(fr)
                assert forces(cm.model, cm.world, cm.formula) is False


def test_witnesses_pick_the_first_triple():
    # x is the world, p the upset of y and q the upset of z, for the
    # lexicographically first triple of the shape
    shapes = ((gl_witness, first_branching), (bd2_witness, first_three_chain))
    for n in range(1, 6):
        for fr in enumerate_frames(n):
            rel = frame_pairs(fr)
            for witness, first in shapes:
                found = first(n, rel)
                if found is None:
                    with pytest.raises(PreconditionFailed):
                        witness(fr)
                    continue
                x, y, z = found
                up = {w: frozenset(v for v in range(n) if (w, v) in rel) for w in (y, z)}
                cm = witness(fr)
                assert cm.world == x, (witness.__name__, sorted(rel))
                assert cm.model.valuation_dict() == {"p": up[y], "q": up[z]}, (
                    witness.__name__, sorted(rel))


def test_embedding_search_matches_brute_force():
    # the first embedding of each pattern, or None, on every labeled poset
    # up to n = 5
    patterns = [chain(2), chain(3), chain(4), fork(), make_frame(4, [(0, 1), (0, 2), (0, 3)])]
    shapes = [(p, p.size, frame_pairs(p)) for p in patterns]
    for n in range(1, 6):
        for fr in enumerate_frames(n):
            rel = frame_pairs(fr)
            for pattern, m, shape in shapes:
                want = first_embedding(n, rel, m, shape)
                assert _embedding(pattern, fr) == want, (pattern.up, sorted(rel))


def test_transfer_rechecks_a_formula_that_is_not_a_subframe_formula():
    # KC fails on the fork, and the fork embeds in the diamond (the fork
    # plus a top world), but KC holds on the diamond: the Countermodel
    # re-check refuses the carried model instead of returning it
    kc = parse("~p|~~p")
    diamond = make_frame(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert frame_valid(fork(), kc) is not None
    assert _embedding(fork(), diamond) == (0, 1, 2)
    assert frame_valid(diamond, kc) is None
    with pytest.raises(ValueError, match="not a countermodel"):
        _transfer(fork(), kc, diamond, "no fork")


# --- soundness and incomparability ------------------------------------------

def test_schema_sound_on_condition_frames():
    for n in range(1, 5):
        for fr in enumerate_frames(n):
            if eval_condition(LIN, fr):
                assert frame_valid(fr, GL_INSTANCE) is None
            if eval_condition(BD2_CHAIN, fr):
                assert frame_valid(fr, BD2_INSTANCE) is None


def test_incomparability():
    assert frame_valid(chain(3), GL_INSTANCE) is None
    assert frame_valid(chain(3), BD2_INSTANCE) is not None
    assert frame_valid(fork(), BD2_INSTANCE) is None
    assert frame_valid(fork(), GL_INSTANCE) is not None


# --- collapse ----------------------------------------------------------------

def test_collapse_check():
    # the paper's collapse is one correspondence: the conjunction of the two
    # instances against cones of at most two worlds
    both = And(GL_INSTANCE, BD2_INSTANCE)
    report = collapse_check(4)
    assert report == check_correspondence(both, cone_size_le(2), 4)
    assert report.ok and report.first_mismatch is None
    assert [(t.frames, t.schema_valid) for t in report.sizes.values()] == [
        (1, 1), (3, 3), (19, 10), (219, 41)
    ]
    data = report.to_json()
    assert data["equivalent"] is True and data["first_mismatch"] is None
    assert report.format_text().endswith("equivalent on all frames up to n=4")


def test_collapse_frame_classes_are_one_store_entry():
    # the frame-level half of the collapse: LIN with BD2_CHAIN grows the same
    # class representatives, with the same labeled counts, as cones of at
    # most two worlds; tests/slow_checks.py goes on to n = 7
    for n in range(1, 6):
        lin_bd2 = kripke._class_reps((LIN, BD2_CHAIN), n)
        assert lin_bd2 == kripke._class_reps((cone_size_le(2),), n), n
        assert len(lin_bd2[0]) == (1, 2, 3, 5, 7)[n - 1]


def test_collapse_check_searches_each_small_frame_once(monkeypatch):
    # with instances the 2-chain refutes, the collapse fails on it first:
    # the cone bound holds there and the conjunction does not
    monkeypatch.setattr(correspondence, "GL_INSTANCE", parse("p|~p"))
    monkeypatch.setattr(correspondence, "BD2_INSTANCE", parse("~~p->p"))
    report = collapse_check(2)
    assert report.first_mismatch == (2, chain(2), "condition")
    assert report.sizes[2].mismatches == 2 and not report.ok


def test_collapse_check_compiles_each_instance_once(monkeypatch):
    # the sweep searches one formula, the conjunction built per call, and
    # compiles it on its first search alone
    compiled = []
    real = kripke._compile
    monkeypatch.setattr(kripke, "_compile", lambda f: compiled.append(f) or real(f))
    monkeypatch.setattr(kripke, "_PROGRAMS", {})
    both = And(GL_INSTANCE, BD2_INSTANCE)
    assert collapse_check(2).ok
    assert compiled == [both]
    assert collapse_check(2).ok
    assert compiled == [both, both]


def test_two_chain_validates_both_schemas():
    assert frame_valid(chain(2), GL_INSTANCE) is None
    assert frame_valid(chain(2), BD2_INSTANCE) is None


def test_disjoint_chains_show_why_check_is_cone_based():
    two_chains = make_frame(4, [(0, 1), (2, 3)])
    assert eval_condition(LIN, two_chains)
    assert eval_condition(BD2_CHAIN, two_chains)
    assert eval_condition(cone_size_le(2), two_chains)
    assert two_chains.size == 4  # the class is not globally small


def test_collapse_check_reports_a_cone_bound_that_disagrees(monkeypatch):
    # with cones of up to 3 worlds in place of 2, the fork (3 labelings) and
    # the 3-chain (6) are the classes at n = 3 on which the bound holds and
    # the conjunction fails; the first is the store's fork, root listed last
    monkeypatch.setattr(correspondence, "cone_size_le", lambda k, real=cone_size_le: real(3))
    report = collapse_check(3)
    n, fr, held = report.first_mismatch
    assert (n, fr.up, held) == (3, (1, 2, 7), "condition")
    assert report.total_mismatches == 9 and not report.ok
    assert report.to_json()["equivalent"] is False
    assert report.format_text().splitlines()[-1] == (
        "first mismatch at n=3: condition holds, schema fails "
        'on frame {"le": [[2, 0], [2, 1]], "worlds": 3}'
    )


def test_collapse_check_rejects_bad_bound():
    for max_n in [0, True, 2.0, "2"]:
        with pytest.raises(ValueError, match="max_n >= 1"):
            collapse_check(max_n)
