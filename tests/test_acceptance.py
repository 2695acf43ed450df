"""Acceptance checks, one per headline claim, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them all)."""

import random
import time

from kripkebench.cli import main
from kripkebench.correspondence import (
    BD2_CHAIN,
    BD2_INSTANCE,
    BD2_PAPER,
    GL_INSTANCE,
    LIN,
    bd2_witness,
    check_correspondence,
    collapse_check,
    depth_le,
    eval_condition,
)
from kripkebench.formula import parse
from kripkebench.kripke import (
    chain,
    enumerate_frames,
    force_set,
    fork,
    frame_valid,
    make_frame,
)
from kripkebench.logics import (
    GLBD2,
    GL_SCHEMA,
    IPC,
    Verdict,
    decide,
    schema_instance,
)
from oracles import (
    brute_force_posets,
    classical_taut,
    random_formula,
    random_frame,
    random_model,
)
from test_logics import CORPUS


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_acceptance_1_linearity_correspondence():
    start = time.monotonic()
    report = check_correspondence(GL_INSTANCE, LIN, 5, dedup=True)
    elapsed = time.monotonic() - start
    ok = report.ok and report.total_mismatches == 0 and elapsed < 60.0
    _report(
        1,
        ok,
        f"(p->q)|(q->p) matches LIN on all poset classes up to n=5 "
        f"({report.total_mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_acceptance_2_depth_correspondence():
    report = check_correspondence(BD2_INSTANCE, BD2_CHAIN, 5)
    depth2 = depth_le(2)
    agree = all(
        eval_condition(BD2_CHAIN, fr) == eval_condition(depth2, fr)
        for n in range(1, 6)
        for fr in enumerate_frames(n)
    )
    ok = report.ok and report.total_mismatches == 0 and agree
    _report(
        2,
        ok,
        "p|(p->(q|~q)) matches BD2_CHAIN up to n=5 and BD2_CHAIN equals "
        "DEPTH_LE(2) on every enumerated frame",
    )


def test_acceptance_3_printed_condition_mismatch(capsys):
    report = check_correspondence(BD2_INSTANCE, BD2_PAPER, 3)
    n, frame, side = report.first_mismatch
    exit_code = main(["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"])
    capsys.readouterr()
    ok = (
        not report.ok
        and n == 2
        and frame == chain(2)
        and side == "schema"
        and exit_code == 1
    )
    _report(
        3,
        ok,
        "BD2_PAPER minimal mismatch is the 2-chain (schema valid, condition "
        f"false), CLI exit code {exit_code}",
    )


def test_acceptance_4_incomparability():
    gl_on_chain = frame_valid(chain(3), GL_INSTANCE) is None
    bd2_on_chain = frame_valid(chain(3), BD2_INSTANCE)
    bd2_on_fork = frame_valid(fork(), BD2_INSTANCE) is None
    gl_on_fork = frame_valid(fork(), GL_INSTANCE)
    witness = bd2_witness(chain(3))
    witness_exact = witness.model.valuation_dict() == {
        "p": frozenset({1, 2}),
        "q": frozenset({2}),
    }
    ok = (
        gl_on_chain
        and bd2_on_chain is not None
        and bd2_on_fork
        and gl_on_fork is not None
        and witness_exact
    )
    _report(
        4,
        ok,
        "3-chain and fork separate the two schemas; 3-chain witness uses "
        "p={1,2}, q={2}",
    )


def test_acceptance_5_collapse():
    report = collapse_check(5)
    decision = decide(GLBD2, parse("p|~p"), 2)
    refuted_by_two_chain = (
        decision.verdict is Verdict.REFUTED
        and decision.countermodel.model.frame == chain(2)
    )
    ok = report.ok and refuted_by_two_chain
    _report(
        5,
        ok,
        "a frame validates both schema instances iff its cones have at most "
        "two worlds, up to n=5, and gl+bd2 still refutes p|~p",
    )


def test_acceptance_6_persistence():
    rng = random.Random(20250810)
    violations = 0
    for _ in range(10_000):
        frame = random_frame(rng, 5)
        model = random_model(rng, frame, ["p", "q", "r"])
        formula = random_formula(rng, 6, ["p", "q", "r"])
        forced = force_set(model, formula)
        for x in forced:
            for y in range(frame.size):
                if frame.le(x, y) and y not in forced:
                    violations += 1
    _report(
        6,
        violations == 0,
        f"persistence held on 10000 random (model, formula) pairs "
        f"({violations} violations)",
    )


def test_acceptance_7_oracle_agreement():
    trivial = make_frame(1)
    classical_ok = len(CORPUS) >= 30 and all(
        classical_taut(parse(text)) == (frame_valid(trivial, parse(text)) is None)
        for text, _ in CORPUS
    )
    expected = {1: 1, 2: 3, 3: 19, 4: 219}
    enumerated = {n: sum(1 for _ in enumerate_frames(n)) for n in expected}
    brute = {n: len(brute_force_posets(n)) for n in expected}
    counts_ok = enumerated == expected and brute == expected
    _report(
        7,
        classical_ok and counts_ok,
        f"truth tables agree with 1-world validity on {len(CORPUS)} formulas; "
        f"labeled poset counts {tuple(enumerated.values())} match the "
        "relation-filter oracle",
    )


def test_acceptance_8_no_countermodel_for_stable_excluded_middle():
    decision = decide(IPC, parse("~~(p|~p)"), 5)
    searched = (
        decision.verdict is Verdict.NO_COUNTERMODEL and decision.bound == 5
    )
    witness_is_gl_instance = GL_INSTANCE == schema_instance(GL_SCHEMA)
    small_frames_validate = all(
        frame_valid(fr, GL_INSTANCE) is None
        for n in (1, 2)
        for fr in enumerate_frames(n)
    )
    fork_refutes = frame_valid(fork(), GL_INSTANCE) is not None
    ok = (
        searched
        and witness_is_gl_instance
        and small_frames_validate
        and fork_refutes
    )
    _report(
        8,
        ok,
        "bounded search finds no countermodel to ~~(p|~p) up to n=5; the "
        "intersection witness is the gl schema instance (valid on all 1- and "
        "2-world frames, refuted on the fork)",
    )
