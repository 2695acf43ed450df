import hashlib
import io
import json
import sys

import pytest

from kripkebench.cli import main
from kripkebench.correspondence import condition_spellings
from kripkebench.kripke import _CLASS_REPS, _class_reps, enumerate_frames
from kripkebench.logics import LOGICS


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def chain3(tmp_path):
    return write(tmp_path, "3chain.json", {"worlds": 3, "le": [[0, 1], [1, 2]]})


@pytest.fixture
def fork3(tmp_path):
    return write(tmp_path, "fork.json", {"worlds": 3, "le": [[0, 1], [0, 2]]})


@pytest.fixture
def model2(tmp_path):
    return write(
        tmp_path,
        "model.json",
        {"worlds": 2, "le": [[0, 1]], "valuation": {"p": [1]}},
    )


# --- parse ------------------------------------------------------------------

def test_parse_ok(capsys):
    assert main(["parse", "(p->q)|(q->p)"]) == 0
    out = capsys.readouterr().out
    assert "formula: (p -> q) | (q -> p)" in out
    assert "atoms: p q" in out


def test_parse_shows_desugared_ast(capsys):
    assert main(["parse", "~~(p|~p)"]) == 0
    out = capsys.readouterr().out
    assert "Imp(Imp(Or(p, Imp(p, Bottom)), Bottom), Bottom)" in out


def test_parse_syntax_error(capsys):
    assert main(["parse", "p->"]) == 2
    err = capsys.readouterr().err
    assert "position 4" in err


def test_parse_json(capsys):
    assert main(["parse", "p & q", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formula"] == "p & q"
    assert data["atoms"] == ["p", "q"]


# --- valid ------------------------------------------------------------------

def test_valid_three_chain_linearity_schema(tmp_path, capsys, chain3):
    assert main(["valid", chain3, "(p->q)|(q->p)"]) == 0
    assert "Valid" in capsys.readouterr().out
    chain40 = write(
        tmp_path, "40chain.json", {"worlds": 40, "le": [[i, i + 1] for i in range(39)]}
    )
    assert main(["valid", chain40, "(p->q)|(q->p)"]) == 0
    assert "Valid" in capsys.readouterr().out


def test_valid_three_chain_depth_schema_refuted(capsys, chain3):
    assert main(["valid", chain3, "p|(p->(q|~q))"]) == 1
    out = capsys.readouterr().out
    assert "world 0" in out
    assert "p={1,2}" in out and "q={2}" in out


def test_valid_fork_refutes_linearity_schema(capsys, fork3):
    assert main(["valid", fork3, "(p->q)|(q->p)"]) == 1
    out = capsys.readouterr().out
    assert "p={1}" in out and "q={2}" in out


def test_valid_writes_dot(tmp_path, capsys, fork3):
    dot_path = tmp_path / "cm.dot"
    assert main(["valid", fork3, "(p->q)|(q->p)", "--dot", str(dot_path)]) == 1
    capsys.readouterr()
    text = dot_path.read_text()
    assert text.startswith("digraph kripke {")
    assert 'w1 [label="w1: p -q"];' in text


def test_valid_malformed_frame(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"worlds": 2, "le": [[0, 1], [1, 0]]})
    assert main(["valid", bad, "p"]) == 2
    assert "error:" in capsys.readouterr().err


def test_valid_missing_file(capsys):
    assert main(["valid", "/nonexistent/frame.json", "p"]) == 2
    capsys.readouterr()


def test_valid_json_output(capsys, chain3):
    assert main(["valid", chain3, "p|(p->(q|~q))", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "countermodel"
    assert data["world"] == 0
    assert data["valuation"] == {"p": [1, 2], "q": [2]}


# --- decide -----------------------------------------------------------------

def test_decide_cpc_default_bound(capsys):
    assert main(["decide", "cpc", "p|~p"]) == 0
    assert "valid in cpc" in capsys.readouterr().out


def test_decide_ipc_refuted(capsys):
    assert main(["decide", "ipc", "p|~p", "--bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "refuted in ipc" in out
    assert "2 worlds, order 0<1" in out
    assert "p={1}" in out


def test_decide_glbd2_refuted_by_two_chain(capsys):
    assert main(["decide", "gl+bd2", "p|~p", "--bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "order 0<1" in out


def test_decide_inconclusive(capsys):
    assert main(["decide", "ipc", "~~(p|~p)", "--bound", "3"]) == 3
    assert "no countermodel" in capsys.readouterr().out


def test_decide_unknown_logic(capsys):
    assert main(["decide", "s4", "p"]) == 2
    assert "unknown logic" in capsys.readouterr().err


def test_decide_json(capsys):
    assert main(["decide", "gl", "p|(p->(q|~q))", "--bound", "3", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["logic"] == "gl"
    assert data["verdict"] == "refuted"
    assert data["countermodel"]["worlds"] == 3


# --- correspond ---------------------------------------------------------------

def test_correspond_lin_equivalent(capsys):
    assert main(["correspond", "(p->q)|(q->p)", "lin", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "equivalent on all frames up to n=4" in out


def test_correspond_bd2_paper_mismatch(capsys):
    assert main(["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert "first mismatch at n=2" in out
    assert "schema holds, condition fails" in out


def test_correspond_table_columns_widen_for_seven_digit_counts(capsys):
    # 6,129,859 labeled frames at n = 7 is wider than the "frames" header;
    # that column widens and the rows stay under their headers.
    assert main(["correspond", "(p->q)|(q->p)", "lin", "--max-n", "7"]) == 0
    assert capsys.readouterr().out == (
        "schema: (p -> q) | (q -> p)\n"
        "condition: LIN\n"
        "  n  frames   schema-valid  condition-true  mismatches\n"
        "  1  1        1             1               0\n"
        "  2  3        3             3               0\n"
        "  3  19       16            16              0\n"
        "  4  219      125           125             0\n"
        "  5  4231     1296          1296            0\n"
        "  6  130023   16807         16807           0\n"
        "  7  6129859  262144        262144          0\n"
        "equivalent on all frames up to n=7\n"
    )


def test_correspond_bd2_chain_equivalent(capsys):
    assert main(["correspond", "p|(p->(q|~q))", "bd2-chain", "--max-n", "4"]) == 0
    capsys.readouterr()


def test_correspond_dedup_and_json(capsys):
    assert (
        main(
            [
                "correspond",
                "(p->q)|(q->p)",
                "lin",
                "--max-n",
                "4",
                "--dedup",
                "--format",
                "json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["dedup"] is True
    assert data["equivalent"] is True
    assert data["sizes"]["4"]["frames"] == 16


def test_correspond_depth_bound_beyond_every_frame(capsys):
    # DEPTH_LE(k) forbids the (k+1)-chain, which is never built with more
    # worlds than the frame: a 15-digit bound answers at once.
    assert main(["correspond", "p|~p", "depth-le-99999999999999", "--max-n", "3"]) == 1
    assert capsys.readouterr().out == (
        "schema: p | ~p\n"
        "condition: DEPTH_LE(99999999999999)\n"
        "  n  frames  schema-valid  condition-true  mismatches\n"
        "  1  1       1             1               0\n"
        "  2  3       1             3               2\n"
        "  3  19      1             19              18\n"
        'first mismatch at n=2: condition holds, schema fails on frame {"le": [[0, 1]], "worlds": 2}\n'
    )


def test_correspond_unknown_condition(capsys):
    assert main(["correspond", "p", "total", "--max-n", "2"]) == 2
    assert "unknown frame condition" in capsys.readouterr().err


# --- witness -------------------------------------------------------------------

def test_witness_bd2_three_chain(capsys, chain3):
    assert main(["witness", "bd2", chain3]) == 1
    out = capsys.readouterr().out
    assert "p={1,2}" in out and "q={2}" in out
    assert "world 0" in out


def test_witness_gl_fork(capsys, fork3):
    assert main(["witness", "gl", fork3]) == 1
    out = capsys.readouterr().out
    assert "p={1}" in out and "q={2}" in out


def test_witness_precondition_failed(capsys, chain3):
    assert main(["witness", "gl", chain3]) == 3
    assert "precondition failed" in capsys.readouterr().err


def test_witness_dot_and_json(tmp_path, capsys, chain3):
    dot_path = tmp_path / "w.dot"
    assert main(["witness", "bd2", chain3, "--format", "json", "--dot", str(dot_path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["formula"] == "p | (p -> q | ~q)"
    assert data["valuation"] == {"p": [1, 2], "q": [2]}
    assert "w0 -> w1;" in dot_path.read_text()


# --- enumerate -------------------------------------------------------------------

def test_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    assert "3 labeled frames" in capsys.readouterr().out
    assert main(["enumerate", "--n", "3"]) == 0
    assert "19 labeled frames" in capsys.readouterr().out
    assert main(["enumerate", "--n", "2", "--dedup"]) == 0
    assert "2 isomorphism classes" in capsys.readouterr().out


def test_enumerate_stats(capsys):
    assert main(["enumerate", "--n", "1", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "1 labeled frames" in out
    assert "depth=1 width=1: 1" in out


def test_enumerate_stats_json(capsys):
    assert main(["enumerate", "--n", "3", "--stats", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 19
    assert {"depth": 3, "width": 1, "count": 6} in data["stats"]


def test_enumerate_stats_count_the_labeled_stream(capsys):
    # the labeled count and histogram come from class weights; walk the
    # labeled frames one by one to check them
    histogram = {}
    for fr in enumerate_frames(5):
        key = (fr.depth(), fr.width())
        histogram[key] = histogram.get(key, 0) + 1
    assert main(["enumerate", "--n", "5", "--stats", "--format", "json"]) == 0
    stats = [{"depth": d, "width": w, "count": c} for (d, w), c in sorted(histogram.items())]
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 5, "dedup": False, "count": 4231, "stats": stats}


def test_enumerate_counts_labeled_frames_from_the_classes_one_world_smaller(capsys):
    # each labeled n-world frame extends the labeled frame on its first
    # n - 1 worlds in exactly one way, so no class on n worlds is grown
    for n, want in enumerate((1, 3, 19, 219, 4231, 130023), 1):  # A001035
        _CLASS_REPS.clear()
        assert main(["enumerate", "--n", str(n)]) == 0
        assert capsys.readouterr().out == f"n={n}: {want} labeled frames\n"
        assert ((), n, False) not in _CLASS_REPS
        assert sum(_class_reps((), n)[1]) == want == sum(1 for _ in enumerate_frames(n))
    for n in ("0", "-1"):
        assert main(["enumerate", "--n", n]) == 2
        assert capsys.readouterr().err == "error: frame enumeration needs n >= 1\n"


# --- eval ----------------------------------------------------------------------

def test_eval_single_world(capsys, model2):
    assert main(["eval", model2, "p|~p", "--world", "0"]) == 1
    assert "does not force" in capsys.readouterr().out
    assert main(["eval", model2, "~~p", "--world", "0"]) == 0
    capsys.readouterr()


def test_eval_all_worlds(capsys, model2):
    assert main(["eval", model2, "p", ]) == 1
    out = capsys.readouterr().out
    assert "world 0 does not force p" in out
    assert "world 1 forces p" in out
    assert main(["eval", model2, "p->p"]) == 0
    capsys.readouterr()


def test_eval_world_out_of_range(capsys, model2):
    assert main(["eval", model2, "p", "--world", "7"]) == 2
    capsys.readouterr()


def test_eval_rejects_downset_valuation(tmp_path, capsys):
    bad = write(
        tmp_path,
        "bad_model.json",
        {"worlds": 2, "le": [[0, 1]], "valuation": {"p": [0]}},
    )
    assert main(["eval", bad, "p"]) == 2
    assert "upward closed" in capsys.readouterr().err


def test_eval_json(capsys, model2):
    assert main(["eval", model2, "p", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["forced_worlds"] == [1]
    assert data["all_forced"] is False


# --- export-dot -------------------------------------------------------------------

def test_export_dot_frame(capsys, chain3):
    assert main(["export-dot", chain3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph kripke {")
    assert "w0 -> w1;" in out and "w1 -> w2;" in out
    assert "w0 -> w2" not in out


def test_export_dot_model_to_file(tmp_path, capsys, model2):
    target = tmp_path / "out.dot"
    assert main(["export-dot", model2, "--dot", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert 'w0 [label="w0: -p"];' in text
    assert 'w1 [label="w1: p"];' in text


# --- contract ----------------------------------------------------------------------

def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as err:
        main(["parse", "p", "--colour"])
    assert err.value.code == 2


def test_write_error_exits_2(capsys, monkeypatch):
    class FullDevice(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert main(["enumerate", "--n", "2", "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_outputs_are_byte_deterministic(capsys, chain3):
    runs = []
    for _ in range(2):
        assert main(["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"]) == 1
        runs.append(capsys.readouterr().out)
        assert main(["witness", "bd2", chain3, "--format", "json"]) == 1
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]


# Every return branch of every subcommand, in both formats: the exit code and
# the sha256 of stdout.  A change to any of these outputs is a change to the
# CLI contract and must be made on purpose.
_BRANCHES = {
    "parse": ["parse", "(p->q)|(q->p)"],
    "eval-world-forced": ["eval", "{model2}", "~~p", "--world", "0"],
    "eval-world-not-forced": ["eval", "{model2}", "p|~p", "--world", "0"],
    "eval-all-forced": ["eval", "{model2}", "p->p"],
    "eval-not-all-forced": ["eval", "{model2}", "p"],
    "valid-valid": ["valid", "{chain3}", "(p->q)|(q->p)"],
    "valid-countermodel": ["valid", "{fork3}", "(p->q)|(q->p)"],
    "decide-valid": ["decide", "cpc", "p|~p"],
    "decide-refuted": ["decide", "ipc", "p|~p", "--bound", "2"],
    "decide-no-countermodel": ["decide", "ipc", "~~(p|~p)", "--bound", "3"],
    "correspond-equivalent": ["correspond", "(p->q)|(q->p)", "lin", "--max-n", "3"],
    "correspond-mismatch": ["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"],
    "witness": ["witness", "bd2", "{chain3}"],
    "enumerate": ["enumerate", "--n", "3"],
    "enumerate-stats": ["enumerate", "--n", "4", "--dedup", "--stats"],
    "export-dot": ["export-dot", "{model2}"],
}

_PINNED = {
    ("parse", "text"): (0, "0d714ea08c6e47cb5df3696f9f4ee2d73d4e1d9dfb04be71533bab001c7fa8e7"),
    ("parse", "json"): (0, "29387c81a82e14fa9a4fb9bac490e6b5ea60c9848fae1d3dd1f096aadc4f0fe1"),
    ("eval-world-forced", "text"): (0, "cc0136d4cf7214cfa67f696cfafbd9b8e9cfc691dee7b86cfd9903981c67ea64"),
    ("eval-world-forced", "json"): (0, "d7358eff4177d2f783f9fbab0f2082af36ec6899a7980f25e3192e393195b609"),
    ("eval-world-not-forced", "text"): (1, "04e1126072649af1aa38860ddfda1eb26d20a8fe277b0bf9773fcabca96d3006"),
    ("eval-world-not-forced", "json"): (1, "c3de5658f8a194b9522307918e6f5cb37558edc8921c134d6b04bc5158a16d4d"),
    ("eval-all-forced", "text"): (0, "ac78921e298cf7e8bc94a672bcee887f7e3eb1e273f0dd50d99e6136b39693a3"),
    ("eval-all-forced", "json"): (0, "0e2886c9e626dff6fc972865c7a74bcb00d0d49d5f6809b8cbc5c0f98fb9785c"),
    ("eval-not-all-forced", "text"): (1, "a3f008089b1a7143768d5f3d3aa23ac4deb7652ddeb5f2e9ed468134d6578d47"),
    ("eval-not-all-forced", "json"): (1, "742d712e9584226e539b37a962c92eff06d25974674fb801cb291af18c52a02a"),
    ("valid-valid", "text"): (0, "a18788a1530726e7c74604b4a6b8b0d543f5c05840ab4bc2d0a0664533f99758"),
    ("valid-valid", "json"): (0, "fb7bfb6a2161be99e87b6cac2bf92392c558ab3be99bbc387ebac39caf356996"),
    ("valid-countermodel", "text"): (1, "237594b5db5c03ddf7a4f8d1494726a7d73043dd3fcc5be7ca1704c2742450d2"),
    ("valid-countermodel", "json"): (1, "e343853672304d41ae3361d23d7d4d1ef1b4382c93287edd2b2b9e2aad9dba8d"),
    ("decide-valid", "text"): (0, "b98c8c791ef5aa3d6cbad79927324b25c2c7700749583c6c8c84d4bf5410a8c2"),
    ("decide-valid", "json"): (0, "46236059233fa8a62231e52ac6ab1f1f06aa3313df06060900828733c7701da0"),
    ("decide-refuted", "text"): (1, "5c126a0d6f552ba01b46dfed2bb82415b64e88059ddf1dd3b36609daeedd8a1b"),
    ("decide-refuted", "json"): (1, "4af17c5c8fe36f97bef85271d536bba1c7e40fab53f35c7544e0e8ce2b142676"),
    ("decide-no-countermodel", "text"): (3, "4f8a28fbade93a86cd2fcb8a2e7d3defd8093eb23613755257af31d0a4a7797d"),
    ("decide-no-countermodel", "json"): (3, "fc9fb38f7a6ea2612aaf08278a136b77f095d144c6e6907cb134e1fec4c5a1c2"),
    ("correspond-equivalent", "text"): (0, "44f203ce0c5353065ca127c727e06f8e50341dc06b74d95b6d94a4d289f72f8a"),
    ("correspond-equivalent", "json"): (0, "7229344bbee184bd90ce3c10491053f4d452e1d275014be8db7c54de49bf01cb"),
    ("correspond-mismatch", "text"): (1, "f211431a9eff69c877996aa2d5c3e1c917676bed172895c87182804f7e53c94b"),
    ("correspond-mismatch", "json"): (1, "01ddb0792f559e06f8418d2d710402827252b7fbe9eef905f5b04bdedd957df3"),
    ("witness", "text"): (1, "c13196b9704a0b084c4f4358557117e876ac8d494bf12d7f125c831ff1e31c7c"),
    ("witness", "json"): (1, "5bd9185700a760e940fc5149872a2a0807c4ef83616a4edd8e14385f016ec3fd"),
    ("enumerate", "text"): (0, "6a61c5f0d41e78d17e0c0569272ebf7c045179e95f6f6de5525cd884b4ea10f8"),
    ("enumerate", "json"): (0, "1b9bf3d25745f899af9fd6e14ae687fac4901ce0e2ab92ead5ff12bd072e770b"),
    ("enumerate-stats", "text"): (0, "d7aa2b30ff371934f719ecffe81687c2423e20dbe1638c5e9cd169f84cf81f85"),
    ("enumerate-stats", "json"): (0, "b595fd9358250d7cd9e662458321173a6fb2cbed2e74ad7ca2d1694937b54c2d"),
    ("export-dot", "text"): (0, "885096485f5d99006df0fc9da0c74c15837478165259f47b1c5b6be190b97cb4"),
    ("export-dot", "json"): (0, "885096485f5d99006df0fc9da0c74c15837478165259f47b1c5b6be190b97cb4"),
}


@pytest.mark.parametrize("branch, fmt", sorted(_PINNED))
def test_pinned_outputs(capsys, chain3, fork3, model2, branch, fmt):
    files = {"chain3": chain3, "fork3": fork3, "model2": model2}
    argv = [arg.format(**files) for arg in _BRANCHES[branch]]
    code = main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert (code, digest) == _PINNED[branch, fmt]
    assert captured.err == ""


@pytest.mark.parametrize(
    "formula",
    [
        "~" * 5000 + "p",
        "(" * 3000 + "p|~p" + ")" * 3000,
        "p->" * 3000 + "p",
        "~" * 600 + "p",
        "p&" * 600 + "p",
    ],
    ids=["not-5000", "parens-3000", "imp-3000", "not-600", "and-600"],
)
def test_deep_formulas_exit_2(capsys, chain3, formula):
    assert main(["valid", chain3, formula]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: syntax error")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [["valid", "{}", "p"], ["eval", "{}", "p"], ["witness", "bd2", "{}"], ["export-dot", "{}"]],
    ids=["valid", "eval", "witness", "export-dot"],
)
def test_deep_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([arg.format(path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON nests too deeply\n"


# --- registries --------------------------------------------------------------

def test_every_condition_spelling_resolves(capsys):
    for spelling in condition_spellings():
        name = spelling.replace("-K", "-2")
        assert main(["correspond", "p", name, "--max-n", "2"]) in (0, 1), name
    capsys.readouterr()


def test_every_logic_decides(capsys):
    for name in LOGICS:
        assert main(["decide", name, "p|~p", "--bound", "2"]) in (0, 1, 3), name
    capsys.readouterr()


_HELP = {
    "decide": """\
usage: kripkebench decide [-h] [--format {text,json}] [--bound K]
                          logic formula

positional arguments:
  logic                 one of: ipc, cpc, gl, bd2, gl+bd2
  formula

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --bound K
""",
    "correspond": """\
usage: kripkebench correspond [-h] [--format {text,json}] [--max-n K]
                              [--dedup]
                              schema condition

positional arguments:
  schema
  condition             lin, bd2-paper, bd2-chain, discrete, depth-le-K, cone-
                        size-le-K

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --max-n K
  --dedup
""",
    "witness": """\
usage: kripkebench witness [-h] [--format {text,json}] [--dot PATH]
                           {gl,bd2} frame

positional arguments:
  {gl,bd2}
  frame                 frame JSON file

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --dot PATH
""",
}


@pytest.mark.parametrize("command", sorted(_HELP))
def test_help_text_lists_the_registries(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    # Python 3.10 titles the options section "optional arguments"
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == _HELP[command]
