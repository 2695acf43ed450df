import json

import pytest

from kripkebench.cli import main
from kripkebench.correspondence import condition_spellings
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


def test_outputs_are_byte_deterministic(capsys, chain3):
    runs = []
    for _ in range(2):
        assert main(["correspond", "p|(p->(q|~q))", "bd2-paper", "--max-n", "3"]) == 1
        runs.append(capsys.readouterr().out)
        assert main(["witness", "bd2", chain3, "--format", "json"]) == 1
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[2]
    assert runs[1] == runs[3]


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
