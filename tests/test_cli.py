"""End-to-end command-line runs against the fixture corpus."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qitbench.schema.examples
from helpers import bag_sig, bag_system
from qitbench import cli
from qitbench.cli import main
from qitbench.serialize import signature_from_obj, system_from_obj

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

BAG = str(FIXTURES / "bag.qit")
BAGPRIME = str(FIXTURES / "bagprime.qit")
COMMVEC = str(FIXTURES / "commvec.qit")
INFTREE = str(FIXTURES / "inftree.qit")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def outcome(capsys, *argv):
    """run, with argparse's exit on a usage error read as the exit code"""
    try:
        return run(capsys, *argv)
    except SystemExit as e:
        out = capsys.readouterr()
        return e.code, out.out, out.err


@pytest.fixture
def fresh_parser():
    """main's cached parser, dropped so the test sees it built again"""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


# --- check ---


def test_check_accepts_bag_with_derivation(capsys):
    code, out, _ = run(capsys, "check", BAG)
    assert code == 0
    assert "Bag: ACCEPT" in out
    assert "ElCon" in out and "Target" in out
    assert "EqCon" in out


def test_check_rejects_conditional_equation(capsys):
    code, out, _ = run(capsys, "check", BAGPRIME)
    assert code == 1
    assert "ConditionalEquation" in out


def test_check_structured_reports_span_and_subterm(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "qleft.qit"), "--format", "structured")
    assert code == 1
    obj = json.loads(out)
    bad = next(c for c in obj["constructors"] if c["status"] == "REJECT")
    assert bad["rule"] == "StrictlyPositiveFunction"
    assert bad["line"] >= 2 and bad["col"] >= 1
    assert "(Q -> Nat) -> X" in bad["message"]


def test_check_parse_error_is_positioned(tmp_path, capsys):
    p = tmp_path / "broken.qit"
    p.write_text("qit Foo (X : Set where\n  mk : Foo\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert "broken.qit:1:" in err


# --- eq ---


def test_eq_commuted_spines_are_equal(capsys):
    code, out, _ = run(
        capsys, "eq", BAG,
        "(op cons a (op cons b (op nil)))",
        "(op cons b (op cons a (op nil)))",
        "--X", "a,b",
    )
    assert code == 0
    assert out.strip() == "EQUAL"


def test_eq_distinct_multisets(capsys):
    code, out, _ = run(
        capsys, "eq", BAG,
        "(op cons a (op nil))",
        "(op cons b (op nil))",
        "--X", "a,b",
    )
    assert code == 1
    assert out.strip() == "DISTINCT"


def test_eq_outside_universe_is_unknown(capsys):
    deep = "(op cons a (op cons a (op cons a (op cons a (op nil)))))"
    code, out, _ = run(capsys, "eq", BAG, deep, "(op nil)", "--X", "a,b")
    assert code == 1
    assert out.strip() == "UNKNOWN"


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_eq_malformed_term_names_the_argument(side, capsys):
    terms = {"lhs": "(op nil)", "rhs": "(op nil)"}
    terms[side] = "(op cons a (op nil)"
    code, out, err = run(capsys, "eq", BAG, terms["lhs"], terms["rhs"], "--X", "a,b")
    assert code == 1
    assert out == ""
    assert err == f"error: {side} 1:1: unclosed form\n"


def test_eq_bare_indexed_operator_names_its_indexed_forms(capsys):
    vec = ("--X", "a", "--prefix", "2")
    code, out, err = run(capsys, "eq", COMMVEC, "(op nil)", "(op nil)", *vec)
    assert code == 1
    assert out == ""
    assert "unknown operator 'nil'; indexed forms: 'nil @0'" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "eq", COMMVEC, "(op nil @0)", "(op nil @0)", *vec)
    assert code == 0
    assert out.strip() == "EQUAL"


# --- elaborate / enum ---


def test_elaborate_structured_round_trips(capsys):
    code, out, _ = run(capsys, "elaborate", BAG, "--X", "a,b", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert signature_from_obj(obj["signature"]) == bag_sig()
    assert system_from_obj(obj["system"]) == bag_system()


def test_elaborate_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "elaborate", COMMVEC, "--X", "a,b", "--format", "structured")
    _, second, _ = run(capsys, "elaborate", COMMVEC, "--X", "a,b", "--format", "structured")
    assert first == second


def test_enum_lists_the_depth_bounded_universe(capsys):
    code, out, _ = run(capsys, "enum", BAG, "--X", "a,b")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "(op nil)"


# --- fold / elim ---


def test_fold_length_algebra(capsys):
    code, out, _ = run(
        capsys, "fold", BAG, "--X", "a,b",
        "--algebra", str(FIXTURES / "bag_length.json"),
    )
    assert code == 0
    assert "(op cons a (op cons b (op nil))) -> 2" in out
    assert "hom: ok" in out


def test_fold_rejects_unsatisfying_algebra(tmp_path, capsys):
    alg = {
        "carrier": ["*", "a", "b"],
        "ops": {
            "nil": [[[], "*"]],
            "cons a": [[["*"], "a"], [["a"], "a"], [["b"], "a"]],
            "cons b": [[["*"], "b"], [["a"], "b"], [["b"], "b"]],
        },
    }
    p = tmp_path / "head.json"
    p.write_text(json.dumps(alg))
    code, out, _ = run(capsys, "fold", BAG, "--X", "a,b", "--algebra", str(p))
    assert code == 1
    assert "VIOLATED" in out


def test_elim_parity_is_coherent(capsys):
    code, out, _ = run(capsys, "elim", BAG, "--X", "a,b")
    assert code == 0
    assert "(op nil) -> even" in out
    assert "(op cons a (op nil)) -> odd" in out
    assert "qwcomp: ok (4 instances, 8 environments)" in out


@pytest.mark.parametrize("flag, path", [
    ("--algebra", str(FIXTURES / "no_such_table.json")),
    ("--algebra", BAG),
    ("--algebra", str(FIXTURES / "bag_parity_steps.json")),
    ("--steps", str(FIXTURES / "bag_length.json")),
    ("--algebra", str(FIXTURES / "bag_length_list_value.json")),
    ("--steps", str(FIXTURES / "bag_parity_list_steps.json")),
], ids=["missing", "not-json", "no-carrier", "no-steps", "list-value", "list-step"])
def test_bad_table_file_is_an_error_line(flag, path, capsys):
    command = "fold" if flag == "--algebra" else "elim"
    code, out, err = run(capsys, command, BAG, "--X", "a,b", flag, path)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


def test_elim_steps_file_matches_builtin(capsys):
    _, builtin, _ = run(capsys, "elim", BAG, "--X", "a,b")
    code, filed, _ = run(
        capsys, "elim", BAG, "--X", "a,b",
        "--steps", str(FIXTURES / "bag_parity_steps.json"),
    )
    assert code == 0
    assert filed == builtin


# --- construct ---


def test_construct_dumps_stages_and_certifies(capsys):
    code, out, _ = run(capsys, "construct", BAG, "--X", "a,b", "--compare-oracle")
    assert code == 0
    assert "stage (sz zero): 0" in out
    assert "colimit: 6 classes" in out
    assert "oracle: bijection over 6 classes" in out


def test_construct_structured_export_is_stable(capsys):
    _, first, _ = run(capsys, "construct", BAG, "--X", "a,b", "--format", "structured")
    _, second, _ = run(capsys, "construct", BAG, "--X", "a,b", "--format", "structured")
    assert first == second
    assert first.startswith("depth 3 height 3")


# --- examples ---


def test_examples_lists_all_six(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("bag", "commvec", "inftree", "wsusp", "wred", "blass"):
        assert name in out


def test_examples_prints_table_bytes(capsys):
    code, out, _ = run(capsys, "examples", "blass")
    assert code == 0
    assert out == (FIXTURES / "tables" / "blass.txt").read_text()


def test_examples_one_name_builds_only_its_entry(monkeypatch, capsys):
    built = []
    for name, build in list(qitbench.schema.examples.EXAMPLES.items()):
        def counted(n, build=build):
            built.append(n)
            return build(n)

        monkeypatch.setitem(qitbench.schema.examples.EXAMPLES, name, counted)
    code, out, _ = run(capsys, "examples", "wred")
    assert code == 0
    assert out == (FIXTURES / "tables" / "wred.txt").read_text()
    assert built == ["wred"]


def test_examples_structured_carries_sources(capsys):
    code, out, _ = run(capsys, "examples", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    by_name = {e["name"]: e for e in obj["examples"]}
    assert by_name["bag"]["source"].startswith("--")
    assert by_name["wred"]["source"] is None
    assert by_name["wred"]["table"][0] == "I = Z"


# --- usage errors ---


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check"])
    assert e.value.code == 2
    capsys.readouterr()


def test_negative_depth_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["enum", BAG, "-d", "-1"])
    assert e.value.code == 2
    capsys.readouterr()


def test_bad_samples_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["fold", BAG, "--algebra", str(FIXTURES / "bag_length.json"), "--samples", "0"])
    assert e.value.code == 2
    capsys.readouterr()


def test_unknown_carrier_flag_exits_2(capsys):
    code, _, err = run(capsys, "eq", BAG, "(op nil)", "(op nil)", "--Y", "a,b")
    assert code == 2
    assert "no SET parameter" in err


def test_missing_carrier_is_reported(capsys):
    code, _, err = run(capsys, "enum", BAG)
    assert code == 1
    assert "X" in err


def test_closed_stdout_exits_without_traceback():
    # `qitbench enum ... | head -1`: the reader is gone before the first write
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qitbench.cli", "enum", BAG, "--X", "a,b,c", "-d", "5"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""


# --- one parser per process ---


def test_parsing_builds_no_example_tables(monkeypatch, fresh_parser, capsys):
    def refuse():
        raise AssertionError("builtin_examples called while parsing")

    monkeypatch.setattr(qitbench.schema.examples, "builtin_examples", refuse)
    monkeypatch.setattr(cli, "builtin_examples", refuse)
    code, out, _ = run(capsys, "check", BAG)
    assert code == 0 and "Bag: ACCEPT" in out
    code, out, _ = run(capsys, "enum", BAG, "--X", "a,b")
    assert code == 0 and len(out.splitlines()) == 7
    code, out, _ = run(capsys, "eq", BAG, "(op nil)", "(op nil)", "--X", "a,b")
    assert code == 0 and out == "EQUAL\n"
    code, out, err = outcome(capsys, "check")
    assert code == 2 and out == ""
    assert "the following arguments are required: path" in err


def test_main_builds_the_parser_once(monkeypatch, fresh_parser, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    run(capsys, "check", BAG)
    run(capsys, "examples")
    outcome(capsys, "enum", BAG, "-d", "-1")
    run(capsys, "enum", BAG, "--X", "a,b")
    assert len(built) == 1


def test_reused_parser_answers_as_a_fresh_one(fresh_parser, capsys):
    commands = [
        ("enum", BAG, "-d", "-1"),
        ("eq", BAG, "(op cons a (op nil))", "(op nil)", "--X", "a,b"),
        ("examples", "nosuch"),
    ]
    first = []
    for argv in commands:
        cli._parser.cache_clear()
        first.append(outcome(capsys, *argv))
    assert [code for code, _, _ in first] == [2, 1, 2]
    assert "invalid choice: 'nosuch' (choose from 'bag', 'commvec'" in first[2][2]
    cli._parser.cache_clear()
    assert [outcome(capsys, *argv) for argv in commands] == first
