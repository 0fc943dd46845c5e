"""End-to-end command-line runs against the fixture corpus."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qitbench.schema.examples
from helpers import bag_sig, bag_system
from oracles import signature_from_obj, system_from_obj
from qitbench import algebras, cli, quotient
from qitbench.cli import main
from qitbench.schema import elaborate, parse_decl
from qitbench.sexpr import parse_term
from qitbench.terms import TermTable

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden" / "cli"

BAG = str(FIXTURES / "bag.qit")
BAGPRIME = str(FIXTURES / "bagprime.qit")
COMMVEC = str(FIXTURES / "commvec.qit")
COMMTREE = str(FIXTURES / "commtree.qit")
INFTREE = str(FIXTURES / "inftree.qit")
HTREE = str(FIXTURES / "htree.qit")
MIXEQ = str(FIXTURES / "mixeq.qit")


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


@pytest.mark.parametrize("digit", ["²", "٣"])
@pytest.mark.parametrize("command", ["check", "enum"])
def test_a_non_ascii_digit_is_an_error_line(command, digit, tmp_path, capsys):
    p = tmp_path / "vec.qit"
    p.write_text(f"qit Vec (X : Set) : Nat -> Set where\n  nil : Vec {digit}\n", encoding="utf-8")
    argv = [command, str(p)] + (["--X", "a"] if command == "enum" else [])
    got = run(capsys, *argv)
    assert got == (1, "", f"error: {p}:2:13: unexpected character {digit!r}\n")


def test_identifiers_keep_unicode_digits(tmp_path, capsys):
    p = tmp_path / "tagged.qit"
    p.write_text("qit T (X : Set) where\n  mk : (tag² : X) -> (n٣ : X) -> T\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert (code, err) == (0, "")
    assert "ElCon  mk : (tag² : X) -> (n٣ : X) -> Q" in out


FLIP = """qit Flip (a : {l, r}) where
  stop : Flip
  put : a -> Flip -> Flip
  e : put l stop = put r stop
"""


def test_check_reads_finite_set_values_and_erased_pairs(tmp_path, capsys):
    """l and r name values of the finite set a; a pair whose second
    component ignores its Q-typed binder is checked with the binder
    erased to the unit type."""
    flip = tmp_path / "flip.qit"
    flip.write_text(FLIP, encoding="utf-8")
    code, out, err = run(capsys, "check", str(flip))
    assert (code, err) == (0, "")
    assert "EqTarget  (put l stop) = (put r stop)" in out
    pair = tmp_path / "pair.qit"
    pair.write_text("qit T (X : Set) where\n  base : T\n  mk : ((t : T) * X) -> T\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(pair))
    assert (code, err) == (0, "")
    assert "StrictlyPositiveProduct  (t : Q) * X" in out


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


def test_eq_over_finite_set_values(tmp_path, capsys):
    flip = tmp_path / "flip.qit"
    flip.write_text(FLIP, encoding="utf-8")
    got = run(capsys, "eq", str(flip), "(op put l (op stop))", "(op put r (op stop))")
    assert got == (0, "EQUAL\n", "")


def test_eq_index_variable_is_outside_the_universe(capsys):
    got = run(capsys, "eq", BAG, "(var (ix 0))", "(op nil)", "--X", "a,b")
    assert got == (1, "UNKNOWN\n", "")


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


def test_elaborate_names_the_rule_a_declaration_breaks(capsys):
    code, out, err = run(capsys, "elaborate", str(FIXTURES / "qleft.qit"))
    assert (code, out) == (1, "")
    assert err.startswith("error: T.bad violates StrictlyPositiveFunction: ")


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


def test_fold_structured_prints_number_values_as_json(tmp_path, capsys):
    alg = {
        "carrier": [0.5, 1.5],
        "ops": {
            "nil": [[[], 0.5]],
            "cons a": [[[0.5], 1.5], [[1.5], 1.5]],
            "cons b": [[[0.5], 1.5], [[1.5], 1.5]],
        },
    }
    p = tmp_path / "half.json"
    p.write_text(json.dumps(alg))
    code, out, err = run(capsys, "fold", BAG, "--X", "a,b", "--algebra", str(p),
                         "--format", "structured")
    assert (code, err) == (0, "")
    assert [v["value"] for v in json.loads(out)["values"]] == [0.5, 1.5, 1.5, 1.5, 1.5, 1.5]


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
    ("--algebra", str(FIXTURES / "bag_length_outside_carrier.json")),
    ("--algebra", str(FIXTURES / "bag_length_argument_outside_carrier.json")),
    ("--algebra", str(FIXTURES / "bag_length_boolean_value.json")),
    ("--algebra", str(FIXTURES / "bag_length_boolean_argument.json")),
    ("--steps", str(FIXTURES / "bag_parity_boolean_motive.json")),
    ("--algebra", str(FIXTURES / "bag_length_partial.json")),
], ids=[
    "missing", "not-json", "no-carrier", "no-steps", "list-value", "list-step",
    "value-outside-carrier", "argument-outside-carrier",
    "boolean-value", "boolean-argument", "boolean-motive-tag", "partial-table",
])
def test_bad_table_file_is_an_error_line(flag, path, capsys):
    command = "fold" if flag == "--algebra" else "elim"
    code, out, err = run(capsys, command, BAG, "--X", "a,b", flag, path)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


def test_partial_table_error_names_the_operator_and_tuple(capsys):
    path = str(FIXTURES / "bag_length_partial.json")
    code, _, err = run(capsys, "fold", BAG, "--X", "a,b", "--algebra", path)
    assert code == 1
    assert err == f"error: {path}: the cons a table has no entry for [3]\n"


@pytest.mark.parametrize("command", ["check", "construct"])
def test_a_declaration_that_is_not_utf8_is_an_error_line(command, tmp_path, capsys):
    p = tmp_path / "bad.qit"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(p))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(p) in err


def test_elim_steps_file_matches_builtin(capsys):
    _, builtin, _ = run(capsys, "elim", BAG, "--X", "a,b")
    code, filed, _ = run(
        capsys, "elim", BAG, "--X", "a,b",
        "--steps", str(FIXTURES / "bag_parity_steps.json"),
    )
    assert code == 0
    assert filed == builtin


@pytest.mark.parametrize("argv, message", [
    (["fold", "--algebra", str(FIXTURES / "bag_length.json")], "fold"),
    (["elim"], "elimination"),
    (["elim", "--steps", str(FIXTURES / "bag_parity_steps.json")], "elimination"),
], ids=["fold", "elim", "elim-steps"])
def test_a_class_the_steps_split_is_named(argv, message, monkeypatch, capsys):
    """(op nil)'s class merged with (op cons a (op nil))'s, the classes
    numbered by first id again: the step at the later id disagrees with
    the class's value, and the error names the class."""
    real = cli.close_congruence

    def merged(universe):
        q = real(universe)
        nil, one = (q.class_id(parse_term(t, universe.sig))
                    for t in ("(op nil)", "(op cons a (op nil))"))
        number: dict[int, int] = {}
        class_at = tuple(number.setdefault(nil if c == one else c, len(number)) for c in q.class_at)
        flats = tuple(map(class_at.index, range(len(number))))
        return quotient.CongruenceQuotient(universe, class_at, flats)

    monkeypatch.setattr(cli, "close_congruence", merged)
    got = run(capsys, argv[0], BAG, "--X", "a,b", *argv[1:])
    assert got == (1, "", f"error: {message} not constant on the class of (op nil)\n")


def test_elim_reports_incoherent_steps(tmp_path, capsys):
    """Steps that keep the head label disagree on swap a b."""
    steps = [{"op": "nil", "tags": [], "value": "e"}]
    steps += [{"op": f"cons {x}", "tags": [t], "value": x} for x in "ab" for t in "eab"]
    path = tmp_path / "head.json"
    path.write_text(json.dumps({"motive": {"default": ["e", "a", "b"]}, "steps": steps}),
                    encoding="utf-8")
    got = run(capsys, "elim", BAG, "--X", "a,b", "--steps", str(path))
    assert got == (1, "", "error: steps disagree on swap a b: 'a' vs 'b'\n")


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


@pytest.mark.parametrize("height, classes, why", [
    (1, 0, "6 congruence classes have no colimit counterpart; raise the height"),
    (2, 7, "two colimit classes flatten into one congruence class; raise the height"),
])
def test_construct_too_low_for_the_oracle(height, classes, why, capsys):
    code, out, err = run(capsys, "construct", BAG, "--X", "a,b", "--size-height", str(height),
                         "--compare-oracle")
    assert code == 1
    assert out.endswith(f"colimit: {classes} classes\n")
    assert err == f"error: {why}\n"


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


# --- output paths pinned to golden bytes ---


PARITY_STEPS = str(FIXTURES / "bag_parity_steps.json")
BAG_SWAPPED = ("(op cons a (op cons b (op nil)))", "(op cons b (op cons a (op nil)))")


@pytest.mark.parametrize("golden, argv", [
    ("elaborate_bag.txt", ["elaborate", BAG, "--X", "a,b"]),
    ("elaborate_commvec_prefix2.txt", ["elaborate", COMMVEC, "--X", "a,b", "--prefix", "2"]),
    ("enum_bag_structured.json", ["enum", BAG, "--X", "a,b", "--format", "structured"]),
    ("eq_bag_structured.json", ["eq", BAG, *BAG_SWAPPED, "--X", "a,b", "--format", "structured"]),
    ("fold_bag_length_structured.json",
     ["fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / "bag_length.json"),
      "--format", "structured"]),
    ("elim_bag_parity_structured.json",
     ["elim", BAG, "--X", "a,b", "--steps", PARITY_STEPS, "--format", "structured"]),
    ("examples_bag_structured.json", ["examples", "bag", "--format", "structured"]),
    # the countable-family path and a recursive-variable path, whole
    ("elaborate_inftree_ab.txt", ["elaborate", INFTREE, "--X", "a,b"]),
    ("elaborate_inftree_ab_structured.json", ["elaborate", INFTREE, "--X", "a,b", "--format", "structured"]),
    ("elaborate_commtree_ab.txt", ["elaborate", COMMTREE, "--X", "a,b"]),
    ("elaborate_commtree_ab_structured.json", ["elaborate", COMMTREE, "--X", "a,b", "--format", "structured"]),
    # the indexed signature's JSON: per index, the children taken there
    ("elaborate_commvec_prefix2_structured.json",
     ["elaborate", COMMVEC, "--X", "a,b", "--prefix", "2", "--format", "structured"]),
    # node takes two children at one index: both are kept
    ("elaborate_htree_a_prefix2.txt", ["elaborate", HTREE, "--X", "a", "--prefix", "2"]),
    ("elaborate_htree_a_prefix2_structured.json",
     ["elaborate", HTREE, "--X", "a", "--prefix", "2", "--format", "structured"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_output_matches_golden(golden, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


PERF_INPUTS = Path(__file__).parent.parent / "perfbench" / "inputs"
VEC2 = ("--X", "a,b", "--prefix", "2")


# the oracle paths: CommVec is indexed, so its universe lists sort by sort
@pytest.mark.parametrize("golden, code, argv", [
    ("enum_commvec_prefix2.txt", 0, ["enum", COMMVEC, *VEC2]),
    ("eq_commvec_prefix2_equal.txt", 0,
     ["eq", COMMVEC, "(op cons a @2 (op cons b @1 (op nil @0)))",
      "(op cons b @2 (op cons a @1 (op nil @0)))", *VEC2]),
    ("eq_commvec_prefix2_distinct.txt", 1,
     ["eq", COMMVEC, "(op cons a @2 (op cons a @1 (op nil @0)))",
      "(op cons a @2 (op cons b @1 (op nil @0)))", *VEC2]),
    ("elim_commvec_prefix2_steps.txt", 0,
     ["elim", COMMVEC, *VEC2, "--steps", str(FIXTURES / "commvec_parity_steps.json")]),
    ("fold_commtree_abc_d3.txt", 0,
     ["fold", str(PERF_INPUTS / "commtree.qit"), "--X", "a,b,c", "-d", "3",
      "--algebra", str(PERF_INPUTS / "commtree_leaves.json")]),
    ("fold_cmon_a_d3.txt", 0,
     ["fold", str(PERF_INPUTS / "cmon.qit"), "--X", "a", "-d", "3",
      "--algebra", str(PERF_INPUTS / "cmon_size.json")]),
    ("fold_bag_head_violated.txt", 1,
     ["fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / "bag_head.json")]),
    ("construct_bag_compare_oracle.txt", 0, ["construct", BAG, "--X", "a,b", "--compare-oracle"]),
    ("construct_commvec_prefix2_compare_oracle.txt", 0,
     ["construct", COMMVEC, *VEC2, "--compare-oracle"]),
    ("construct_commtree_ab_d4_h3_compare_oracle.txt", 0,
     ["construct", COMMTREE, "--X", "a,b", "-d", "4", "--size-height", "3", "--compare-oracle"]),
    # two children at one index
    ("enum_htree_a_prefix2_d2.txt", 0, ["enum", HTREE, "--X", "a", "--prefix", "2", "-d", "2"]),
    ("construct_htree_ab_prefix2_d2_h3_compare_oracle.txt", 0,
     ["construct", HTREE, "--X", "a,b", "--prefix", "2", "-d", "2", "--size-height", "3",
      "--compare-oracle"]),
    # children out of index order, under an equation that builds them
    ("enum_mixeq_prefix1_d2.txt", 0, ["enum", MIXEQ, "--prefix", "1", "-d", "2"]),
    ("eq_mixeq_prefix1_d2_equal.txt", 0,
     ["eq", MIXEQ, "--prefix", "1", "-d", "2", "(op p @1 (op o @1) (op z @0))", "(op o @1)"]),
    ("construct_mixeq_prefix1_d2_compare_oracle.txt", 0,
     ["construct", MIXEQ, "--prefix", "1", "-d", "2", "--compare-oracle"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_oracle_output_matches_golden(golden, code, argv, capsys):
    got = run(capsys, *argv)
    assert got == (code, (GOLDEN / golden).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("name, carriers", [
    # a map argument in an element constructor
    pytest.param("mapctor", "a", id="mapctor"),
    # a child family composed with a composite map, comp f (comp b c)
    pytest.param("nestedcomp", "a", id="nestedcomp"),
    # an endpoint that applies a child family, f 0
    pytest.param("famapp", "a", id="famapp"),
    # an indexed countable child family, Nat -> T i; T has no Set parameter
    pytest.param("ixfam", None, id="ixfam"),
])
def test_elaborate_refusal_matches_golden(name, carriers, capsys):
    """check accepts these declarations; elaborate refuses each on stderr."""
    extra = ("--X", carriers) if carriers else ()
    got = run(capsys, "elaborate", str(FIXTURES / f"{name}.qit"), *extra)
    golden = f"elaborate_{name}_{carriers}.err" if carriers else f"elaborate_{name}.err"
    assert got == (1, "", (GOLDEN / golden).read_text(encoding="utf-8"))


def test_bag_h5_construct_matches_its_pinned_digest(capsys):
    # one stage line per size member, 677 of them: the golden holds the
    # stdout's SHA-256 and byte count, not its 135,653 bytes
    got = run(capsys, "construct", BAG, "--X", "a,b", "-d", "2", "--size-height", "5",
              "--compare-oracle")
    assert got[0::2] == (0, "")
    out = got[1].encode("utf-8")
    assert out.endswith(b"colimit: 3 classes\noracle: bijection over 3 classes (intro checked 3)\n")
    digest, size = (GOLDEN / "construct_bag_ab_d2_h5_compare_oracle.sha256").read_text().split()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, int(size))


@pytest.mark.parametrize("argv", [
    [*cmd, "--format", fmt]
    for cmd in (["enum", BAG, "--X", "a,b"],
                ["fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / "bag_length.json")],
                ["elim", BAG, "--X", "a,b"])
    for fmt in ("text", "structured")
] + [["construct", BAG, "--X", "a,b", "--format", "structured"]],
    ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_printing_a_table_id_builds_no_term(argv, monkeypatch, capsys):
    # each printed term reads TermTable.texts; a text construct prints
    # no term (test_a_text_construct_materializes_no_term)
    def refuse(self):
        raise AssertionError("a TermTable materialized its Terms")

    monkeypatch.setattr(TermTable, "terms", property(refuse))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "(op cons b (op nil))" in out


def test_commtree_abc_d4_matches_its_pinned_digests(capsys):
    # where the intro check dominates a construct: 21,612 oracle ids, one
    # intro each; the fold prints a canon line per class of the same
    # quotient
    ct = str(PERF_INPUTS / "commtree.qit")
    code, out, err = run(capsys, "construct", ct, "--X", "a,b,c", "-d", "4", "--compare-oracle")
    assert (code, err) == (0, "")
    assert out.endswith("oracle: bijection over 1179 classes (intro checked 21612)\n")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest().startswith("3055f856e1bef7b0")
    code, out, err = run(capsys, "fold", ct, "--X", "a,b,c", "-d", "4",
                         "--algebra", str(PERF_INPUTS / "commtree_leaves.json"))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest().startswith("3c6345622286b266")


@pytest.mark.parametrize("algebra, code", [("bag_length.json", 0), ("bag_head.json", 1)])
def test_fold_checks_satisfaction_once(algebra, code, monkeypatch, capsys):
    """qwrec's check is the only one; a violation still prints the
    VIOLATED line pinned in fold_bag_head_violated.txt."""
    calls = []
    real = algebras.satisfies

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cli, quotient):
        monkeypatch.setattr(module, "satisfies", counted)
    got = run(capsys, "fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / algebra))
    assert (got[0], len(calls)) == (code, 1)


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name, code", [
    ("bag", 0), ("bagprime", 1), ("commvec", 0), ("commtree", 0),
    ("inftree", 0), ("qleft", 1), ("qparam", 1), ("qsigma", 1),
    # endpoint types that differ only syntactically: V (suc 0) against
    # V 1 is convertible, against V 2 it is not
    ("vsuc", 0), ("vsucbad", 1),
    # term names no earlier argument binds, in a parameter type and in a
    # function domain; the equation after k cannot apply it to a Q
    ("unboundparam", 1), ("unboundfun", 1),
    # an application head that nothing binds, foo in Fin (foo i)
    ("unboundhead", 1),
    # an equality constructor that binds zs twice; cons repeats _
    ("dupbinder", 1),
])
def test_check_matches_golden(name, code, fmt, capsys):
    golden = f"check_{name}.txt" if fmt == "text" else f"check_{name}_structured.json"
    got = run(capsys, "check", str(FIXTURES / f"{name}.qit"), "--format", fmt)
    assert got == (code, (GOLDEN / golden).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("argv", [
    ["bag.qit", "--X", "a,b"],
    ["commvec.qit", "--X", "a,b", "--prefix", "2"],
    ["inftree.qit", "--X", "a"],
    ["commtree.qit", "--X", "a,b"],
], ids=lambda argv: argv[0])
def test_accepted_declarations_render_no_text(argv, monkeypatch, capsys):
    """Derivations keep their types; only the text form of check renders them."""
    def rendered(*_):
        raise AssertionError("a type or term was rendered")

    for name in ("qitbench.schema.checker", "qitbench.schema.elaborate"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "show_type", rendered)
        monkeypatch.setattr(module, "show_term_ast", rendered)
    path = str(FIXTURES / argv[0])
    assert run(capsys, "elaborate", path, *argv[1:])[0] == 0
    assert run(capsys, "elaborate", path, *argv[1:], "--format", "structured")[0] == 0
    assert run(capsys, "check", path, "--format", "structured")[0] == 0


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
    # no command takes --samples, so it reads as a carrier flag that
    # names no SET parameter of Bag
    code, out, err = outcome(capsys, "fold", BAG, "--algebra", str(FIXTURES / "bag_length.json"),
                             "--samples", "0")
    assert (code, out) == (2, "")
    assert err == "usage error: Bag has no SET parameter named samples\n"


def test_prefix_on_a_declaration_that_is_not_indexed_exits_2(capsys):
    code, out, err = outcome(capsys, "enum", BAG, "--X", "a,b", "--prefix", "2")
    assert (code, out) == (2, "")
    assert err == "usage error: enum --prefix: Bag is not indexed\n"


def test_repeated_carrier_flag_exits_2(capsys):
    code, out, err = outcome(capsys, "enum", BAG, "--X", "a", "--X", "b", "-d", "2")
    assert (code, out) == (2, "")
    assert err.endswith("qitbench: error: --X given twice\n")


@pytest.mark.parametrize("param", ["d", "h"])
def test_a_set_parameter_may_share_the_start_of_an_option_name(param, tmp_path, capsys):
    # --d is not --depth, nor --h --help: options are never abbreviated
    p = tmp_path / f"bag{param}.qit"
    p.write_text((FIXTURES / "bag.qit").read_text().replace("X", param))
    code, out, err = run(capsys, "enum", str(p), f"--{param}", "a,b", "-d", "2")
    assert (code, err) == (0, "")
    assert out == run(capsys, "enum", BAG, "--X", "a,b", "-d", "2")[1]
    assert len(out.splitlines()) == 3


# the options each command takes, besides -h; the carrier flag --X goes
# to the commands that elaborate a declaration
TAKES = {
    "check": {"--format"},
    "elaborate": {"--prefix", "--format"},
    "enum": {"-d", "--depth", "--prefix", "--format"},
    "eq": {"-d", "--depth", "--prefix", "--format"},
    "fold": {"-d", "--depth", "--prefix", "--format", "--algebra"},
    "elim": {"-d", "--depth", "--prefix", "--format", "--steps"},
    "construct": {"-d", "--depth", "--size-height", "--prefix", "--format", "--compare-oracle"},
    "examples": {"--format"},
}
ELABORATES = {"elaborate", "enum", "eq", "fold", "elim", "construct"}


def test_each_command_has_only_its_own_options():
    sub = next(a for a in cli.build_parser()._actions if a.option_strings == [] and a.choices)
    slots = 0
    for command, sp in sub.choices.items():
        actions = [a for a in sp._actions if a.option_strings and "-h" not in a.option_strings]
        assert {o for a in actions for o in a.option_strings} == TAKES[command], command
        slots += len(actions)
    assert set(sub.choices) == set(TAKES)
    assert slots == 23


@pytest.fixture(scope="module")
def commvec_tables(tmp_path_factory):
    """an algebra and a step table with one element for CommVec on --X a"""
    sig, _ = elaborate(parse_decl(Path(COMMVEC).read_text()), {"X": ("a",)})
    ops = [(d.op.show(), d.arity.count) for d in sig.ops]
    d = tmp_path_factory.mktemp("commvec")
    alg, steps = d / "one.json", d / "one_steps.json"
    alg.write_text(json.dumps({"carrier": ["*"], "ops": {n: [[["*"] * k, "*"]] for n, k in ops}}))
    steps.write_text(json.dumps({"motive": {"default": ["*"]}, "steps": [
        {"op": n, "tags": ["*"] * k, "value": "*"} for n, k in ops]}))
    return str(alg), str(steps)


MATRIX_FLAGS = ["-d", "--depth", "--size-height", "--prefix", "--format", "--algebra", "--steps",
                "--compare-oracle", "--X"]


@pytest.mark.parametrize("flag", MATRIX_FLAGS)
@pytest.mark.parametrize("command", list(TAKES))
def test_an_option_the_command_does_not_take_exits_2(command, flag, commvec_tables, capsys):
    alg, steps = commvec_tables
    value = {"-d": ["2"], "--depth": ["2"], "--size-height": ["2"], "--prefix": ["2"],
             "--format": ["structured"], "--algebra": [alg], "--steps": [steps],
             "--compare-oracle": [], "--X": ["a"]}[flag]
    base = {"eq": [COMMVEC, "(op nil @0)", "(op nil @0)"], "fold": [COMMVEC, "--algebra", alg],
            "examples": []}.get(command, [COMMVEC])
    carrier = ["--X", "a"] if command in ELABORATES and flag != "--X" else []
    code, out, err = outcome(capsys, command, *base, *carrier, flag, *value)
    if flag in TAKES[command] or (flag == "--X" and command in ELABORATES):
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert len([line for line in err.splitlines() if command in line and flag in line]) == 1


def test_negative_prefix_exits_2(capsys):
    code, out, err = outcome(capsys, "enum", COMMVEC, "--X", "a", "--prefix", "-1")
    assert code == 2 and out == ""
    assert "prefix must be >= 0" in err


@pytest.mark.parametrize("positionals", [
    ("enum", BAG),
    ("eq", BAG, "(op cons a (op cons b (op nil)))", "(op cons b (op cons a (op nil)))"),
    ("eq", BAG, "(op cons a (op nil))", "(op nil)"),
    ("construct", BAG, "-d", "2"),
], ids=["enum", "eq-equal", "eq-distinct", "construct"])
def test_carrier_flag_may_come_before_the_positionals(positionals, capsys):
    command, *rest = positionals
    after = outcome(capsys, command, *rest, "--X", "a,b")
    assert after[0] in (0, 1) and after[1]
    assert outcome(capsys, command, "--X", "a,b", *rest)[:2] == after[:2]
    assert outcome(capsys, command, "--X=a,b", *rest)[:2] == after[:2]


def test_unknown_carrier_flag_exits_2(capsys):
    code, _, err = run(capsys, "eq", BAG, "(op nil)", "(op nil)", "--Y", "a,b")
    assert code == 2
    assert "no SET parameter" in err


def test_repeated_carrier_element_exits_2(capsys):
    code, out, err = outcome(capsys, "construct", BAG, "--X", "a,a")
    assert code == 2 and out == ""
    assert "--X lists 'a' twice" in err


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


def test_a_deeply_nested_term_exits_3(capsys):
    # the term reader recurses once per level, and once more per child
    term = "(op nil)"
    for _ in range(600):
        term = f"(op cons a {term})"
    code, out, err = run(capsys, "eq", BAG, "--X", "a,b", term, "(op nil)")
    assert (code, out) == (3, "")
    assert err.startswith("error: ran out of recursion depth") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_deeply_nested_constructor_type_exits_3(tmp_path, capsys):
    # the type parser recurses once per parenthesis
    path = tmp_path / "deep.qit"
    nested = "(" * 400 + "Bag" + ")" * 400
    path.write_text(f"qit Bag (X : Set) where\n  nil : Bag\n  cons : X -> {nested} -> Bag\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ran out of recursion depth") and err.count("\n") == 1
    assert "Traceback" not in err


def test_running_out_of_memory_exits_3(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "enum", (exhausted, *cli.COMMANDS["enum"][1:]))
    assert run(capsys, "enum", BAG, "--X", "a,b") == (3, "", "error: ran out of memory\n")


def test_commtree_abc_d4_construct_fits_in_one_gigabyte():
    # every stage is read off the build's one closed table; a term table
    # per stage ran out of memory here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cap = 1 << 30

    def limit():
        # runs in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "qitbench.cli", "construct", COMMTREE, "--X", "a,b,c", "-d", "4",
         "--compare-oracle"],
        capture_output=True, text=True, env=env, timeout=300, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("oracle: bijection over 1179 classes (intro checked 21612)\n")


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


# --- reference cycles ---


@pytest.mark.parametrize("argv", [
    ["check", BAG],
    ["elaborate", BAG, "--X", "a,b"],
    ["enum", BAG, "--X", "a,b"],
    ["eq", BAG, "(op cons a (op cons b (op nil)))", "(op cons b (op cons a (op nil)))", "--X", "a,b"],
    ["fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / "bag_length.json")],
    ["elim", BAG, "--X", "a,b", "--steps", str(FIXTURES / "bag_parity_steps.json")],
    ["construct", BAG, "--X", "a,b", "--compare-oracle"],
    ["examples", "bag"],
    *(pytest.param([*argv, "--format", "structured"], id=f"{argv[0]}-structured") for argv in [
        ["check", BAG],
        ["elaborate", BAG, "--X", "a,b"],
        ["enum", BAG, "--X", "a,b"],
        ["eq", BAG, "(op cons a (op nil))", "(op cons a (op nil))", "--X", "a,b"],
        ["fold", BAG, "--X", "a,b", "--algebra", str(FIXTURES / "bag_length.json")],
        ["elim", BAG, "--X", "a,b", "--steps", str(FIXTURES / "bag_parity_steps.json")],
        ["examples", "bag"],
    ]),
    pytest.param(["examples", "--format", "structured"], id="examples-list-structured"),
], ids=lambda argv: argv[0])
def test_commands_leave_nothing_for_the_cyclic_collector(argv, capsys):
    """A recursive closure is a reference cycle, which every run would
    leave to the cyclic collector; so are mutually recursive closures,
    like those json's indenting encoder builds."""
    run(capsys, *argv)  # first-use caches
    gc.collect()
    gc.disable()
    try:
        code = main(list(argv))
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, found) == (0, 0)
