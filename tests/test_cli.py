"""The command-line surface: outputs, exit codes, JSON mode, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from bigfree import cli
from bigfree.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "a1 a1^-1 a2")
    assert code == 0 and out == "a2\n"


def test_mul_inv_len(capsys):
    assert run(capsys, "mul", "a1 a2", "a2^-1 a1") == (0, "a1^2\n", "")
    assert run(capsys, "inv", "a1 a2^-1") == (0, "a2 a1^-1\n", "")
    assert run(capsys, "len", "a1 a2 a1^-1") == (0, "[2,1]\n", "")


def test_dist_gromov_prefix(capsys):
    assert run(capsys, "dist", "a1 a2", "a1 a3")[1] == "[0,1,1]\n"
    assert run(capsys, "gromov", "a1 a2", "a1 a3")[1] == "[1]\n"
    assert run(capsys, "prefix", "a1 a2", "a1 a3")[1] == "a1\n"


def test_subwords(capsys):
    code, out, _ = run(capsys, "subwords", "a2 a1")
    assert code == 0 and out == "\na2\na2 a1\n"


def test_cancel_verify(capsys):
    code, out, _ = run(capsys, "cancel-verify", "a1 a1^-1 a2 a2^-1", "1-2,3-4")
    assert code == 0 and out == "valid\n"
    code, out, _ = run(capsys, "cancel-verify", "a1 a2 a1^-1 a2^-1", "1-3,2-4")
    assert code == 0 and out.startswith("violation: noncrossing at t=1")


def test_tree_commands(capsys):
    assert run(capsys, "tree-dist", "[1,1] @ a1 a2", "[1,0,1] @ a1 a3")[1] == "[0,1,1]\n"
    assert run(capsys, "tree-act", "a1", "[1] @ a1^-1 a2")[1] == "[] @ a1\n"
    assert run(capsys, "y", "", "a1 a2", "a1 a3")[1] == "a1\n"


def test_axioms_check(capsys):
    code, out, _ = run(capsys, "axioms-check", "--max-len", "2", "--max-letter", "2")
    assert code == 0
    assert out.startswith("pass: 17 elements")  # 1 + 4 + 4*3 reduced words
    code, out, _ = run(capsys, "axioms-check", "--max-len", "3", "--max-letter", "3")
    assert (code, out) == (0, "pass: 187 elements, length axioms and integrality hold\n")


@pytest.mark.parametrize("max_len, max_letter", [("5", "3"), ("1000000", "3"), ("1000000000000", "1")])
def test_axioms_check_refuses_samples_past_its_cap_before_building_them(capsys, max_len, max_letter):
    # 4687 words at length 5; the larger balls would not fit in memory
    code, out, err = run(capsys, "axioms-check", "--max-len", max_len, "--max-letter", max_letter)
    assert (code, out, err) == (1, "", "error: axioms-check sample would exceed 1000 elements\n")


def test_axioms_check_of_an_empty_alphabet_is_the_identity_alone(capsys):
    code, out, _ = run(capsys, "axioms-check", "--max-len", "1000000000000", "--max-letter", "0")
    assert (code, out) == (0, "pass: 1 elements, length axioms and integrality hold\n")


def test_triple_commands(capsys):
    assert run(capsys, "to-triple", "[1] @ a2 a1")[1] == "(a2 ; a1^1 ; [1,-1])\n"
    assert run(capsys, "from-triple", "(a2 ; a1^1 ; [1,-1])")[1] == "[1] @ a2 a1\n"
    assert run(capsys, "triple-act", "a1", "( ; a1^-1 ; [0,1])")[1] == "( ; a1^1 ; [1,-1])\n"
    code, out, _ = run(capsys, "triple-dist", "( ; a1^1 ; [0,1])", "(a1 ; a2^1 ; [0,0,1])")
    assert code == 0
    assert out == "[1,-1,1]\nsimplified-formula: [1,1,1] (disagrees)\n"
    assert run(capsys, "project", "( ; a1^-1 ; [0,1])")[1] == "C(a1) @ [1,-1]\n"
    assert run(capsys, "circle-dist", "C(a1) @ [1,-1]", "C(a1) @ []")[1] == "[0,1]\n"


def test_cayley_commands(capsys):
    assert run(capsys, "cayley-dist", "( ; a1^1 ; 1/2)", "")[1] == "[1/2]\n"
    assert run(capsys, "cayley-act", "a1", "( ; a1^-1 ; 1/3)")[1] == "( ; a1^1 ; 2/3)\n"


def test_embed_compare(capsys):
    code, out, _ = run(capsys, "embed-compare", "", "a1", "--points", "10")
    assert code == 0
    assert "2 coincidences" in out
    assert "endpoints-only: true" in out


def test_embed_compare_rejects_an_empty_grid(capsys):
    for points in ("0", "-3"):
        code, out, err = run(capsys, "embed-compare", "a1", "a1", "--points", points)
        assert (code, out) == (1, "")
        assert err == f"error: --points must be at least 1, got {points}\n"


def test_ball_dot_and_json(capsys):
    code, dot, _ = run(capsys, "ball", "1", "3", "--dot")
    assert code == 0 and dot.startswith("digraph ball {") and dot.count("->") == 6
    code, blob, _ = run(capsys, "ball", "1", "3", "--json")
    payload = json.loads(blob)
    assert len(payload["vertices"]) == 7 and len(payload["edges"]) == 6
    assert payload["center"] == ""


@pytest.mark.parametrize("flag,golden", [("--dot", "ball_2_3.dot"), ("--json", "ball_2_3.json")])
def test_ball_export_prints_its_golden_bytes(capsys, flag, golden):
    code, out, err = run(capsys, "ball", "2", "3", flag)
    with open(os.path.join(ROOT, "tests", "golden", golden), "rb") as fh:
        assert (code, out.encode(), err) == (0, fh.read(), "")


def test_ball_requires_a_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball", "1", "3"])
    assert exc.value.code == 2


def test_topology_commands(capsys):
    assert run(capsys, "ball-letter", "a1", "a3", "a1 a5")[1] == "true\n"
    assert run(capsys, "ball-letter", "a1", "a3", "a1 a2")[1] == "false\n"
    assert run(capsys, "ball-metric", "", "[1]", "a2^3 a5")[1] == "true\n"
    assert run(capsys, "ball-metric", "", "[0,1]", "a2")[1] == "false\n"


def test_demo_table(capsys):
    code, out, _ = run(capsys, "demo", "omega-plus-one", "--depth", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"k={k} ")
        assert f"( ; a{k}^1 ; [;TOP=1])" in line


def test_json_mode(capsys):
    code, out, _ = run(capsys, "reduce", "a1 a1^-1 a2", "--json")
    assert code == 0 and json.loads(out) == {"word": "a2"}
    code, out, _ = run(capsys, "to-triple", "[1] @ a2 a1", "--json")
    assert json.loads(out) == {"triple": "(a2 ; a1^1 ; [1,-1])"}



@pytest.mark.parametrize("argv, key", [
    (["reduce", "a1 a1^-1 a2"], "word"),
    (["mul", "a1 a2", "a2^-1 a1"], "word"),
    (["inv", "a1 a2^-1"], "word"),
    (["len", "a1 a2 a1^-1"], "length"),
    (["dist", "a1 a2", "a1 a3"], "distance"),
    (["gromov", "a1 a2", "a1 a3"], "gromov"),
    (["prefix", "a1 a2", "a1 a3"], "word"),
    (["tree-dist", "[1,1] @ a1 a2", "[1,0,1] @ a1 a3"], "distance"),
    (["tree-act", "a1", "[1] @ a1^-1 a2"], "point"),
    (["y", "", "a1 a2", "a1 a3"], "word"),
    (["to-triple", "[1] @ a2 a1"], "triple"),
    (["from-triple", "(a2 ; a1^1 ; [1,-1])"], "point"),
    (["triple-act", "a1", "( ; a1^-1 ; [0,1])"], "triple"),
    (["project", "( ; a1^-1 ; [0,1])"], "circle_point"),
    (["circle-dist", "C(a1) @ [1,-1]", "C(a1) @ []"], "distance"),
    (["cayley-dist", "( ; a1^1 ; 1/2)", ""], "distance"),
    (["cayley-act", "a1", "( ; a1^-1 ; 1/3)"], "point"),
])
def test_json_mode_wraps_the_text_output_under_one_key(capsys, argv, key):
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out) == {key: text[:-1]}


@pytest.mark.parametrize("argv, inside", [
    (["ball-letter", "a1", "a3", "a1 a5"], True),
    (["ball-letter", "a1", "a3", "a1 a2"], False),
    (["ball-metric", "", "[1]", "a2^3 a5"], True),
    (["ball-metric", "", "[0,1]", "a2"], False),
])
def test_json_mode_of_ball_membership_is_a_bool(capsys, argv, inside):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out) == {"inside": inside}


def test_alphabet_flag(capsys):
    code, _, err = run(capsys, "reduce", "b b^-1")
    assert code == 1 and "error" in err  # TOP letter rejected in the omega instance
    code, out, _ = run(capsys, "reduce", "b b^-1 a1", "--alphabet", "omega+1")
    assert code == 0 and out == "a1\n"


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "reduce", "a1 q")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "from-triple", "( ; a1^1 ; [1])")
    assert code == 1
    code, _, err = run(capsys, "prefix", "a1 a1^-1", "a1")
    assert code == 1


@pytest.mark.parametrize("word", ["a1^1000001", "a1^500001 a2^500001"])
def test_words_past_the_letter_cap_are_one_line_errors(capsys, word):
    assert run(capsys, "len", word) == (1, "", "error: word would exceed 1000000 letters\n")


@pytest.mark.parametrize("argv", [
    ["ball-metric", "", "[x]", "a1"],
    ["ball-metric", "", "[1/0]", "a1"],
    ["cayley-dist", "( ; a1^1 ; 1/0)", ""],
    ["cayley-dist", "( ; a1^1 ; abc)", ""],
])
def test_bad_numbers_are_one_line_errors_in_grammar_terms(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(leak in err for leak in ("int()", "Fraction(", "literal"))


_NINES = "9" * 5000  # past the 4300 digits Python's int() converts by default


@pytest.mark.parametrize("argv", [
    ["len", f"a1^{_NINES}"],
    ["len", f"a{_NINES}"],
    ["cancel-verify", "a1 a1^-1", f"1-{_NINES}"],
    ["embed-compare", "", f"a{_NINES}"],
    ["circle-dist", f"C(a{_NINES}) @ []", "C(a1) @ []"],
])
@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() has no digit limit")
def test_numbers_past_the_int_digit_limit_are_one_line_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: number too long") and err.count("\n") == 1
    assert "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["from-triple", "( ; a1^1 ; [0,1]"],
    ["cayley-dist", "( ; a1^1 ; 1/2", ""],
])
def test_unclosed_edge_point_names_its_grammar(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: edge point must be '(<word> ; a<k>^<p> ; <offset>)', got {argv[1]!r}\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce"])  # missing argument
    assert exc.value.code == 2


def test_internal_errors_exit_three_with_one_line(capsys, monkeypatch):
    def boom(args):
        return 1 // 0

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        cmd._replace(run=boom) if cmd.name == "reduce" else cmd for cmd in cli.COMMANDS))
    code, out, err = run(capsys, "reduce", "a1")
    assert (code, out) == (3, "")
    assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"


def test_suite_smoke(capsys):
    code, out, _ = run(capsys, "suite", "--samples", "5", "--seed", "1")
    assert code == 0
    assert "total: " in out and " 0 failed" in out


def test_suite_fails_properties_that_ran_no_checks(capsys):
    code, out, _ = run(capsys, "suite", "--samples", "-5")
    assert code == 1
    lines = out.splitlines()
    empty = [line for line in lines if line.startswith("[EMPTY] ")]
    assert len(empty) == 23 and all(line.endswith(": 0 checks") for line in empty)
    assert not any(line.startswith("[PASS] ") and line.endswith(": 0 checks") for line in lines)
    assert lines[-1] == "total: 38 properties, 23 failed"


def test_importing_the_cli_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, bigfree.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


_README_EXAMPLE = re.compile(r"bigfree (.*?)\s+# (.*)")


def test_readme_examples_print_their_documented_output(capsys):
    """Every README example with a trailing ``# output`` comment prints that output.

    An example that redirects its output to a file (``>``) documents the
    file, so its comment is a description and is not compared.
    """
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        examples = [m.groups() for m in map(_README_EXAMPLE.fullmatch, fh.read().splitlines()) if m]
    checked = 0
    for command, output in examples:
        argv = shlex.split(command)
        if ">" in argv:
            continue
        assert run(capsys, *argv) == (0, output + "\n", ""), command
        checked += 1
    assert checked == 9


def test_output_is_deterministic(capsys):
    first = run(capsys, "ball", "2", "2", "--dot")
    second = run(capsys, "ball", "2", "2", "--dot")
    assert first == second
    s1 = run(capsys, "suite", "--samples", "3", "--seed", "9")
    s2 = run(capsys, "suite", "--samples", "3", "--seed", "9")
    assert s1 == s2
