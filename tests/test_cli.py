"""The command-line surface: outputs, exit codes, JSON mode, determinism."""

import json

import pytest

from bigfree.cli import main


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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce"])  # missing argument
    assert exc.value.code == 2


def test_suite_smoke(capsys):
    code, out, _ = run(capsys, "suite", "--samples", "5", "--seed", "1")
    assert code == 0
    assert "total: " in out and " 0 failed" in out


def test_output_is_deterministic(capsys):
    first = run(capsys, "ball", "2", "2", "--dot")
    second = run(capsys, "ball", "2", "2", "--dot")
    assert first == second
    s1 = run(capsys, "suite", "--samples", "3", "--seed", "9")
    s2 = run(capsys, "suite", "--samples", "3", "--seed", "9")
    assert s1 == s2
