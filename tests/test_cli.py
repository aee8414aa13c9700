"""The command-line checks the golden corpus (``test_cli_corpus.py``) cannot make.

The corpus pins each argv's exit code and bytes.  These tests need more
than one argv: the README examples, the import graph and the layers each
call loads, the help texts of every command, exit 3 through a
patched command, an axiom violation through a patched length oracle, the
interpreter's int() digit limit, an answer too long for the corpus (a
letter rank at its cap), the argument types of the command table, and
repeated calls within one process.
"""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import bigfree.tree
from bigfree import cli
from bigfree.cli import main
from bigfree.ordered_abelian import LexVector, read_number
from bigfree.tree import bf_length_oracle
from bigfree.words import word_dist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


_N, _M = "9" * 4300, "9" * 4299 + "7"  # each read, but the answers below have more digits than str() writes


@pytest.mark.parametrize("argv", [
    ["triple-dist", f"( ; a1^1 ; [0,{_N}])", f"( ; a1^-1 ; [0,{_N}])"],
    ["tree-act", "a2", f"[0,{_N}] @ a1"],
    ["cayley-dist", f"( ; a1^1 ; 1/{_N})", f"( ; a1^-1 ; 1/{_M})"],
    ["from-triple", f"(a2 ; a1^1 ; [0,{_N}])"],
], ids=["triple-dist", "tree-act", "cayley-dist", "from-triple"])
@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() has no digit limit")
def test_answers_past_the_int_digit_limit_are_one_line_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: number too long to print\n")


def test_a_letter_rank_at_the_cap_is_answered(capsys):
    assert run(capsys, "len", "a1000000") == (0, "[" + "0," * 999_999 + "1]\n", "")


def test_every_integer_argument_is_read_by_the_one_number_reader():
    specs = [spec for cmd in cli.COMMANDS for arg in cmd.args for spec in (arg if isinstance(arg, list) else [arg])]
    types = [options["type"] for _, options in specs if "type" in options]
    assert len(types) == 9 and set(types) == {cli.integer}
    assert cli.integer("-12") == read_number("-12") == -12


_LONG = "1" + "0" * 4400  # 4,401 digits: past int()'s default limit, so read_number refuses it by its length


@pytest.mark.parametrize("argv", [
    ["axioms-check", "--max-len", _LONG],
    ["axioms-check", "--max-letter", _LONG],
    ["embed-compare", "", "a1", "--points", _LONG],
    ["ball", _LONG, "1", "--dot"],
    ["ball", "1", _LONG, "--dot"],
    ["ball", "1", "1", "--cap", _LONG, "--dot"],
    ["demo", "omega-plus-one", "--depth", _LONG],
    ["suite", "--samples", _LONG],
    ["suite", "--seed", _LONG],
], ids=["max-len", "max-letter", "points", "ball-max_len", "ball-max_letter", "cap", "depth", "samples", "seed"])
@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter's int() has no digit limit")
def test_an_integer_option_too_long_is_a_short_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.encode()) < 400
    assert err.rstrip().endswith(": number too long: 4401 characters")


def test_other_bad_integer_text_keeps_the_usage_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--seed", "1_0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("argument --seed: invalid integer value: '1_0'")


def test_internal_errors_exit_three_with_one_line(capsys, monkeypatch):
    def boom(args):
        return 1 // 0

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        cmd._replace(run=boom) if cmd.name == "reduce" else cmd for cmd in cli.COMMANDS))
    code, out, err = run(capsys, "reduce", "a1")
    assert (code, out) == (3, "")
    assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"


def test_axioms_check_reports_a_violation_as_text_and_json(capsys, monkeypatch):
    # the bf distance plus L(a9) off the diagonal: each 2 c(g, h) of distinct non-identity words is odd
    nine = LexVector.unit(9)
    monkeypatch.setattr(bigfree.tree, "bf_length_oracle", lambda: bf_length_oracle()._replace(
        distance=lambda g, h: word_dist(g, h) + nine if g != h else word_dist(g, h)))
    argv = ["axioms-check", "--max-len", "1", "--max-letter", "1"]
    message = "2 c(g,h) = [0,0,0,0,0,0,0,0,1] is not evenly divisible"
    assert run(capsys, *argv) == (1, f"violation integrality: {message}\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, json.loads(out), err) == (1, {"ok": False, "axiom": "integrality", "message": message}, "")


def python(*args, timeout=60):
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_importing_the_cli_does_not_import_numpy():
    proc = python("-c", "import sys, bigfree.cli; "
                  "print(sorted({'numpy', 'dataclasses', 'inspect', 'bigfree.sampling'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_the_package_imports_only_the_standard_library():
    # -S: no site-packages, whose .pth files may import modules of their own
    proc = python("-S", "-c", "import sys, bigfree, bigfree.cli, bigfree.suite; "
                  "known = {*sys.stdlib_module_names, 'bigfree', '__main__'}; "
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] not in known))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_LAYERS = ("bigfree.tree", "bigfree.triples", "bigfree.cayley", "bigfree.topology", "json")


_LOADED = [
    (["reduce", "a1"], []),
    (["tree-act", "a1", "[1] @ a1^-1 a2"], ["bigfree.tree"]),
    (["ball-letter", "a1", "a3", "a1 a5"], ["bigfree.topology", "json"]),
    (["cayley-act", "a1", "( ; a1^-1 ; 1/3)"], ["bigfree.tree", "bigfree.cayley"]),
]


@pytest.mark.parametrize("argv, loaded", _LOADED, ids=[argv[0] for argv, _ in _LOADED])
def test_a_call_loads_only_the_layers_its_row_names(argv, loaded):
    proc = python("-c", "import sys; from bigfree import cli; cli.main(sys.argv[1:]); "
                  f"print([m for m in {_LAYERS!r} if m in sys.modules])", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_the_suite_runs_with_numpy_blocked():
    # sys.modules["numpy"] = None makes any `import numpy` raise ImportError
    proc = python("-c", "import sys; sys.modules['numpy'] = None; from bigfree import cli; "
                  "sys.exit(cli.main(['suite', '--samples', '20']))", timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("total: 38 properties, 0 failed\n")


_README_EXAMPLE = re.compile(r"bigfree (.*?)\s+# (.*)")


def _readme_examples():
    """Each README example with a trailing ``# output`` comment, as (command, output).

    An example that redirects its output to a file (``>``) documents the
    file, so its comment is a description and is not listed.
    """
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        examples = [m.groups() for m in map(_README_EXAMPLE.fullmatch, fh.read().splitlines()) if m]
    return [(command, output) for command, output in examples if ">" not in shlex.split(command)]


README_EXAMPLES = _readme_examples()


def test_the_readme_documents_nine_checked_examples():
    assert len(README_EXAMPLES) == 9


@pytest.mark.parametrize("command, output", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES])
def test_readme_examples_print_their_documented_output(capsys, command, output):
    assert run(capsys, *shlex.split(command)) == (0, output + "\n", "")


@pytest.mark.parametrize("argv", [["ball", "2", "2", "--dot"], ["suite", "--samples", "3", "--seed", "9"]],
                         ids=" ".join)
def test_output_is_deterministic(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv)


def _help(capsys, *argv) -> str:
    """The help text of ``bigfree *argv --help``, its whitespace runs collapsed to one space."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_the_help_lists_every_command_with_its_help_in_table_order(capsys):
    text = _help(capsys)
    positions = [text.find(f" {cmd.name} {cmd.help} ") for cmd in cli.COMMANDS]
    assert -1 not in positions and positions == sorted(positions)


@pytest.mark.parametrize("cmd", cli.COMMANDS, ids=[cmd.name for cmd in cli.COMMANDS])
def test_each_command_help_names_its_arguments(capsys, cmd):
    specs = [spec for arg in cmd.args for spec in (arg if isinstance(arg, list) else [arg])]
    # argparse names an argument with choices by the choices
    names = [f"{{{','.join(options['choices'])}}}" if "choices" in options else flag
             for flags, options in specs for flag in flags] + ["--json"] * cmd.json_flag
    text = _help(capsys, cmd.name)
    assert [name for name in names if name not in text.split()] == []
