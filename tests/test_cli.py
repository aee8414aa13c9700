"""The command-line checks the golden corpus (``test_cli_corpus.py``) cannot make.

The corpus pins each argv's exit code and bytes.  These tests need more
than one argv: the README examples, the import graph, exit 3 through a
patched command, the interpreter's int() digit limit, and repeated calls
within one process.
"""

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


def test_internal_errors_exit_three_with_one_line(capsys, monkeypatch):
    def boom(args):
        return 1 // 0

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        cmd._replace(run=boom) if cmd.name == "reduce" else cmd for cmd in cli.COMMANDS))
    code, out, err = run(capsys, "reduce", "a1")
    assert (code, out) == (3, "")
    assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"


def python(*args, timeout=60):
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_importing_the_cli_does_not_import_numpy():
    proc = python("-c", "import sys, bigfree.cli; "
                  "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_the_package_imports_only_the_standard_library():
    # -S: no site-packages, whose .pth files may import modules of their own
    proc = python("-S", "-c", "import sys, bigfree, bigfree.cli, bigfree.suite; "
                  "known = {*sys.stdlib_module_names, 'bigfree', '__main__'}; "
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] not in known))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
