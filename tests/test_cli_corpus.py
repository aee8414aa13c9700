"""Golden CLI corpus: every subcommand's bytes, run in-process through ``cli.main``.

Each case is one argv.  The golden file ``tests/golden/cli_corpus.json``
holds its exit code, stdout and stderr; a case must reproduce all three
byte for byte.  Usage errors (exit 2) compare only the code, because
argparse words its usage text differently across Python versions.

Each case runs under a ``CASE_SECONDS`` real-time alarm, so a case that
loops fails alone instead of hanging the run.

Regenerate the golden file after a deliberate output change with
``PYTHONPATH=src python tests/test_cli_corpus.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import signal

import pytest

from bigfree import cli
from bigfree.cli import COMMANDS, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_corpus.json")
CASE_SECONDS = 10  # the slowest case takes about 0.5 s on a 2-core host

# answered queries: each runs as text and again with --json
_ANSWERED = [
    ["reduce", "a1 a1^-1 a2"],
    ["reduce", ""],
    ["reduce", "a3^2 a1 a1^-1 a3^-2"],
    ["reduce", "b b^-1 a1", "--alphabet", "omega+1"],
    ["mul", "a1 a2", "a2^-1 a1"],
    ["mul", "a1^3 a2", "a2^-1 a1^-3"],
    ["mul", "b a1", "a2 b^-1", "--alphabet", "omega+1"],
    ["inv", "a1 a2^-1"],
    ["inv", ""],
    ["len", "a1 a2 a1^-1"],
    ["len", ""],
    ["len", "a1 b^2 a4", "--alphabet", "omega+1"],
    ["dist", "a1 a2", "a1 a3"],
    ["dist", "a5", "a5"],
    ["gromov", "a1 a2", "a1 a3"],
    ["gromov", "a2 a1^-1", "a1"],
    ["gromov", "b a1 a2", "b a1 a3", "--alphabet", "omega+1"],
    ["prefix", "a1 a2", "a1 a3"],
    ["prefix", "a2", "a1"],
    ["subwords", "a2 a1"],
    ["subwords", ""],
    ["subwords", "a1^3 a2^-2"],
    ["cancel-verify", "a1 a1^-1 a2 a2^-1", "1-2,3-4"],
    ["cancel-verify", "a1 a2 a2^-1 a1^-1", "1-4,2-3"],
    ["cancel-verify", "a1 a2", ""],
    ["cancel-verify", "a1 a2 a1^-1 a2^-1", "1-3,2-4"],
    ["cancel-verify", "a1 a2 a2^-1 a1^-1", "1-2,3-4"],
    ["cancel-verify", "a1 a2 a3 a1^-1", "1-4"],
    ["cancel-verify", "a1 a2 a2^-1 a3^-1", "1-4,2-3"],
    ["cancel-verify", "a1 a1", "1-2"],
    ["cancel-verify", "a1 a1^-1 a2 a3 a2^-1 a3^-1", "1-2,3-5,4-6"],
    ["cancel-verify", "a1 a1^-1 a2 a2", "1-2,3-4"],
    ["cancel-verify", "a1 a1^-1 a2 a3 a4 a2^-1", "1-2,3-6"],
    ["tree-dist", "[1,1] @ a1 a2", "[1,0,1] @ a1 a3"],
    ["tree-dist", "[] @ ", "[1] @ a1"],
    ["tree-dist", "[1] @ a1 a2", "[1] @ a1 a3"],
    ["tree-act", "a1", "[1] @ a1^-1 a2"],
    ["tree-act", "a2^-1", "[1,0,0,1] @ a1 a3"],
    ["y", "", "a1 a2", "a1 a3"],
    ["y", "a4", "a1 a2", "a3"],
    ["axioms-check", "--max-len", "2", "--max-letter", "2"],
    ["axioms-check", "--max-len", "0", "--max-letter", "3"],
    ["to-triple", "[1] @ a2 a1"],
    ["to-triple", "[1] @ a1"],
    ["to-triple", "[0,2,1] @ a2^3"],
    ["to-triple", "[;TOP=1] @ a2 a1", "--alphabet", "omega+1"],
    ["from-triple", "(a2 ; a1^1 ; [1,-1])"],
    ["from-triple", "a1 a2"],
    ["from-triple", "( ; a3^-1 ; [0,0,0,1])"],
    ["triple-act", "a1", "( ; a1^-1 ; [0,1])"],
    ["triple-act", "a2", "(a1 ; a3^1 ; [0,0,0,1])"],
    ["triple-act", "a1^-1", "a1 a2"],
    ["triple-dist", "( ; a1^1 ; [0,1])", "(a1 ; a2^1 ; [0,0,1])"],
    ["triple-dist", "( ; a1^1 ; [0,1])", "( ; a1^1 ; [0,2])"],
    ["triple-dist", "a1", "( ; a2^1 ; [0,0,1])"],
    ["project", "( ; a1^-1 ; [0,1])"],
    ["project", "a1 a2"],
    ["project", "(a3 ; a2^1 ; [0,0,5])"],
    ["circle-dist", "C(a1) @ [1,-1]", "C(a1) @ []"],
    ["circle-dist", "C(a1) @ [0,1]", "C(a2) @ [0,0,1]"],
    ["circle-dist", "C(a2) @ []", "C(a3) @ [0,0,0,1]"],
    ["cayley-dist", "( ; a1^1 ; 1/2)", ""],
    ["cayley-dist", "(a1 ; a2^-1 ; 1/3)", "(a1 ; a3^1 ; 0.25)"],
    ["cayley-dist", "( ; a1^1 ; 0)", "( ; a1^1 ; 1)"],
    ["cayley-dist", "a1 a2", "a1 a3"],
    ["cayley-act", "a1", "( ; a1^-1 ; 1/3)"],
    ["cayley-act", "a2^-1", "(a2 ; a1^1 ; 3/4)"],
    ["cayley-act", "a1", "a1^-1"],
    ["embed-compare", "a2", "a1"],
    ["embed-compare", "", "a1", "--points", "10"],
    ["embed-compare", "a1", "a3", "--points", "7"],
    ["embed-compare", "", "b", "--points", "4", "--alphabet", "omega+1"],
    ["ball-letter", "a1", "a3", "a1 a5"],
    ["ball-letter", "a1", "a3", "a1 a2"],
    ["ball-letter", "", "b", "a2", "--alphabet", "omega+1"],
    ["ball-metric", "", "[1]", "a2^3 a5"],
    ["ball-metric", "", "[0,1]", "a2"],
    ["ball-metric", "a1", "[0,2]", "a1 a3^2"],
    ["demo", "omega-plus-one", "--depth", "8"],
    ["demo", "omega-plus-one", "--depth", "0"],
]

# commands without --json, and the exit-1 messages
_OTHER = [
    ["ball", "1", "3", "--dot"],
    ["ball", "1", "3", "--json"],
    ["ball", "2", "3", "--dot"],
    ["ball", "2", "3", "--json"],
    ["ball", "0", "3", "--dot"],
    ["ball", "0", "3", "--json"],
    ["ball", "1", "2", "--center", "a1 a2", "--dot"],
    ["ball", "2", "1", "--center", "a3", "--json"],
    ["ball", "1", "3", "--cap", "6", "--dot"],
    ["ball", "3", "2", "--cap", "20", "--json"],
    ["ball", "1", "3", "--center", "a1 a1^-1", "--dot"],
    ["ball", "-1", "3", "--dot"],
    # counted before any vertex is built: an empty alphabet stops at the center, and the
    # letters of all vertices are capped (2,499,950,000 at radius 49999 on one generator)
    ["ball", "1000000000000", "0", "--dot"],
    ["ball", "49999", "1", "--dot"],
    ["ball", "40", "3", "--cap", "1000000000", "--dot"],
    ["suite", "--samples", "3", "--seed", "9"],
    ["suite", "--samples", "5", "--seed", "1"],
    ["suite", "--samples", "-5"],
    ["reduce", "b b^-1"],
    ["reduce", "a1 q"],
    ["reduce", "a0"],
    ["reduce", "a1^0"],
    ["reduce", "a1", "--alphabet", "omega+1", "--json"],
    ["len", "a1^1000001"],
    ["len", "a1^500001 a2^500001"],
    ["mul", "a1 a1^-1", "a1"],
    ["prefix", "a1 a1^-1", "a1"],
    ["gromov", "a1", "a2 a2^-1"],
    ["subwords", "a1 a1^-1"],
    ["cancel-verify", "a1 a1^-1", "1-3"],
    ["cancel-verify", "a1 a1^-1", "1-1"],
    ["cancel-verify", "a1 a1^-1 a2 a2^-1", "1-2,2-3"],
    ["cancel-verify", "a1 a1^-1", "1:2"],
    ["tree-dist", "[1] a1", "[] @ "],
    ["tree-dist", "[2] @ a1", "[] @ "],
    ["tree-dist", "[1] @ a1 a1^-1 a1", "[] @ "],
    ["tree-dist", "[1,x] @ a1", "[] @ "],
    ["tree-dist", "1 @ a1", "[] @ "],
    ["tree-act", "a1 a1^-1", "[] @ "],
    ["y", "a1 a1^-1", "", ""],
    ["from-triple", "( ; a1^1 ; [1])"],
    ["from-triple", "( ; a1^1 ; [0,1]"],
    ["from-triple", "(a1^-1 ; a1^1 ; [0,1])"],
    ["from-triple", "(a1 a1^-1 ; a2^1 ; [0,0,1])"],
    ["from-triple", "( ; a1^2 ; [0,1])"],
    ["from-triple", "a1 a1^-1"],
    ["from-triple", "( ; a1^1 ; [;TOP=1])"],
    ["triple-dist", "( ; a1^1 ; [-1])", "a1"],
    ["project", "( ; a1^1 ; [])"],
    ["circle-dist", "C(a1) @ [1]", "C(a1) @ []"],
    ["circle-dist", "C(a1) [1]", "C(a1) @ []"],
    ["circle-dist", "C(b) @ []", "C(a1) @ []"],
    ["cayley-dist", "( ; a1^1 ; 1/0)", ""],
    ["cayley-dist", "( ; a1^1 ; abc)", ""],
    ["cayley-dist", "( ; a1^1 ; 1/2", ""],
    ["cayley-dist", "( ; a1^1 ; 3/2)", ""],
    ["cayley-dist", "( ; a1^1 ; -1/2)", ""],
    ["cayley-dist", "(a1 a1^-1 ; a2^1 ; 0)", ""],
    ["cayley-dist", "(a1 a1^-1 ; a2^1 ; 1/2)", ""],
    ["cayley-dist", "(a1 a1^-1 ; a2^1 ; 1)", ""],
    ["cayley-dist", "(a1^-1 ; a1^1 ; 1/2)", ""],
    ["cayley-act", "a1 a1^-1", "a1"],
    ["embed-compare", "a1", "a1", "--points", "0"],
    ["embed-compare", "a1", "a1", "--points", "-3"],
    ["embed-compare", "a1 a1^-1", "a2"],
    ["embed-compare", "a1", "a2^2"],
    ["ball-letter", "a1 a1^-1", "a3", "a1"],
    ["ball-letter", "a1", "c", "a1"],
    ["ball-metric", "", "[]", "a1"],
    ["ball-metric", "", "[-1]", "a1"],
    ["ball-metric", "", "[x]", "a1"],
    ["ball-metric", "", "[1/0]", "a1"],
    ["axioms-check", "--max-len", "3", "--max-letter", "3"],
    ["axioms-check", "--max-len", "5", "--max-letter", "3"],
    ["axioms-check", "--max-len", "1000000", "--max-letter", "3"],
    ["axioms-check", "--max-len", "1000000000000", "--max-letter", "1"],
    ["axioms-check", "--max-len", "1000000000000", "--max-letter", "0"],
    ["demo", "omega-plus-one", "--depth", "-1"],
    # outputs quadratic in their size: 998,991 letters in all at 1413, 1,000,405 at 1414
    ["subwords", "a1^1413"],
    ["subwords", "a1^1414"],
    ["subwords", "a1^100000"],
    ["demo", "omega-plus-one", "--depth", "100000"],
    ["demo", "omega-plus-one", "--depth", "1414"],
    # usage errors: only the exit code is compared
    [],
    ["no-such-command"],
    ["reduce"],
    ["reduce", "a1", "a2"],
    ["ball", "1", "3"],
    ["ball", "1", "3", "--dot", "--json"],
    ["demo", "other"],
    ["reduce", "a1", "--alphabet", "omega+2"],
    ["axioms-check", "--max-len", "x"],
    ["ball", "2", "3", "--dot", "--alphabet"],
]

CASES = [argv for base in _ANSWERED for argv in (base, [*base, "--json"])] + _OTHER


class CaseTimeout(BaseException):
    """A case ran past ``CASE_SECONDS``; not an ``Exception``, so ``cli.main`` cannot report it as exit 3."""


def _expire(signum, frame):
    raise CaseTimeout(f"the case ran past {CASE_SECONDS} s")


def record(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call; the code alone for exit 2."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code == 2:
        return {"argv": argv, "code": code}
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_lists_every_case_once(golden):
    assert [entry["argv"] for entry in golden] == CASES
    assert len({tuple(argv) for argv in CASES}) == len(CASES)


def test_corpus_covers_every_subcommand():
    assert {cmd.name for cmd in COMMANDS} <= {argv[0] for argv in CASES if argv}


@pytest.mark.parametrize("i", range(len(CASES)), ids=lambda i: " ".join(map(repr, CASES[i])))
def test_cli_output_matches_its_golden_bytes(golden, i):
    assert record(CASES[i]) == golden[i]


def test_a_looping_case_fails_at_its_time_bound(golden, monkeypatch):
    def loop(args):
        while True:
            pass

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        cmd._replace(run=loop) if cmd.name == "reduce" else cmd for cmd in cli.COMMANDS))
    monkeypatch.setitem(globals(), "CASE_SECONDS", 1)
    with pytest.raises(CaseTimeout, match="past 1 s"):
        test_cli_output_matches_its_golden_bytes(golden, CASES.index(["reduce", "a1 a1^-1 a2"]))


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump([record(argv) for argv in CASES], fh, indent=1)
        fh.write("\n")
