"""``cli`` workload: one ``python -m bigfree`` process per call, one call at a time.

Every call pays interpreter start plus ``import bigfree.cli``, so this is
the only workload where import-time changes show.  The calls are the
README examples checked against their documented outputs, a ``--json``
call, seeded ``reduce``/``len``/``dist``/``mul`` calls checked against the
reference routes, and malformed inputs that must exit 1 (domain) or 2
(usage) with an ``error:`` line and no traceback.  Any traceback, or an
exit code outside {0, 1, 2}, is a failed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from random import Random
from time import perf_counter, perf_counter_ns

import reference as ref
from harness import Raised, children_cpu_ns, median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALL_TIMEOUT_S = 60
PROBE_REPEATS = 5
SIZES = {"full": None, "tiny": 4}

README = [
    (["reduce", "a1 a1^-1 a2"], ("out", "a2\n")),
    (["dist", "a1 a2", "a1 a3"], ("out", "[0,1,1]\n")),
    (["gromov", "a1 a2", "a1 a3"], ("out", "[1]\n")),
    (["cancel-verify", "a1 a2 a1^-1 a2^-1", "1-3,2-4"],
     ("out", "violation: noncrossing at t=1 (([1,3]_T)* = [1, 3, 4] != [1, 2, 3])\n")),
    (["tree-act", "a1", "[1] @ a1^-1 a2"], ("out", "[] @ a1\n")),
    (["to-triple", "[1] @ a2 a1"], ("out", "(a2 ; a1^1 ; [1,-1])\n")),
    (["triple-dist", "( ; a1^1 ; [0,1])", "(a1 ; a2^1 ; [0,0,1])"],
     ("out", "[1,-1,1]\nsimplified-formula: [1,1,1] (disagrees)\n")),
    (["project", "( ; a1^-1 ; [0,1])"], ("out", "C(a1) @ [1,-1]\n")),
    (["cayley-act", "a1", "( ; a1^-1 ; 1/3)"], ("out", "( ; a1^1 ; 2/3)\n")),
    (["embed-compare", "a2", "a1"],
     ("out", "edge (a2, a1): 2 coincidences over 101 x 102 grid points\n"
             "  t=0 <-> s=[]\n  t=1 <-> s=[1]\nendpoints-only: true\n")),
    (["ball", "2", "3", "--dot"], ("dot", ref.ball_size(2, 3))),
    (["ball-letter", "a1", "a3", "a1 a5"], ("out", "true\n")),
    (["ball-metric", "", "[1]", "a2^3 a5"], ("out", "true\n")),
    (["demo", "omega-plus-one", "--depth", "8"], ("demo", 8)),
    (["dist", "a1 a2", "a1 a3", "--json"], ("json", {"distance": "[0,1,1]"})),
]
MALFORMED = [
    (["reduce", "a0"], ("error", 1)),
    (["tree-dist", "[1] a1", "[]"], ("error", 1)),
    (["dist", "a1"], ("error", 2)),
    (["frobnicate"], ("error", 2)),
    (["embed-compare", "a1", "a1", "--points", "0"], ("error", 1)),
]
# Calls that fail at the seed commit.  They still count in ``failed``; they
# only keep a run from being reported as incorrect.
KNOWN_DEFECTS = {("embed-compare", "a1", "a1", "--points", "0"): "ZeroDivisionError traceback"}

_DEMO_LINE = re.compile(r"k=(\d+)  word=(.*)  coordinates=\( ; a(\d+)\^1 ; \[;TOP=1\]\)")


def _letters(rng: Random, n: int) -> tuple:
    return tuple((rng.randint(1, 8), rng.choice((1, -1))) for _ in range(n))


def _seeded(rng: Random) -> list:
    w = _letters(rng, rng.randint(20, 60))
    v = _letters(rng, rng.randint(20, 60))
    rw, rv = ref.reduce_letters(w), ref.reduce_letters(v)
    tw, tv = ref.format_letters(w), ref.format_letters(v)
    return [
        (["reduce", tw], ("out", ref.format_letters(rw) + "\n")),
        (["len", tw], ("out", ref.format_counts(ref.counts(rw)) + "\n")),
        (["dist", tw, tv], ("out", ref.format_counts(ref.dist_counts(rw, rv)) + "\n")),
        (["mul", tw, tv], ("out", ref.format_letters(ref.reduce_letters(w + v)) + "\n")),
    ]


def _expected_ok(expect, rc: int, out: str, err: str) -> bool:
    kind, want = expect
    if kind == "error":
        lines = err.splitlines()
        return rc == want and out == "" and bool(lines) and "error:" in lines[-1]
    if rc != 0 or err:
        return False
    if kind == "out":
        return out == want
    if kind == "json":
        return json.loads(out) == want
    lines = out.splitlines()
    if kind == "dot":
        return lines[0] == "digraph ball {" and lines[-1] == "}" and len(lines) == 2 * want + 1
    matches = [_DEMO_LINE.fullmatch(line) for line in lines]  # demo: a fresh edge letter a_k at depth k
    return len(lines) == want and all(m and m.group(1) == m.group(3) == str(k)
                                      for k, m in enumerate(matches, 1))


class State:
    # Each call is timed by its process's CPU time.  On an idle host that
    # equals the call's latency; it leaves out the time the process waits
    # while other tenants of a shared host hold the CPU, which swings the
    # latency of a call by a third from minute to minute.
    clock = staticmethod(children_cpu_ns)

    def __init__(self, seed: int, size: str):
        t0 = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        calls = README + _seeded(Random(f"cli:{seed}")) + MALFORMED
        Random(f"cli-order:{seed}").shuffle(calls)
        if SIZES[size] is not None:
            calls = calls[:SIZES[size]]
        self.calls = calls
        self.gen_s = perf_counter() - t0
        # Warm the page cache and the bytecode cache once, so every timed
        # call sees the steady cold start a user sees, not a first-ever one.
        self.call(["--help"])
        self.samples = {"calls_per_round": len(calls), "known_defects": sorted(" ".join(k) for k in KNOWN_DEFECTS)}

    def call(self, argv: list):
        """Run one CLI process to completion; return (exit code, stdout, stderr)."""
        try:
            proc = subprocess.run([sys.executable, "-m", "bigfree", *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {CALL_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    def round_ops(self) -> list:
        return [("cli.call", self.call, (argv,)) for argv, _ in self.calls]

    def check(self, ops: list, results: list) -> list:
        out = []
        for (argv, expect), r in zip(self.calls, results):
            rc, stdout, stderr = (None, "", repr(r)) if isinstance(r, Raised) else r
            try:
                ok = (rc in (0, 1, 2) and "Traceback" not in stderr + stdout
                      and _expected_ok(expect, rc, stdout, stderr))
            except ValueError:  # output that is not the expected JSON
                ok = False
            if ok:
                out.append(None)
            else:
                known = "known defect: " if tuple(argv) in KNOWN_DEFECTS else ""
                tail = (stderr.strip().splitlines() or [""])[-1]
                out.append(f"{known}bigfree {argv!r} exit {rc}: {tail[:200]}")
        return out

    def probes(self) -> dict:
        """cli.interp_ms, cli.import_ms (fastest of a few processes each) and cli.main_us."""
        def spawn_ms(*args):
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = perf_counter_ns()
                subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                               capture_output=True, timeout=CALL_TIMEOUT_S, check=True)
                times.append((perf_counter_ns() - t0) / 1e6)
            return min(times)

        interp = spawn_ms("-c", "pass")
        imported = spawn_ms("-c", "import bigfree.cli")
        from bigfree.cli import main

        times = []
        for argv, _ in self.calls:
            sink = io.StringIO()
            t0 = perf_counter_ns()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    main(argv)
                except (SystemExit, Exception):  # usage errors exit; a known defect raises
                    pass
            times.append((perf_counter_ns() - t0) / 1e3)
        return {"cli.interp_ms": interp, "cli.import_ms": imported - interp, "cli.main_us": median(times)}
