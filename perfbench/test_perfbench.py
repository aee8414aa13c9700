"""The benchmark's own test: every workload at tiny size, and checks that can fail.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from bigfree import LexVector, suite  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def one_round(workload: str):
    state, _ = run.make_state(workload, 0, "tiny")
    phase = run.Phase(state)
    phase.round(traced=False)
    return phase


def test_spec_lists_the_workloads_and_metrics_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units(run.suite_entries())
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_workload_reports_every_metric(workload, trace):
    code, out, err = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
                           "--size", "tiny")
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(out.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["samples"]
    assert provenance["host_loop_ms"] > 0
    if trace == "0":
        assert set(provenance["unscaled"]) == set(result["metrics"])
        assert (provenance["scale"] == 1.0) == (workload == "cli")
    assert set(provenance["primitives_us"]) == set(run.PRIMITIVES)


def test_clean_rounds_pass():
    for workload in ("geometry", "words-text", "suite"):
        phase = one_round(workload)
        assert phase.attempted > 0 and phase.failures == [], workload


def test_wrong_gromov_product_fails_geometry(monkeypatch):
    import geometry

    right = geometry.double_gromov
    monkeypatch.setattr(geometry, "double_gromov", lambda g, h: right(g, h) + LexVector.unit(1))
    phase = one_round("geometry")
    assert phase.failures and all(f.startswith("words.double_gromov") for f in phase.failures)


def test_wrong_reduction_fails_words_text(monkeypatch):
    import words_text

    monkeypatch.setattr(words_text, "reduce", lambda w: w)
    phase = one_round("words-text")
    assert phase.failures and all(f.startswith("words.reduce") for f in phase.failures)


def test_failing_and_vacuous_properties_fail_suite(monkeypatch):
    def vacuous(rec, rng, samples):
        pass

    def failing(rec, rng, samples):
        rec.expect(False, "injected")

    registry = [("words", "vacuous", vacuous), ("words", "failing", failing), *suite.PROPERTIES[:2]]
    monkeypatch.setattr(suite, "PROPERTIES", registry)
    phase = one_round("suite")
    assert phase.failures == ["suite.words.vacuous ran 0 checks", "suite.words.failing failed: injected"]


def test_wrong_output_and_tracebacks_fail_cli(monkeypatch):
    import cli_calls

    state, _ = run.make_state("cli", 0, "tiny")
    right = state.call
    monkeypatch.setattr(state, "call", lambda argv: (lambda rc, out, err: (rc, out + "x", err))(*right(argv)))
    phase = run.Phase(state)
    phase.round(traced=False)
    assert len(phase.failures) == phase.attempted

    argv, expect = cli_calls.MALFORMED[0]
    state.calls = [(argv, expect)]
    traceback = (1, "", "Traceback (most recent call last):\nValueError: boom\n")
    assert state.check([], [traceback]) == [f"bigfree {argv!r} exit 1: ValueError: boom"]
    assert state.check([], [(3, "", "error: odd exit code\n")])[0] is not None


def test_unexpected_failure_exits_nonzero(monkeypatch, capsys):
    import geometry

    monkeypatch.setattr(geometry, "half_exact", lambda x: x)
    assert run.main(["--workload", "geometry", "--seconds", "0.1", "--size", "tiny"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out, err = bench("--workload", "geometry", "--seed", "1", "--seconds", "1", "--trace", "0",
                           cwd=tmp_path)
    assert code != 0 and out == "" and "no library" in err
