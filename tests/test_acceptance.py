"""Acceptance criteria: exact (tolerance-zero) checks at full sample counts.

Each criterion runs the registry properties of ``bigfree.suite`` for its law
through ``suite.run_property`` on one generator seeded by its own label
(``acceptance-N``) and asserts each result ``ok`` (at least one check, no
failure), showing the recorder's messages otherwise.  It keeps a loop of its
own only where the registry draws narrower inputs or has no such law.

Criterion 12 runs the default ``bigfree suite`` and compares its standard
output byte for byte with ``tests/golden/suite_default.txt``.  Regenerate
that file (``python -m bigfree suite > tests/golden/suite_default.txt``)
only for a change meant to alter the suite's output, and say so.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (criterion 11 additionally prints its comparison report).
"""

import os
import subprocess
import sys
import time
from random import Random

import numpy as np
import pytest

import sweeps
from bigfree import suite
from bigfree.cayley import embed_compare
from bigfree.ordered_abelian import LexVector, ZERO
from bigfree.sampling import (enumerate_reduced_words, random_edge_triple, random_offset_inside,
                              random_reduced_word, random_tree_point, random_word)
from bigfree.tree import point_eq, tree_act, tree_dist, ultrametric_violation
from bigfree.triples import CirclePoint, EdgeTriple, circle_dist, triple_dist_report
from bigfree.words import IDENTITY, format_word, multiply, parse_word

SAMPLES = 10_000
SUITE_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "suite_default.txt")
REGISTRY = {f"{module}/{name}": (module, name, fn) for module, name, fn in suite.PROPERTIES}


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d} PASS: {text}")


def run_checks(rng: Random, samples: int, *properties) -> list:
    """Run registry properties (by ``module/name``) or local ``fn(rec, rng, samples)``
    properties in order on one generator; assert each is ok and return the results."""
    results = []
    for prop in properties:
        entry = REGISTRY[prop] if isinstance(prop, str) else ("acceptance", prop.__name__, prop)
        result = suite.run_property(entry, rng, samples)
        assert result.ok, "\n".join(
            [f"{result.module}/{result.name}: {result.checks} checks", *result.failures])
        results.append(result)
    return results


@pytest.fixture(scope="module")
def small_word_tables():
    """Pair keys over the 937 reduced words of length <= 4 on 3 generators (criteria 2, 3)."""
    words = enumerate_reduced_words(4, 3)
    assert len(words) == 937
    return sweeps.pair_tables(words, 3)


def test_criterion_01_unique_reduced_form():
    rng = Random("acceptance-1")
    start = time.time()
    for _ in range(SAMPLES):
        w = random_word(rng, 40, 8)
        message = suite.confluence_trial(rng, w, 5)
        assert message is None, message
    elapsed = time.time() - start
    assert elapsed < 10.0, f"confluence run took {elapsed:.1f} s"
    report(1, f"{SAMPLES} words x 5 cancellation sequences converge to one reduced form "
              f"({elapsed:.1f} s)")


def test_criterion_02_zero_hyperbolicity(small_word_tables):
    run_checks(Random("acceptance-2"), SAMPLES, "words/zero-hyperbolicity-random")
    _, two_c = small_word_tables
    bad = sweeps.exhaustive_two_smallest_violations(two_c)
    assert bad == 0, f"{bad} exhaustive violations"
    assert ultrametric_violation(two_c.tolist()) is None  # the quadratic certificate agrees with the sweep
    report(2, f"{SAMPLES} random triples and all {len(two_c)}^3 small-word triples 0-hyperbolic")


def _tree_metric(rec, rng, samples):
    for _ in range(samples):
        p, q, r = (random_tree_point(rng) for _ in range(3))
        suite._metric_axiom_failures(tree_dist, (p, q, r), rec, "tree_dist")
        rec.expect((tree_dist(p, q) == ZERO) == point_eq(p, q), "tree_dist: definiteness fails")


def _circle_metric(rec, rng, samples):
    for _ in range(samples):
        i = rng.randint(1, 4)
        j = rng.choice((i, rng.randint(1, 4)))
        x, y, z = (CirclePoint(k, random_offset_inside(rng, k)) for k in (i, i, j))
        suite._metric_axiom_failures(circle_dist, (x, y, z), rec, "circle_dist")
        rec.expect((circle_dist(x, y) == ZERO) == (x == y), "circle_dist: definiteness fails")


def test_criterion_03_metric_axioms(small_word_tables):
    run_checks(Random("acceptance-3"), SAMPLES, "words/metric-axioms-random", _tree_metric,
               "cayley/metric-axioms", _circle_metric)
    dist, two_c = small_word_tables
    assert sweeps.exhaustive_triangle_violations(dist) == 0
    # the certificate proves the same law: the table is 2c = L_i + L_j - d with a zero
    # diagonal only (words[0] is the identity, so L_i = d(0, i))
    lengths = dist[0]
    assert ((dist == 0) == np.eye(len(dist), dtype=bool)).all()
    assert (two_c == lengths[:, None] + lengths[None, :] - dist).all()
    assert ultrametric_violation(two_c.tolist()) is None
    report(3, f"word/tree/graph/circle metrics pass symmetry, definiteness and the exact "
              f"triangle inequality on {SAMPLES} samples each")


def _tree_action_laws(rec, rng, samples):
    # tree/action-laws composes words of at most 10 letters; h here has up to 12
    for _ in range(samples):
        h = random_reduced_word(rng, 12, 5)
        h2 = random_reduced_word(rng, 10, 5)
        p = random_tree_point(rng)
        rec.expect(point_eq(tree_act(IDENTITY, p), p), "identity moves a point")
        rec.expect(point_eq(tree_act(h, tree_act(h2, p)), tree_act(multiply(h, h2), p)),
                   lambda: f"composition law fails for {format_word(h)!r}, {format_word(h2)!r}")


def test_criterion_04_isometric_actions():
    run_checks(Random("acceptance-4"), SAMPLES, "tree/isometric-action", _tree_action_laws,
               "tree/action-free", "tree/no-inversions", "cayley/isometric-action")
    report(4, f"tree and graph actions isometric with group laws, freeness and no "
              f"inversions on {SAMPLES} samples each")


def test_criterion_05_triple_canonicalization():
    run_checks(Random("acceptance-5"), SAMPLES, "triples/round-trip", "triples/equivariance")
    report(5, f"edge-coordinate round trips and action equivariance hold on {SAMPLES} "
              f"points and {SAMPLES} triples")


def test_criterion_06_non_geodesicity_witness():
    run_checks(Random("acceptance-6"), SAMPLES, "words/length-nonnegative")
    report(6, f"all reduced words of length <= 4 over 4 generators and {SAMPLES} random words "
              "have componentwise-nonnegative length; none realizes the gap value [1,-1]")


def test_criterion_07_quotient_structure():
    _, grid, _ = run_checks(Random("acceptance-7"), SAMPLES, "triples/orbit-projection",
                            "triples/quotient-surjectivity", "triples/circle-metric")
    assert grid.checks == 4 * 100
    report(7, f"projection orbit-invariant with constructive witnesses on {SAMPLES} "
              f"samples; 4 circles surjective over 100-point grids; wedge formula matches")


def test_criterion_08_omega_plus_one_example():
    start = time.time()
    (result,) = run_checks(Random("acceptance-8"), SAMPLES, "triples/top-instability")
    elapsed = time.time() - start
    assert result.checks == 20
    assert elapsed < 1.0
    report(8, f"canonical edge letter at depth k is a_k for k = 1..20, never stabilizing "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_09_embedding_remark():
    rng = Random("acceptance-9")
    for _ in range(100):
        w = random_reduced_word(rng, 12, 6)
        index = rng.randint(1, 6)
        rep = embed_compare(w, index, points=100)
        assert rep.t_count == 101
        assert rep.endpoints_only(), f"extra coincidences on ({format_word(w)!r}, a{index})"
    report(9, "graph-edge and lattice-edge embeddings meet only at the endpoints for "
              "100 random edges over 101-point grids")


def test_criterion_10_topology_inclusions():
    words = enumerate_reduced_words(3, 5)
    assert len(words) == 911
    thresholds = (1, 2, 3, 4)
    unit = LexVector.unit
    eps_families = {a: (unit(a), unit(a, 2), unit(a) - unit(a + 2, 3), unit(a) + unit(a + 1, -1))
                    for a in thresholds}

    def ball_inclusions(rec, rng, samples):
        suite.ball_inclusion_sweep(rec, words, thresholds, eps_families)

    (result,) = run_checks(Random("acceptance-10"), SAMPLES, ball_inclusions)
    assert result.checks == len(words) ** 2 * len(thresholds) * 5
    report(10, f"both ball inclusions hold exhaustively over {len(words)}^2 word pairs, "
               f"thresholds 1..4 ({result.checks} checks)")


def test_criterion_11_documented_discrepancy_report():
    t = LexVector.unit(2, 1)            # inside the a1 edge
    s = LexVector.unit(3, 1)            # inside sibling/nested edges
    same_edge = (EdgeTriple(IDENTITY, 1, 1, t), EdgeTriple(IDENTITY, 1, 1, LexVector.unit(2, 3)))
    sibling = (EdgeTriple(IDENTITY, 1, 1, t), EdgeTriple(IDENTITY, 2, 1, s))
    nested = (EdgeTriple(IDENTITY, 1, 1, t), EdgeTriple(parse_word("a1"), 2, 1, s))
    print("shortcut-formula comparison report:")
    rows = [("same-edge", same_edge, True), ("sibling-edge", sibling, True), ("nested-edge", nested, False)]
    for label, (e1, e2), expect_agree in rows:
        rep = triple_dist_report(e1, e2)
        verdict = "agrees" if rep.agrees else "DISAGREES"
        print(f"  {label:12s} exact={rep.exact}  shortcut={rep.simplified}  {verdict}")
        assert rep.agrees == expect_agree
    # the nested value itself: L(a1) - t + s, not L(a1) + t + s
    rep = triple_dist_report(*nested)
    assert rep.exact == LexVector.unit(1) - t + s
    assert rep.simplified == LexVector.unit(1) + t + s
    # scan a sample for the full disagreement set: always nested configurations
    rng = Random("acceptance-11")
    flagged = 0
    for _ in range(4000):
        e1 = random_edge_triple(rng, 6, 3)
        e2 = random_edge_triple(rng, 6, 3)
        rep = triple_dist_report(e1, e2)
        if (e1.w, e1.index, e1.sign) == (e2.w, e2.index, e2.sign):
            assert rep.agrees
        elif not rep.agrees:
            flagged += 1
    print(f"  flagged {flagged} nested-edge disagreements in 4000 random pairs")
    assert flagged > 0
    report(11, "shortcut formula agrees on same-edge and sibling-edge configurations; "
               "nested-edge disagreements flagged in the report above (not a failure)")


def test_criterion_12_full_suite_under_60s():
    start = time.time()
    proc = subprocess.run([sys.executable, "-m", "bigfree", "suite"], capture_output=True, timeout=120)
    elapsed = time.time() - start
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()
    assert b" 0 failed" in proc.stdout
    with open(SUITE_GOLDEN, "rb") as golden:
        assert proc.stdout == golden.read(), "default suite output differs from tests/golden/suite_default.txt"
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    report(12, f"full property suite (default samples) green in {elapsed:.1f} s, "
               "output byte-identical to its golden file")
