"""Acceptance criteria: exact (tolerance-zero) checks at full sample counts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (criterion 11 additionally prints its comparison report).
"""

import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from bigfree.cayley import cayley_act, cayley_dist, embed_compare
from bigfree.ordered_abelian import LexVector, TOP, ZERO
from bigfree.sampling import (
    enumerate_reduced_words,
    random_cayley_point,
    random_edge_triple,
    random_offset_inside,
    random_reduced_word,
    random_tree_point,
    random_word,
)
from bigfree.suite import (
    confluence_trial,
    exhaustive_triangle_violations,
    exhaustive_two_smallest_violations,
    pair_tables,
    two_smallest_equal,
)
from bigfree.topology import difference_word, uses_only_letters_above
from bigfree.tree import point_eq, tree_act, tree_dist, word_point
from bigfree.triples import (
    CirclePoint,
    EdgeTriple,
    act_triple,
    circle_dist,
    from_triple,
    orbit_witness,
    project,
    to_triple,
    top_edge_instability,
    triple_dist_report,
)
from bigfree.words import (
    IDENTITY,
    Word,
    double_gromov,
    format_word,
    length_vector,
    multiply,
    parse_word,
)

SAMPLES = 10_000


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d} PASS: {text}")


def test_criterion_01_unique_reduced_form():
    rng = Random("acceptance-1")
    start = time.time()
    for _ in range(SAMPLES):
        w = random_word(rng, 40, 8)
        message = confluence_trial(rng, w, 5)
        assert message is None, message
    elapsed = time.time() - start
    assert elapsed < 10.0, f"confluence run took {elapsed:.1f} s"
    report(1, f"{SAMPLES} words x 5 cancellation sequences converge to one reduced form "
              f"({elapsed:.1f} s)")


def test_criterion_02_zero_hyperbolicity():
    rng = Random("acceptance-2")
    for _ in range(SAMPLES):
        w = random_reduced_word(rng, 40, 8)
        v = random_reduced_word(rng, 40, 8)
        u = random_reduced_word(rng, 40, 8)
        assert two_smallest_equal(
            double_gromov(w, v), double_gromov(w, u), double_gromov(v, u)
        ), f"triple ({format_word(w)!r}, {format_word(v)!r}, {format_word(u)!r})"
    words = enumerate_reduced_words(4, 3)
    _, two_c = pair_tables(words, 3)
    bad = exhaustive_two_smallest_violations(two_c)
    assert bad == 0, f"{bad} exhaustive violations"
    report(2, f"{SAMPLES} random triples and all {len(words)}^3 small-word triples 0-hyperbolic")


def _metric_triple_ok(d, p, q, r) -> bool:
    return (
        d(p, q) == d(q, p)
        and d(p, p) == ZERO
        and d(p, q) >= ZERO
        and d(p, r) <= d(p, q) + d(q, r)
    )


def test_criterion_03_metric_axioms():
    rng = Random("acceptance-3")
    for _ in range(SAMPLES):
        w, v, u = (random_reduced_word(rng, 40, 8) for _ in range(3))
        from bigfree.words import word_dist

        assert _metric_triple_ok(word_dist, w, v, u)
        if w != v:
            assert word_dist(w, v) > ZERO
    for _ in range(SAMPLES):
        p, q, r = (random_tree_point(rng) for _ in range(3))
        assert _metric_triple_ok(tree_dist, p, q, r)
        assert (tree_dist(p, q) == ZERO) == point_eq(p, q)
    for _ in range(SAMPLES):
        x, y, z = (random_cayley_point(rng) for _ in range(3))
        assert _metric_triple_ok(cayley_dist, x, y, z)
        if x != y:
            assert cayley_dist(x, y) > ZERO
    for _ in range(SAMPLES):
        i = rng.randint(1, 4)
        j = rng.choice((i, rng.randint(1, 4)))
        x = CirclePoint(i, random_offset_inside(rng, i))
        y = CirclePoint(i, random_offset_inside(rng, i))
        z = CirclePoint(j, random_offset_inside(rng, j))
        assert _metric_triple_ok(circle_dist, x, y, z)
        assert (circle_dist(x, y) == ZERO) == (x == y)
    # the exhaustive small-word triangle inequality, exact over encoded keys
    words = enumerate_reduced_words(4, 3)
    dist, _ = pair_tables(words, 3)
    assert exhaustive_triangle_violations(dist) == 0
    report(3, f"word/tree/graph/circle metrics pass symmetry, definiteness and the exact "
              f"triangle inequality on {SAMPLES} samples each")


def test_criterion_04_isometric_actions():
    rng = Random("acceptance-4")
    for _ in range(SAMPLES):
        h = random_reduced_word(rng, 12, 5)
        p = random_tree_point(rng)
        q = random_tree_point(rng)
        assert tree_dist(tree_act(h, p), tree_act(h, q)) == tree_dist(p, q)
        h2 = random_reduced_word(rng, 10, 5)
        assert point_eq(tree_act(IDENTITY, p), p)
        assert point_eq(tree_act(h, tree_act(h2, p)), tree_act(multiply(h, h2), p))
        if h.letters:
            assert not point_eq(tree_act(h, p), p)  # free
            v = random_reduced_word(rng, 8, 5)
            idx = rng.randint(1, 5)
            sign = rng.choice((1, -1))
            va = multiply(v, Word(((idx, sign),)))
            swapped = point_eq(tree_act(h, word_point(v)), word_point(va)) and \
                point_eq(tree_act(h, word_point(va)), word_point(v))
            assert not swapped  # without inversions
    for _ in range(SAMPLES):
        u = random_reduced_word(rng, 10, 5)
        v = random_reduced_word(rng, 10, 5)
        x = random_cayley_point(rng)
        y = random_cayley_point(rng)
        assert cayley_dist(cayley_act(u, x), cayley_act(u, y)) == cayley_dist(x, y)
        assert cayley_act(IDENTITY, x) == x
        assert cayley_act(u, cayley_act(v, x)) == cayley_act(multiply(u, v), x)
    report(4, f"tree and graph actions isometric with group laws, freeness and no "
              f"inversions on {SAMPLES} samples each")


def test_criterion_05_triple_canonicalization():
    rng = Random("acceptance-5")
    for _ in range(SAMPLES):
        p = random_tree_point(rng)
        assert point_eq(from_triple(to_triple(p)), p)
        e = random_edge_triple(rng)
        assert to_triple(from_triple(e)) == e
        u = random_reduced_word(rng, 10, 5)
        assert point_eq(from_triple(act_triple(u, e)), tree_act(u, from_triple(e)))
    report(5, f"edge-coordinate round trips and action equivariance hold on {SAMPLES} "
              f"points and {SAMPLES} triples")


def test_criterion_06_non_geodesicity_witness():
    gap = LexVector([(1, 1), (2, -1)])
    words = enumerate_reduced_words(4, 4)
    for w in words:
        lv = length_vector(w)
        assert all(value >= 0 for _, value in lv.entries)
        assert lv != gap
    report(6, f"all {len(words)} reduced words of length <= 4 over 4 generators have "
              f"componentwise-nonnegative length; none realizes the gap value [1,-1]")


def test_criterion_07_quotient_structure():
    rng = Random("acceptance-7")
    for _ in range(SAMPLES):
        e = random_edge_triple(rng)
        u = random_reduced_word(rng, 10, 5)
        moved = act_triple(u, e)
        assert project(moved) == project(e)
        witness = orbit_witness(e, moved)
        assert witness is not None and act_triple(witness, e) == moved
    # 100-point grid per circle, hit by triples based at the identity
    for index in (1, 2, 3, 4):
        grid = []
        for j in range(1, 6):
            for c in range(1, 11):
                grid.append(LexVector.unit(index + j, c))
                grid.append(LexVector.unit(index) - LexVector.unit(index + j, c))
        assert len(grid) == 100
        for s in grid:
            assert project(EdgeTriple(IDENTITY, index, 1, s)) == CirclePoint(index, s)
    # wedge formula cross-checks
    for _ in range(2000):
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        x = CirclePoint(i, random_offset_inside(rng, i))
        y = CirclePoint(j, random_offset_inside(rng, j))
        if i == j:
            gap = abs(x.s - y.s)
            assert circle_dist(x, y) == min(gap, LexVector.unit(i) - gap)
        else:
            assert circle_dist(x, y) == (
                min(x.s, LexVector.unit(i) - x.s) + min(y.s, LexVector.unit(j) - y.s))
    report(7, f"projection orbit-invariant with constructive witnesses on {SAMPLES} "
              f"samples; 4 circles surjective over 100-point grids; wedge formula matches")


def test_criterion_08_omega_plus_one_example():
    start = time.time()
    rows = top_edge_instability(20)
    for k, w, coords in rows:
        assert isinstance(coords, EdgeTriple)
        assert coords.edge_letter() == (k, 1)
        assert coords.w == IDENTITY
        assert coords.t == LexVector.unit(TOP)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(8, f"canonical edge letter at depth k is a_k for k = 1..20, never stabilizing "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_09_embedding_remark():
    rng = Random("acceptance-9")
    t_grid = [Fraction(k, 100) for k in range(101)]
    for _ in range(100):
        w = random_reduced_word(rng, 12, 6)
        index = rng.randint(1, 6)
        rep = embed_compare(w, index, t_grid=t_grid)
        assert rep.t_count == 101
        assert rep.endpoints_only(), f"extra coincidences on ({format_word(w)!r}, a{index})"
    report(9, "graph-edge and lattice-edge embeddings meet only at the endpoints for "
              "100 random edges over 101-point grids")


def test_criterion_10_topology_inclusions():
    words = enumerate_reduced_words(3, 5)
    assert len(words) == 911
    thresholds = (1, 2, 3, 4)
    eps_families = {
        a: (
            LexVector.unit(a),
            LexVector.unit(a, 2),
            LexVector.unit(a) - LexVector.unit(a + 2, 3),
            LexVector.unit(a) + LexVector.unit(a + 1, -1),
        )
        for a in thresholds
    }
    checked = 0
    for w in words:
        for v in words:
            u = difference_word(w, v)
            ulen = length_vector(u)
            for a in thresholds:
                # metric ball of radius e_a inside the letter ball at a
                if ulen < LexVector.unit(a):
                    assert uses_only_letters_above(u, a), (w, v, a)
                # letter ball at the successor inside every matching metric ball
                if uses_only_letters_above(u, a + 1):
                    for eps in eps_families[a]:
                        assert ulen < eps, (w, v, a, eps)
                checked += 1
    report(10, f"both ball inclusions hold exhaustively over {len(words)}^2 word pairs, "
               f"thresholds 1..4 ({checked} checks)")


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
    proc = subprocess.run(
        [sys.executable, "-m", "bigfree", "suite"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.time() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 failed" in proc.stdout
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    report(12, f"full property suite (default samples) green in {elapsed:.1f} s")
