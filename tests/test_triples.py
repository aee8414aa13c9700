"""Edge coordinates: extraction, uniqueness, action, distance, quotient."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bigfree.ordered_abelian import BigFreeError, LexVector, ResourceLimitError, TOP, ZERO
from bigfree.sampling import (
    random_edge_triple,
    random_offset_inside,
    random_reduced_word,
    random_tree_point,
)
from bigfree.cayley import CayleyPoint
from bigfree.tree import BASEPOINT, TreePoint, point_eq, tree_act, tree_dist
from bigfree.triples import (
    CirclePoint,
    EdgeTriple,
    WEDGE,
    act_triple,
    circle_dist,
    format_circle_point,
    format_triple,
    from_triple,
    orbit_witness,
    parse_circle_point,
    parse_triple,
    project,
    simplified_triple_dist,
    to_triple,
    top_edge_instability,
    triple_dist,
    triple_dist_report,
)
from bigfree.words import IDENTITY, Word, length_vector, multiply, subwords

from helpers import W, vec


def oracle_canonical_forms(p: TreePoint):
    """Every canonical representation of p, by exhausting all candidates.

    Candidates: each prefix v with L(v) = n (degenerate word form), and each
    prefix v with next letter a^q and offset n - L(v) strictly inside
    (0, L(a)).  Uniqueness of the combinatorial representation means exactly
    one candidate survives.
    """
    hits = []
    prefixes = subwords(p.g)
    for i, v in enumerate(prefixes):
        lv = length_vector(v)
        if lv == p.n:
            hits.append(v)
        if i < len(p.g.letters):
            idx, sign = p.g.letters[i]
            t = p.n - lv
            if ZERO < t < LexVector.unit(idx):
                hits.append(EdgeTriple(v, idx, sign, t))
    return hits


def test_to_triple_examples():
    w = W("a2 a1 a3^-1")
    assert to_triple(TreePoint(ZERO, w)) == IDENTITY
    assert to_triple(TreePoint(vec(1, 1), W("a1 a2 a3"))) == W("a1 a2")
    e = to_triple(TreePoint(vec(1), W("a2 a1")))
    assert e == EdgeTriple(W("a2"), 1, 1, vec(1, -1))


def test_to_triple_matches_exhaustive_candidate_search():
    rng = Random(107)
    for _ in range(400):
        p = random_tree_point(rng, 8, 4)
        hits = oracle_canonical_forms(p)
        assert len(hits) == 1, f"non-unique canonical form for {p}"
        assert to_triple(p) == hits[0]


def test_to_triple_first_prefix_tie_breaks_toward_shorter_words():
    # the exact-length prefix must win even when it ends in a later letter
    p = TreePoint(vec(1, 1), W("a1 a2 a2 a1"))
    assert to_triple(p) == W("a1 a2")


def first_prefix_triple(p: TreePoint):
    """Reference extraction: a lexicographic compare of each prefix, shortest first."""
    if p.n.is_zero():
        return IDENTITY
    prefixes = subwords(p.g)
    for base, prefix in zip(prefixes, prefixes[1:]):
        rel = length_vector(prefix).compare(p.n)
        if rel == 0:
            return prefix
        if rel > 0:
            idx, sign = prefix.letters[-1]
            return EdgeTriple(base, idx, sign, p.n - length_vector(base))
    raise AssertionError("offset beyond L(g)")


_LONG_LETTERS = [(idx, sign) for idx in (1, 2, 3, 4, 5, TOP) for sign in (1, -1)]
_TAIL = st.fractions(-3, 3, max_denominator=3)


@st.composite
def long_tree_points(draw):
    """Points on reduced words of 500+ letters over a1..a5 and b.

    The offset reaches a random prefix, then goes part of the way into the
    next edge: a Fraction at the edge letter plus lower-order coordinates,
    TOP among them.
    """
    letters = []
    for lt in draw(st.lists(st.sampled_from(_LONG_LETTERS), min_size=500, max_size=600)):
        if letters and lt == (letters[-1][0], -letters[-1][1]):
            lt = letters[-1]  # repeat instead of cancelling, so the word stays reduced
        letters.append(lt)
    g = Word._make(tuple(letters), True)
    cut = draw(st.integers(0, len(letters)))
    n = length_vector(Word._make(g.letters[:cut], True))
    if cut < len(letters):
        idx = letters[cut][0]
        lower = [] if idx == TOP else [(idx + 1, draw(_TAIL)), (TOP, draw(_TAIL))]
        extra = LexVector([(idx, draw(st.fractions(0, 1, max_denominator=7)))] + lower)
        if ZERO < extra < LexVector.unit(idx):
            n = n + extra
    return TreePoint(n, g)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(long_tree_points())
def test_to_triple_matches_first_prefix_scan_on_long_words(p):
    assert to_triple(p) == first_prefix_triple(p)


def test_from_triple_examples():
    assert point_eq(from_triple(IDENTITY), TreePoint(ZERO, IDENTITY))
    p = from_triple(EdgeTriple(W("a2"), 1, 1, vec(1, -1)))
    assert p.n == vec(1) and p.g == W("a2 a1")
    with pytest.raises(BigFreeError):
        EdgeTriple(IDENTITY, 1, 1, vec(1))  # t must stay below L(a1)
    with pytest.raises(BigFreeError):
        EdgeTriple(IDENTITY, 1, 1, ZERO)  # degenerate offsets use the word form
    with pytest.raises(BigFreeError):
        EdgeTriple(W("a1^-1"), 1, 1, vec(0, 1))  # base ends in the inverse letter
    with pytest.raises(BigFreeError, match="edge sign"):
        EdgeTriple(IDENTITY, 1, 2, vec(0, 1))
    with pytest.raises(BigFreeError, match="reduced"):
        from_triple(W("a1 a1^-1"))  # a bare word names a point only when reduced


def test_act_triple_examples():
    e = EdgeTriple(W("a2"), 1, 1, vec(1, -2))
    assert act_triple(IDENTITY, e) == e
    moved = act_triple(W("a2"), EdgeTriple(IDENTITY, 1, 1, vec(0, 3)))
    assert moved == EdgeTriple(W("a2"), 1, 1, vec(0, 3))
    flipped = act_triple(W("a1"), EdgeTriple(IDENTITY, 1, -1, vec(0, 1)))
    assert flipped == EdgeTriple(IDENTITY, 1, 1, vec(1, -1))


def test_act_triple_equivariant_with_tree_action():
    rng = Random(127)
    for _ in range(400):
        u = random_reduced_word(rng, 8, 4)
        e = random_edge_triple(rng, 8, 4)
        assert point_eq(from_triple(act_triple(u, e)), tree_act(u, from_triple(e)))
        w = random_reduced_word(rng, 8, 4)
        assert act_triple(u, w) == multiply(u, w)


def test_triple_dist_examples():
    t, s = vec(0, 2), vec(0, 0, 3)
    same_edge = triple_dist(EdgeTriple(IDENTITY, 1, 1, t), EdgeTriple(IDENTITY, 1, 1, s))
    assert same_edge == abs(t - s)
    sibling = triple_dist(EdgeTriple(IDENTITY, 1, 1, vec(0, 1)),
                          EdgeTriple(IDENTITY, 2, 1, vec(0, 0, 1)))
    assert sibling == vec(0, 1, 1)
    nested = triple_dist_report(EdgeTriple(IDENTITY, 1, 1, vec(0, 1)),
                                EdgeTriple(W("a1"), 2, 1, vec(0, 0, 1)))
    assert nested.exact == vec(1, -1, 1)
    assert nested.simplified == vec(1, 1, 1)
    assert nested.agrees is False


def test_triple_dist_report_shapes():
    rng = Random(131)
    agree_same_edge = agree_sibling = flagged = 0
    for _ in range(300):
        e1 = random_edge_triple(rng, 6, 3)
        e2 = random_edge_triple(rng, 6, 3)
        report = triple_dist_report(e1, e2)
        assert report.exact == tree_dist(from_triple(e1), from_triple(e2))
        assert report.agrees == (report.simplified == report.exact)
        if (e1.w, e1.index, e1.sign) == (e2.w, e2.index, e2.sign):
            assert report.agrees
            agree_same_edge += 1
        elif not report.agrees:
            flagged += 1
    # same-edge comparison is exercised explicitly too
    e = random_edge_triple(rng, 6, 3)
    f = EdgeTriple(e.w, e.index, e.sign, random_offset_inside(rng, e.index))
    assert triple_dist_report(e, f).agrees
    report = triple_dist_report(IDENTITY, random_edge_triple(rng, 6, 3))
    assert report.simplified is None and report.agrees is None
    assert flagged > 0  # nested configurations occur and are flagged


def test_simplified_formula_agrees_on_siblings():
    rng = Random(137)
    for _ in range(200):
        w = random_reduced_word(rng, 6, 3)
        i1, i2 = 1 + (len(w.letters) % 3), 2 + (len(w.letters) % 2)
        try:
            e1 = EdgeTriple(w, i1, 1, random_offset_inside(rng, i1))
            e2 = EdgeTriple(w, i2, -1, random_offset_inside(rng, i2))
        except BigFreeError:
            continue  # w happens to end in a colliding letter
        if (e1.index, e1.sign) == (e2.index, e2.sign):
            continue
        assert simplified_triple_dist(e1, e2) == triple_dist(e1, e2)


# -- quotient -----------------------------------------------------------------------

def test_project_examples():
    assert project(EdgeTriple(W("a3"), 1, 1, vec(0, 2))) == CirclePoint(1, vec(0, 2))
    assert project(EdgeTriple(IDENTITY, 1, -1, vec(0, 1))) == CirclePoint(1, vec(1, -1))
    e = EdgeTriple(IDENTITY, 1, -1, vec(0, 1))
    assert project(act_triple(W("a1"), e)) == project(e) == CirclePoint(1, vec(1, -1))
    assert orbit_witness(W("a1"), W("a2")) == W("a2 a1^-1")
    assert orbit_witness(W("a1"), e) is None and orbit_witness(e, IDENTITY) is None
    with pytest.raises(BigFreeError, match="reduced"):
        project(W("a1 a1^-1"))
    for x in (CayleyPoint(IDENTITY, 1, 1, Fraction(1, 2)), BASEPOINT):  # only tree edge points project
        with pytest.raises(BigFreeError, match="^project takes an edge triple or a reduced word, not a "):
            project(x)


def test_words_all_project_to_the_wedge():
    rng = Random(149)
    for _ in range(100):
        w = random_reduced_word(rng, 8, 4)
        assert project(w) == WEDGE
        assert project(w) == project(IDENTITY)


def test_circle_dist_examples():
    x = CirclePoint(1, vec(0, 3))
    assert circle_dist(x, x) == ZERO
    assert circle_dist(CirclePoint(1, ZERO), x) == vec(0, 3)
    assert circle_dist(CirclePoint(1, vec(1, -1)), CirclePoint(1, ZERO)) == vec(0, 1)


def test_circle_dist_across_circles_is_the_wedge_sum():
    x = CirclePoint(1, vec(0, 2))
    y = CirclePoint(2, vec(0, 1, -4))
    to_wedge_x = min(x.s, LexVector.unit(1) - x.s)
    to_wedge_y = min(y.s, LexVector.unit(2) - y.s)
    assert circle_dist(x, y) == to_wedge_x + to_wedge_y
    assert circle_dist(x, y) == circle_dist(y, x)
    assert circle_dist(x, CirclePoint(2, ZERO)) == to_wedge_x
    assert circle_dist(CirclePoint(3, ZERO), y) == to_wedge_y


def test_circle_dist_is_invariant_under_endpoint_swap():
    # replacing s by L(a) - s on both arguments mirrors the circle
    rng = Random(151)
    for _ in range(200):
        i = rng.randint(1, 3)
        unit = LexVector.unit(i)
        s, t = random_offset_inside(rng, i), random_offset_inside(rng, i)
        assert circle_dist(CirclePoint(i, s), CirclePoint(i, t)) == \
            circle_dist(CirclePoint(i, unit - s), CirclePoint(i, unit - t))


def test_wedge_points_identified_across_circles():
    assert CirclePoint(1, ZERO) == CirclePoint(5, ZERO)
    assert hash(CirclePoint(1, ZERO)) == hash(CirclePoint(5, ZERO))


# -- the omega+1 phenomenon -----------------------------------------------------------

def test_top_edge_instability_uses_a_fresh_letter_each_depth():
    rows = top_edge_instability(20)
    assert len(rows) == 20
    for k, w, coords in rows:
        assert len(w.letters) == k
        assert isinstance(coords, EdgeTriple)
        assert coords.edge_letter() == (k, 1)
        assert coords.w == IDENTITY
        assert coords.t == LexVector.unit(TOP)


def test_top_edge_instability_refuses_rows_past_the_word_letter_cap():
    # the rows hold depth(depth+1)/2 letters: 998,991 at depth 1413, 1,000,405 at 1414
    for depth in (1414, 100_000):
        with pytest.raises(ResourceLimitError, match="exceed 1000000 letters"):
            top_edge_instability(depth)


def test_top_edge_instability_table_is_unchanged():
    rows = [(k, str(w), format_triple(e)) for k, w, e in top_edge_instability(8)]
    assert rows == [
        (k, " ".join(f"a{i}" for i in range(k, 0, -1)), f"( ; a{k}^1 ; [;TOP=1])")
        for k in range(1, 9)
    ]


def test_the_instability_rows_read_back_as_the_points_they_name():
    for k, w, coords in top_edge_instability(20):
        read = parse_triple(format_triple(coords))
        assert read == coords
        assert point_eq(from_triple(read), TreePoint(LexVector.unit(TOP), w))  # <L(b), a_k ... a_1>


def test_top_edge_has_no_interior_lattice_points():
    with pytest.raises(BigFreeError):
        EdgeTriple(IDENTITY, TOP, 1, vec(0, 1))


# -- text forms ------------------------------------------------------------------------

def test_triple_text_roundtrip():
    e = EdgeTriple(W("a2"), 1, 1, vec(1, -1))
    assert format_triple(e) == "(a2 ; a1^1 ; [1,-1])"
    assert parse_triple(format_triple(e)) == e
    assert parse_triple("a1 a2") == W("a1 a2")
    assert format_triple(W("a1 a2")) == "a1 a2"


def test_circle_point_text_roundtrip():
    x = CirclePoint(3, vec(0, 0, 0, 2))
    assert format_circle_point(x) == "C(a3) @ [0,0,0,2]"
    assert parse_circle_point(format_circle_point(x)) == x
