"""Tree points, metric, action, the length-function axiom checker, edge points."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, strategies as st

import bigfree.tree
from bigfree.cayley import CayleyPoint, format_cayley_point, parse_cayley_point
from bigfree.ordered_abelian import OMEGA_PLUS_ONE, TOP, BigFreeError, LexVector, ZERO
from bigfree.sampling import enumerate_reduced_words, random_reduced_word, random_tree_point
from bigfree.tree import (
    BASEPOINT,
    LengthOracle,
    TreePoint,
    bf_length_oracle,
    check_length_axioms,
    format_tree_point,
    parse_tree_point,
    point_eq,
    tree_act,
    tree_dist,
    word_point,
    y_point,
)
from bigfree.triples import EdgeTriple, format_triple, parse_triple
from bigfree.words import (
    IDENTITY,
    Word,
    inverse,
    length_vector,
    multiply,
    parse_word,
    subwords,
    word_dist,
)


def W(text):
    return parse_word(text)


def vec(*coords, top=0):
    return LexVector.from_coords(coords, top=top)


def P(vector_text_coords, word_text):
    return TreePoint(vec(*vector_text_coords), W(word_text))


# -- point identity ---------------------------------------------------------------

def test_point_eq_examples():
    assert point_eq(P((1,), "a1 a2"), P((1,), "a1 a3"))
    assert point_eq(P((1, 1), "a1 a2"), P((1, 1), "a1 a2 a3"))
    assert not point_eq(P((1,), "a1"), P((1,), "a2 a1"))


def test_point_eq_is_an_equivalence_on_samples():
    rng = Random(61)
    points = [random_tree_point(rng, 8, 3) for _ in range(60)]
    for p in points:
        assert point_eq(p, p)
    for p in points:
        for q in points:
            assert point_eq(p, q) == point_eq(q, p)
    for p in points:
        for q in points:
            if not point_eq(p, q):
                continue
            for r in points:
                if point_eq(q, r):
                    assert point_eq(p, r)


def test_point_validation():
    with pytest.raises(BigFreeError):
        TreePoint(vec(2), W("a1"))  # offset beyond the word length
    with pytest.raises(BigFreeError):
        TreePoint(-vec(1), W("a1"))
    with pytest.raises(BigFreeError):
        TreePoint(vec(1), W("a1 a1^-1"))


# -- metric -----------------------------------------------------------------------

def test_tree_dist_examples():
    p = P((1, 1), "a1 a2")
    assert tree_dist(p, p) == ZERO
    assert tree_dist(P((1, 1), "a1 a2"), P((1, 0, 1), "a1 a3")) == vec(0, 1, 1)


def test_tree_dist_restricts_to_word_dist():
    rng = Random(67)
    for _ in range(300):
        w = random_reduced_word(rng, 12, 4)
        v = random_reduced_word(rng, 12, 4)
        assert tree_dist(word_point(w), word_point(v)) == word_dist(w, v)


def test_tree_dist_zero_iff_point_eq():
    rng = Random(71)
    for _ in range(500):
        p = random_tree_point(rng, 8, 3)
        q = random_tree_point(rng, 8, 3)
        assert (tree_dist(p, q) == ZERO) == point_eq(p, q)


def test_tree_dist_metric_axioms_sampled():
    rng = Random(73)
    for _ in range(500):
        p = random_tree_point(rng)
        q = random_tree_point(rng)
        r = random_tree_point(rng)
        assert tree_dist(p, q) == tree_dist(q, p)
        assert tree_dist(p, q) >= ZERO
        assert tree_dist(p, r) <= tree_dist(p, q) + tree_dist(q, r)


def test_geodesic_alignment():
    rng = Random(79)
    for _ in range(300):
        p = random_tree_point(rng)
        assert tree_dist(BASEPOINT, p) + tree_dist(p, word_point(p.g)) == length_vector(p.g)


# -- action ------------------------------------------------------------------------

def test_tree_act_examples():
    p = P((0, 1), "a2 a3")
    assert point_eq(tree_act(IDENTITY, p), p)
    assert point_eq(tree_act(W("a1"), P((1,), "a1^-1 a2")), BASEPOINT)
    g = W("a2 a1^-1")
    h = W("a3 a1")
    assert point_eq(tree_act(h, TreePoint(ZERO, g)), word_point(h))


def test_tree_act_is_isometric_and_respects_laws():
    rng = Random(83)
    for _ in range(400):
        h1 = random_reduced_word(rng, 10, 4)
        h2 = random_reduced_word(rng, 10, 4)
        p = random_tree_point(rng)
        q = random_tree_point(rng)
        assert tree_dist(tree_act(h1, p), tree_act(h1, q)) == tree_dist(p, q)
        assert point_eq(tree_act(h1, tree_act(h2, p)), tree_act(multiply(h1, h2), p))
        assert point_eq(tree_act(IDENTITY, p), p)


def test_tree_act_well_defined_on_classes():
    # two representatives of one point must land in one point
    p1 = P((1,), "a1 a2")
    p2 = P((1,), "a1 a3")
    assert point_eq(p1, p2)
    rng = Random(89)
    for _ in range(50):
        h = random_reduced_word(rng, 8, 4)
        assert point_eq(tree_act(h, p1), tree_act(h, p2))


def test_action_free_and_without_inversions_on_samples():
    rng = Random(97)
    for _ in range(300):
        u = random_reduced_word(rng, 10, 4)
        if not u.letters:
            continue
        p = random_tree_point(rng)
        assert not point_eq(tree_act(u, p), p)
        v = random_reduced_word(rng, 8, 4)
        idx = rng.randint(1, 4)
        sign = rng.choice((1, -1))
        va = multiply(v, W(f"a{idx}" if sign > 0 else f"a{idx}^-1"))
        swaps = point_eq(tree_act(u, word_point(v)), word_point(va)) and \
            point_eq(tree_act(u, word_point(va)), word_point(v))
        assert not swaps


def test_surjectivity_preimage_formula():
    from bigfree.words import double_gromov

    rng = Random(101)
    for _ in range(300):
        h = random_reduced_word(rng, 10, 4)
        target = random_tree_point(rng)
        two_c = double_gromov(h, target.g)
        h_len = length_vector(h)
        if target.n.double() <= two_c:
            pre = TreePoint(h_len - target.n, inverse(h))
        else:
            pre = TreePoint(h_len + target.n - two_c, multiply(inverse(h), target.g))
        assert point_eq(tree_act(h, pre), target)


# -- median -----------------------------------------------------------------------

def oracle_y_point(v, x, y):
    """The unique prefix extension of v splitting all three distances additively."""
    hits = []
    for p in subwords(multiply(inverse(v), x)):
        u = multiply(v, p)
        if (word_dist(v, x) == word_dist(v, u) + word_dist(u, x)
                and word_dist(v, y) == word_dist(v, u) + word_dist(u, y)
                and word_dist(x, y) == word_dist(x, u) + word_dist(u, y)):
            hits.append(u)
    assert len(hits) == 1
    return hits[0]


def test_y_point_examples():
    assert y_point(IDENTITY, W("a1 a2"), W("a1 a3")) == W("a1")
    x = W("a2 a1")
    assert y_point(x, x, W("a3")) == x
    assert y_point(W("a1"), W("a1 a2"), IDENTITY) == W("a1")


def test_y_point_matches_brute_force_and_is_symmetric():
    rng = Random(103)
    for _ in range(200):
        v = random_reduced_word(rng, 8, 3)
        x = random_reduced_word(rng, 8, 3)
        y = random_reduced_word(rng, 8, 3)
        u = y_point(v, x, y)
        assert u == oracle_y_point(v, x, y)
        assert u == y_point(x, v, y) == y_point(y, x, v) == y_point(v, y, x)


# -- length axioms ------------------------------------------------------------------

def test_bf_length_function_passes_on_exhaustive_ball():
    sample = enumerate_reduced_words(3, 2)
    assert check_length_axioms(bf_length_oracle(), sample) is None


def test_broken_oracle_violates_axiom_one():
    base = bf_length_oracle()
    broken = LengthOracle(
        multiply=base.multiply,
        inverse=base.inverse,
        identity=base.identity,
        length=lambda g: length_vector(g) if g.letters else vec(1),
    )
    violation = check_length_axioms(broken, enumerate_reduced_words(2, 2))
    assert violation is not None
    assert violation.axiom == "axiom1"
    assert violation.elements == (IDENTITY,)


def test_length_axiom_checker_lets_defects_propagate(monkeypatch):
    # only a failed halving is an integrality violation; any other error is a defect
    base = bf_length_oracle()

    def defective_length(g):
        if len(g.letters) > 2:
            raise TypeError("defective length")
        return length_vector(g)

    broken = LengthOracle(base.multiply, base.inverse, base.identity, defective_length)
    with pytest.raises(TypeError, match="defective length"):
        check_length_axioms(broken, enumerate_reduced_words(2, 2))

    def defective_half(x):
        raise TypeError("defective halving")

    monkeypatch.setattr(bigfree.tree, "half_exact", defective_half)
    with pytest.raises(TypeError, match="defective halving"):
        check_length_axioms(base, enumerate_reduced_words(2, 2))


def test_free_abelian_rank_two_violates_ultrametric_at_a_b_ab():
    def abel_mul(g, h):
        return (g[0] + h[0], g[1] + h[1])

    oracle = LengthOracle(
        multiply=abel_mul,
        inverse=lambda g: (-g[0], -g[1]),
        identity=(0, 0),
        length=lambda g: LexVector.unit(1, abs(g[0]) + abs(g[1])),
    )
    a, b, ab = (1, 0), (0, 1), (1, 1)
    sample = [a, b, ab, (-1, 0), (0, -1), (-1, -1)]
    violation = check_length_axioms(oracle, sample)
    assert violation is not None
    assert violation.axiom == "axiom3"
    assert violation.elements == (a, b, ab)


# -- text form -------------------------------------------------------------------------

def test_tree_point_text_roundtrip():
    p = P((1, 1), "a1 a2 a3")
    assert format_tree_point(p) == "[1,1] @ a1 a2 a3"
    q = parse_tree_point("[1,1] @ a1 a2 a3")
    assert q.n == p.n and q.g == p.g
    r = parse_tree_point("[] @ ")
    assert point_eq(r, BASEPOINT)


# -- edge points: one model, two offset domains -------------------------------------------

_EDGE_LETTERS = [(idx, sign) for idx in (1, 2, 3, TOP) for sign in (1, -1)]


@st.composite
def _edge_bases(draw):
    """A reduced word over a1..a3 and b plus an edge letter that may follow it."""
    letters = []
    for lt in draw(st.lists(st.sampled_from(_EDGE_LETTERS), max_size=12)):
        if letters and lt == (letters[-1][0], -letters[-1][1]):
            lt = letters[-1]  # repeat instead of cancelling, so the word stays reduced
        letters.append(lt)
    idx, sign = draw(st.sampled_from(_EDGE_LETTERS))
    if letters and letters[-1] == (idx, -sign):
        sign = -sign
    return Word._make(tuple(letters), True), idx, sign


_COORD = st.fractions(-3, 3, max_denominator=4)


@st.composite
def edge_triples(draw):
    """Edge triples with Fraction offsets, TOP coordinates and TOP edge letters."""
    w, idx, sign = draw(_edge_bases())
    lower = [] if idx is TOP else [(idx + 1, draw(_COORD)), (idx + 3, draw(_COORD)), (TOP, draw(_COORD))]
    t = LexVector([(idx, draw(st.fractions(0, 1, max_denominator=5)))] + lower)
    assume(ZERO < t < LexVector.unit(idx))
    return EdgeTriple(w, idx, sign, t)


@st.composite
def cayley_points(draw):
    w, idx, sign = draw(_edge_bases())
    t = draw(st.fractions(0, 1, max_denominator=50))
    assume(0 < t < 1)
    return CayleyPoint(w, idx, sign, t)


@given(edge_triples())
@example(EdgeTriple(IDENTITY, 1, 1, LexVector.unit(TOP)))  # the offset text holds a ';'
def test_edge_triple_text_round_trip(e):
    assert parse_triple(format_triple(e), OMEGA_PLUS_ONE) == e


@given(cayley_points())
def test_cayley_point_text_round_trip(x):
    assert parse_cayley_point(format_cayley_point(x), OMEGA_PLUS_ONE) == x


def test_edge_triples_and_cayley_points_never_compare_equal():
    e = EdgeTriple(IDENTITY, 1, 1, LexVector.unit(2))
    x = CayleyPoint(IDENTITY, 1, 1, Fraction(1, 2))
    x.t = e.t  # the same four fields, read in the other offset domain
    assert (e.w, e.index, e.sign, e.t) == (x.w, x.index, x.sign, x.t)
    assert e != x and x != e
    assert len({e, x}) == 2
