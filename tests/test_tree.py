"""Tree points, metric, action, the length-function axiom checker, edge points."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bigfree.tree
from bigfree.cayley import CayleyPoint, cayley_point, format_cayley_point, parse_cayley_point
from bigfree.ordered_abelian import OMEGA_PLUS_ONE, TOP, BigFreeError, LexVector, ZERO
from bigfree.sampling import enumerate_reduced_words, random_reduced_word, random_tree_point
from bigfree.tree import (
    BASEPOINT,
    LengthOracle,
    TreePoint,
    bf_length_oracle,
    check_length_axioms,
    direction_word,
    edge_point_dist,
    format_tree_point,
    interval_dist,
    parse_tree_point,
    point_eq,
    position,
    tree_act,
    tree_dist,
    ultrametric_violation,
    word_point,
    y_point,
)
from bigfree.triples import EdgeTriple, format_triple, parse_triple
from bigfree.words import (
    IDENTITY,
    Word,
    gromov,
    inverse,
    length_vector,
    multiply,
    reduce,
    subwords,
    word_dist,
)

from helpers import W, vec


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


# -- action ------------------------------------------------------------------------

def test_tree_act_examples():
    p = P((0, 1), "a2 a3")
    assert point_eq(tree_act(IDENTITY, p), p)
    assert point_eq(tree_act(W("a1"), P((1,), "a1^-1 a2")), BASEPOINT)
    g = W("a2 a1^-1")
    h = W("a3 a1")
    assert point_eq(tree_act(h, TreePoint(ZERO, g)), word_point(h))


def test_tree_act_well_defined_on_classes():
    # two representatives of one point must land in one point
    p1 = P((1,), "a1 a2")
    p2 = P((1,), "a1 a3")
    assert point_eq(p1, p2)
    rng = Random(89)
    for _ in range(50):
        h = random_reduced_word(rng, 8, 4)
        assert point_eq(tree_act(h, p1), tree_act(h, p2))


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


def brute_force_ultrametric_violation(table):
    """The first (g, h, k) with table[g][h] < min(table[g][k], table[h][k]): the cubic scan."""
    n = len(table)
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if table[g][h] < min(table[g][k], table[h][k]):
                    return (g, h, k)
    return None


@st.composite
def _symmetric_tables(draw):
    """Ultrametric tables (least edge weight on tree paths), perturbed or not, and noise."""
    n = draw(st.integers(0, 12))
    weight = st.integers(0, 4)  # a narrow range, so ties are common
    if draw(st.booleans()):
        table = [[draw(weight) for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(j):
                table[k][j] = table[j][k]
        return table
    table = [[0] * n for _ in range(n)]
    for j in range(1, n):
        p, w = draw(st.integers(0, j - 1)), draw(weight)
        for k in range(j):
            table[j][k] = table[k][j] = w if k == p else min(w, table[p][k])
    for j in range(n):
        table[j][j] = max([0] + [table[j][k] for k in range(n) if k != j]) + draw(st.integers(0, 1))
    for _ in range(draw(st.integers(0, 2)) if n else 0):  # a short diagonal or a +-1 entry
        a, b, d = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from((-1, 1)))
        table[a][b] += d
        if a != b:
            table[b][a] += d
    return table


@settings(max_examples=400)
@given(_symmetric_tables())
def test_ultrametric_certificate_agrees_with_the_triple_scan(table):
    found = ultrametric_violation(table)
    assert (found is None) == (brute_force_ultrametric_violation(table) is None)
    if found is not None:
        g, h, k = found
        assert table[g][h] < min(table[g][k], table[h][k])


@st.composite
def _distances_and_lengths(draw):
    """A symmetric table d with a zero diagonal and lengths L, as d_ij = L_i + L_j - u_ij
    for a table u from ``_symmetric_tables`` (tree-built or noise).  Each L_i is at least
    half the largest u_ik but for one row at most, so the certificate often passes."""
    u = draw(_symmetric_tables())
    n = len(u)
    lengths = [(max([0] + [u[i][k] for k in range(n) if k != i]) + 1) // 2 + draw(st.integers(0, 2))
               for i in range(n)]
    if n and draw(st.booleans()):  # one length short: some c(i, k) may pass L(i)
        lengths[draw(st.integers(0, n - 1))] -= 1
    d = [[0 if i == j else lengths[i] + lengths[j] - u[i][j] for j in range(n)] for i in range(n)]
    return d, lengths


@settings(max_examples=400)
@given(_distances_and_lengths())
def test_the_ultrametric_certificate_implies_the_triangle_inequality(table):
    d, lengths = table
    n = len(d)
    two_c = [[lengths[i] + lengths[j] - d[i][j] for j in range(n)] for i in range(n)]
    if ultrametric_violation(two_c) is None:
        assert all(d[i][k] <= d[i][j] + d[j][k] for i in range(n) for j in range(n) for k in range(n))


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


def _extend(draw, letters: tuple, max_size: int) -> tuple:
    """letters followed by up to max_size drawn letters over a1..a3 and b, kept reduced."""
    out = list(letters)
    for lt in draw(st.lists(st.sampled_from(_EDGE_LETTERS), max_size=max_size)):
        if out and lt == (out[-1][0], -out[-1][1]):
            lt = out[-1]  # repeat instead of cancelling, so the word stays reduced
        out.append(lt)
    return tuple(out)


def _edge_letter(draw, letters: tuple):
    """An edge letter that may follow the reduced letters."""
    idx, sign = draw(st.sampled_from(_EDGE_LETTERS))
    if letters and letters[-1] == (idx, -sign):
        sign = -sign
    return idx, sign


@st.composite
def _edge_bases(draw):
    """A reduced word over a1..a3 and b plus an edge letter that may follow it."""
    letters = _extend(draw, (), 12)
    return (Word._make(letters, True), *_edge_letter(draw, letters))


_COORD = st.fractions(-3, 3, max_denominator=4)


def _lattice_offset(draw, idx):
    """A tree edge offset [] < t < L(a_idx), with Fraction and TOP coordinates."""
    lower = [] if idx is TOP else [(idx + 1, draw(_COORD)), (idx + 3, draw(_COORD)), (TOP, draw(_COORD))]
    t = LexVector([(idx, draw(st.fractions(0, 1, max_denominator=5)))] + lower)
    assume(ZERO < t < LexVector.unit(idx))
    return t


def _unit_offset(draw, idx):
    """A graph edge offset 0 < t < 1."""
    t = draw(st.fractions(0, 1, max_denominator=50))
    assume(0 < t < 1)
    return t


@st.composite
def edge_triples(draw):
    """Edge triples with Fraction offsets, TOP coordinates and TOP edge letters."""
    w, idx, sign = draw(_edge_bases())
    return EdgeTriple(w, idx, sign, _lattice_offset(draw, idx))


@st.composite
def cayley_points(draw):
    w, idx, sign = draw(_edge_bases())
    return CayleyPoint(w, idx, sign, _unit_offset(draw, idx))


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


@pytest.mark.parametrize("t", [0.25, True, "1/2", None, 5], ids=repr)
@pytest.mark.parametrize("build", [
    lambda t: EdgeTriple(IDENTITY, 1, 1, t),
    lambda t: CayleyPoint(IDENTITY, 1, 1, t),
    lambda t: cayley_point(IDENTITY, 1, 1, t),
], ids=["EdgeTriple", "CayleyPoint", "cayley_point"])
def test_an_inexact_or_mistyped_edge_offset_is_a_domain_error(build, t):
    with pytest.raises(BigFreeError):
        build(t)


# -- suffix-only routes against their definitional oracles -----------------------------

@st.composite
def _point_pairs(draw, model, offset):
    """Two points of one model on a shared trunk of up to 60 letters.

    Each point keeps a prefix of the trunk and goes on for a few letters:
    as an edge point, or as a bare word that is sometimes passed unreduced.
    So the pairs cover both points past the branch point, one far word a
    prefix of the other, and one far word for both.
    """
    trunk = _extend(draw, (), 60)
    points = []
    for _ in range(2):
        letters = _extend(draw, trunk[:draw(st.integers(0, len(trunk)))], 3)
        if draw(st.booleans()):
            idx, sign = _edge_letter(draw, letters)
            points.append(model(Word._make(letters, True), idx, sign, offset(draw, idx)))
            continue
        i = draw(st.integers(0, len(letters)))
        lt = draw(st.sampled_from(_EDGE_LETTERS))
        unreduced = letters[:i] + (lt, (lt[0], -lt[1])) + letters[i:]
        points.append(Word(unreduced) if draw(st.booleans()) else Word._make(letters, True))
    return tuple(points)


def _assert_edge_point_dist_is_interval_dist(x, y):
    px, dx, py, dy = position(x), direction_word(x), position(y), direction_word(y)
    expected = interval_dist(px, dx, py, dy)
    assert expected == px + py - min(px, py, gromov(dx, dy)).double()
    assert edge_point_dist(x, y) == expected
    assert edge_point_dist(y, x) == expected


_A2 = Word._make(((2, 1),), True)
_A2B = Word._make(((2, 1), (TOP, 1)), True)


@given(_point_pairs(EdgeTriple, _lattice_offset))
@example((EdgeTriple(_A2, 1, 1, LexVector.unit(2)), EdgeTriple(_A2, 1, 1, LexVector.unit(3))))  # same edge
@example((EdgeTriple(_A2, 1, 1, LexVector.unit(2)), EdgeTriple(_A2, 1, -1, LexVector.unit(3))))  # opposite sign
@example((EdgeTriple(_A2, 1, 1, LexVector.unit(2)), EdgeTriple(W("a2 a1 a3"), 3, 1, LexVector.unit(4))))  # prefix
@example((EdgeTriple(_A2, TOP, 1, LexVector.unit(TOP, Fraction(1, 2))), _A2B))  # same far word
@example((EdgeTriple(_A2, TOP, 1, LexVector.unit(TOP, Fraction(1, 2))),  # TOP edge, far word a prefix
          EdgeTriple(_A2B, 1, 1, LexVector.unit(TOP))))
@example((EdgeTriple(_A2B, 3, -1, LexVector.unit(TOP, Fraction(1, 3))),  # unreduced word on the way
          Word(_A2B.letters + ((1, 1), (1, -1)))))
@example((W("a2 a1"), EdgeTriple(W("a2 a1 a3"), 1, 1, LexVector.unit(2))))  # bare word on the way
@example((Word(((1, 1), (2, 1), (2, -1))), W("a1 a3")))  # unreduced bare words
def test_triple_dist_equals_interval_dist_of_positions(pair):
    _assert_edge_point_dist_is_interval_dist(*pair)


@given(_point_pairs(CayleyPoint, _unit_offset))
@example((CayleyPoint(_A2, 1, 1, Fraction(1, 3)), CayleyPoint(_A2, 1, 1, Fraction(3, 4))))  # same edge
@example((CayleyPoint(_A2, 1, 1, Fraction(1, 3)), CayleyPoint(_A2, 1, -1, Fraction(1, 3))))  # opposite sign
@example((CayleyPoint(_A2, 1, -1, Fraction(1, 2)), CayleyPoint(W("a2 a1^-1 a3"), 2, 1, Fraction(1, 5))))  # prefix
@example((CayleyPoint(_A2, TOP, 1, Fraction(2, 3)), CayleyPoint(_A2B, 3, 1, Fraction(1, 7))))  # TOP edge
@example((CayleyPoint(_A2, TOP, 1, Fraction(2, 3)), _A2B))  # same far word
@example((Word(((3, -1), (3, 1))), CayleyPoint(IDENTITY, 3, 1, Fraction(1, 2))))  # unreduced identity
def test_cayley_dist_equals_interval_dist_of_positions(pair):
    _assert_edge_point_dist_is_interval_dist(*pair)


def _tree_act_by_gromov(h, p):
    """The action through the Gromov product with h^-1 and a full product."""
    c = gromov(p.g, inverse(h))
    h_len = length_vector(h)
    if p.n <= c:
        return TreePoint(h_len - p.n, h)
    return TreePoint(h_len + p.n - c.double(), multiply(h, p.g))


@st.composite
def _actions(draw):
    """A word h that cancels part of a tree point's word g (up to 60 letters), and the point."""
    g = _extend(draw, (), 60)
    cut = draw(st.integers(0, len(g)))
    inverse_prefix = tuple((idx, -sign) for idx, sign in reversed(g[:cut]))
    h = reduce(Word(_extend(draw, (), 8) + inverse_prefix))
    i = draw(st.integers(0, len(g)))
    n = length_vector(Word._make(g[:i], True))
    if i and draw(st.booleans()):
        n = n - LexVector.unit(TOP)  # just short of the i-th letter
    return h, TreePoint(n, Word._make(g, True))


@given(_actions())
@example((IDENTITY, BASEPOINT))
@example((W("a1 a2"), P((0, 1), "a2^-1 a1^-1")))  # cancels all of g
def test_tree_act_equals_the_gromov_formula(pair):
    h, p = pair
    got, expected = tree_act(h, p), _tree_act_by_gromov(h, p)
    assert (got.n, got.g) == (expected.n, expected.g)
