"""Tree points, metric, action, the length-function axiom checker, edge points."""

import signal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bigfree.tree
from bigfree.cayley import (
    CayleyPoint, cayley_act, cayley_dist, cayley_point, format_cayley_point, parse_cayley_point,
)
from bigfree.ordered_abelian import TOP, BigFreeError, LexVector, ResourceLimitError, ZERO
from bigfree.sampling import (
    enumerate_reduced_words,
    random_cayley_point,
    random_edge_triple,
    random_reduced_word,
    random_small_vector,
    random_tree_point,
)
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
from bigfree.triples import (
    WEDGE,
    CirclePoint,
    EdgeTriple,
    act_triple,
    format_circle_point,
    format_triple,
    from_triple,
    parse_circle_point,
    parse_triple,
    project,
    to_triple,
    top_edge_instability,
    triple_dist,
)
from bigfree.words import (
    IDENTITY,
    Word,
    common_prefix,
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
    with pytest.raises(BigFreeError, match="reduced"):
        word_point(W("a1 a1^-1"))


def test_an_offset_past_the_text_cap_is_refused_in_bounded_time():
    """The refusal's message would format one coordinate per rank up to 10**11."""
    def expire(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ResourceLimitError):
            TreePoint(LexVector.unit(10**11), IDENTITY)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def product_y_point(v, x, y):
    """The median by products: v times the common prefix of v^-1 x and v^-1 y."""
    v_inv = inverse(v)
    return multiply(v, common_prefix(multiply(v_inv, x), multiply(v_inv, y)))


@st.composite
def _branching_words(draw):
    """Three reduced words of up to 40 letters, each extending none, one or both of two nested prefixes."""
    p = _extend(draw, (), 14)
    q = _extend(draw, p, 13)
    return [Word._make(_extend(draw, draw(st.sampled_from(((), p, q))), 13), True) for _ in range(3)]


@given(_branching_words())
def test_y_point_is_the_median_by_products(words):
    assert y_point(*words) == product_y_point(*words)


# -- length axioms ------------------------------------------------------------------

def test_broken_oracle_violates_axiom_one():
    base = bf_length_oracle()
    broken = LengthOracle(
        distance=lambda g, h: word_dist(g, h) if g != h else vec(1),
        identity=base.identity,
    )
    violation = check_length_axioms(broken, enumerate_reduced_words(2, 2))
    assert violation == ("axiom1", (IDENTITY,), "L(Word('')) = [1] but identity is True")


def test_a_zero_length_product_of_distinct_elements_violates_axiom_one():
    # d(a1, a2) = L(a1^-1 a2), and a1^-1 a2 is not in the sample itself
    pair = (W("a1"), W("a2"))
    base = bf_length_oracle()
    broken = base._replace(distance=lambda g, h: ZERO if (g, h) == pair else word_dist(g, h))
    violation = check_length_axioms(broken, enumerate_reduced_words(1, 2))
    assert violation == ("axiom1", pair, "L(g^-1 h) = [] but g == h is False")


def test_the_checker_forms_no_product_and_no_inverse(monkeypatch):
    def boom(*args):
        raise AssertionError("the checker formed a product or an inverse")

    monkeypatch.setattr(bigfree.tree, "multiply", boom)
    monkeypatch.setattr(bigfree.tree, "inverse", boom, raising=False)
    assert check_length_axioms(bf_length_oracle(), enumerate_reduced_words(2, 2)) is None


def bumped_oracle(bumped):
    """The bf distance plus L(a9) on each d(g, h) whose word g^-1 h ``bumped`` picks."""
    nine = LexVector.unit(9)

    def distance(g, h):
        d = word_dist(g, h)
        return d + nine if bumped(multiply(inverse(g), h)) else d
    return bf_length_oracle()._replace(distance=distance)


@pytest.mark.parametrize("bumped, axiom, elements, message", [
    # every 2 c(g, h) with g, h and g^-1 h off the identity gains one L(a9)
    (lambda g: bool(g.letters), "integrality", ("a1", "a1^-1"),
     "2 c(g,h) = [0,0,0,0,0,0,0,0,1] is not evenly divisible"),
    # a1 is bumped, its inverse a1^-1 is not
    (lambda g: bool(g.letters) and g.letters[0][1] > 0, "axiom2", ("a1",),
     "L(g) = [1,0,0,0,0,0,0,0,1] != [1] = L(g^-1)"),
], ids=["every-non-identity-word", "positive-first-letter"])
def test_bumped_oracles_violate_the_later_axioms(bumped, axiom, elements, message):
    violation = check_length_axioms(bumped_oracle(bumped), enumerate_reduced_words(2, 2))
    assert violation == (axiom, tuple(map(W, elements)), message)


def test_length_axiom_checker_lets_defects_propagate(monkeypatch):
    # only a failed halving is an integrality violation; any other error is a defect
    base = bf_length_oracle()

    def defective_distance(g, h):
        if len(multiply(inverse(g), h).letters) > 2:
            raise TypeError("defective length")
        return word_dist(g, h)

    broken = LengthOracle(defective_distance, base.identity)
    with pytest.raises(TypeError, match="defective length"):
        check_length_axioms(broken, enumerate_reduced_words(2, 2))

    def defective_half(x):
        raise TypeError("defective halving")

    monkeypatch.setattr(bigfree.tree, "half_exact", defective_half)
    with pytest.raises(TypeError, match="defective halving"):
        check_length_axioms(base, enumerate_reduced_words(2, 2))


def test_free_abelian_rank_two_violates_ultrametric_at_a_b_ab():
    oracle = LengthOracle(
        distance=lambda g, h: LexVector.unit(1, abs(h[0] - g[0]) + abs(h[1] - g[1])),
        identity=(0, 0),
    )
    a, b, ab = (1, 0), (0, 1), (1, 1)
    sample = [a, b, ab, (-1, 0), (0, -1), (-1, -1)]
    violation = check_length_axioms(oracle, sample)
    assert violation is not None
    assert violation.axiom == "axiom3"
    assert violation.elements == (a, b, ab)
    assert violation.message == "c(g,h) = [] < min of [1], [1]"  # the products, not their doubles


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
    lower = [] if idx == TOP else [(idx + 1, draw(_COORD)), (idx + 3, draw(_COORD)), (TOP, draw(_COORD))]
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
    assert parse_triple(format_triple(e)) == e


@given(cayley_points())
def test_cayley_point_text_round_trip(x):
    assert parse_cayley_point(format_cayley_point(x)) == x


def _vertex_or_lattice_offset(draw, idx):
    """[] or a tree edge offset strictly inside the edge of a_idx."""
    return _lattice_offset(draw, idx) if draw(st.booleans()) else ZERO


@st.composite
def tree_points(draw):
    """A vertex or an edge point of a word over a1..a3 and b, on that word or a longer one."""
    w, idx, sign = draw(_edge_bases())
    far = _extend(draw, w.letters + ((idx, sign),), 4)
    return TreePoint(length_vector(w) + _vertex_or_lattice_offset(draw, idx), Word._make(far, True))


@st.composite
def circle_points(draw):
    idx = draw(st.sampled_from((1, 2, 3, TOP)))
    return CirclePoint(idx, _vertex_or_lattice_offset(draw, idx))


# tree and circle points compare as points, so the round trips compare their fields
@given(tree_points())
def test_tree_point_text_round_trip(p):
    q = parse_tree_point(format_tree_point(p))
    assert (q.n, q.g) == (p.n, p.g)


@given(circle_points())
def test_circle_point_text_round_trip(x):
    y = parse_circle_point(format_circle_point(x))
    assert (y.index, y.s) == (x.index, x.s)


def test_edge_triples_and_cayley_points_never_compare_equal():
    e = EdgeTriple(IDENTITY, 1, 1, LexVector.unit(2))
    x = CayleyPoint(IDENTITY, 1, 1, Fraction(1, 2))
    x.t = e.t  # the same four fields, read in the other offset domain
    assert (e.w, e.index, e.sign, e.t) == (x.w, x.index, x.sign, x.t)
    assert e != x and x != e
    assert len({e, x}) == 2


def test_a_graph_point_is_refused_where_a_tree_point_is_wanted():
    e = EdgeTriple(IDENTITY, 1, 1, LexVector.unit(2))
    x = CayleyPoint(IDENTITY, 1, 1, Fraction(1, 2))
    with pytest.raises(BigFreeError, match="^from_triple takes an edge triple or a reduced word, not a CayleyPoint$"):
        from_triple(x)
    for dist in (triple_dist, cayley_dist):
        for a, b in ((x, e), (e, x)):
            with pytest.raises(BigFreeError, match="^a distance takes points of one model, got "
                                                   f"{type(a).__name__} and {type(b).__name__}$"):
                dist(a, b)
    # a vertex is a bare word, which both models share
    assert cayley_dist(x, IDENTITY) == cayley_dist(IDENTITY, x) == LexVector({1: Fraction(1, 2)})
    assert triple_dist(e, IDENTITY) == triple_dist(IDENTITY, e) == LexVector.unit(2)


@pytest.mark.parametrize("t", [0.25, True, "1/2", None, 5], ids=repr)
@pytest.mark.parametrize("build", [
    lambda t: EdgeTriple(IDENTITY, 1, 1, t),
    lambda t: CayleyPoint(IDENTITY, 1, 1, t),
    lambda t: cayley_point(IDENTITY, 1, 1, t),
], ids=["EdgeTriple", "CayleyPoint", "cayley_point"])
def test_an_inexact_or_mistyped_edge_offset_is_a_domain_error(build, t):
    with pytest.raises(BigFreeError, match="edge offset"):
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


# -- the trusted route: what the library builds, its public constructors accept ------

_FIELDS = {TreePoint: ("n", "g"), EdgeTriple: ("w", "index", "sign", "t"),
           CayleyPoint: ("w", "index", "sign", "t"), CirclePoint: ("index", "s")}


def _rebuilt(x):
    """x rebuilt through the validating public constructors, each field first."""
    if isinstance(x, LexVector):
        return LexVector(x.entries)
    if isinstance(x, Word):
        return Word(x.letters)
    if type(x) in _FIELDS:
        return type(x)(*(_rebuilt(getattr(x, name)) for name in _FIELDS[type(x)]))
    return x  # an index, a sign or a rational offset


def _fields(x):
    """What two builds of one value share: each field with its type, recursively."""
    if isinstance(x, LexVector):
        return tuple((i, type(v), v) for i, v in x.entries)
    if isinstance(x, Word):
        return x.letters, x.reduced
    if type(x) in _FIELDS:
        return type(x), tuple(_fields(getattr(x, name)) for name in _FIELDS[type(x)])
    return type(x), x


def _assert_public_constructor_accepts(x):
    assert _fields(_rebuilt(x)) == _fields(x)


@st.composite
def _trusted_inputs(draw):
    """Points of each kind, a word that cancels part of each, and a sampler seed."""
    p = draw(tree_points())
    e = draw(edge_triples())
    x = draw(cayley_points())
    u = Word._make(_extend(draw, (), 8), True)
    return p, e, x, u, draw(_actions()), draw(st.integers(0, 2**32))


@given(_trusted_inputs())
@example((BASEPOINT, EdgeTriple(IDENTITY, 1, -1, vec(0, 1)), CayleyPoint(IDENTITY, 1, -1, Fraction(1, 3)),
          W("a1"), (W("a1 a2"), P((0, 1), "a2^-1 a1^-1")), 0))  # the edge letter flips
def test_every_trusted_output_passes_its_public_constructor(inputs):
    p, e, x, u, (h, q), seed = inputs
    outputs = [tree_act(h, q), tree_act(u, p), word_point(u), to_triple(p), to_triple(q),
               from_triple(e), from_triple(to_triple(p)), project(e), project(to_triple(q))]
    for v in (u, multiply(u, inverse(e.far_word())), multiply(u, inverse(x.far_word()))):
        # the last two end u w in the inverse edge letter unless u ends in it, so the sign flips
        moved = act_triple(v, e)
        outputs += [moved, project(moved), from_triple(moved), cayley_act(v, x)]
    rng = Random(seed)
    outputs += [random_tree_point(rng), random_edge_triple(rng), random_cayley_point(rng),
                random_small_vector(rng), to_triple(random_tree_point(rng))]
    for out in outputs:
        _assert_public_constructor_accepts(out)


def test_the_trusted_constants_and_the_omega_plus_one_rows_pass_their_public_constructors():
    for out in (BASEPOINT, WEDGE, *(coords for _, _, coords in top_edge_instability(6))):
        _assert_public_constructor_accepts(out)
