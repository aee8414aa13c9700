"""Seeded property suites for every module, runnable without pytest.

Each property runs a batch of checks on the generator it is given and
reports a count plus the first few failures.  ``run_property`` runs one
registry entry on a caller's generator; ``run_all`` gives each entry its
own generator seeded from the global seed, and the acceptance tests run
entries through ``run_property`` under their own seeds.
Failure messages that format values are passed as zero-argument callables
and built only when a check fails, so passing checks format no words or
vectors.
The exhaustive small-word laws are decided exactly: transitivity by
Python-int bitsets, 0-hyperbolicity and the triangle inequality by the
quadratic certificate ``tree.ultrametric_violation``.  The package needs
only the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import sampling
from .cayley import (
    ball_graph,
    cayley_act,
    cayley_dist,
    direction_word,
    embed_compare,
    position,
)
from .ordered_abelian import TOP, LexVector, ZERO, half_exact
from .topology import difference_word, in_letter_ball, in_metric_ball, uses_only_letters_above
from .tree import (
    BASEPOINT,
    TreePoint,
    bf_length_oracle,
    check_length_axioms,
    point_eq,
    tree_act,
    tree_dist,
    word_point,
)
from .triples import (
    CirclePoint,
    EdgeTriple,
    act_triple,
    circle_dist,
    from_triple,
    orbit_witness,
    project,
    to_triple,
    top_edge_instability,
)
from .words import (
    IDENTITY,
    Word,
    apply_cancellation,
    double_gromov,
    format_word,
    gromov,
    harmonic_word,
    inverse,
    is_subword,
    length_vector,
    multiply,
    parse_word,
    reduce,
    subwords,
    verify_cancellation,
    word_dist,
)

MAX_REPORTED_FAILURES = 5


class PropertyResult(NamedTuple):
    module: str
    name: str
    checks: int
    failures: List[str]
    raised: bool = False  # an exception ended the property; its text leads ``failures``

    @property
    def ok(self) -> bool:
        """Passed: ran at least one check and recorded no failure."""
        return self.checks > 0 and not self.failures


class _Recorder:
    """Collects check counts and capped failure messages."""

    def __init__(self):
        self.checks = 0
        self.failures: List[str] = []

    def count(self, n: int = 1) -> None:
        self.checks += n

    def expect(self, condition: bool, message: Union[str, Callable[[], str]]) -> None:
        """Count one check; on failure record ``message``, calling it first if callable."""
        self.checks += 1
        if not condition:
            self.fail(message if isinstance(message, str) else message())

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)
        elif len(self.failures) == MAX_REPORTED_FAILURES:
            self.failures.append("... more failures suppressed")


def two_smallest_equal(a: LexVector, b: LexVector, c: LexVector) -> bool:
    lo = min(a, b, c)
    return (a == lo) + (b == lo) + (c == lo) >= 2


# -- ordered_abelian ---------------------------------------------------------------

def _check_order_reference(rec: _Recorder, rng: Random, samples: int) -> None:
    vectors = sampling.enumerate_small_vectors((1, 2, 3), bound=2)
    keyed = [(tuple(v.get(i) for i in (1, 2, 3)), v) for v in vectors]
    for ta, va in keyed:
        for tb, vb in keyed:
            got = va.compare(vb)
            want = -1 if ta < tb else (0 if ta == tb else 1)
            rec.expect(got == want, lambda: f"compare({va}, {vb}) = {got}, reference {want}")
    # trichotomy on the omega+1 fringe
    fringe = sampling.enumerate_small_vectors((1, 2, TOP), bound=1)
    for va in fringe:
        for vb in fringe:
            c1, c2 = va.compare(vb), vb.compare(va)
            rec.expect(c1 == -c2 and ((c1 == 0) == (va == vb)),
                       lambda: f"trichotomy fails for {va}, {vb}")


def _check_order_transitivity(rec: _Recorder, rng: Random, samples: int) -> None:
    vectors = sampling.enumerate_small_vectors((1, 2, 3), bound=2)
    n = len(vectors)
    # row i is the bitset of the j with vectors[i] <= vectors[j]
    rows = [sum(1 << j for j, vb in enumerate(vectors) if va.compare(vb) <= 0) for va in vectors]
    rec.count(n * n)
    bad = 0
    for row in rows:
        reach = 0
        for j, above in enumerate(rows):
            if row >> j & 1:
                reach |= above
        bad += (reach & ~row).bit_count()
    rec.expect(bad == 0, lambda: f"{bad} transitivity violations over the enumeration")
    for _ in range(samples):
        x = sampling.random_small_vector(rng, 5, 6)
        y = sampling.random_small_vector(rng, 5, 6)
        z = sampling.random_small_vector(rng, 5, 6)
        if x <= y <= z:
            rec.expect(x <= z, lambda: f"transitivity fails at {x}, {y}, {z}")
        else:
            rec.count()


def _check_translation_invariance(rec: _Recorder, rng: Random, samples: int) -> None:
    vectors = sampling.enumerate_small_vectors((1, 2, 3), bound=2)
    for va in vectors:
        for vb in vectors:
            total = va + vb
            rec.expect(all(total.get(i) == va.get(i) + vb.get(i) for i in (1, 2, 3)),
                       lambda: f"add({va}, {vb}) disagrees with pointwise sum")
    for _ in range(samples):
        x = sampling.random_small_vector(rng, 5, 4)
        y = sampling.random_small_vector(rng, 5, 4)
        z = sampling.random_small_vector(rng, 5, 4)
        rec.expect((x + z).compare(y + z) == x.compare(y),
                   lambda: f"translation by {z} reorders {x}, {y}")


def _check_abs_laws(rec: _Recorder, rng: Random, samples: int) -> None:
    vectors = sampling.enumerate_small_vectors((1, 2, 3), bound=2)
    for v in vectors:
        rec.expect(abs(v) >= ZERO, lambda: f"abs({v}) negative")
        rec.expect((abs(v) == ZERO) == v.is_zero(), lambda: f"abs({v}) definiteness")
    for _ in range(samples):
        x = sampling.random_small_vector(rng, 5, 4)
        y = sampling.random_small_vector(rng, 5, 4)
        rec.expect(abs(x + y) <= abs(x) + abs(y), lambda: f"abs subadditivity fails at {x}, {y}")


def _check_half_exact(rec: _Recorder, rng: Random, samples: int) -> None:
    vectors = sampling.enumerate_small_vectors((1, 2, 3), bound=2)
    for v in vectors:
        rec.expect(half_exact(v + v) == v, lambda: f"half_exact({v}+{v}) != {v}")
    for _ in range(samples):
        x = sampling.random_small_vector(rng, 6, 9)
        rec.expect(half_exact(x.double()) == x, lambda: f"half_exact doubling fails at {x}")


# -- words --------------------------------------------------------------------------

def confluence_trial(rng: Random, w: Word, sequences: int) -> Optional[str]:
    """Run random cancellation sequences; report a message on divergence."""
    expected = reduce(w)
    for _ in range(sequences):
        current = w
        while True:
            c = sampling.random_cancellation(rng, current)
            if c is None:
                break
            current = apply_cancellation(current, c)
        if current != expected:
            return f"cancellations of {format_word(w)!r} reached {format_word(current)!r}, reduce gives {format_word(expected)!r}"
    return None


def _check_confluence(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        w = sampling.random_word(rng, 40, 8)
        message = confluence_trial(rng, w, 2)
        rec.expect(message is None, message or "")


def _check_cancellation_class(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        w = sampling.random_word(rng, 30, 6)
        c = sampling.random_cancellation(rng, w)
        if c is None:
            rec.expect(w.reduced, lambda: f"no cancellation found in unreduced {format_word(w)!r}")
            continue
        rec.expect(verify_cancellation(w, c).ok,
                   lambda: f"generated cancellation invalid on {format_word(w)!r}")
        rec.expect(reduce(apply_cancellation(w, c)) == reduce(w),
                   lambda: f"cancellation changed the class of {format_word(w)!r}")


def _metric_axiom_failures(d, points, rec: _Recorder, label: str) -> None:
    p, q, r = points
    dpq, dqp = d(p, q), d(q, p)
    rec.expect(dpq == dqp, lambda: f"{label}: symmetry fails")
    rec.expect(dpq >= ZERO, lambda: f"{label}: negative distance")
    rec.expect(d(p, p) == ZERO, lambda: f"{label}: nonzero self distance")
    rec.expect(d(p, r) <= dpq + d(q, r), lambda: f"{label}: triangle inequality fails")


_Check = Callable[[_Recorder, Random, int], None]


def _metric_law(sample: Callable[[Random], object], d, label: str) -> _Check:
    """The metric axioms and definiteness of ``d`` on triples drawn by ``sample``."""
    indefinite = f"{label}: definiteness fails"

    def check(rec: _Recorder, rng: Random, samples: int) -> None:
        for _ in range(samples):
            x, y, z = sample(rng), sample(rng), sample(rng)
            _metric_axiom_failures(d, (x, y, z), rec, label)
            if x != y:
                rec.expect(d(x, y) > ZERO, indefinite)
    return check


def _zero_hyperbolic_law(sample: Callable[[Random], object], height, d, message: str) -> _Check:
    """0-hyperbolicity of ``d`` at the point ``height`` measures from, on triples drawn by ``sample``."""
    def check(rec: _Recorder, rng: Random, samples: int) -> None:
        for _ in range(samples):
            x, y, z = sample(rng), sample(rng), sample(rng)
            hx, hy, hz = height(x), height(y), height(z)
            rec.expect(two_smallest_equal(hx + hy - d(x, y), hx + hz - d(x, z), hy + hz - d(y, z)), message)
    return check


def _check_word_metric_exhaustive(rec: _Recorder, rng: Random, samples: int) -> None:
    # The checker reads word_dist itself, the production metric.  Its axiom 1 at each
    # d(j, j) makes the diagonal c(j, j) = L(j); its ultrametric law on c then gives
    # c(j, k) <= L(j) and, for c(i, j) <= c(j, k), c(i, k) >= c(i, j), which together
    # are d(i, k) <= d(i, j) + d(j, k).  So the certificate also decides the triangle
    # law.  A violation before the certificate leaves both laws undecided.
    words = sampling.enumerate_reduced_words(3, 3)
    n = len(words)
    violation = check_length_axioms(bf_length_oracle(), words)
    axiom = None if violation is None else violation.axiom

    def hyperbolicity_failure() -> str:
        if axiom != "axiom3":
            return "0-hyperbolicity is not certified on the enumeration"
        return "0-hyperbolicity fails at " + ", ".join(repr(format_word(w)) for w in violation.elements)

    rec.count(n * n)
    rec.expect(axiom in (None, "axiom3"), lambda: f"length axioms violated on the enumeration: {violation}")
    rec.count(n ** 3)
    rec.expect(axiom is None, "the triangle inequality is not certified on the enumeration")
    rec.count(n ** 3)
    rec.expect(axiom is None, hyperbolicity_failure)


def _check_zero_hyperbolic_random(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        w = sampling.random_reduced_word(rng, 40, 8)
        v = sampling.random_reduced_word(rng, 40, 8)
        u = sampling.random_reduced_word(rng, 40, 8)
        rec.expect(
            two_smallest_equal(gromov(w, v), gromov(w, u), gromov(v, u)),
            lambda: f"triple {format_word(w)!r}, {format_word(v)!r}, {format_word(u)!r} not 0-hyperbolic")


def _check_length_nonnegative(rec: _Recorder, rng: Random, samples: int) -> None:
    witness = LexVector([(1, 1), (2, -1)])
    for w in sampling.enumerate_reduced_words(4, 4):
        lv = length_vector(w)
        rec.expect(all(v >= 0 for _, v in lv.entries), lambda: f"negative coordinate in L({format_word(w)!r})")
        rec.expect(lv != witness, "a word realizes the non-geodesic gap value")
    for _ in range(samples):
        lv = length_vector(sampling.random_word(rng, 40, 8))
        rec.expect(all(v >= 0 for _, v in lv.entries), "negative coordinate in a random length")


def _check_gromov_prefix(rec: _Recorder, rng: Random, samples: int) -> None:
    # gromov is the prefix scan; the oracle is the definitional formula.
    # Every other sample is drawn with cancellations left in.
    for i in range(samples):
        draw = sampling.random_word if i % 2 else sampling.random_reduced_word
        g = draw(rng, 30, 6)
        h = Word(g.letters[:rng.randint(0, len(g.letters))] + draw(rng, 30, 6).letters)
        definitional = half_exact(
            length_vector(g) + length_vector(h) - length_vector(multiply(inverse(g), h)))
        rec.expect(gromov(g, h) == definitional,
                   lambda: f"gromov/definitional mismatch at {format_word(g)!r}, {format_word(h)!r}")


def _check_subwords(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        w = sampling.random_reduced_word(rng, 15, 5)
        subs = subwords(w)
        rec.expect(len(subs) == len(w.letters) + 1, "subword count mismatch")
        lengths = [length_vector(s) for s in subs]
        rec.expect(all(a < b for a, b in zip(lengths, lengths[1:])),
                   "subword lengths not strictly increasing")
        member = set(subs)
        for v in subs:
            rec.expect(is_subword(v, w), lambda: f"prefix of {format_word(w)!r} rejected by is_subword")
        probe = sampling.random_reduced_word(rng, 15, 5)
        rec.expect(is_subword(probe, w) == (probe in member),
                   lambda: f"is_subword({format_word(probe)!r}, {format_word(w)!r}) disagrees with the prefix list")


def _check_stream_cauchy(rec: _Recorder, rng: Random, samples: int) -> None:
    truncations = [harmonic_word(k) for k in range(0, 31)]
    for j in range(0, 31, 3):
        for k in range(0, 31, 3):
            d = word_dist(truncations[j], truncations[k])
            floor = min(j, k)
            rec.expect(all(idx > floor for idx, _ in d.entries),
                       lambda: f"truncations {j}, {k} differ at or below index {floor}")


# -- tree ----------------------------------------------------------------------------

def _check_tree_isometry(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        h = sampling.random_reduced_word(rng, 12, 5)
        p = sampling.random_tree_point(rng)
        q = sampling.random_tree_point(rng)
        rec.expect(tree_dist(tree_act(h, p), tree_act(h, q)) == tree_dist(p, q),
                   lambda: f"action by {format_word(h)!r} distorts distance")


def _check_tree_action_laws(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        p = sampling.random_tree_point(rng)
        h1 = sampling.random_reduced_word(rng, 10, 5)
        h2 = sampling.random_reduced_word(rng, 10, 5)
        rec.expect(point_eq(tree_act(IDENTITY, p), p), "identity moves a point")
        rec.expect(point_eq(tree_act(h1, tree_act(h2, p)), tree_act(multiply(h1, h2), p)),
                   lambda: f"composition law fails for {format_word(h1)!r}, {format_word(h2)!r}")


def _check_tree_freeness(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        u = sampling.random_reduced_word(rng, 12, 5)
        if not u.letters:
            rec.count()
            continue
        p = sampling.random_tree_point(rng)
        rec.expect(not point_eq(tree_act(u, p), p), lambda: f"{format_word(u)!r} fixes a point")


def _check_no_inversions(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        u = sampling.random_reduced_word(rng, 12, 5)
        if not u.letters:
            rec.count()
            continue
        v = sampling.random_reduced_word(rng, 10, 5)
        idx = rng.randint(1, 5)
        sign = rng.choice((1, -1))
        va = multiply(v, Word._make(((idx, sign),), True))
        swapped = (
            point_eq(tree_act(u, word_point(v)), word_point(va))
            and point_eq(tree_act(u, word_point(va)), word_point(v))
        )
        rec.expect(not swapped, lambda: f"{format_word(u)!r} inverts the edge at {format_word(v)!r}")


def _check_surjectivity_formula(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        h = sampling.random_reduced_word(rng, 12, 5)
        target = sampling.random_tree_point(rng)
        m, k = target.n, target.g
        two_c = double_gromov(h, k)
        h_len = length_vector(h)
        if m.double() <= two_c:
            preimage = TreePoint(h_len - m, inverse(h))
        else:
            preimage = TreePoint(h_len + m - two_c, multiply(inverse(h), k))
        rec.expect(point_eq(tree_act(h, preimage), target),
                   lambda: f"preimage formula misses {target} under {format_word(h)!r}")


def _check_geodesic_alignment(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        p = sampling.random_tree_point(rng)
        end = word_point(p.g)
        rec.expect(tree_dist(BASEPOINT, p) + tree_dist(p, end) == length_vector(p.g),
                   lambda: f"point {p} off the geodesic to its word")


def _check_bf_length_axioms(rec: _Recorder, rng: Random, samples: int) -> None:
    sample = sampling.enumerate_reduced_words(3, 2)
    violation = check_length_axioms(bf_length_oracle(), sample)
    rec.count(len(sample) ** 3)
    rec.expect(violation is None, lambda: f"length axioms violated: {violation}")


# -- triples ------------------------------------------------------------------------

def _check_triple_round_trip(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        p = sampling.random_tree_point(rng)
        rec.expect(point_eq(from_triple(to_triple(p)), p), lambda: f"round trip moves {p}")
        e = sampling.random_edge_triple(rng)
        rec.expect(to_triple(from_triple(e)) == e, lambda: f"round trip changes {e}")


def _check_triple_equivariance(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        u = sampling.random_reduced_word(rng, 10, 5)
        e = sampling.random_edge_triple(rng)
        rec.expect(point_eq(from_triple(act_triple(u, e)), tree_act(u, from_triple(e))),
                   lambda: f"action in triple coordinates disagrees at {e}")


def _check_orbit_projection(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        e = sampling.random_edge_triple(rng)
        u = sampling.random_reduced_word(rng, 10, 5)
        moved = act_triple(u, e)
        rec.expect(project(moved) == project(e), lambda: f"projection not orbit-invariant at {e}")
        witness = orbit_witness(e, moved)
        rec.expect(witness is not None and act_triple(witness, e) == moved,
                   lambda: f"no constructive witness from {e} to its translate")
        other = sampling.random_edge_triple(rng)
        if project(other) != project(e):
            rec.expect(orbit_witness(e, other) is None, "witness produced across distinct projections")
        else:
            w2 = orbit_witness(e, other)
            rec.expect(w2 is not None and act_triple(w2, e) == other,
                       lambda: f"projections match but no witness from {e} to {other}")


def _check_quotient_surjectivity(rec: _Recorder, rng: Random, samples: int) -> None:
    for index in (1, 2, 3, 4):
        for j in range(1, 6):
            for c in range(1, 11):
                for s in (LexVector.unit(index + j, c),
                          LexVector.unit(index) - LexVector.unit(index + j, c)):
                    e = EdgeTriple(IDENTITY, index, 1, s)
                    rec.expect(project(e) == CirclePoint(index, s),
                               lambda: f"grid point {s} on circle {index} not hit")


def _check_circle_metric(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        i = rng.randint(1, 4)
        x = CirclePoint(i, sampling.random_offset_inside(rng, i))
        y = CirclePoint(i, sampling.random_offset_inside(rng, i))
        unit = LexVector.unit(i)
        gap = abs(x.s - y.s)
        d = circle_dist(x, y)
        rec.expect(d == min(gap, unit - gap), "same-circle distance is not the wrap minimum")
        rec.expect(circle_dist(x, y) == circle_dist(y, x), "circle distance asymmetric")
        rec.expect((d == ZERO) == (x == y), "circle distance definiteness fails")
        j = rng.randint(1, 4)
        if j != i:
            z = CirclePoint(j, sampling.random_offset_inside(rng, j))
            through_wedge = (
                min(x.s, unit - x.s) + min(z.s, LexVector.unit(j) - z.s)
            )
            rec.expect(circle_dist(x, z) == through_wedge, "wedge-sum distance mismatch")
        z2 = CirclePoint(i, sampling.random_offset_inside(rng, i))
        rec.expect(circle_dist(x, z2) <= circle_dist(x, y) + circle_dist(y, z2),
                   "circle triangle inequality fails")


def _check_edge_interior(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        e = sampling.random_edge_triple(rng)
        rec.expect(isinstance(to_triple(from_triple(e)), EdgeTriple),
                   lambda: f"interior point {e} canonicalizes to a word")


def _check_top_instability(rec: _Recorder, rng: Random, samples: int) -> None:
    for k, _, coords in top_edge_instability(20):
        rec.expect(isinstance(coords, EdgeTriple) and coords.edge_letter() == (k, 1)
                   and coords.w == IDENTITY and coords.t == LexVector.unit(TOP),
                   lambda: f"depth {k} canonical edge letter is not a{k}")


# -- cayley -------------------------------------------------------------------------

def _check_cayley_action(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        u = sampling.random_reduced_word(rng, 10, 5)
        v = sampling.random_reduced_word(rng, 10, 5)
        x = sampling.random_cayley_point(rng)
        y = sampling.random_cayley_point(rng)
        rec.expect(cayley_dist(cayley_act(u, x), cayley_act(u, y)) == cayley_dist(x, y),
                   lambda: f"graph action by {format_word(u)!r} distorts distance")
        rec.expect(cayley_act(IDENTITY, x) == x, "identity moves a graph point")
        rec.expect(cayley_act(u, cayley_act(v, x)) == cayley_act(multiply(u, v), x),
                   "graph action composition fails")


def _check_cayley_special_formulas(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(samples):
        x = sampling.random_cayley_point(rng)
        y = sampling.random_cayley_point(rng)
        exact = cayley_dist(x, y)
        dx, dy = direction_word(x), direction_word(y)
        px, py = position(x), position(y)
        two_c = double_gromov(dx, dy)

        if isinstance(x, Word):
            wx, tx, la = x, Fraction(0), ZERO
        else:
            wx, tx, la = x.w, x.t, LexVector.unit(x.index)
        if isinstance(y, Word):
            wy, ty, lb = y, Fraction(0), ZERO
        else:
            wy, ty, lb = y.w, y.t, LexVector.unit(y.index)

        lw, lv = length_vector(wx), length_vector(wy)
        if two_c <= lw.double() and two_c <= lv.double():
            via_far = length_vector(multiply(inverse(dx), dy)) \
                - la.scale(1 - tx) - lb.scale(1 - ty)
            rec.expect(via_far == exact,
                       lambda: f"far-endpoint formula disagrees at {x}, {y}: {via_far} != {exact}")
        else:
            rec.count()
        if px.double() <= two_c:
            near = py - px
            if dx == dy and py < px:
                # the stated expression flips sign when the second point is nearer
                rec.expect(near == -exact, lambda: f"sign-flip class broken at {x}, {y}")
            else:
                rec.expect(near == exact,
                           lambda: f"inner-point formula disagrees at {x}, {y}: {near} != {exact}")
        else:
            rec.count()


def _check_ball_tree(rec: _Recorder, rng: Random, samples: int) -> None:
    for center_text, max_len, max_letter in (("", 0, 3), ("", 1, 3), ("", 2, 3), ("a1 a2", 2, 2), ("a2^-1", 3, 2)):
        center = parse_word(center_text)
        graph = ball_graph(center, max_len, max_letter)
        rec.expect(len(graph.edges) == len(graph.vertices) - 1, "ball edge count is not |V|-1")
        rec.expect(len(set(graph.vertices)) == len(graph.vertices), "ball vertices not distinct")
        seen = {center}

        def radius(v: Word) -> int:
            return sum(val for _, val in word_dist(center, v).entries)

        # edges always step away from the center, so the parent's relative
        # radius orders them into a valid traversal; the product is the oracle of each stored child
        for parent, lt, child in sorted(graph.edges, key=lambda e: radius(e[0])):
            rec.expect(parent in seen and child == multiply(parent, Word._make((lt,), True)),
                       "ball edge from an unreached vertex, or its child is not parent * letter")
            seen.add(child)
        rec.expect(seen == set(graph.vertices), "ball is not connected")
        for v in graph.vertices:
            rec.expect(radius(v) <= max_len, "ball vertex outside the radius")


def _check_embed_endpoints(rec: _Recorder, rng: Random, samples: int) -> None:
    for _ in range(min(samples, 200)):
        w = sampling.random_reduced_word(rng, 10, 5)
        index = rng.randint(1, 5)
        rec.expect(embed_compare(w, index).endpoints_only(),
                   lambda: f"edge embeddings of ({format_word(w)!r}, a{index}) meet off the endpoints")


# -- topology -------------------------------------------------------------------------

def _eps_family(a: int) -> List[LexVector]:
    unit = LexVector.unit(a)
    return [unit, unit.scale(3), unit - LexVector.unit(a + 2, 5), unit + LexVector.unit(a + 1, -1)]


def ball_inclusion_sweep(rec: _Recorder, words: Sequence[Word], thresholds: Sequence[int],
                         families: Dict[int, Sequence[LexVector]]) -> None:
    """Both ball inclusions over every ordered pair of ``words``.

    For each ``a`` in ``thresholds`` the metric ball of radius e_a sits inside
    the letter ball at ``a``; for each ``a`` keyed in ``families`` the letter
    ball at ``a + 1`` sits inside the metric ball of every radius listed.
    """
    units = {a: LexVector.unit(a) for a in thresholds}
    for w in words:
        for v in words:
            u = difference_word(w, v)
            ulen = length_vector(u)
            # u uses only letters above a exactly when its least index is above a
            least = min((idx for idx, _ in u.letters), default=None)
            for a in thresholds:
                if ulen < units[a]:
                    rec.expect(least is None or least > a,
                               lambda: f"metric ball at index {a} leaks outside the letter ball")
                else:
                    rec.count()
            for a, family in families.items():
                if least is None or least > a + 1:
                    for eps in family:
                        rec.expect(ulen < eps,
                                   lambda: f"letter ball at successor of {a} leaks outside eps = {eps}")
                else:
                    rec.count(len(family))


def _check_letter_ball_inclusion(rec: _Recorder, rng: Random, samples: int) -> None:
    units = {a: LexVector.unit(a) for a in (1, 2, 3, 4)}
    ball_inclusion_sweep(rec, sampling.enumerate_reduced_words(2, 4), (1, 2, 3), {})
    for _ in range(samples):
        w = sampling.random_reduced_word(rng, 12, 6)
        v = sampling.random_reduced_word(rng, 12, 6)
        a = rng.randint(1, 4)
        if in_metric_ball(w, units[a], v):
            rec.expect(in_letter_ball(w, a, v), "metric ball member outside letter ball")
        else:
            rec.count()


def _check_metric_ball_inclusion(rec: _Recorder, rng: Random, samples: int) -> None:
    families = {a: _eps_family(a) for a in (1, 2, 3, 4)}
    ball_inclusion_sweep(rec, sampling.enumerate_reduced_words(2, 4), (),
                         {a: families[a] for a in (1, 2, 3)})
    for _ in range(samples):
        w = sampling.random_reduced_word(rng, 12, 6)
        v = sampling.random_reduced_word(rng, 12, 6)
        a = rng.randint(1, 4)
        eps = families[a][rng.randrange(4)]
        if in_letter_ball(w, a + 1, v):
            rec.expect(in_metric_ball(w, eps, v), "letter ball member outside metric ball")
        else:
            rec.count()


def _check_stream_convergence(rec: _Recorder, rng: Random, samples: int) -> None:
    for a in range(1, 9):
        for j in range(a + 1, a + 8):
            for k in range(a + 1, a + 8):
                u = difference_word(harmonic_word(j), harmonic_word(k))
                rec.expect(uses_only_letters_above(u, a),
                           lambda: f"truncations {j}, {k} not inside the letter ball at {a}")


# -- registry -----------------------------------------------------------------------

Entry = Tuple[str, str, _Check]

PROPERTIES: List[Entry] = [
    ("ordered_abelian", "order-vs-reference", _check_order_reference),
    ("ordered_abelian", "order-transitivity", _check_order_transitivity),
    ("ordered_abelian", "translation-invariance", _check_translation_invariance),
    ("ordered_abelian", "abs-laws", _check_abs_laws),
    ("ordered_abelian", "half-exact-doubling", _check_half_exact),
    ("words", "reduction-confluence", _check_confluence),
    ("words", "cancellation-preserves-class", _check_cancellation_class),
    ("words", "metric-axioms-random", _metric_law(
        lambda rng: sampling.random_reduced_word(rng, 40, 8), word_dist, "word_dist")),
    ("words", "metric-axioms-exhaustive", _check_word_metric_exhaustive),
    ("words", "zero-hyperbolicity-random", _check_zero_hyperbolic_random),
    ("words", "length-nonnegative", _check_length_nonnegative),
    ("words", "gromov-equals-prefix", _check_gromov_prefix),
    ("words", "subword-consistency", _check_subwords),
    ("words", "stream-cauchy", _check_stream_cauchy),
    ("tree", "isometric-action", _check_tree_isometry),
    ("tree", "action-laws", _check_tree_action_laws),
    ("tree", "action-free", _check_tree_freeness),
    ("tree", "no-inversions", _check_no_inversions),
    ("tree", "surjectivity-formula", _check_surjectivity_formula),
    ("tree", "zero-hyperbolic-basepoint", _zero_hyperbolic_law(
        sampling.random_tree_point, lambda p: tree_dist(BASEPOINT, p), tree_dist,
        "tree points fail 0-hyperbolicity at the basepoint")),
    ("tree", "geodesic-alignment", _check_geodesic_alignment),
    ("tree", "length-axioms", _check_bf_length_axioms),
    ("triples", "round-trip", _check_triple_round_trip),
    ("triples", "equivariance", _check_triple_equivariance),
    ("triples", "orbit-projection", _check_orbit_projection),
    ("triples", "quotient-surjectivity", _check_quotient_surjectivity),
    ("triples", "circle-metric", _check_circle_metric),
    ("triples", "edge-interior", _check_edge_interior),
    ("triples", "top-instability", _check_top_instability),
    ("cayley", "metric-axioms", _metric_law(sampling.random_cayley_point, cayley_dist, "cayley_dist")),
    ("cayley", "zero-hyperbolicity", _zero_hyperbolic_law(
        sampling.random_cayley_point, position, cayley_dist, "graph points fail 0-hyperbolicity")),
    ("cayley", "isometric-action", _check_cayley_action),
    ("cayley", "special-case-formulas", _check_cayley_special_formulas),
    ("cayley", "ball-is-tree", _check_ball_tree),
    ("cayley", "embedding-endpoints", _check_embed_endpoints),
    ("topology", "letter-ball-inclusion", _check_letter_ball_inclusion),
    ("topology", "metric-ball-inclusion", _check_metric_ball_inclusion),
    ("topology", "stream-convergence", _check_stream_convergence),
]


def run_property(entry: Entry, rng: Random, samples: int) -> PropertyResult:
    """Run one registry entry on the caller's generator, which it does not re-seed."""
    module, name, fn = entry
    rec = _Recorder()
    raised = False
    try:
        fn(rec, rng, samples)
    except Exception as exc:  # one raising property must not end the run
        rec.failures.insert(0, f"{type(exc).__name__}: {exc}")
        raised = True
    return PropertyResult(module, name, rec.checks, rec.failures, raised)


def run_all(samples: int = 10000, seed: int = 0) -> List[PropertyResult]:
    return [run_property(entry, Random(f"{seed}:{entry[0]}:{entry[1]}"), samples)
            for entry in PROPERTIES]


def format_results(results: List[PropertyResult]) -> str:
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "ERROR" if r.raised else "FAIL" if r.failures else "EMPTY"
        lines.append(f"[{status}] {r.module}/{r.name}: {r.checks} checks")
        for msg in r.failures:
            lines.append(f"    {msg}")
        if not r.ok:
            failed += 1
    lines.append(f"total: {len(results)} properties, {failed} failed")
    return "\n".join(lines) + "\n"
