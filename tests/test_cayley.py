"""Graph points over rationals: metric, action, embeddings, ball export."""

import json
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bigfree.cayley import (
    MAX_EMBED_POINTS,
    BallGraph,
    CayleyPoint,
    ResourceLimitError,
    ball_dot,
    ball_graph,
    ball_json,
    cayley_act,
    cayley_dist,
    cayley_point,
    default_s_grid,
    direction_word,
    embed_compare,
    format_cayley_point,
    parse_cayley_point,
    position,
)
from bigfree.ordered_abelian import TOP, BigFreeError, LexVector, ZERO
from bigfree.sampling import random_cayley_point, random_reduced_word
from bigfree.words import (
    IDENTITY, MAX_WORD_LETTERS, Word, double_gromov, format_word, inverse, length_vector, letter_name,
    multiply, parse_word, reduce, reduced_word_counts, word_dist,
)

from helpers import W, vec


@pytest.mark.parametrize("t", ["0", "1/2", "1"])
def test_an_unreduced_base_word_is_refused_at_every_offset(t):
    with pytest.raises(BigFreeError, match="^edge base word must be reduced$"):
        parse_cayley_point(f"(a1 a1^-1 ; a2^1 ; {t})")
    with pytest.raises(BigFreeError, match="^edge base word must be reduced$"):
        cayley_point(W("a1 a1^-1"), 2, 1, Fraction(t))


def test_cayley_dist_examples():
    x = cayley_point(IDENTITY, 1, 1, Fraction(1, 2))
    assert cayley_dist(x, x) == ZERO
    assert cayley_dist(x, IDENTITY) == LexVector({1: Fraction(1, 2)})
    rng = Random(157)
    for _ in range(200):
        w = random_reduced_word(rng, 10, 4)
        v = random_reduced_word(rng, 10, 4)
        assert cayley_dist(w, v) == word_dist(w, v)  # vertices carry the word metric


def test_cayley_point_construction():
    assert cayley_point(W("a2"), 1, 1, 0) == W("a2")
    assert cayley_point(W("a2"), 1, 1, 1) == W("a2 a1")
    assert cayley_point(W("a1"), 1, -1, 1) == IDENTITY  # ends in the inverse letter, but reduced
    with pytest.raises(BigFreeError):
        CayleyPoint(W("a1^-1"), 1, 1, Fraction(1, 3))
    with pytest.raises(BigFreeError):
        CayleyPoint(W("a2"), 1, 1, Fraction(3, 2))


@pytest.mark.parametrize("t", [0, 1, Fraction(1, 2)])
def test_cayley_point_checks_the_edge_letter_at_every_offset(t):
    """The endpoints collapse to vertices only after the letter is checked."""
    for index, sign in ((0, 1), (1, 5), ("x", 7), (True, 1)):
        with pytest.raises(BigFreeError) as info:
            cayley_point(IDENTITY, index, sign, t)
        assert not isinstance(info.value, ResourceLimitError)
    with pytest.raises(ResourceLimitError, match="^letter rank must be at most 1000000$"):
        cayley_point(IDENTITY, TOP + 1, 1, t)


def test_the_lattice_grid_bumps_only_at_ranks_up_to_the_cap():
    assert len(default_s_grid(1)) == 102
    assert len(default_s_grid(MAX_WORD_LETTERS - 1)) == 22
    for index in (MAX_WORD_LETTERS, TOP):
        assert default_s_grid(index) == [ZERO, LexVector.unit(index)]
    assert all(max(s.support(), default=1) <= MAX_WORD_LETTERS for s in default_s_grid(MAX_WORD_LETTERS - 3))


def test_cayley_act_examples():
    x = cayley_point(IDENTITY, 1, -1, Fraction(1, 3))
    assert cayley_act(IDENTITY, x) == x
    assert cayley_act(W("a1"), x) == cayley_point(IDENTITY, 1, 1, Fraction(2, 3))
    y = cayley_point(IDENTITY, 1, 1, Fraction(1, 3))
    assert cayley_act(W("a2"), y) == cayley_point(W("a2"), 1, 1, Fraction(1, 3))


def test_special_case_formulas_under_their_guards():
    rng = Random(179)
    checked_far = checked_near = flagged = 0
    for _ in range(600):
        x = random_cayley_point(rng, 8, 4)
        y = random_cayley_point(rng, 8, 4)
        exact = cayley_dist(x, y)
        dx, dy = direction_word(x), direction_word(y)
        px, py = position(x), position(y)
        two_c = double_gromov(dx, dy)
        wx = x if isinstance(x, CayleyPoint) else None
        wy = y if isinstance(y, CayleyPoint) else None
        lw = length_vector(wx.w) if wx else length_vector(x)
        lv = length_vector(wy.w) if wy else length_vector(y)
        if two_c <= lw.double() and two_c <= lv.double():
            la = LexVector.unit(wx.index).scale(1 - wx.t) if wx else ZERO
            lb = LexVector.unit(wy.index).scale(1 - wy.t) if wy else ZERO
            assert length_vector(multiply(inverse(dx), dy)) - la - lb == exact
            checked_far += 1
        if px.double() <= two_c:
            stated = py - px
            if dx == dy and py < px:
                assert stated == -exact  # the known sign-flip class
                flagged += 1
            else:
                assert stated == exact
                checked_near += 1
    assert checked_far > 50 and checked_near > 20


def test_embed_compare_examples():
    report = embed_compare(IDENTITY, 1)
    assert report.endpoints_only()
    assert (Fraction(0), ZERO) in report.matches
    assert (Fraction(1), vec(1)) in report.matches
    report = embed_compare(W("a2"), 1, points=2)  # t = 1/2 meets no lattice point
    assert report.t_count == 3
    assert report.matches == ((Fraction(0), ZERO), (Fraction(1), vec(1)))
    for points in (0, -3):  # refused, not a division by zero or an empty grid
        with pytest.raises(BigFreeError, match=f"^points must be at least 1, got {points}$"):
            embed_compare(IDENTITY, 1, points)
    with pytest.raises(ResourceLimitError, match="^points must be at most 100000, got 100001$"):
        embed_compare(IDENTITY, 1, MAX_EMBED_POINTS + 1)


# -- finite balls ---------------------------------------------------------------------

def oracle_ball_vertices(center, max_len, max_letter):
    """Independent enumeration: center * s for every reduced s of at most max_len letters,
    each s drawn from all letter strings over generators 1..max_letter."""
    letters = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)]
    return {multiply(center, Word(s)) for n in range(max_len + 1) for s in product(letters, repeat=n)
            if all(a != (b[0], -b[1]) for a, b in zip(s, s[1:]))}


def test_ball_counts():
    empty = ball_graph(IDENTITY, 0, 3)
    assert len(empty.vertices) == 1 and len(empty.edges) == 0
    one = ball_graph(IDENTITY, 1, 3)
    assert len(one.vertices) == 7 and len(one.edges) == 6
    two = ball_graph(IDENTITY, 2, 3)
    assert len(two.vertices) == 37 and len(two.edges) == 36


@pytest.mark.parametrize("center_text, max_len, max_letter", [("", 2, 2), ("a1 a2", 2, 2), ("a2^-1 a1", 1, 3)])
def test_ball_matches_enumeration_oracle(center_text, max_len, max_letter):
    center = W(center_text)
    graph = ball_graph(center, max_len, max_letter)
    assert set(graph.vertices) == oracle_ball_vertices(center, max_len, max_letter)
    assert len(graph.edges) == len(graph.vertices) - 1


def test_ball_cap_guard():
    with pytest.raises(ResourceLimitError):
        ball_graph(IDENTITY, 5, 5, cap=100)
    assert len(ball_graph(IDENTITY, 1, 2, cap=5).vertices) == 5
    with pytest.raises(ResourceLimitError, match="ball would exceed 6 vertices"):
        ball_graph(IDENTITY, 1, 3, cap=6)
    for cap in (0, -5):  # a ball holds its center, so even radius 0 is refused before counting
        with pytest.raises(BigFreeError, match=f"^ball vertex cap must be >= 1, got {cap}$"):
            ball_graph(IDENTITY, 0, 3, cap=cap)


@pytest.mark.parametrize("args, what, got", [
    ((1.5, 2), "radius", "float"),
    (("2", 2), "radius", "str"),
    ((True, 2), "radius", "bool"),
    ((1, 2.0), "letter bound", "float"),
    ((1, False), "letter bound", "bool"),
    ((1, 2, 10.5), "vertex cap", "float"),
    ((10**6, 10**6, 10.5), "vertex cap", "float"),  # refused before the count passes the cap
])
def test_ball_graph_refuses_a_radius_letter_bound_or_cap_that_is_not_an_int(args, what, got):
    with pytest.raises(BigFreeError, match=f"^ball {what} must be an int, got {got}$"):
        ball_graph(IDENTITY, *args)


def test_ball_cap_fires_before_the_alphabet_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="ball would exceed 10 vertices"):
            ball_graph(IDENTITY, 1, 10**6, cap=10)
        assert ball_graph(IDENTITY, 0, 10**6, cap=10).vertices == (IDENTITY,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_ball_letters_are_capped_before_any_vertex_is_built():
    # one generator: the vertices within radius r hold r(r + 1) letters, 999,000 at r = 999
    assert len(ball_graph(IDENTITY, 999, 1).vertices) == 1999
    with pytest.raises(ResourceLimitError, match=f"ball would exceed {MAX_WORD_LETTERS} letters in all"):
        ball_graph(IDENTITY, 1000, 1)
    # each vertex is charged the center's letters too: 3n + 2 letters at radius 1
    assert len(ball_graph(W("a2^333332"), 1, 1).vertices) == 3
    with pytest.raises(ResourceLimitError, match=f"ball would exceed {MAX_WORD_LETTERS} letters in all"):
        ball_graph(W("a2^333333"), 1, 1)


def test_ball_dot_output_is_deterministic_and_well_formed():
    graph = ball_graph(IDENTITY, 1, 2)
    dot = ball_dot(graph)
    assert dot == ball_dot(ball_graph(IDENTITY, 1, 2))
    assert dot.startswith("digraph ball {")
    assert '"1" [shape=doublecircle];' in dot
    assert '"1" -> "a1" [label="a1"];' in dot
    assert '"a1^-1" -> "1" [label="a1"];' in dot
    assert dot.rstrip().endswith("}")


def test_ball_json_schema():
    graph = ball_graph(W("a1"), 1, 2)
    payload = json.loads(ball_json(graph))
    assert set(payload) == {"center", "vertices", "edges"}
    assert payload["center"] == "a1"
    assert "" in payload["vertices"]  # the identity is one step from a1
    assert len(payload["edges"]) == len(payload["vertices"]) - 1
    for edge in payload["edges"]:
        assert set(edge) == {"from", "to", "label"}


def test_ball_exports_name_each_child_by_the_product_even_toward_the_identity():
    graph = ball_graph(W("a1"), 2, 2)  # children of a1 and of a1 a2^-1 cancel toward the identity
    edges = json.loads(ball_json(graph))["edges"]
    assert any(edge["to"] == "" for edge in edges)
    for edge in edges:
        assert edge["to"] == format_word(multiply(W(edge["from"]), W(edge["label"])))
    expected = []
    for edge in edges:
        parent, child = edge["from"] or "1", edge["to"] or "1"
        name = edge["label"].split("^")[0]
        expected.append((parent, child, name) if edge["label"] == name else (child, parent, name))
    assert re.findall(r'"(.*?)" -> "(.*?)" \[label="(.*?)"\];', ball_dot(graph)) == expected


def _old_letter_key(lt):
    idx, sign = lt
    return (idx, 0 if sign > 0 else 1)


def _old_word_key(w):
    return (len(w.letters), tuple(_old_letter_key(lt) for lt in w.letters))


def _old_exports(graph):
    """DOT and JSON by the old route: each edge child re-multiplied, JSON by ``json.dumps``."""
    label = {v: format_word(v) for v in graph.vertices}
    edges = [(label[p], format_word(multiply(p, Word((lt,)))), lt) for p, lt, _ in graph.edges]
    dot = ["digraph ball {", f'  "{label[graph.center] or "1"}" [shape=doublecircle];']
    dot += [f'  "{label[v] or "1"}";' for v in graph.vertices if v != graph.center]
    for p, c, lt in edges:
        tail, head = (p or "1", c or "1") if lt[1] > 0 else (c or "1", p or "1")
        dot.append(f'  "{tail}" -> "{head}" [label="{letter_name(lt[0])}"];')
    payload = {
        "center": label[graph.center],
        "vertices": [label[v] for v in graph.vertices],
        "edges": [{"from": p, "to": c, "label": letter_name(lt[0]) + ("" if lt[1] > 0 else "^-1")}
                  for p, c, lt in edges],
    }
    return "\n".join(dot + ["}"]) + "\n", json.dumps(payload, indent=2) + "\n"


def _check_prefix_and_edges(graph):
    """Each prefix is its vertex's letters less the last, the prefixes never decrease, and the
    derived edges are the vertex-prefix pairs rebuilt by multiply, ordered by parent, then letter."""
    vertices, prefix = graph.vertices, graph.prefix
    assert len(prefix) == len(vertices) and prefix[0] == -1
    assert all(vertices[prefix[i]].letters == vertices[i].letters[:-1] for i in range(1, len(vertices)))
    assert all(a <= b for a, b in zip(prefix, prefix[1:]))
    place = {v: i for i, v in enumerate(vertices)}
    back = inverse(graph.center)

    def radius(v):
        return len(multiply(back, v))

    rebuilt = []
    for i in range(1, len(vertices)):
        near, far = sorted((vertices[prefix[i]], vertices[i]), key=radius)
        step = multiply(inverse(near), far)
        assert len(step) == 1 and multiply(near, step) == far
        rebuilt.append((near, step.letters[0], far))
    rebuilt.sort(key=lambda e: (place[e[0]], _old_letter_key(e[1])))
    assert list(graph.edges) == rebuilt


@pytest.mark.parametrize("center_text,max_len,max_letter,size", [
    ("", 0, 3, 1),
    ("a1 a2", 0, 2, 1),
    ("a1 a2", 2, 0, 1),
    ("", 2, 3, 37),
    ("a1 a2^-1", 3, 2, 53),
    ("a2^-1 a1^3", 2, 3, 37),
    ("b a1^-1", 2, 2, 17),
    ("a2 b^-1", 1, 1, 3),
    ("a1 a2^-1", 4, 4, 3201),
])
def test_ball_order_and_exports_match_the_old_route(center_text, max_len, max_letter, size):
    graph = ball_graph(parse_word(center_text), max_len, max_letter)
    assert len(graph.vertices) == size and len(graph.edges) == size - 1
    assert list(graph.vertices) == sorted(graph.vertices, key=_old_word_key)
    pairs = [(p, lt) for p, lt, _ in graph.edges]
    assert pairs == sorted(pairs, key=lambda e: (_old_word_key(e[0]), _old_letter_key(e[1])))
    assert all(child == multiply(p, Word((lt,))) for p, lt, child in graph.edges)
    assert (ball_dot(graph), ball_json(graph)) == _old_exports(graph)
    _check_prefix_and_edges(graph)


@pytest.mark.parametrize("center_text", ["", "b a1", "a1^3", "a2^-2 a1", "a1^2 a2^-1", "a3 a1^-1 a2"])
def test_ball_texts_and_children_match_format_word_and_multiply(center_text):
    # the children cancel only along the center's prefixes, and a text is written from its prefix's
    center = parse_word(center_text)
    for max_len in range(4):
        for max_letter in range(4):
            graph = ball_graph(center, max_len, max_letter)
            assert list(graph.vertices) == sorted(graph.vertices, key=_old_word_key)
            assert all(child == multiply(parent, Word((lt,))) for parent, lt, child in graph.edges)
            texts = [format_word(v) for v in graph.vertices]
            payload = json.loads(ball_json(graph))
            assert payload["vertices"] == texts
            assert [parse_word(text) for text in payload["vertices"]] == list(graph.vertices)
            assert [(e["from"], e["to"]) for e in payload["edges"]] == [
                (format_word(parent), format_word(child)) for parent, _, child in graph.edges]
            names = re.findall(r'^  "(.*)"(?: \[shape=doublecircle\])?;$', ball_dot(graph), re.M)
            assert sorted(names) == sorted(text or "1" for text in texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 5, TOP]), st.sampled_from([1, -1])), max_size=5),
       st.integers(0, 3), st.integers(0, 3))
def test_ball_vertices_are_the_center_times_each_short_word(letters, max_len, max_letter):
    # centers with b and with letters above max_letter, whose prefix chain the alphabet cuts
    center = reduce(Word(letters))
    graph = ball_graph(center, max_len, max_letter)
    assert set(graph.vertices) == oracle_ball_vertices(center, max_len, max_letter)
    assert len(graph.vertices) == sum(reduced_word_counts(max_len, max_letter))


def _with_prefix_at(i, p):
    return lambda g: g._replace(prefix=g.prefix[:i] + (p,) + g.prefix[i + 1:])


@pytest.mark.parametrize("change", [
    lambda g: g._replace(vertices=g.vertices[::-1]),
    lambda g: g._replace(vertices=g.vertices[1:] + g.vertices[:1]),
    lambda g: g._replace(center=W("a4")),
    _with_prefix_at(1, 2),
    lambda g: BallGraph(W("a1"), (IDENTITY, W("a1")), (-1, 1)),
    _with_prefix_at(5, 3),
    lambda g: g._replace(prefix=g.prefix[:-1]),
    _with_prefix_at(5, 4.0),
    lambda g: BallGraph(IDENTITY, ("x",), (-1,)),
    lambda g: g._replace(center="a1 a2^-1"),
], ids=["vertices reversed", "bottom moved last", "center not a vertex", "prefix points forward",
        "prefix points to itself", "prefix is another word", "prefix too short", "prefix not an int",
        "vertex not a Word", "center not a Word"])
def test_ball_exports_refuse_a_graph_out_of_ball_graph_order(change):
    graph = change(ball_graph(W("a1 a2^-1"), 2, 2))
    for export in (ball_dot, ball_json, lambda g: g.edges):
        with pytest.raises(BigFreeError, match="^ball export needs the vertex and edge order of ball_graph$"):
            export(graph)


def test_ball_exports_read_a_hand_built_prefix_tree_and_refuse_one_with_no_prefixes():
    vertices = (W("a1"), W("a1 a2"))
    for export in (ball_dot, ball_json):
        with pytest.raises(BigFreeError, match="^ball export needs the vertex and edge order of ball_graph$"):
            export(BallGraph(W("a1"), vertices, ()))
    graph = BallGraph(W("a1"), vertices, (-1, 0))
    assert graph.edges == ((W("a1"), (2, 1), W("a1 a2")),)
    assert ball_dot(graph) == ('digraph ball {\n  "a1" [shape=doublecircle];\n  "a1 a2";\n'
                               '  "a1" -> "a1 a2" [label="a2"];\n}\n')
    assert json.loads(ball_json(graph)) == {"center": "a1", "vertices": ["a1", "a1 a2"],
                                            "edges": [{"from": "a1", "to": "a1 a2", "label": "a2"}]}


@st.composite
def _run_centers(draw):
    """A reduced word of up to 6 letters made of runs of 1-4 copies of one signed letter, b among them."""
    letters = ()
    for lt, n in draw(st.lists(st.tuples(st.sampled_from([(k, s) for k in (1, 2, 3, TOP) for s in (1, -1)]),
                                         st.integers(1, 4)), max_size=6)):
        if not letters or letters[-1][0] != lt[0]:  # a run that neither cancels nor joins the last one
            letters += (lt,) * n
    return Word(letters[:6])


@settings(max_examples=300, deadline=None)
@given(_run_centers(), st.integers(0, 3), st.integers(0, 3))
def test_ball_order_children_and_exports_match_the_old_routes_on_run_centers(center, max_len, max_letter):
    # runs that grow, shrink along the center's prefix chain, or end where it leaves the ball
    graph = ball_graph(center, max_len, max_letter)
    assert list(graph.vertices) == sorted(graph.vertices, key=_old_word_key)
    pairs = [(_old_word_key(parent), _old_letter_key(lt)) for parent, lt, _ in graph.edges]
    assert pairs == sorted(set(pairs))  # each (parent, letter) once, in the old order
    assert {child for _, _, child in graph.edges} == set(graph.vertices) - {center}
    assert len(graph.edges) == len(graph.vertices) - 1
    assert all(child == multiply(parent, Word((lt,))) for parent, lt, child in graph.edges)
    assert (ball_dot(graph), ball_json(graph)) == _old_exports(graph)
    _check_prefix_and_edges(graph)


# -- text form --------------------------------------------------------------------------

def test_cayley_point_text_roundtrip():
    x = cayley_point(W("a2"), 1, 1, Fraction(2, 7))
    assert format_cayley_point(x) == "(a2 ; a1^1 ; 2/7)"
    assert parse_cayley_point(format_cayley_point(x)) == x
    assert parse_cayley_point("a1 a2") == W("a1 a2")
    assert parse_cayley_point("( ; a1^-1 ; 1/3)") == cayley_point(IDENTITY, 1, -1, Fraction(1, 3))
