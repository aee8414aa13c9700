"""Graph points over rationals: metric, action, embeddings, ball export."""

import json
import re
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from bigfree.cayley import (
    CayleyPoint,
    ResourceLimitError,
    ball_dot,
    ball_graph,
    ball_json,
    cayley_act,
    cayley_dist,
    cayley_point,
    direction_word,
    embed_compare,
    format_cayley_point,
    parse_cayley_point,
    position,
)
from bigfree.ordered_abelian import OMEGA, OMEGA_PLUS_ONE, TOP, BigFreeError, LexVector, ZERO
from bigfree.sampling import random_cayley_point, random_reduced_word
from bigfree.words import (
    IDENTITY, MAX_WORD_LETTERS, Word, double_gromov, format_word, inverse, length_vector, letter_name,
    multiply, parse_word, word_dist,
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
    report = embed_compare(W("a2"), 1, t_grid=[Fraction(1, 2)])
    assert report.matches == ()


# -- finite balls ---------------------------------------------------------------------

def oracle_ball_vertices(center, max_len, max_letter):
    """Independent enumeration: all products center * u with u short words."""
    letters = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)]
    seen = {center}
    tails = [()]
    for _ in range(max_len):
        new_tails = []
        for tail in tails:
            for lt in letters:
                if tail and tail[-1] == (lt[0], -lt[1]):
                    continue
                new_tails.append(tail + (lt,))
        for tail in new_tails:
            seen.add(multiply(center, Word(tail)))
        tails = new_tails
    return seen


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
    return (idx is TOP, idx if idx is not TOP else 0, 0 if sign > 0 else 1)


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


@pytest.mark.parametrize("center_text,alphabet,max_len,max_letter,size", [
    ("", OMEGA, 0, 3, 1),
    ("a1 a2", OMEGA, 0, 2, 1),
    ("a1 a2", OMEGA, 2, 0, 1),
    ("", OMEGA, 2, 3, 37),
    ("a1 a2^-1", OMEGA, 3, 2, 53),
    ("a2^-1 a1^3", OMEGA, 2, 3, 37),
    ("b a1^-1", OMEGA_PLUS_ONE, 2, 2, 17),
    ("a2 b^-1", OMEGA_PLUS_ONE, 1, 1, 3),
    ("a1 a2^-1", OMEGA, 4, 4, 3201),
])
def test_ball_order_and_exports_match_the_old_route(center_text, alphabet, max_len, max_letter, size):
    graph = ball_graph(parse_word(center_text, alphabet), max_len, max_letter)
    assert len(graph.vertices) == size and len(graph.edges) == size - 1
    assert list(graph.vertices) == sorted(graph.vertices, key=_old_word_key)
    pairs = [(p, lt) for p, lt, _ in graph.edges]
    assert pairs == sorted(pairs, key=lambda e: (_old_word_key(e[0]), _old_letter_key(e[1])))
    assert all(child == multiply(p, Word((lt,))) for p, lt, child in graph.edges)
    assert (ball_dot(graph), ball_json(graph)) == _old_exports(graph)


# -- text form --------------------------------------------------------------------------

def test_cayley_point_text_roundtrip():
    x = cayley_point(W("a2"), 1, 1, Fraction(2, 7))
    assert format_cayley_point(x) == "(a2 ; a1^1 ; 2/7)"
    assert parse_cayley_point(format_cayley_point(x)) == x
    assert parse_cayley_point("a1 a2") == W("a1 a2")
    assert parse_cayley_point("( ; a1^-1 ; 1/3)") == cayley_point(IDENTITY, 1, -1, Fraction(1, 3))
