"""The big Cayley graph: rational edge offsets, metric, action, ball export.

Points are vertices (reduced words) or interior points (w, a^p, t) of the
unit edge from w to w a^p with exact rational 0 < t < 1: ``tree.EdgePoint``
with a rational offset, the paper's R interval.  Distances extend the word
metric: the position of a point is L(w) + t L(a), and the tree's formula
subtracts twice the smallest of the two positions and the Gromov product of
the far endpoints.  Finite balls export to DOT and JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .ordered_abelian import (
    TOP,
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    OMEGA,
    ParseError,
    ZERO,
    check_index,
)
from .tree import (
    EdgePoint,
    act_edge_point,
    direction_word,  # re-exported: a graph point's direction and position are the tree's
    edge_point_dist,
    format_edge_point,
    parse_edge_point,
    position,
)
from .words import (
    Letter,
    Word,
    format_word,
    letter_name,
    multiply,
)

class ResourceLimitError(BigFreeError):
    """A finite construction would exceed its configured cap."""


class CayleyPoint(EdgePoint):
    """Graph edge point: rational offset t with 0 < t < 1; vertices are bare Words."""

    __slots__ = ()
    _span = staticmethod(lambda index: 1)
    _coerce = staticmethod(Fraction)
    _vector = staticmethod(LexVector.unit)  # t L(a) is the unit vector at a, scaled to t


GraphPoint = Union[CayleyPoint, Word]


def cayley_point(w: Word, index: AlphabetIndex, sign: int, t) -> GraphPoint:
    """Build a point, collapsing the endpoints t = 0 and t = 1 to vertices."""
    t = Fraction(t)
    if t == 0:
        if not w.reduced:
            raise BigFreeError("base word must be reduced")
        return w
    if t == 1:
        return multiply(w, Word._make(((index, sign),), True))
    return CayleyPoint(w, index, sign, t)


cayley_dist = edge_point_dist  # rational-coordinate distance extending the word metric
cayley_act = act_edge_point


# -- embedding comparison -------------------------------------------------------

@dataclass(frozen=True)
class EmbedReport:
    """Coincidences between the graph-edge and lattice-edge embeddings.

    Both embeddings send an edge of the graph into the interval from 0 to
    L(w a); the graph edge tracks L(w) + t L(a) for rational t in [0,1], the
    lattice edge tracks L(w) + s for lattice s in [0, L(a)].  The two images
    should meet only at the shared endpoints.
    """

    w: Word
    index: AlphabetIndex
    t_count: int
    s_count: int
    matches: Tuple[Tuple[Fraction, LexVector], ...]

    def endpoints_only(self) -> bool:
        expected = {(Fraction(0), ZERO), (Fraction(1), LexVector.unit(self.index))}
        return set(self.matches) == expected


def default_t_grid(points: int = 100) -> List[Fraction]:
    return [Fraction(k, points) for k in range(points + 1)]


def default_s_grid(index: AlphabetIndex) -> List[LexVector]:
    """Lattice sample of [0, L(a)]: endpoints plus two-sided perturbations.

    The perturbations are c L(a_{index+j}) for j = 1..5 and c = 1..10.
    """
    unit = LexVector.unit(index)
    grid = [ZERO, unit]
    if index is TOP:
        return grid  # the TOP interval has no interior lattice points
    for j in range(1, 6):
        for c in range(1, 11):
            bump = LexVector.unit(index + j, c)
            grid.append(bump)         # just above 0
            grid.append(unit - bump)  # just below L(a)
    return grid


def embed_compare(
    w: Word,
    index: AlphabetIndex,
    t_grid: Optional[Iterable[Fraction]] = None,
) -> EmbedReport:
    """Report every grid coincidence of the two edge embeddings."""
    if not w.reduced:
        raise BigFreeError("base word must be reduced")
    check_index(index)
    ts = list(default_t_grid() if t_grid is None else t_grid)
    ss = default_s_grid(index)
    unit = LexVector.unit(index)
    lattice = set(ss)
    matches = []
    for t in ts:
        t = Fraction(t)
        image = unit.scale(t)  # common offset L(w) cancels from both sides
        if image in lattice:
            matches.append((t, image))
    return EmbedReport(w, index, len(ts), len(ss), tuple(matches))


# -- finite balls -----------------------------------------------------------------

@dataclass(frozen=True)
class BallGraph:
    """Tree of all words within a letter-count radius of the center."""

    center: Word
    vertices: Tuple[Word, ...]
    edges: Tuple[Tuple[Word, Letter], ...]  # (parent, letter): child = parent * letter
    max_len: int
    max_letter: int


def _letter_key(lt: Letter) -> tuple:
    idx, sign = lt
    return (idx is TOP, idx if idx is not TOP else 0, 0 if sign > 0 else 1)


def _word_key(w: Word) -> tuple:
    return (len(w.letters), tuple(_letter_key(lt) for lt in w.letters))


def ball_graph(center: Word, max_len: int, max_letter: int, cap: int = 100_000) -> BallGraph:
    """All reduced words within max_len letters of the center.

    Uses letters of index <= max_letter; the result is a tree rooted at the
    center.  Raises ResourceLimitError when the vertex count would pass cap.
    """
    if not center.reduced:
        raise BigFreeError("ball center must be reduced")
    if max_len < 0 or max_letter < 0:
        raise BigFreeError("ball radius and letter bound must be >= 0")
    if max_len >= 1 and 1 + 2 * max_letter > cap:
        raise ResourceLimitError(f"ball would exceed {cap} vertices")
    # radius 0 uses no letter; otherwise the guard above keeps the alphabet below cap
    alphabet = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)] if max_len else []
    vertices = [center]
    edges: list = []
    frontier: List[Tuple[Word, Optional[Letter]]] = [(center, None)]
    for _ in range(max_len):
        next_frontier = []
        for v, came_by in frontier:
            for lt in alphabet:
                if came_by is not None and lt == (came_by[0], -came_by[1]):
                    continue  # would backtrack toward the center
                child = multiply(v, Word._make((lt,), True))
                edges.append((v, lt))
                vertices.append(child)
                next_frontier.append((child, lt))
                if len(vertices) > cap:
                    raise ResourceLimitError(f"ball would exceed {cap} vertices")
        frontier = next_frontier
    order = sorted(range(len(vertices)), key=lambda i: _word_key(vertices[i]))
    ordered_vertices = tuple(vertices[i] for i in order)
    edges.sort(key=lambda e: (_word_key(e[0]), _letter_key(e[1])))
    return BallGraph(center, ordered_vertices, tuple(edges), max_len, max_letter)


def _labels(graph: BallGraph, identity: str) -> Tuple[Dict[Word, str], List[Tuple[str, str, Letter]]]:
    """Each vertex word formatted once, and the (parent, child, letter) labels of each edge."""
    label = {v: format_word(v) or identity for v in graph.vertices}
    edges = [(label[parent], label[multiply(parent, Word._make((lt,), True))], lt)
             for parent, lt in graph.edges]
    return label, edges


def ball_dot(graph: BallGraph) -> str:
    """Deterministic DOT text; edges point along the positive generator."""
    label, edges = _labels(graph, "1")
    lines = ["digraph ball {"]
    lines.append(f'  "{label[graph.center]}" [shape=doublecircle];')
    for v in graph.vertices:
        if v != graph.center:
            lines.append(f'  "{label[v]}";')
    for parent, child, lt in edges:
        tail, head = (parent, child) if lt[1] > 0 else (child, parent)
        lines.append(f'  "{tail}" -> "{head}" [label="{letter_name(lt[0])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_json(graph: BallGraph) -> str:
    """JSON with vertices, edges and center keys; word grammar strings."""
    label, edges = _labels(graph, "")
    payload = {
        "center": label[graph.center],
        "vertices": [label[v] for v in graph.vertices],
        "edges": [
            {"from": parent, "to": child, "label": letter_name(lt[0]) + ("" if lt[1] > 0 else "^-1")}
            for parent, child, lt in edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# -- text form --------------------------------------------------------------------

format_cayley_point = format_edge_point


def _parse_t(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"bad edge parameter {text!r} (want a rational p/q with q nonzero, or a decimal)") from None


def parse_cayley_point(text: str, alphabet: Alphabet = OMEGA) -> GraphPoint:
    return parse_edge_point(
        text, alphabet, lambda w, idx, sign, t: cayley_point(w, idx, sign, _parse_t(t)))
