"""The big Cayley graph: rational edge offsets, metric, action, ball export.

Points are vertices (reduced words) or interior points (w, a^p, t) of the
unit edge from w to w a^p with exact rational 0 < t < 1: ``tree.EdgePoint``
with a rational offset, the paper's R interval.  Distances extend the word
metric: the position of a point is L(w) + t L(a), and the tree's formula
subtracts twice the smallest of the two positions and the Gromov product of
the far endpoints.  A finite ball is a tree built breadth first: each edge
records its child, vertices sort by rank-coded letters, and the DOT and JSON
exports format each vertex once, write the JSON layout directly and form no
product.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .ordered_abelian import (
    TOP,
    Alphabet,
    AlphabetIndex,
    BigFreeError,
    LexVector,
    OMEGA,
    ParseError,
    ResourceLimitError,
    ZERO,
    _norm_coord,
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
    MAX_WORD_LETTERS,
    Letter,
    Word,
    format_word,
    letter_name,
    multiply,
    reduced_word_counts,
)


def _rational_offset(t) -> Fraction:
    """t as a Fraction: only an int or a Fraction is exact, so a float, bool or str is refused."""
    return t if type(t) is Fraction else Fraction(_norm_coord(t))


class CayleyPoint(EdgePoint):
    """Graph edge point: rational offset t with 0 < t < 1; vertices are bare Words."""

    __slots__ = ()
    _span = staticmethod(lambda index: 1)
    _coerce = staticmethod(_rational_offset)
    _vector = staticmethod(LexVector.unit)  # t L(a) is the unit vector at a, scaled to t


GraphPoint = Union[CayleyPoint, Word]


def cayley_point(w: Word, index: AlphabetIndex, sign: int, t) -> GraphPoint:
    """Build a point, collapsing the endpoints t = 0 and t = 1 to vertices."""
    if not w.reduced:
        raise BigFreeError("edge base word must be reduced")
    t = _rational_offset(t)
    if t == 0:
        return w
    if t == 1:
        return multiply(w, Word._make(((index, sign),), True))
    return CayleyPoint(w, index, sign, t)


cayley_dist = edge_point_dist  # rational-coordinate distance extending the word metric
cayley_act = act_edge_point


# -- embedding comparison -------------------------------------------------------

class EmbedReport(NamedTuple):
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

class BallGraph(NamedTuple):
    """Tree of all words within a letter-count radius of the center.

    Vertices are sorted by length, then letter by letter; each edge is a
    (parent, letter, child) triple with child = parent * letter, and edges
    are sorted by their parent's place among the vertices, then by letter.
    """

    center: Word
    vertices: Tuple[Word, ...]
    edges: Tuple[Tuple[Word, Letter, Word], ...]  # (parent, letter, child)
    max_len: int
    max_letter: int


def _letter_key(lt: Letter) -> tuple:
    idx, sign = lt
    return (idx is TOP, idx if idx is not TOP else 0, 0 if sign > 0 else 1)


def ball_graph(center: Word, max_len: int, max_letter: int, cap: int = 100_000) -> BallGraph:
    """All reduced words within max_len letters of the center.

    Uses letters of index <= max_letter; the result is a tree rooted at the
    center.  Raises ResourceLimitError when the vertex count would pass cap,
    or the letters of all vertices would pass MAX_WORD_LETTERS.  Both are
    counted length by length before any vertex is built, charging each
    vertex the center's letters plus its distance from the center.
    """
    if not center.reduced:
        raise BigFreeError("ball center must be reduced")
    if max_len < 0 or max_letter < 0:
        raise BigFreeError("ball radius and letter bound must be >= 0")
    vertex_count = letter_count = 0
    for length, count in enumerate(reduced_word_counts(max_len, max_letter)):
        vertex_count += count
        letter_count += count * (len(center.letters) + length)
        if vertex_count > cap:
            raise ResourceLimitError(f"ball would exceed {cap} vertices")
        if letter_count > MAX_WORD_LETTERS:
            raise ResourceLimitError(f"ball would exceed {MAX_WORD_LETTERS} letters in all")
    # radius 0 uses no letter; otherwise the count above keeps the alphabet below cap.
    # The alphabet is listed in _letter_key order, so each vertex's out-edges are too.
    alphabet = [(k, s) for k in range(1, max_letter + 1) for s in (1, -1)] if max_len else []
    vertices = [center]
    out: List[list] = [[]]  # out[i]: the edges from vertices[i]
    frontier: List[Tuple[int, Optional[Letter]]] = [(0, None)]  # (vertex index, letter back to its parent)
    for _ in range(max_len):
        next_frontier = []
        for i, back in frontier:
            v, edges = vertices[i], out[i]
            for lt in alphabet:
                if lt == back:
                    continue  # would backtrack toward the center
                child = multiply(v, Word._make((lt,), True))
                edges.append((v, lt, child))
                next_frontier.append((len(vertices), (lt[0], -lt[1])))
                vertices.append(child)
                out.append([])
        frontier = next_frontier
        if not frontier:
            break  # an empty alphabet: the center is the whole ball
    rank = {lt: r for r, lt in enumerate(sorted({*alphabet, *center.letters}, key=_letter_key))}
    keys = [(len(v.letters), tuple(map(rank.__getitem__, v.letters))) for v in vertices]
    order = sorted(range(len(vertices)), key=keys.__getitem__)
    return BallGraph(center, tuple(vertices[i] for i in order),
                     tuple(e for i in order for e in out[i]), max_len, max_letter)


def _labels(graph: BallGraph, quote: Callable[[str], str]) -> Tuple[Dict[tuple, str], List[Tuple[str, str, Letter]]]:
    """Each vertex formatted and quoted once, keyed by its letters in vertex
    order, and the (parent, child, letter) labels of each edge."""
    label = {v.letters: quote(format_word(v)) for v in graph.vertices}
    return label, [(label[parent.letters], label[child.letters], lt) for parent, lt, child in graph.edges]


def ball_dot(graph: BallGraph) -> str:
    """Deterministic DOT text; edges point along the positive generator."""
    label, edges = _labels(graph, lambda text: f'"{text or "1"}"')
    center = label[graph.center.letters]
    lines = ["digraph ball {", f"  {center} [shape=doublecircle];"]
    lines += [f"  {name};" for name in label.values() if name != center]
    for parent, child, lt in edges:
        tail, head = (parent, child) if lt[1] > 0 else (child, parent)
        lines.append(f'  {tail} -> {head} [label="{letter_name(lt[0])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_json(graph: BallGraph) -> str:
    """JSON with center, vertices and edges keys; word grammar strings.

    Written straight in the fixed layout of ``json.dumps(..., indent=2)``,
    each word quoted by the encoder's own ASCII escaping.
    """
    label, edges = _labels(graph, encode_basestring_ascii)
    vertices = ",\n    ".join(label.values())
    items = ",\n    ".join(
        f'{{\n      "from": {parent},\n      "to": {child},\n      '
        f'"label": "{letter_name(lt[0])}{"" if lt[1] > 0 else "^-1"}"\n    }}'
        for parent, child, lt in edges)
    edge_list = f"[\n    {items}\n  ]" if items else "[]"
    return (f'{{\n  "center": {label[graph.center.letters]},\n  "vertices": [\n    {vertices}\n  ],\n'
            f'  "edges": {edge_list}\n}}\n')


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
