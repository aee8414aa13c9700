"""Big free groups with exact lexicographic metrics and tree actions.

The group of reduced words over countably many generators carries a
vector-valued word metric ordered lexicographically; it embeds in a tree on
which it acts by isometries.  This package implements the words, the order,
the tree, the canonical edge coordinates, the rational Cayley-graph metric,
the quotient circles and the induced topology — all in exact arithmetic —
plus a CLI and seeded property suites.

The package exports the names of ``_LAYERS`` and the layer modules
themselves.  A layer is imported when one of its names is first read
(PEP 562), so ``import bigfree`` alone loads no layer.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = {
    "ordered_abelian": (
        "TOP", "AlphabetIndex", "BigFreeError", "HalfError", "LexVector", "ParseError",
        "ResourceLimitError", "ZERO", "format_vector", "half_exact", "parse_vector",
    ),
    "words": (
        "Cancellation", "CancellationCheck", "IDENTITY", "InvalidCancellationError", "Word",
        "apply_cancellation", "common_prefix", "double_gromov", "format_word", "gromov",
        "harmonic_word", "inverse", "is_subword", "length_vector", "multiply", "parse_word",
        "reduce", "subwords", "verify_cancellation", "word_dist",
    ),
    "tree": (
        "AxiomViolation", "BASEPOINT", "LengthOracle", "TreePoint", "bf_length_oracle",
        "check_length_axioms", "point_eq", "tree_act", "tree_dist", "word_point", "y_point",
    ),
    "triples": (
        "CirclePoint", "EdgeTriple", "TripleDistReport", "WEDGE", "act_triple", "circle_dist",
        "from_triple", "orbit_witness", "project", "simplified_triple_dist", "to_triple",
        "top_edge_instability", "triple_dist", "triple_dist_report",
    ),
    "cayley": (
        "BallGraph", "CayleyPoint", "EmbedReport", "ball_dot", "ball_graph", "ball_json",
        "cayley_act", "cayley_dist", "cayley_point", "embed_compare",
    ),
    "topology": ("in_letter_ball", "in_metric_ball"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names)}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value
