"""Big free groups with exact lexicographic metrics and tree actions.

The group of reduced words over countably many generators carries a
vector-valued word metric ordered lexicographically; it embeds in a tree on
which it acts by isometries.  This package implements the words, the order,
the tree, the canonical edge coordinates, the rational Cayley-graph metric,
the quotient circles and the induced topology — all in exact arithmetic —
plus a CLI and seeded property suites.
"""

from .ordered_abelian import (
    TOP,
    AlphabetIndex,
    BigFreeError,
    HalfError,
    LexVector,
    ParseError,
    ZERO,
    format_vector,
    half_exact,
    parse_vector,
)
from .words import (
    Cancellation,
    CancellationCheck,
    IDENTITY,
    InvalidCancellationError,
    Word,
    apply_cancellation,
    common_prefix,
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
from .tree import (
    AxiomViolation,
    BASEPOINT,
    LengthOracle,
    TreePoint,
    bf_length_oracle,
    check_length_axioms,
    point_eq,
    tree_act,
    tree_dist,
    word_point,
    y_point,
)
from .triples import (
    CirclePoint,
    EdgeTriple,
    TripleDistReport,
    WEDGE,
    act_triple,
    circle_dist,
    from_triple,
    orbit_witness,
    project,
    simplified_triple_dist,
    to_triple,
    top_edge_instability,
    triple_dist,
    triple_dist_report,
)
from .cayley import (
    BallGraph,
    CayleyPoint,
    EmbedReport,
    ResourceLimitError,
    ball_dot,
    ball_graph,
    ball_json,
    cayley_act,
    cayley_dist,
    cayley_point,
    embed_compare,
)
from .topology import in_letter_ball, in_metric_ball

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
