"""The package namespace: ``bigfree`` exports each layer's names, each read from its layer on first use."""

import importlib

import pytest

import bigfree
from test_cli import python

# the parent's exports by layer; each layer module is exported too
EXPORTS = {
    "ordered_abelian": ("TOP", "AlphabetIndex", "BigFreeError", "HalfError", "LexVector", "ParseError",
                        "ResourceLimitError", "ZERO", "format_vector", "half_exact", "parse_vector"),
    "words": ("Cancellation", "CancellationCheck", "IDENTITY", "InvalidCancellationError", "Word",
              "apply_cancellation", "common_prefix", "double_gromov", "format_word", "gromov", "harmonic_word",
              "inverse", "is_subword", "length_vector", "multiply", "parse_word", "reduce", "subwords",
              "verify_cancellation", "word_dist"),
    "tree": ("AxiomViolation", "BASEPOINT", "LengthOracle", "TreePoint", "bf_length_oracle", "check_length_axioms",
             "point_eq", "tree_act", "tree_dist", "word_point", "y_point"),
    "triples": ("CirclePoint", "EdgeTriple", "TripleDistReport", "WEDGE", "act_triple", "circle_dist", "from_triple",
                "orbit_witness", "project", "simplified_triple_dist", "to_triple", "top_edge_instability",
                "triple_dist", "triple_dist_report"),
    "cayley": ("BallGraph", "CayleyPoint", "EmbedReport", "ball_dot", "ball_graph", "ball_json", "cayley_act",
               "cayley_dist", "cayley_point", "embed_compare"),
    "topology": ("in_letter_ball", "in_metric_ball"),
}
NAMES = [(layer, name) for layer, names in EXPORTS.items() for name in (layer, *names)]


def test_the_package_exports_its_seventy_four_names():
    assert len(NAMES) == 74
    assert sorted(bigfree.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("layer, name", NAMES, ids=[name for _, name in NAMES])
def test_each_export_is_the_object_of_its_layer(layer, name):
    module = importlib.import_module(f"bigfree.{layer}")
    assert getattr(bigfree, name) is (module if name == layer else getattr(module, name))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bigfree.no_such_name  # noqa: B018
    with pytest.raises(AttributeError):
        bigfree.format_tree_point  # noqa: B018  (a layer function the package does not export)


@pytest.mark.parametrize("statement, output", [
    ("from bigfree import *; import bigfree; "
     "print(len(bigfree.__all__), [n for n in bigfree.__all__ if globals()[n] is not getattr(bigfree, n)])",
     "74 []\n"),
    ("from bigfree import sampling; print(sampling.__name__)", "bigfree.sampling\n"),
], ids=["star", "sampling"])
def test_imports_from_the_package_work_in_a_fresh_interpreter(statement, output):
    proc = python("-c", statement)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, output, "")
