"""A fuzzer over the golden corpus: every mutated argv is answered or refused, in bounded time.

Each example takes one corpus argv and swaps one or two of its arguments
for a token from ``POOL``: an extreme number, a huge rank, a bracket that is
empty or does not match, or a well-formed token of a neighbouring grammar
(a signed letter where a generator is wanted, a vector where a point is
wanted, the omega+1 letter ``b`` and suffix ``;TOP=``, which every grammar
reads).  It runs ``cli.main`` in-process through the corpus's ``record``,
under the same ``CASE_SECONDS`` alarm, and requires exit 0, 1 or 2, at most
``MAX_OUTPUT_BYTES`` of output and no ``internal error``.

The sample count of ``suite --samples`` and the ball bounds of
``axioms-check`` keep their corpus values: the cost of both is documented as
linear in those counts (``MAX_SUITE_SAMPLES``, ``MAX_AXIOM_SAMPLE``), so an
extreme value there is a slow answer by design, not a defect.

The examples are derandomized, so the budget below gives the same argv on
every run.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from bigfree.ordered_abelian import MAX_WORD_LETTERS
from test_cli_corpus import CASES, record

# the largest answer the caps allow: a million letters of up to 16 bytes each ("a1000000^-1", ", ")
MAX_OUTPUT_BYTES = 16 * MAX_WORD_LETTERS
EXAMPLES = 800

_NINES = "9" * 5000  # past the 4300 digits int() converts by default

POOL = (
    # extreme numbers
    "0", "-1", "1000000", "1000001", "99999999999", _NINES, "-" + _NINES, "1/0", "1e-100000000", "0.5",
    # huge ranks and long words
    "a1000000", "a1000001", "a99999999999", "a" + _NINES, "a1^1000001", "a1^" + _NINES,
    # brackets empty or unmatched
    "", " ", "[", "]", "[]", "[1,", "(", ")", "()", "( ; ; )", "(a1 ; a2^1 ; [0,0,1]", "C(", "C() @ []",
    "[1;TOP=]", "[;TOP=1/0]",
    # tokens of neighbouring grammars
    "a3^-1", "a1^2", "b", "b^-1", "[;TOP=1/2]", "[1,-1]", "[1] @ a1", "C(b) @ [;TOP=1/2]",
    "C(a1) @ [1,-1]", "( ; b^1 ; [;TOP=1/2])", "( ; b^-1 ; 1/2)", "(a1 ; a2^1 ; 1/3)",
    "( ; a1^1 ; [0,1])", "1-2,3-4", "--json", "a1 a1^-1",
)

# option values whose cost is documented as linear in them: kept as the corpus has them
_KEPT = {"suite": {"--samples"}, "axioms-check": {"--max-len", "--max-letter"}}


def _swappable(argv):
    """Positions of the arguments the fuzzer may swap: the values, not the command or an option name."""
    kept = _KEPT.get(argv[0], set())
    return [i for i in range(1, len(argv)) if argv[i - 1] not in kept and not argv[i].startswith("--")]


SEEDS = [argv for argv in CASES if argv and _swappable(argv)]


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(SEEDS)))
    for i in draw(st.lists(st.sampled_from(_swappable(argv)), min_size=1, max_size=2, unique=True)):
        argv[i] = draw(st.sampled_from(POOL))
    return argv


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_argv())
def test_a_mutated_corpus_argv_is_answered_or_refused(argv):
    result = record(argv)
    assert result["code"] in (0, 1, 2)
    if result["code"] != 2:  # record keeps only the code of a usage error
        assert len(result["stdout"].encode()) + len(result["stderr"].encode()) <= MAX_OUTPUT_BYTES
        assert "internal error" not in result["stderr"]
        assert result["code"] == 0 or (result["stdout"], result["stderr"].count("\n")) == ("", 1)
