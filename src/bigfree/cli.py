"""Command-line front end: one subcommand per library operation plus suites.

Every subcommand is one row of the ordered ``COMMANDS`` table, and
``build_parser`` is one loop over it.  Most rows are queries: the row names
the library operation, its positional arguments with the text grammar of
each, the formatter of the result and the ``--json`` key, and one handler
serves them all; a row without a formatter prints its operation's JSON value
(the membership commands return a bool) as JSON text.  The rest name their
own handler, because their output is not one formatted value.

A call loads only the layers its row names.  This module imports
``ordered_abelian`` and ``words``; a query row names its functions as
``"<layer>.<name>"`` and ``_resolve`` imports that layer when the row runs,
and a handler imports its layers in its body.  ``json`` is imported only for
output that is JSON text.

Exit codes: 0 success, 1 domain error (bad values, non-canonical input),
2 usage error, 3 internal error (an exception that is not a domain error,
reported as one line without a traceback); ``suite`` and ``axioms-check``
also exit 1 when a check fails.  Every query subcommand takes
``--json`` for machine-readable output.  Every grammar reads the omega+1
letter ``b`` and the vector suffix ``;TOP=c``; an input without them is an
omega input and gets the same answer.  All values are printed in the exact
text grammars of the library.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, NamedTuple, Optional

from .ordered_abelian import BigFreeError, ResourceLimitError, format_vector, read_number
from .words import (
    IDENTITY,
    format_cancellation,
    format_word,
    letter_name,
    parse_cancellation,
    parse_generator,
    parse_word,
    subwords,
    verify_cancellation,
)


def _json(value, indent=None) -> str:
    import json  # only output that is JSON text loads the module

    return json.dumps(value, indent=indent)


def _emit(args, text: str, payload) -> int:
    if getattr(args, "json", False):
        print(_json(payload, indent=2))
    else:
        print(text)
    return 0


def integer(text: str) -> int:
    """An integer option: ``read_number``, with its refusals as argparse usage errors.

    A number too long is reported by its length, so the usage error does not
    echo its digits; any other bad text keeps argparse's own message.
    """
    try:
        return read_number(text)
    except ResourceLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- handlers of the commands that are not one formatted value ----------------------

def _cmd_subwords(args) -> int:
    items = subwords(parse_word(args.word))
    text = "\n".join(format_word(v) for v in items)
    return _emit(args, text, {"subwords": [format_word(v) for v in items]})


def _cmd_cancel_verify(args) -> int:
    w = parse_word(args.word)
    c = parse_cancellation(args.pairs)
    check = verify_cancellation(w, c)
    if check.ok:
        return _emit(args, "valid", {"ok": True, "pairs": format_cancellation(c)})
    text = f"violation: {check.reason} at t={check.position} ({check.detail})"
    return _emit(args, text, {
        "ok": False,
        "reason": check.reason,
        "position": check.position,
        "detail": check.detail,
    })


MAX_AXIOM_SAMPLE = 1000  # axioms-check forms every pairwise product, so its cost grows with the square
MAX_SUITE_SAMPLES = 100_000  # ten times the default; the suite's time grows linearly with it


def _cmd_axioms_check(args) -> int:
    from .cayley import ball_graph
    from .tree import bf_length_oracle, check_length_axioms

    sample = ball_graph(IDENTITY, args.max_len, args.max_letter, cap=MAX_AXIOM_SAMPLE).vertices
    violation = check_length_axioms(bf_length_oracle(), sample)
    if violation is None:
        text = f"pass: {len(sample)} elements, length axioms and integrality hold"
        return _emit(args, text, {"ok": True, "elements": len(sample)})
    text = f"violation {violation.axiom}: {violation.message}"
    _emit(args, text, {"ok": False, "axiom": violation.axiom, "message": violation.message})
    return 1


def _cmd_triple_dist(args) -> int:
    from .triples import parse_triple, triple_dist_report

    report = triple_dist_report(parse_triple(args.left), parse_triple(args.right))
    if report.simplified is None:
        comparison = "simplified-formula: n/a (degenerate endpoint)"
    else:
        verdict = "agrees" if report.agrees else "disagrees"
        comparison = f"simplified-formula: {format_vector(report.simplified)} ({verdict})"
    text = f"{format_vector(report.exact)}\n{comparison}"
    return _emit(args, text, {
        "distance": format_vector(report.exact),
        "simplified": None if report.simplified is None else format_vector(report.simplified),
        "agrees": report.agrees,
    })


def _cmd_embed_compare(args) -> int:
    from .cayley import embed_compare

    w = parse_word(args.word)
    index = parse_generator(args.letter)
    letter = letter_name(index)
    report = embed_compare(w, index, args.points)
    lines = [
        f"edge ({format_word(w) or 'identity'}, {letter}): "
        f"{len(report.matches)} coincidences over {report.t_count} x {report.s_count} grid points"
    ]
    for t, s in report.matches:
        lines.append(f"  t={t} <-> s={format_vector(s)}")
    lines.append("endpoints-only: " + ("true" if report.endpoints_only() else "false"))
    return _emit(args, "\n".join(lines), {
        "word": format_word(w),
        "letter": letter,
        "matches": [{"t": str(t), "s": format_vector(s)} for t, s in report.matches],
        "endpoints_only": report.endpoints_only(),
    })


def _cmd_ball(args) -> int:
    from .cayley import ball_dot, ball_graph, ball_json

    center = parse_word(args.center)
    graph = ball_graph(center, args.max_len, args.max_letter, cap=args.cap)
    sys.stdout.write(ball_json(graph) if args.as_json else ball_dot(graph))
    return 0


def _cmd_demo(args) -> int:
    from .triples import format_triple, top_edge_instability

    rows = top_edge_instability(args.depth)
    lines = [
        f"k={k}  word={format_word(w)}  coordinates={format_triple(e)}"
        for k, w, e in rows
    ]
    return _emit(args, "\n".join(lines), {
        "rows": [
            {"k": k, "word": format_word(w), "coordinates": format_triple(e)}
            for k, w, e in rows
        ]
    })


def _cmd_suite(args) -> int:
    if args.samples > MAX_SUITE_SAMPLES:
        raise ResourceLimitError(f"--samples must be at most {MAX_SUITE_SAMPLES}, got {args.samples}")
    from .suite import format_results, run_all

    results = run_all(samples=args.samples, seed=args.seed)
    sys.stdout.write(format_results(results))
    return 0 if all(r.ok for r in results) else 1


# -- the command table -------------------------------------------------------------

def _arg(*flags, **options):
    """Spec of one ``add_argument`` call."""
    return flags, options


class Command(NamedTuple):
    """One subcommand: name, help text, handler and argument specs.

    An ``args`` entry is an ``_arg`` spec, or a list of specs of which the
    user must give exactly one.  ``json_flag`` adds the shared ``--json``.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    args: tuple = ()
    json_flag: bool = True


class Pos(NamedTuple):
    """Positional argument of a query: its name, its grammar ``parse(text)`` as a ``_resolve`` name, its help."""

    name: str
    parse: str
    help: Optional[str] = None


def _resolve(ref: str) -> Callable:
    """The library function named ``"<layer>.<name>"``; its layer is imported on first use."""
    layer, _, name = ref.partition(".")
    return getattr(importlib.import_module(f"{__package__}.{layer}"), name)


def _query(name: str, help_text: str, op: str, params, fmt: Optional[str], key: str) -> Command:
    """Row that parses its positionals in order, calls ``op`` and prints ``fmt`` of the result.

    ``op``, each parser and ``fmt`` are ``_resolve`` names, read when the row
    runs, so a call loads only the layers its row names.  Under ``--json`` the
    output is ``{key: value}``, with ``value`` what ``fmt`` returned.  With no
    ``fmt`` the value is ``op``'s own result, a JSON value (the membership
    commands return a bool), and it prints as its JSON text.
    """
    def run(args) -> int:
        value = _resolve(op)(*(_resolve(p.parse)(getattr(args, p.name)) for p in params))
        if fmt is not None:
            value = _resolve(fmt)(value)
        return _emit(args, value if isinstance(value, str) else _json(value), {key: value})

    return Command(name, help_text, run, tuple(_arg(p.name, help=p.help) for p in params))


WORD = "words.parse_word"
TREE_POINT = "tree.parse_tree_point"
TRIPLE = "triples.parse_triple"
CAYLEY_POINT = "cayley.parse_cayley_point"

COMMANDS = (
    _query("reduce", "reduced form of a word", "words.reduce", [Pos("word", WORD)], "words.format_word", "word"),
    _query("mul", "product of two words (reduced)", "words.multiply",
           [Pos("left", WORD), Pos("right", WORD)], "words.format_word", "word"),
    _query("inv", "inverse word", "words.inverse", [Pos("word", WORD)], "words.format_word", "word"),
    _query("len", "length vector of a word", "words.length_vector",
           [Pos("word", WORD)], "ordered_abelian.format_vector", "length"),
    _query("dist", "vector distance between two words", "words.word_dist",
           [Pos("left", WORD), Pos("right", WORD)], "ordered_abelian.format_vector", "distance"),
    _query("gromov", "Gromov product at the identity", "words.gromov",
           [Pos("left", WORD), Pos("right", WORD)], "ordered_abelian.format_vector", "gromov"),
    _query("prefix", "longest common initial segment", "words.common_prefix",
           [Pos("left", WORD), Pos("right", WORD)], "words.format_word", "word"),
    Command("subwords", "all initial segments in order", _cmd_subwords, (_arg("word"),)),
    Command("cancel-verify", "check a cancellation pairing", _cmd_cancel_verify,
            (_arg("word"), _arg("pairs", help="comma-separated i-j position pairs"))),

    _query("tree-dist", "distance between tree points", "tree.tree_dist",
           [Pos("left", TREE_POINT, "point as '<vector> @ <word>'"), Pos("right", TREE_POINT)],
           "ordered_abelian.format_vector", "distance"),
    _query("tree-act", "act on a tree point", "tree.tree_act",
           [Pos("word", WORD), Pos("point", TREE_POINT)], "tree.format_tree_point", "point"),
    _query("y", "median word of three group elements", "tree.y_point",
           [Pos("v", WORD), Pos("x", WORD), Pos("y", WORD)], "words.format_word", "word"),
    Command("axioms-check", "length-function axioms on an exhaustive ball", _cmd_axioms_check,
            (_arg("--max-len", type=integer, default=3), _arg("--max-letter", type=integer, default=2))),

    _query("to-triple", "canonical edge coordinates of a tree point", "triples.to_triple",
           [Pos("point", TREE_POINT)], "triples.format_triple", "triple"),
    _query("from-triple", "tree point named by edge coordinates", "triples.from_triple",
           [Pos("triple", TRIPLE, "'(<word> ; a<k>^<p> ; <vector>)' or a bare word")],
           "tree.format_tree_point", "point"),
    _query("triple-act", "act in edge coordinates", "triples.act_triple",
           [Pos("word", WORD), Pos("triple", TRIPLE)], "triples.format_triple", "triple"),
    Command("triple-dist", "exact distance plus shortcut-formula comparison", _cmd_triple_dist,
            (_arg("left"), _arg("right"))),
    _query("project", "projection to the wedge of circles", "triples.project",
           [Pos("triple", TRIPLE)], "triples.format_circle_point", "circle_point"),
    _query("circle-dist", "distance on the wedge of circles", "triples.circle_dist",
           [Pos("left", "triples.parse_circle_point", "point as 'C(a<k>) @ <vector>'"),
            Pos("right", "triples.parse_circle_point")],
           "ordered_abelian.format_vector", "distance"),

    _query("cayley-dist", "graph distance (rational coordinates)", "cayley.cayley_dist",
           [Pos("left", CAYLEY_POINT, "'(<word> ; a<k>^<p> ; <t>)' with rational t, or a bare word"),
            Pos("right", CAYLEY_POINT)],
           "ordered_abelian.format_vector", "distance"),
    _query("cayley-act", "act on a graph point", "cayley.cayley_act",
           [Pos("word", WORD), Pos("point", CAYLEY_POINT)], "cayley.format_cayley_point", "point"),
    Command("embed-compare", "compare the two edge embeddings", _cmd_embed_compare, (
        _arg("word"),
        _arg("letter", help="a<k> or b"),
        _arg("--points", type=integer, default=100, help="rational grid resolution (default 100)"),
    )),
    Command("ball", "finite ball as DOT or JSON", _cmd_ball, (
        _arg("max_len", type=integer),
        _arg("max_letter", type=integer),
        _arg("--center", default="", help="center word (default identity)"),
        _arg("--cap", type=integer, default=100_000, help="vertex-count guard"),
        [_arg("--dot", dest="as_json", action="store_false"),
         _arg("--json", dest="as_json", action="store_true")],
    ), json_flag=False),

    _query("ball-letter", "letter-ball membership", "topology.in_letter_ball",
           [Pos("center", WORD),
            Pos("letter", "words.parse_generator", "threshold letter a<k> or b"),
            Pos("word", WORD)],
           None, "inside"),
    _query("ball-metric", "metric-ball membership", "topology.in_metric_ball",
           [Pos("center", WORD), Pos("eps", "ordered_abelian.parse_vector", "positive radius vector"),
            Pos("word", WORD)],
           None, "inside"),

    Command("demo", "run a named demonstration", _cmd_demo,
            (_arg("name", choices=("omega-plus-one",)), _arg("--depth", type=integer, default=8))),
    Command("suite", "run all property suites", _cmd_suite,
            (_arg("--samples", type=integer, default=10000), _arg("--seed", type=integer, default=0)),
            json_flag=False),
)


def _add_arguments(target, specs) -> None:
    for spec in specs:
        if isinstance(spec, list):
            _add_arguments(target.add_mutually_exclusive_group(required=True), spec)
        else:
            flags, options = spec
            target.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigfree",
        description="Big free group words, lexicographic metrics, tree actions and exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")

    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--json", action="store_true", help="machine-readable output")

    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, parents=[query] if cmd.json_flag else [], help=cmd.help)
        p.set_defaults(func=cmd.run)
        _add_arguments(p, cmd.args)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BigFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
