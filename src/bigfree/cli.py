"""Command-line front end: one subcommand per library operation plus suites.

Every subcommand is one row of the ordered ``COMMANDS`` table, and
``build_parser`` is one loop over it.  Most rows are queries: the row names
the library operation, its positional arguments with the text grammar of
each, the formatter of the result and the ``--json`` key, and one handler
serves them all.  The rest name their own handler, because their output is
not one formatted value or they parse their arguments out of order.

Exit codes: 0 success, 1 domain error (bad values, non-canonical input),
2 usage error, 3 internal error (an exception that is not a domain error,
reported as one line without a traceback).  Every query subcommand takes
``--json`` for machine-readable output and ``--alphabet omega|omega+1`` to
select the index-set instance; all values are printed in the exact text
grammars of the library.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple, Optional

from .cayley import (
    ball_dot,
    ball_graph,
    ball_json,
    cayley_act,
    cayley_dist,
    default_t_grid,
    embed_compare,
    format_cayley_point,
    parse_cayley_point,
)
from .ordered_abelian import (
    BigFreeError,
    ResourceLimitError,
    alphabet_by_name,
    format_vector,
    parse_vector,
)
from .sampling import enumerate_reduced_words
from .topology import in_letter_ball, in_metric_ball
from .tree import (
    bf_length_oracle,
    check_length_axioms,
    format_tree_point,
    parse_tree_point,
    tree_act,
    tree_dist,
    y_point,
)
from .triples import (
    act_triple,
    circle_dist,
    format_circle_point,
    format_triple,
    from_triple,
    parse_circle_point,
    parse_triple,
    project,
    to_triple,
    top_edge_instability,
    triple_dist_report,
)
from .words import (
    common_prefix,
    format_cancellation,
    format_word,
    gromov,
    inverse,
    length_vector,
    multiply,
    parse_cancellation,
    parse_letter_token,
    parse_word,
    reduce,
    reduced_word_counts,
    subwords,
    verify_cancellation,
    word_dist,
)


def _emit(args, text: str, payload) -> int:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return 0


def _alphabet(args):
    return alphabet_by_name(args.alphabet)


# -- handlers of the commands that are not one formatted value ----------------------

def _cmd_subwords(args) -> int:
    items = subwords(parse_word(args.word, _alphabet(args)))
    text = "\n".join(format_word(v) for v in items)
    return _emit(args, text, {"subwords": [format_word(v) for v in items]})


def _cmd_cancel_verify(args) -> int:
    w = parse_word(args.word, _alphabet(args))
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


def _cmd_axioms_check(args) -> int:
    total = 0  # reduced words counted one length at a time, before any is built
    for count in reduced_word_counts(args.max_len, args.max_letter):
        total += count
        if total > MAX_AXIOM_SAMPLE:
            raise ResourceLimitError(f"axioms-check sample would exceed {MAX_AXIOM_SAMPLE} elements")
    sample = enumerate_reduced_words(args.max_len, args.max_letter)
    violation = check_length_axioms(bf_length_oracle(), sample)
    if violation is None:
        text = f"pass: {len(sample)} elements, length axioms and integrality hold"
        return _emit(args, text, {"ok": True, "elements": len(sample)})
    text = f"violation {violation.axiom}: {violation.message}"
    return _emit(args, text, {"ok": False, "axiom": violation.axiom, "message": violation.message})


def _cmd_triple_dist(args) -> int:
    al = _alphabet(args)
    report = triple_dist_report(parse_triple(args.left, al), parse_triple(args.right, al))
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
    al = _alphabet(args)
    w = parse_word(args.word, al)
    index, _ = parse_letter_token(args.letter, al)
    if args.points < 1:
        raise BigFreeError(f"--points must be at least 1, got {args.points}")
    report = embed_compare(w, index, t_grid=default_t_grid(args.points))
    lines = [
        f"edge ({format_word(w) or 'identity'}, {args.letter}): "
        f"{len(report.matches)} coincidences over {report.t_count} x {report.s_count} grid points"
    ]
    for t, s in report.matches:
        lines.append(f"  t={t} <-> s={format_vector(s)}")
    lines.append("endpoints-only: " + ("true" if report.endpoints_only() else "false"))
    return _emit(args, "\n".join(lines), {
        "word": format_word(w),
        "letter": args.letter,
        "matches": [{"t": str(t), "s": format_vector(s)} for t, s in report.matches],
        "endpoints_only": report.endpoints_only(),
    })


def _cmd_ball(args) -> int:
    al = _alphabet(args)
    center = parse_word(args.center, al)
    graph = ball_graph(center, args.max_len, args.max_letter, cap=args.cap)
    sys.stdout.write(ball_json(graph) if args.as_json else ball_dot(graph))
    return 0


def _cmd_ball_letter(args) -> int:
    al = _alphabet(args)
    threshold, _ = parse_letter_token(args.letter, al)
    inside = in_letter_ball(parse_word(args.center, al), threshold, parse_word(args.word, al))
    return _emit(args, "true" if inside else "false", {"inside": inside})


def _cmd_ball_metric(args) -> int:
    al = _alphabet(args)
    eps = parse_vector(args.eps, al)
    inside = in_metric_ball(parse_word(args.center, al), eps, parse_word(args.word, al))
    return _emit(args, "true" if inside else "false", {"inside": inside})


def _cmd_demo(args) -> int:
    if args.name != "omega-plus-one":
        raise BigFreeError(f"unknown demo {args.name!r}")
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
    from .suite import format_results, run_all  # imported here only to keep `import bigfree.cli` light

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
    """Positional argument of a query: its name, its grammar ``parse(text, alphabet)``, its help."""

    name: str
    parse: Callable
    help: Optional[str] = None


def _query(name: str, help_text: str, op: Callable, params, fmt: Callable, key: str) -> Command:
    """Row that parses its positionals in order, calls ``op`` and prints ``fmt`` of the result.

    Under ``--json`` the output is ``{key: text}``.
    """
    def run(args) -> int:
        al = _alphabet(args)
        text = fmt(op(*(p.parse(getattr(args, p.name), al) for p in params)))
        return _emit(args, text, {key: text})

    return Command(name, help_text, run, tuple(_arg(p.name, help=p.help) for p in params))


COMMANDS = (
    _query("reduce", "reduced form of a word", reduce, [Pos("word", parse_word)], format_word, "word"),
    _query("mul", "product of two words (reduced)", multiply,
           [Pos("left", parse_word), Pos("right", parse_word)], format_word, "word"),
    _query("inv", "inverse word", inverse, [Pos("word", parse_word)], format_word, "word"),
    _query("len", "length vector of a word", length_vector,
           [Pos("word", parse_word)], format_vector, "length"),
    _query("dist", "vector distance between two words", word_dist,
           [Pos("left", parse_word), Pos("right", parse_word)], format_vector, "distance"),
    _query("gromov", "Gromov product at the identity", gromov,
           [Pos("left", parse_word), Pos("right", parse_word)], format_vector, "gromov"),
    _query("prefix", "longest common initial segment", common_prefix,
           [Pos("left", parse_word), Pos("right", parse_word)], format_word, "word"),
    Command("subwords", "all initial segments in order", _cmd_subwords, (_arg("word"),)),
    Command("cancel-verify", "check a cancellation pairing", _cmd_cancel_verify,
            (_arg("word"), _arg("pairs", help="comma-separated i-j position pairs"))),

    _query("tree-dist", "distance between tree points", tree_dist,
           [Pos("left", parse_tree_point, "point as '<vector> @ <word>'"), Pos("right", parse_tree_point)],
           format_vector, "distance"),
    _query("tree-act", "act on a tree point", tree_act,
           [Pos("word", parse_word), Pos("point", parse_tree_point)], format_tree_point, "point"),
    _query("y", "median word of three group elements", y_point,
           [Pos("v", parse_word), Pos("x", parse_word), Pos("y", parse_word)], format_word, "word"),
    Command("axioms-check", "length-function axioms on an exhaustive ball", _cmd_axioms_check,
            (_arg("--max-len", type=int, default=3), _arg("--max-letter", type=int, default=2))),

    _query("to-triple", "canonical edge coordinates of a tree point", to_triple,
           [Pos("point", parse_tree_point)], format_triple, "triple"),
    _query("from-triple", "tree point named by edge coordinates", from_triple,
           [Pos("triple", parse_triple, "'(<word> ; a<k>^<p> ; <vector>)' or a bare word")],
           format_tree_point, "point"),
    _query("triple-act", "act in edge coordinates", act_triple,
           [Pos("word", parse_word), Pos("triple", parse_triple)], format_triple, "triple"),
    Command("triple-dist", "exact distance plus shortcut-formula comparison", _cmd_triple_dist,
            (_arg("left"), _arg("right"))),
    _query("project", "projection to the wedge of circles", project,
           [Pos("triple", parse_triple)], format_circle_point, "circle_point"),
    _query("circle-dist", "distance on the wedge of circles", circle_dist,
           [Pos("left", parse_circle_point, "point as 'C(a<k>) @ <vector>'"), Pos("right", parse_circle_point)],
           format_vector, "distance"),

    _query("cayley-dist", "graph distance (rational coordinates)", cayley_dist,
           [Pos("left", parse_cayley_point, "'(<word> ; a<k>^<p> ; <t>)' with rational t, or a bare word"),
            Pos("right", parse_cayley_point)],
           format_vector, "distance"),
    _query("cayley-act", "act on a graph point", cayley_act,
           [Pos("word", parse_word), Pos("point", parse_cayley_point)], format_cayley_point, "point"),
    Command("embed-compare", "compare the two edge embeddings", _cmd_embed_compare, (
        _arg("word"),
        _arg("letter", help="a<k> or b"),
        _arg("--points", type=int, default=100, help="rational grid resolution (default 100)"),
    )),
    Command("ball", "finite ball as DOT or JSON", _cmd_ball, (
        _arg("max_len", type=int),
        _arg("max_letter", type=int),
        _arg("--center", default="", help="center word (default identity)"),
        _arg("--cap", type=int, default=100_000, help="vertex-count guard"),
        [_arg("--dot", dest="as_json", action="store_false"),
         _arg("--json", dest="as_json", action="store_true")],
    ), json_flag=False),

    Command("ball-letter", "letter-ball membership", _cmd_ball_letter,
            (_arg("center"), _arg("letter", help="threshold letter a<k> or b"), _arg("word"))),
    Command("ball-metric", "metric-ball membership", _cmd_ball_metric,
            (_arg("center"), _arg("eps", help="positive radius vector"), _arg("word"))),

    Command("demo", "run a named demonstration", _cmd_demo,
            (_arg("name", choices=("omega-plus-one",)), _arg("--depth", type=int, default=8))),
    Command("suite", "run all property suites", _cmd_suite,
            (_arg("--samples", type=int, default=10000), _arg("--seed", type=int, default=0)),
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", choices=("omega", "omega+1"), default="omega",
                        help="index-set instance (default omega)")
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--json", action="store_true", help="machine-readable output")

    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, parents=[common, query] if cmd.json_flag else [common], help=cmd.help)
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


if __name__ == "__main__":
    sys.exit(main())
