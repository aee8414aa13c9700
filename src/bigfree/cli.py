"""Command-line front end: one subcommand per library operation plus suites.

Exit codes: 0 success, 1 domain error (bad values, non-canonical input),
2 usage error.  Every query subcommand takes ``--json`` for machine-readable
output and ``--alphabet omega|omega+1`` to select the index-set instance;
all values are printed in the exact text grammars of the library.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cayley import (
    ball_dot,
    ball_graph,
    ball_json,
    cayley_act,
    cayley_dist,
    embed_compare,
    format_cayley_point,
    parse_cayley_point,
)
from .ordered_abelian import (
    BigFreeError,
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


# -- word-level handlers -------------------------------------------------------

def _cmd_reduce(args) -> int:
    w = reduce(parse_word(args.word, _alphabet(args)))
    return _emit(args, format_word(w), {"word": format_word(w)})


def _cmd_mul(args) -> int:
    al = _alphabet(args)
    w = multiply(parse_word(args.left, al), parse_word(args.right, al))
    return _emit(args, format_word(w), {"word": format_word(w)})


def _cmd_inv(args) -> int:
    w = inverse(parse_word(args.word, _alphabet(args)))
    return _emit(args, format_word(w), {"word": format_word(w)})


def _cmd_len(args) -> int:
    vec = length_vector(parse_word(args.word, _alphabet(args)))
    return _emit(args, format_vector(vec), {"length": format_vector(vec)})


def _cmd_dist(args) -> int:
    al = _alphabet(args)
    vec = word_dist(parse_word(args.left, al), parse_word(args.right, al))
    return _emit(args, format_vector(vec), {"distance": format_vector(vec)})


def _cmd_gromov(args) -> int:
    al = _alphabet(args)
    vec = gromov(parse_word(args.left, al), parse_word(args.right, al))
    return _emit(args, format_vector(vec), {"gromov": format_vector(vec)})


def _cmd_prefix(args) -> int:
    al = _alphabet(args)
    w = common_prefix(parse_word(args.left, al), parse_word(args.right, al))
    return _emit(args, format_word(w), {"word": format_word(w)})


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


# -- tree handlers ----------------------------------------------------------------

def _cmd_tree_dist(args) -> int:
    al = _alphabet(args)
    vec = tree_dist(parse_tree_point(args.left, al), parse_tree_point(args.right, al))
    return _emit(args, format_vector(vec), {"distance": format_vector(vec)})


def _cmd_tree_act(args) -> int:
    al = _alphabet(args)
    p = tree_act(parse_word(args.word, al), parse_tree_point(args.point, al))
    return _emit(args, format_tree_point(p), {"point": format_tree_point(p)})


def _cmd_y(args) -> int:
    al = _alphabet(args)
    w = y_point(parse_word(args.v, al), parse_word(args.x, al), parse_word(args.y, al))
    return _emit(args, format_word(w), {"word": format_word(w)})


def _cmd_axioms_check(args) -> int:
    sample = enumerate_reduced_words(args.max_len, args.max_letter)
    violation = check_length_axioms(bf_length_oracle(), sample)
    if violation is None:
        text = f"pass: {len(sample)} elements, length axioms and integrality hold"
        return _emit(args, text, {"ok": True, "elements": len(sample)})
    text = f"violation {violation.axiom}: {violation.message}"
    return _emit(args, text, {"ok": False, "axiom": violation.axiom, "message": violation.message})


# -- triple handlers -----------------------------------------------------------------

def _cmd_to_triple(args) -> int:
    e = to_triple(parse_tree_point(args.point, _alphabet(args)))
    return _emit(args, format_triple(e), {"triple": format_triple(e)})


def _cmd_from_triple(args) -> int:
    p = from_triple(parse_triple(args.triple, _alphabet(args)))
    return _emit(args, format_tree_point(p), {"point": format_tree_point(p)})


def _cmd_triple_act(args) -> int:
    al = _alphabet(args)
    e = act_triple(parse_word(args.word, al), parse_triple(args.triple, al))
    return _emit(args, format_triple(e), {"triple": format_triple(e)})


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


def _cmd_project(args) -> int:
    x = project(parse_triple(args.triple, _alphabet(args)))
    return _emit(args, format_circle_point(x), {"circle_point": format_circle_point(x)})


def _cmd_circle_dist(args) -> int:
    al = _alphabet(args)
    vec = circle_dist(parse_circle_point(args.left, al), parse_circle_point(args.right, al))
    return _emit(args, format_vector(vec), {"distance": format_vector(vec)})


# -- cayley handlers -------------------------------------------------------------------

def _cmd_cayley_dist(args) -> int:
    al = _alphabet(args)
    vec = cayley_dist(parse_cayley_point(args.left, al), parse_cayley_point(args.right, al))
    return _emit(args, format_vector(vec), {"distance": format_vector(vec)})


def _cmd_cayley_act(args) -> int:
    al = _alphabet(args)
    x = cayley_act(parse_word(args.word, al), parse_cayley_point(args.point, al))
    return _emit(args, format_cayley_point(x), {"point": format_cayley_point(x)})


def _cmd_embed_compare(args) -> int:
    al = _alphabet(args)
    w = parse_word(args.word, al)
    index, _ = parse_letter_token(args.letter, al)
    if args.points < 1:
        raise BigFreeError(f"--points must be at least 1, got {args.points}")
    t_grid = [Fraction(k, args.points) for k in range(args.points + 1)]
    report = embed_compare(w, index, t_grid=t_grid)
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


# -- topology handlers --------------------------------------------------------------------

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


# -- demo / suite ----------------------------------------------------------------------------

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
    from .suite import format_results, run_all  # numpy is imported only when the suite runs

    results = run_all(samples=args.samples, seed=args.seed)
    sys.stdout.write(format_results(results))
    return 0 if all(r.ok for r in results) else 1


# -- parser ------------------------------------------------------------------------------------

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

    def add(name, handler, help_text, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        p.set_defaults(func=handler)
        return p

    p = add("reduce", _cmd_reduce, "reduced form of a word", query)
    p.add_argument("word")
    p = add("mul", _cmd_mul, "product of two words (reduced)", query)
    p.add_argument("left")
    p.add_argument("right")
    p = add("inv", _cmd_inv, "inverse word", query)
    p.add_argument("word")
    p = add("len", _cmd_len, "length vector of a word", query)
    p.add_argument("word")
    p = add("dist", _cmd_dist, "vector distance between two words", query)
    p.add_argument("left")
    p.add_argument("right")
    p = add("gromov", _cmd_gromov, "Gromov product at the identity", query)
    p.add_argument("left")
    p.add_argument("right")
    p = add("prefix", _cmd_prefix, "longest common initial segment", query)
    p.add_argument("left")
    p.add_argument("right")
    p = add("subwords", _cmd_subwords, "all initial segments in order", query)
    p.add_argument("word")
    p = add("cancel-verify", _cmd_cancel_verify, "check a cancellation pairing", query)
    p.add_argument("word")
    p.add_argument("pairs", help="comma-separated i-j position pairs")

    p = add("tree-dist", _cmd_tree_dist, "distance between tree points", query)
    p.add_argument("left", help="point as '<vector> @ <word>'")
    p.add_argument("right")
    p = add("tree-act", _cmd_tree_act, "act on a tree point", query)
    p.add_argument("word")
    p.add_argument("point")
    p = add("y", _cmd_y, "median word of three group elements", query)
    p.add_argument("v")
    p.add_argument("x")
    p.add_argument("y")
    p = add("axioms-check", _cmd_axioms_check, "length-function axioms on an exhaustive ball", query)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--max-letter", type=int, default=2)

    p = add("to-triple", _cmd_to_triple, "canonical edge coordinates of a tree point", query)
    p.add_argument("point")
    p = add("from-triple", _cmd_from_triple, "tree point named by edge coordinates", query)
    p.add_argument("triple", help="'(<word> ; a<k>^<p> ; <vector>)' or a bare word")
    p = add("triple-act", _cmd_triple_act, "act in edge coordinates", query)
    p.add_argument("word")
    p.add_argument("triple")
    p = add("triple-dist", _cmd_triple_dist, "exact distance plus shortcut-formula comparison", query)
    p.add_argument("left")
    p.add_argument("right")
    p = add("project", _cmd_project, "projection to the wedge of circles", query)
    p.add_argument("triple")
    p = add("circle-dist", _cmd_circle_dist, "distance on the wedge of circles", query)
    p.add_argument("left", help="point as 'C(a<k>) @ <vector>'")
    p.add_argument("right")

    p = add("cayley-dist", _cmd_cayley_dist, "graph distance (rational coordinates)", query)
    p.add_argument("left", help="'(<word> ; a<k>^<p> ; <t>)' with rational t, or a bare word")
    p.add_argument("right")
    p = add("cayley-act", _cmd_cayley_act, "act on a graph point", query)
    p.add_argument("word")
    p.add_argument("point")
    p = add("embed-compare", _cmd_embed_compare, "compare the two edge embeddings", query)
    p.add_argument("word")
    p.add_argument("letter", help="a<k> or b")
    p.add_argument("--points", type=int, default=100, help="rational grid resolution (default 100)")

    p = add("ball", _cmd_ball, "finite ball as DOT or JSON")
    p.add_argument("max_len", type=int)
    p.add_argument("max_letter", type=int)
    p.add_argument("--center", default="", help="center word (default identity)")
    p.add_argument("--cap", type=int, default=100_000, help="vertex-count guard")
    fmt = p.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", dest="as_json", action="store_false")
    fmt.add_argument("--json", dest="as_json", action="store_true")

    p = add("ball-letter", _cmd_ball_letter, "letter-ball membership", query)
    p.add_argument("center")
    p.add_argument("letter", help="threshold letter a<k> or b")
    p.add_argument("word")
    p = add("ball-metric", _cmd_ball_metric, "metric-ball membership", query)
    p.add_argument("center")
    p.add_argument("eps", help="positive radius vector")
    p.add_argument("word")

    p = add("demo", _cmd_demo, "run a named demonstration", query)
    p.add_argument("name", choices=("omega-plus-one",))
    p.add_argument("--depth", type=int, default=8)

    p = add("suite", _cmd_suite, "run all property suites")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BigFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
