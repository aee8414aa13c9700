#!/usr/bin/env python3
"""Benchmark for bigfree: four seeded closed-loop workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring for why it exists):
``geometry`` (geometry.py), ``words-text`` (words_text.py), ``suite``
(suite_props.py) and ``cli`` (cli_calls.py).  Each runs on one thread: an
operation starts only after the previous one returned.  Inputs come from
``--seed`` and are generated before timing starts.  A run repeats the
workload's round of operations until ``--seconds`` is used up; outputs of
the first round are checked against independent routes, later rounds must
reproduce them.  End-to-end metrics are medians and percentiles over every
untraced round and operation of the run; set-up time is the median of
several set-ups, four of them in fresh interpreters.  Workloads timed in
this process report times scaled to a reference host speed (see
``REF_LOOP_NS``); the unscaled figures are in the provenance line.  The
``cli`` workload reports the CPU time of its call processes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, built from
spans recorded around the benchmark's own calls into each module, plus the
tracing overhead.  Layers the chosen workload does not call are filled
from one traced round of the workload that does.  Spans are written to
``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance.  The exit code is 1 when an output check fails
unexpectedly, and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from harness import Trace, host_loop_ns, median, percentile, run_round, same

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = {"geometry": "geometry", "words-text": "words_text", "suite": "suite_props", "cli": "cli_calls"}
SETUP_SAMPLES = 5  # this process plus four fresh ones, so import is repeated too
# The speed a shared host gives a process drifts by up to half, in spells
# lasting from seconds to tens of minutes.  In-process workloads therefore
# report times scaled to a host on which ``host_loop_ns`` takes this long:
# each untraced round by the loop's mean time before and during that round
# (unscaled times are in the provenance line).  The ``cli`` workload's
# timed work runs in child processes, whose speed the loop does not track;
# its times are those processes' CPU time (``cli_calls.State.clock``) and
# are not scaled.
REF_LOOP_NS = 1_500_000
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "lat_p50_us": "us", "lat_p99_us": "us", "call_p50_ms": "ms", "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics.  Span names are "<layer>.<function>".
P50_SPANS = [
    "ordered_abelian.add", "ordered_abelian.compare", "ordered_abelian.half_exact",
    "words.length_vector", "words.word_dist", "words.double_gromov",
    "words.reduce", "words.multiply", "words.inverse", "words.parse_word", "words.format_word",
    "words.verify_cancellation", "words.apply_cancellation",
    "tree.tree_dist", "tree.tree_act", "tree.point_eq",
    "triples.to_triple", "triples.from_triple", "triples.act_triple", "triples.triple_dist",
    "cayley.cayley_dist", "cayley.cayley_act",
    "topology.in_metric_ball", "topology.in_letter_ball",
]
P99_SPANS = ["triples.to_triple", "triples.from_triple", "triples.act_triple", "triples.triple_dist"]
MS_SPANS = ["cayley.ball_graph", "cayley.ball_json", "cayley.ball_dot"]
BUSY_LAYERS = ["ordered_abelian", "words", "tree", "triples", "cayley"]
CALL_LAYERS = ["ordered_abelian", "words"]
SWEEP_ORDER = ["geometry", "words-text", "suite"]

# ROADMAP baseline operation names -> span names, for the primitive table.
PRIMITIVES = {
    "LexVector add": "ordered_abelian.add", "LexVector compare": "ordered_abelian.compare",
    "reduce": "words.reduce", "multiply": "words.multiply", "length_vector": "words.length_vector",
    "word_dist": "words.word_dist", "double_gromov": "words.double_gromov",
    "tree_dist": "tree.tree_dist", "tree_act": "tree.tree_act", "to_triple": "triples.to_triple",
    "cayley_dist": "cayley.cayley_dist",
}


def suite_entries() -> list:
    """(module, property) of every entry in the suite registry."""
    return [(m, p) for m, p, _ in importlib.import_module("bigfree.suite").PROPERTIES]


def per_layer_units(entries: list) -> dict:
    units = {f"{s}.p50_us": "us" for s in P50_SPANS}
    units.update({f"{s}.p99_us": "us" for s in P99_SPANS})
    units.update({f"{s}.ms": "ms" for s in MS_SPANS})
    units.update({f"{layer}.busy_s": "s" for layer in BUSY_LAYERS})
    units.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
    units["sampling.gen_s"] = "s"
    units.update({f"suite.{m}.{p}.s": "s" for m, p in entries})
    units.update({f"suite.{m}.s": "s" for m in dict.fromkeys(m for m, _ in entries)})
    units.update({"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_us": "us"})
    units.update({"trace.overhead_s": "s", "trace.busy_fraction": "fraction"})
    return units


# -- measuring ------------------------------------------------------------------------

def make_state(workload: str, seed: int, size: str):
    """Import the workload (and with it the library) and generate its inputs."""
    t0 = perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    state = module.State(seed, size)
    return state, perf_counter() - t0


class Phase:
    """The rounds of one workload: timings, spans, and check outcomes."""

    def __init__(self, state):
        self.state = state
        self.names: list = []
        self.walls = {False: [], True: []}  # traced -> round wall times, ns
        self.latencies: list = []  # per untraced round: each operation's latency, ns
        self.loop_ns: list = []  # per untraced round: mean host_loop_ns before and during it
        self.trace = Trace()
        self.attempted = 0
        self.failures: list = []
        self._reference = None
        self._statuses = None

    def round(self, traced: bool) -> None:
        ops = self.state.round_ops()
        clock = getattr(self.state, "clock", perf_counter_ns)  # a workload may time its calls its own way
        loop_ns = None if traced else [host_loop_ns()]
        # Collection pauses depend on everything this process holds, not on
        # the library, so they are taken between rounds (as timeit does).
        gc.collect()
        gc.disable()
        try:
            wall, latencies, results = run_round(ops, self.trace if traced else None, loop_ns, clock)
        finally:
            gc.enable()
        if self._reference is None:
            self.names = [name for name, _, _ in ops]
            self._reference, self._statuses = results, self.state.check(ops, results)
            statuses = self._statuses
        else:
            statuses = [s if same(r, r0) else f"{name}: round result {r!r} differs from the first round's {r0!r}"
                        for name, r, r0, s in zip(self.names, results, self._reference, self._statuses)]
        self.walls[traced].append(wall)
        if not traced:
            self.latencies.append(latencies)
            self.loop_ns.append(sum(loop_ns) / len(loop_ns))
        self.attempted += len(ops)
        self.failures.extend(s for s in statuses if s)

    def run(self, seconds: float, trace: bool) -> None:
        """Rounds until the next one would pass ``seconds``; at least two of each kind."""
        start = perf_counter_ns()
        while True:
            t0 = perf_counter_ns()
            self.round(traced=trace and (len(self.walls[False]) + len(self.walls[True])) % 2 == 1)
            last = perf_counter_ns() - t0
            enough = len(self.walls[False]) >= 2 and (not trace or len(self.walls[True]) >= 2)
            if enough and perf_counter_ns() - start + last > seconds * 1e9:
                break

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if not f.startswith("known defect")]


def end_to_end(phase: Phase, setup_samples: list, peak_rss_mb: float, factors: list) -> tuple:
    """End-to-end metrics: medians and percentiles over every untraced round and operation.

    A fastest repeat would depend on whether a run caught a fast spell of
    the host, and on how many repeats fit into the run; a median over the
    whole run depends on neither.  Each untraced round's times are
    multiplied by its entry in ``factors``.
    """
    walls = [ns * f for ns, f in zip(phase.walls[False], factors)]
    wall = median(walls) / 1e9
    every = [ns * f for lats, f in zip(phase.latencies, factors) for ns in lats]
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "ops_per_s": len(phase.names) / wall,
        "lat_p50_us": percentile(every, 50) / 1e3,
        "lat_p99_us": percentile(every, 99) / 1e3,
        "call_p50_ms": percentile(every, 50) / 1e6,
        "call_p90_ms": percentile(every, 90) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    rounds = f"median of {len(walls)} rounds of {len(phase.names)} ops"
    ops = f"{len(every)} ops: {len(phase.names)} per round x {len(walls)} rounds"
    notes = {"setup_s": f"median of {len(setup_samples)} setups", "wall_s": rounds, "ops_per_s": rounds,
             "peak_rss_mb": "whole timed phase"}
    notes.update({k: ops for k in ("lat_p50_us", "lat_p99_us", "call_p50_ms", "call_p90_ms")})
    if set(factors) != {1.0}:
        notes = {k: v if k in ("setup_s", "peak_rss_mb") else f"{v}; each round scaled to the reference host"
                 for k, v in notes.items()}
        notes["setup_s"] += ", each scaled by its own process's loop time"
    return metrics, notes


def span_groups(phase: Phase) -> tuple:
    """Per span name: durations (ns); per layer: self time and call count; rounds traced."""
    by_name: dict = {}
    busy: dict = {}
    calls: dict = {}
    for (name, start, end, parent), own in zip(phase.trace.spans(), phase.trace.self_times()):
        if parent < 0:
            continue
        by_name.setdefault(name, []).append(end - start)
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0) + own
        calls[layer] = calls.get(layer, 0) + 1
    return by_name, busy, calls, len(phase.walls[True])


def per_layer(workload: str, primary: Phase, sweeps: dict, gen_samples: list, cli_probes: dict,
              entries: list) -> tuple:
    """Every per-layer metric, from the primary phase where it calls the layer, else from a sweep."""
    scopes = [(workload, *span_groups(primary))]
    scopes += [(name, *span_groups(phase)) for name, phase in sweeps.items()]
    metrics: dict = {}
    source: dict = {}

    def first(pick):
        for name, by_name, busy, calls, rounds in scopes:
            value = pick(by_name, busy, calls, rounds)
            if value is not None:
                return name, value
        raise RuntimeError("no scope recorded the span")

    def put(metric, pick):
        source[metric], metrics[metric] = first(pick)

    for s in P50_SPANS:
        put(f"{s}.p50_us", lambda b, *_, s=s: percentile(b[s], 50) / 1e3 if s in b else None)
    for s in P99_SPANS:
        put(f"{s}.p99_us", lambda b, *_, s=s: percentile(b[s], 99) / 1e3 if s in b else None)
    for s in MS_SPANS:
        put(f"{s}.ms", lambda b, *_, s=s: percentile(b[s], 50) / 1e6 if s in b else None)
    for layer in BUSY_LAYERS:
        put(f"{layer}.busy_s", lambda b, busy, c, r, layer=layer: busy[layer] / r / 1e9 if layer in busy else None)
    for layer in CALL_LAYERS:
        put(f"{layer}.calls", lambda b, busy, c, r, layer=layer: c[layer] / r if layer in c else None)

    # suite.<module>.<property>.s and suite.<module>.s: medians over traced rounds
    suite_phase = primary if workload == "suite" else sweeps["suite"]
    rounds: list = []
    for name, start, end, parent in suite_phase.trace.spans():
        if parent < 0:
            rounds.append({})
        else:
            rounds[-1][name] = end - start
    for module, prop in entries:
        metrics[f"suite.{module}.{prop}.s"] = median([r[f"suite.{module}.{prop}"] for r in rounds]) / 1e9
    for module in dict.fromkeys(m for m, _ in entries):
        metrics[f"suite.{module}.s"] = median(
            [sum(r[f"suite.{m}.{p}"] for m, p in entries if m == module) for r in rounds]) / 1e9
    source.update((m, "suite") for m in metrics if m.startswith("suite."))

    metrics["sampling.gen_s"] = median(gen_samples)
    metrics.update(cli_probes)
    source.update((m, "cli") for m in cli_probes)
    # Traced and untraced rounds alternate, so their medians see the same
    # host; coverage is measured within each traced round.
    metrics["trace.overhead_s"] = (median(primary.walls[True]) - median(primary.walls[False])) / 1e9
    metrics["trace.busy_fraction"] = median([(end - start - own) / (end - start) for (_, start, end, parent), own
                                             in zip(primary.trace.spans(), primary.trace.self_times()) if parent < 0])
    return metrics, source


# -- provenance -----------------------------------------------------------------------

def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, state, phase: Phase) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    lat_by_name: dict = {}  # over every untraced round
    for lats in phase.latencies:
        for name, ns in zip(phase.names, lats):
            lat_by_name.setdefault(name, []).append(ns)
    primitives = {label: ({"p50_us": median(lat_by_name[s]) / 1e3, "ops": len(lat_by_name[s])}
                          if s in lat_by_name else None)
                  for label, s in PRIMITIVES.items()}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(), "platform": platform.platform(),
        "git_commit": git_commit(), "samples": state.samples,
        "rounds": {"untraced": len(phase.walls[False]), "traced": len(phase.walls[True])},
        "primitives_us": primitives,
    }


# -- main -------------------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child mode: set up once in a fresh interpreter and report the timings."""
    state, setup_s = make_state(args.workload, args.seed, args.size)
    print(json.dumps({"setup_s": setup_s, "gen_s": state.gen_s, "loop_ns": host_loop_ns()}))


def fresh_setup(args) -> dict:
    """Set up once in a new interpreter, so the import is timed again too."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per round, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bigfree", "__init__.py")):
        print(f"error: no library at {os.path.join('src', 'bigfree')}; run from a bigfree checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args)
        return 0

    state, setup_s = make_state(args.workload, args.seed, args.size)
    import bigfree

    if not os.path.realpath(bigfree.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: bigfree was imported from {bigfree.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    phase = Phase(state)
    phase.run(args.seconds, trace=bool(args.trace))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # the timed processes' peak, before any other child
    setups = [{"setup_s": setup_s, "gen_s": state.gen_s, "loop_ns": phase.loop_ns[0]}]
    setups += [fresh_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    if args.trace:
        sweeps = {}
        for name in SWEEP_ORDER:
            if name != args.workload:
                sweeps[name] = Phase(make_state(name, args.seed, args.size)[0])
                sweeps[name].round(traced=True)
        cli_state = state if args.workload == "cli" else make_state("cli", args.seed, args.size)[0]
        entries = suite_entries()
        units = per_layer_units(entries)
        metrics, source = per_layer(args.workload, phase, sweeps, [s["gen_s"] for s in setups],
                                    cli_state.probes(), entries)
        notes = {m: f"from {source.get(m, args.workload)}" for m in metrics}
        host = {}
    else:
        sweeps = {}
        units = END_TO_END
        scaled = not hasattr(state, "clock")
        factors = [REF_LOOP_NS / ns if scaled else 1.0 for ns in phase.loop_ns]
        setup_samples = [s["setup_s"] * (REF_LOOP_NS / s["loop_ns"] if scaled else 1.0) for s in setups]
        metrics, notes = end_to_end(phase, setup_samples, peak_mb, factors)
        if not scaled:
            notes = {k: v if k in ("setup_s", "peak_rss_mb") else f"{v}; CPU time of the timed processes"
                     for k, v in notes.items()}
        unscaled = end_to_end(phase, [s["setup_s"] for s in setups], peak_mb, [1.0] * len(factors))[0]
        host = {"scale": median(factors), "unscaled": unscaled}
    phases = [phase, *sweeps.values()]
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]

    prov = provenance(args, state, phase)
    prov.update(host_loop_ms=median(phase.loop_ns) / 1e6, **host)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]:8s} ({notes[name]})")
    print(f"{'fail_ratio':40s} {len(failures) / attempted:14.6g} {'':8s} ({len(failures)}/{attempted})")
    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}")
    if args.trace:
        write_trace(args, prov, metrics, {args.workload: phase, **sweeps})
    print(json.dumps({"provenance": prov}))

    result = {
        "correct": not any(p.unexpected for p in phases),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_trace(args, prov: dict, metrics: dict, phases: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    payload = {
        "provenance": prov,
        "metrics": metrics,
        "spans": {name: {"name": p.trace.names, "start_ns": p.trace.starts.tolist(),
                         "end_ns": p.trace.ends.tolist(), "parent": p.trace.parents.tolist()}
                  for name, p in phases.items()},
    }
    with open(path, "w") as f:
        json.dump(payload, f)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
