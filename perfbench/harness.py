"""Closed-loop round runner, in-memory spans, and the statistics behind every metric.

A workload hands the runner a list of operations ``(span_name, fn, args)``.
The runner calls them one after another on one thread, each starting only
after the previous one returned, and times each call from outside, with
``perf_counter_ns`` or, for calls that run child processes, with the
children's CPU time.  Results are kept so they can be checked after the
round, outside the timed region.
"""

from __future__ import annotations

import resource
from array import array
from time import perf_counter_ns

LOOP_EVERY_NS = 200_000_000


class Raised:
    """An exception raised by an operation, kept in place of its result."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


class Trace:
    """Spans kept in memory as parallel columns: name, start, end, parent.

    ``parent`` is the index of the enclosing span, or -1 for a round span.
    """

    def __init__(self):
        self.names: list = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        covered = [0] * len(self.names)
        for _, start, end, parent in self.spans():
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans())]


def host_loop_ns() -> int:
    """Fastest of three timings of a fixed pure-Python loop (about 1.5 ms each).

    The loop does not touch the library, so its time moves only with the
    speed the host gives this process.
    """
    best = 1 << 62
    for _ in range(3):
        t0 = perf_counter_ns()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, perf_counter_ns() - t0)
    return best


def children_cpu_ns() -> int:
    """CPU time (user plus system) of the finished child processes, ns."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def run_round(ops: list, trace: Trace | None = None, loop_ns: list | None = None, clock=perf_counter_ns):
    """Run ``ops`` in a closed loop; return ``(wall_ns, latencies_ns, results)``.

    Times are read from ``clock``.  With a trace, each operation's start is
    recorded too, and its span is added to the trace once the round is
    over.  With ``loop_ns``, the round appends a ``host_loop_ns`` sample
    after each operation that ends ``LOOP_EVERY_NS`` or more after the
    previous sample, so a long round is tracked through its course; the
    samples are left out of ``wall_ns``.
    """
    starts = array("q")
    latencies = []
    results = []
    traced = trace is not None
    paused = 0
    last_sample = perf_counter_ns()
    start = clock()
    for _, fn, args in ops:
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # checked after the round like any wrong result
            result = Raised(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        results.append(result)
        if traced:
            starts.append(t0)
        if loop_ns is not None and perf_counter_ns() - last_sample >= LOOP_EVERY_NS:
            loop_ns.append(host_loop_ns())
            last_sample = perf_counter_ns()
            paused += clock() - t1
    end = clock()
    if traced:
        parent = trace.add("round", start, end, -1)
        for (name, _, _), t0, ns in zip(ops, starts, latencies):
            trace.add(name, t0, t0 + ns, parent)
    return end - start - paused, latencies, results


def check_ops(checks: dict, ops: list, specs: list, results: list) -> list:
    """Run ``checks[span name](result, *args, aux)`` per operation; None where it holds."""
    out = []
    for (name, _, args), (_, _, aux), r in zip(ops, specs, results):
        try:
            ok = not isinstance(r, Raised) and checks[name](r, *args, aux)
        except Exception:  # a wrong result can break the reference route too
            ok = False
        out.append(None if ok else f"{name}{args!r} gave {r!r}"[:300])
    return out


def same(a, b) -> bool:
    """Whether a later round reproduced the first round's result."""
    if isinstance(a, Raised) or isinstance(b, Raised):
        return isinstance(a, Raised) and isinstance(b, Raised) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence, ``p`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)
