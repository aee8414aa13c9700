"""``suite`` workload: the seeded property suite, one registry entry per operation.

This is the job of a property-suite user, and the only workload where
sampling, eager failure messages and the numpy sweeps cost anything.  Each
entry runs through ``run_all`` itself with the registry narrowed to that
entry, so recorder, seeding (``Random(f"{seed}:{module}:{name}")``) and
result type are exactly what ``run_all`` uses for the whole suite.

The sample count keeps the cost profile of the documented job
(``suite --samples 10000``): eleven properties enumerate a fixed set
whatever the sample count.  At 2000 samples they take about 14% of a round
(4% at 10000, 70% at 100), and every property's share of the round is
within 2.4 points of its share at 10000 (up to 17 points off at 100).
"""

from __future__ import annotations

from time import perf_counter

from bigfree import suite

from harness import Raised

SIZES = {"full": 2000, "tiny": 2}


def run_entry(entry, samples: int, seed: int):
    """Run one registry entry through run_all; return (checks, failures)."""
    registry = suite.PROPERTIES
    suite.PROPERTIES = [entry]
    try:
        (result,) = suite.run_all(samples=samples, seed=seed)
    finally:
        suite.PROPERTIES = registry
    return result.checks, tuple(result.failures)


class State:
    def __init__(self, seed: int, size: str):
        t0 = perf_counter()
        self.seed = seed
        self.samples_per_property = SIZES[size]
        self.entries = list(suite.PROPERTIES)
        self.gen_s = perf_counter() - t0
        self.samples = {"samples_per_property": self.samples_per_property,
                        "properties": len(self.entries)}

    def round_ops(self) -> list:
        return [(f"suite.{module}.{name}", run_entry, ((module, name, fn), self.samples_per_property, self.seed))
                for module, name, fn in self.entries]

    def check(self, ops: list, results: list) -> list:
        """A property that failed, raised, or ran no checks is a failed operation."""
        out = []
        for (name, _, _), r in zip(ops, results):
            if isinstance(r, Raised):
                out.append(f"{name} {r!r}")
            elif r[0] == 0:
                out.append(f"{name} ran 0 checks")
            elif r[1]:
                out.append(f"{name} failed: {r[1][0]}")
            else:
                out.append(None)
        return out
