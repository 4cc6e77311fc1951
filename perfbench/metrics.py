"""Metric arithmetic over per-operation outcomes; no cgramap imports.

An operation ends in one of these statuses:

  verdict statuses   mapped, not_mappable (staged search)
                     feasible, infeasible (exact formulations)
  timed_out          no verdict within the limit
  error:<Type>       the call raised
  invalid            a returned mapping failed validate_mapping
  contradicts        an exact verdict disagrees with the stored oracle

Its time-to-verdict is min(wall, L); timeouts and the three failure
statuses are charged L, so repairing a crash or a timeout can only lower
the time metrics.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from dataclasses import dataclass

VERDICTS = frozenset({"mapped", "not_mappable", "feasible", "infeasible"})
MAPPED = frozenset({"mapped", "feasible"})


@dataclass(frozen=True)
class OpOutcome:
    instance: str
    status: str
    wall: float
    limit: float
    nodes: int | None = None
    nn: int | None = None

    @property
    def failed(self) -> bool:
        return (self.status.startswith("error:")
                or self.status in ("invalid", "contradicts"))

    @property
    def decided(self) -> bool:
        return self.status in VERDICTS and self.wall <= self.limit

    @property
    def mapped(self) -> bool:
        """A mapping that passed validate_mapping, delivered within L."""
        return self.decided and self.status in MAPPED

    def charged(self, scale: float = 1.0) -> float:
        """Time-to-verdict, with the measured wall time scaled by the
        run's host-speed factor (see reference_seconds)."""
        return min(self.wall * scale, self.limit) if self.decided \
            else self.limit


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_metrics(outcomes, scale: float = 1.0) -> dict[str, float]:
    """End-to-end metrics of one pass over a workload's instances.

    The mapped and failed shares are reported as their complements,
    unmapped_frac and ok_frac, so that no metric reads zero (a relative
    bound on a zero median is meaningless) while every workload keeps an
    unmappable instance and one that neither crashes nor contradicts the
    oracle.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("a pass needs at least one operation")
    n = len(outcomes)
    charged = [o.charged(scale) for o in outcomes]
    return {
        "verdict_s_sum": sum(charged),
        "verdict_s_geomean": geomean(charged),
        "decided_frac": sum(o.decided for o in outcomes) / n,
        "unmapped_frac": sum(not o.mapped for o in outcomes) / n,
        "ok_frac": sum(not o.failed for o in outcomes) / n,
    }


def summarize(dicts) -> dict[str, float]:
    """Key-wise median over passes. Counts (ints) are taken from the
    first pass instead, so they are exact for the run's seed."""
    dicts = list(dicts)
    out = {}
    for key, first in dicts[0].items():
        if isinstance(first, int):
            out[key] = first
        else:
            out[key] = statistics.median(d[key] for d in dicts)
    return out


# On shared 2-vCPU hosts, speed drifts by up to 1.7x within minutes, for
# CPU-bound Python code and its process CPU time alike. Each run
# therefore also times this fixed piece of pure-Python work, which shares
# nothing with cgramap, before every operation, and scales measured times
# by REFERENCE_NOMINAL_S / its median: times are reported in seconds of a
# host on which it takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.006


def reference_seconds() -> float:
    """Wall time of a fixed mix of tuple, dict, set, sort and heap work,
    the operations cgramap's model building and search are made of."""
    t0 = time.perf_counter()
    table = {}
    for i in range(4000):
        table[("n", i % 61, i)] = (i * 7919) % 101
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    heap: list = []
    for key, value in ranked[:2000]:
        heapq.heappush(heap, (value, key))
    odd = {key for key, value in table.items() if value & 1}
    while heap and heap[0][1] in odd:
        heapq.heappop(heap)
    return time.perf_counter() - t0
