"""Staged mapping driver.

For each neighbour-count target in the schedule: screen with the
placement-only model, enumerate relaxed placements (3 paths per
connection, at most 2 signals per vertex; it extends the screen's model
with path rows), and check each placement with the exact routing-only
model: over the relaxed model's 3 paths per connection first, and over
all k cached paths only when those are proven too few. The first
routable placement wins; growing the neighbourhood only happens when
the cheap stages say the current one cannot work.

Every stage takes its time limit as it starts: min(cap, time left
before the map deadline), floored at 1 ms. MapLimits.solve_time caps
each screen and routing solve; the enumeration has no cap and runs to
the deadline.

Routes are built on demand, each list only as deep as the model that
reads it. Once a screen passes, one cache holds RELAXED_PATHS routes
for every (driver unit, sink unit) pair the screen model declares edge
variables for, which are the only pairs the relaxed model reads. Each
relaxed placement tried is routed over that cache first. Only when that
routing-only model is proven infeasible does the placement get its own
cache of DEFAULT_K routes over just its own pairs, and a routing-only
model over it; the reported routing comes from the cache that routed.
Enumeration is best-first, so a shallow list is the prefix of a deep
one: what routes on RELAXED_PATHS routes also routes on DEFAULT_K, and
the verdicts are those of one deep cache.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .dfg import Dfg
from .ilp import InfeasibleModel, build_variant, used_pairs
from .mrrg import FU, ArchSpec, Mrrg, NodeKey, build_mrrg
from .neighbors import NeighborMap, build_neighbor_map
from .paths import DEFAULT_K, PathCache, RoutePath, build_path_cache
from .solver import SolveConfig, enumerate_solutions, solve

MAPPED = "mapped"
NOT_MAPPABLE = "not_mappable"
TIMED_OUT = "timed_out"

GENERIC_SCHEDULE = tuple(range(4, 25, 2))

# routes per connection in the cache the relaxed model and each
# placement's first routing check read
RELAXED_PATHS = 3


@dataclass(frozen=True)
class MapLimits:
    """solve_time caps each screen and routing solve; the enumeration
    runs to the total_time deadline."""

    placement_limit: int = 100
    solve_time: float = 120.0
    total_time: float = 1800.0

    def __post_init__(self):
        if not (isinstance(self.placement_limit, int)
                and self.placement_limit >= 1):
            raise ValueError("placement limit must be an int of at least 1")
        # written so that NaN, which compares false, is rejected too
        if not all(isinstance(t, (int, float)) and t > 0
                   for t in (self.solve_time, self.total_time)):
            raise ValueError("time limits must be positive numbers")


@dataclass(frozen=True)
class NnAttempt:
    nn: int
    screen: str
    placements_tried: int
    routed: bool
    seconds: float


@dataclass(frozen=True)
class MappingSolution:
    placement: dict[str, NodeKey]
    routing: dict[str, tuple[RoutePath, ...]]
    nn: int


@dataclass(frozen=True)
class MapOutcome:
    status: str
    solution: MappingSolution | None
    attempts: tuple[NnAttempt, ...]


def _check_schedule(schedule) -> tuple[int, ...]:
    sched = tuple(schedule)
    if not sched:
        raise ValueError("schedule is empty")
    if (not all(isinstance(nn, int) for nn in sched) or sched[0] < 1
            or any(b <= a for a, b in zip(sched, sched[1:]))):
        raise ValueError("schedule must be strictly increasing positive ints")
    return sched


def _cache_over(mrrg: Mrrg, nn: int, pairs, k: int) -> PathCache:
    """k routes for each (driver unit, sink unit) pair given."""
    sinks: dict[NodeKey, list[NodeKey]] = {}
    for u, w in sorted(pairs):
        sinks.setdefault(u, []).append(w)
    return build_path_cache(
        mrrg, NeighborMap(nn, {u: tuple(ws) for u, ws in sinks.items()}), k)


def _routes_of(assignment, cache: PathCache, placement: dict[str, NodeKey],
               dfg: Dfg):
    chosen: dict[tuple[NodeKey, NodeKey], int] = {}
    for var, value in assignment.items():
        if var.cls != "p" or value != 1:
            continue
        u, v, q = var.idx
        if chosen.get((u, v), q + 1) > q:
            chosen[u, v] = q
    routing: dict[str, list[RoutePath]] = {}
    for o, p in dfg.point_edges():
        u, v = placement[o], placement[p]
        routing.setdefault(o, []).append(cache[u, v][chosen[u, v]])
    return {o: tuple(sorted(paths, key=lambda rp: rp.vertices))
            for o, paths in sorted(routing.items())}


def map_dfg(dfg: Dfg, mrrg: Mrrg, schedule=GENERIC_SCHEDULE,
            limits: MapLimits = MapLimits(), seed: int = 0) -> MapOutcome:
    """Run the staged search over the neighbour-count schedule."""
    sched = _check_schedule(schedule)
    deadline = time.monotonic() + limits.total_time
    attempts: list[NnAttempt] = []
    for nn in sched:
        start = time.monotonic()
        if start >= deadline:
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
        screen, tried, solution = _attempt(dfg, mrrg, nn, limits, seed,
                                           deadline)
        now = time.monotonic()
        attempts.append(NnAttempt(nn, screen, tried, solution is not None,
                                  now - start))
        if solution is not None:
            problems = validate_mapping(dfg, mrrg, solution)
            if problems:
                raise AssertionError(
                    f"mapping failed validation: {problems[0]}")
            return MapOutcome(MAPPED, solution, tuple(attempts))
        # an infeasible screen moves on past the deadline: the next target
        # times out at its start; after the last, the run is not mappable
        if screen == "timeout" or (screen == "feasible" and now >= deadline):
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
    return MapOutcome(NOT_MAPPABLE, None, tuple(attempts))


def _config(seed: int, deadline: float, cap: float = math.inf,
            solutions: int = 1) -> SolveConfig:
    """A stage's solver settings, taken as the stage starts: its time
    limit is min(cap, time left), floored at 1 ms."""
    left = min(cap, deadline - time.monotonic())
    return SolveConfig(seed, max(left, 0.001), solutions)


def _attempt(dfg: Dfg, mrrg: Mrrg, nn: int, limits: MapLimits, seed: int,
             deadline: float) -> tuple[str, int, MappingSolution | None]:
    """One target: the screen's status, the number of relaxed placements
    tried and the first one that routes, if any."""
    nmap = build_neighbor_map(mrrg, nn)
    try:
        screen_model = build_variant("placement_only", dfg, mrrg, nmap)
    except InfeasibleModel:
        return "infeasible", 0, None
    screen = solve(screen_model,
                   _config(seed, deadline, limits.solve_time)).status
    if screen != "feasible":
        return screen, 0, None

    shallow = _cache_over(mrrg, nn, used_pairs(screen_model), RELAXED_PATHS)
    relaxed = build_variant("relaxed_placement", dfg, mrrg, nmap, shallow,
                            screen=screen_model)
    tried = 0
    for candidate in enumerate_solutions(
            relaxed,
            _config(seed, deadline, solutions=limits.placement_limit)):
        tried += 1
        placement = {var.idx[0]: var.idx[1] for var, value
                     in candidate.assignment.items()
                     if var.cls == "f" and value == 1}
        status, routing = _route(dfg, mrrg, nmap, shallow, placement, seed,
                                 deadline, limits.solve_time)
        if status == "infeasible":
            # proven unroutable on RELAXED_PATHS routes; DEFAULT_K may hold
            # more
            deep = _cache_over(mrrg, nn,
                               {(placement[o], placement[p])
                                for o, p in dfg.point_edges()},
                               DEFAULT_K)
            status, routing = _route(dfg, mrrg, nmap, deep, placement, seed,
                                     deadline, limits.solve_time)
        if routing is not None:
            return "feasible", tried, MappingSolution(placement, routing, nn)
        if time.monotonic() >= deadline:
            break
    return "feasible", tried, None


def _route(dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap, cache: PathCache,
           placement: dict[str, NodeKey], seed: int, deadline: float,
           cap: float):
    """The routing-only check of one placement over cache: its status and,
    when feasible, the routing."""
    # never infeasible to build: the relaxed rows already rule out each
    # condition the routing build rejects, and every cache passed here
    # holds the placement's pairs
    model = build_variant("routing_only", dfg, mrrg, nmap, cache,
                          placement=placement)
    routed = solve(model, _config(seed, deadline, cap))
    if routed.status != "feasible":
        return routed.status, None
    return routed.status, _routes_of(routed.assignment, cache, placement, dfg)


def validate_mapping(dfg: Dfg, mrrg: Mrrg, sol: MappingSolution) -> list[str]:
    """Check a solution by direct graph traversal, sharing nothing with
    the models that produced it."""
    problems = []
    ops = dfg.ops_by_id
    for op_id, unit in sorted(sol.placement.items()):
        if op_id not in ops:
            problems.append(f"placement names unknown op {op_id}")
            continue
        node = mrrg.nodes.get(unit)
        if node is None:
            problems.append(f"{op_id} placed on missing node {unit}")
        elif node.kind != FU:
            problems.append(f"{op_id} placed on routing node {unit}")
        elif ops[op_id].opcode not in node.opcodes:
            problems.append(f"{op_id} ({ops[op_id].opcode}) placed on "
                            f"incompatible unit {unit}")
    hosts: dict[NodeKey, list[str]] = {}
    for op_id, unit in sol.placement.items():
        hosts.setdefault(unit, []).append(op_id)
    for unit, residents in sorted(hosts.items()):
        if len(residents) > 1:
            problems.append(f"unit {unit} hosts {sorted(residents)}")
    for op_id in sorted(ops):
        if op_id not in sol.placement:
            problems.append(f"op {op_id} is unplaced")

    routed: set[tuple[NodeKey, NodeKey]] = set()
    for driver, paths in sol.routing.items():
        if driver not in sol.placement:
            problems.append(f"routing for unplaced driver {driver}")
            continue
        for rp in paths:
            if len(rp.vertices) < 2:
                problems.append(f"path for {driver} has fewer than 2 "
                                f"vertices")
                continue
            if rp.vertices[0] != sol.placement[driver]:
                problems.append(f"path for {driver} starts at "
                                f"{rp.vertices[0]}, not its unit")
            routed.add((rp.vertices[0], rp.vertices[-1]))
            for a, b in zip(rp.vertices, rp.vertices[1:]):
                if a not in mrrg.nodes or b not in mrrg.fanout(a):
                    problems.append(f"path for {driver} uses missing edge "
                                    f"{a} -> {b}")
            interior = rp.vertices[1:-1]
            for n in interior:
                node = mrrg.nodes.get(n)
                if node is None or node.kind == FU:
                    problems.append(f"path for {driver} routes through "
                                    f"{n}")
            if len(set(interior)) != len(interior):
                problems.append(f"path for {driver} repeats a vertex")

    for o, p in dfg.point_edges():
        if o not in sol.placement or p not in sol.placement:
            continue
        if (sol.placement[o], sol.placement[p]) not in routed:
            problems.append(f"no route for {o} -> {p}")

    seen: dict[NodeKey, str] = {}
    for driver in sorted(sol.routing):
        interiors = set()
        for rp in sol.routing[driver]:
            interiors.update(rp.vertices[1:-1])
        for n in sorted(interiors):
            other = seen.get(n)
            if other is not None and other != driver:
                problems.append(f"{other} and {driver} share vertex {n}")
            seen[n] = driver
    return problems


def characterize(spec: ArchSpec, ii_values, suite, schedule=GENERIC_SCHEDULE,
                 limits: MapLimits = MapLimits(), seed: int = 0):
    """Mappability counts per (II, NN) with single-target schedules.
    Rows: (ii, nn, mapped, total, fraction)."""
    if not suite:
        raise ValueError("benchmark suite is empty")
    sched = _check_schedule(schedule)
    rows = []
    for ii in ii_values:
        mrrg = build_mrrg(spec, ii)
        for nn in sched:
            mapped = 0
            for _, dfg in suite:
                out = map_dfg(dfg, mrrg, [nn], limits, seed)
                if out.status == MAPPED:
                    mapped += 1
            rows.append((ii, nn, mapped, len(suite),
                         round(mapped / len(suite), 4)))
    return rows


def map_min_ii(dfg: Dfg, spec: ArchSpec, max_ii: int,
               schedule=GENERIC_SCHEDULE, limits: MapLimits = MapLimits(),
               seed: int = 0) -> tuple[int, MapOutcome]:
    """Smallest II that maps, else the last outcome at max_ii."""
    if not isinstance(max_ii, int) or max_ii < 1:
        raise ValueError(
            f"max II must be an int of at least 1, got {max_ii!r}")
    outcome = None
    for ii in range(1, max_ii + 1):
        outcome = map_dfg(dfg, build_mrrg(spec, ii), schedule, limits, seed)
        if outcome.status in (MAPPED, TIMED_OUT):
            return ii, outcome
    return max_ii, outcome


def outcome_to_dict(outcome: MapOutcome, *, include_times: bool = True):
    """JSON-shaped report; times can be dropped for byte-stable output."""
    report = {"status": outcome.status,
              "attempts": [{"nn": a.nn, "screen": a.screen,
                            "placements_tried": a.placements_tried,
                            "routed": a.routed,
                            "seconds": round(a.seconds, 6) if include_times
                            else 0.0}
                           for a in outcome.attempts]}
    sol = outcome.solution
    if sol is not None:
        report["solution"] = {
            "nn": sol.nn,
            "placement": {op: list(unit) for op, unit
                          in sorted(sol.placement.items())},
            "routing": {driver: [[list(v) for v in rp.vertices]
                                 for rp in paths]
                        for driver, paths in sorted(sol.routing.items())}}
    return report
