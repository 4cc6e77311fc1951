"""Staged mapping driver.

A matching of operations onto distinct compatible units (con1-con2,
which do not depend on NN) runs once per call; when it fails, every
neighbour-count target in the schedule is refuted without asking for
its neighbour map. Otherwise each target builds one path cache of
SHALLOW_PATHS routes per pair of its neighbour map, and the screen
searches the placements that meet con1-con3 and leave every connection
a cached route at must-cross strength (ilp.screen_placements): a
depth-first search over each operation's units that keeps them
arc-consistent with the neighbour map and matchable onto distinct
units, and the routes of each connection whose ends are fixed
consistent with the vertices every other connection must cross, at
every node from its root node on. Each placement the search yields
gets one routing check, a search for one cached route per connection
with no vertex carrying two signals (ilp.route_search), which starts
from the routes and claims the screen's leaf left. The first routable
placement wins; growing the neighbourhood only happens when the cheap
stages say the current one cannot work.

This deviates from the paper, which stages its models as screen, then
relaxed placement (con5, and con6 at more than one signal per vertex,
over a few paths per connection), then routing-only. Here the relaxed
model, at 2 signals per vertex over SHALLOW_PATHS routes, excluded no
placement that its enumeration reached, and neither the screen nor the
routing stage is solved from a 0/1 model: the screen's placements and
each placement's routes are searched directly, each exact over what it
searches. Both read the target's one cache, so a screen infeasible and
a routing infeasible hold relative to its SHALLOW_PATHS routes.

Every stage takes its time limit as it starts: min(cap, time left
before the map deadline), floored at 1 ms. MapLimits.solve_time caps
each routing search; the screen search has no cap and runs to the
deadline.

Neighbour maps and routes are derived once per MRRG and kept on it (see
the neighbors and paths modules), so every target, placement and call
that maps onto the same graph reads what an earlier one derived; a
cache's routes are the same whichever call first asked for them.

A timeout proves nothing: a run in which some routing check timed out
and no later target maps reads timed_out, not not_mappable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .dfg import Dfg, is_int
from .ilp import placeable, route_search, screen_placements
from .mrrg import FU, ArchSpec, Mrrg, NodeKey, build_mrrg
from .neighbors import build_neighbor_map
from .paths import RoutePath, build_path_cache
from .solver import SolveConfig
# unused: perfbench's tracing wraps them here until ROADMAP item 11
from .ilp import build_variant  # noqa: F401
from .solver import enumerate_solutions, solve  # noqa: F401

MAPPED = "mapped"
NOT_MAPPABLE = "not_mappable"
TIMED_OUT = "timed_out"

GENERIC_SCHEDULE = tuple(range(4, 25, 2))

# routes per connection in the cache each target's screen and routing
# checks read
SHALLOW_PATHS = 3


@dataclass(frozen=True)
class MapLimits:
    """placement_limit caps the placements a target tries, solve_time
    each routing search; the screen search runs to the total_time
    deadline."""

    placement_limit: int = 100
    solve_time: float = 120.0
    total_time: float = 1800.0

    def __post_init__(self):
        if not (is_int(self.placement_limit) and self.placement_limit >= 1):
            raise ValueError("placement limit must be an int of at least 1")
        # written so that NaN, which compares false, is rejected too
        if not all((is_int(t) or isinstance(t, float)) and t > 0
                   for t in (self.solve_time, self.total_time)):
            raise ValueError("time limits must be positive numbers")


@dataclass(frozen=True)
class NnAttempt:
    """One target: screen is the placement screen's status, feasible
    once its search yields a placement, infeasible when the search, or
    the unit matching before it, proves that none exists, and timeout
    when the deadline came first; placements_tried counts the distinct
    placements the search yielded. A screen infeasible holds relative
    to the target's SHALLOW_PATHS cache: no placement leaves every
    connection a cached route at must-cross strength, though one may
    route over longer routes."""

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
    if (not all(map(is_int, sched)) or sched[0] < 1
            or any(b <= a for a, b in zip(sched, sched[1:]))):
        raise ValueError("schedule must be strictly increasing positive ints")
    return sched


def map_dfg(dfg: Dfg, mrrg: Mrrg, schedule=GENERIC_SCHEDULE,
            limits: MapLimits = MapLimits(), seed: int = 0) -> MapOutcome:
    """Run the staged search over the neighbour-count schedule."""
    sched = _check_schedule(schedule)
    if not is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    deadline = time.monotonic() + limits.total_time
    # con1-con2 do not depend on NN: one matching serves every target
    matched = placeable(dfg, mrrg)
    attempts: list[NnAttempt] = []
    gave_up = False
    for nn in sched:
        start = time.monotonic()
        if start >= deadline:
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
        screen, tried, solution, timed_out = _attempt(
            dfg, mrrg, nn, limits, seed, deadline, matched)
        gave_up = gave_up or timed_out
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
    return MapOutcome(TIMED_OUT if gave_up else NOT_MAPPABLE, None,
                      tuple(attempts))


def _config(deadline: float, cap: float = math.inf,
            seed: int = 0) -> SolveConfig:
    """A stage's solver settings, taken as the stage starts: its time
    limit is min(cap, time left), floored at 1 ms."""
    left = min(cap, deadline - time.monotonic())
    return SolveConfig(seed, max(left, 0.001))


def _attempt(dfg: Dfg, mrrg: Mrrg, nn: int, limits: MapLimits, seed: int,
             deadline: float, matched: bool
             ) -> tuple[str, int, MappingSolution | None, bool]:
    """One target: the screen's status, the number of placements tried,
    the first one that routes, if any, and whether some routing check
    timed out.

    matched is the unit matching's verdict, placeable(dfg, mrrg), which
    map_dfg tests once for all its targets. When it is False the target
    never asks for its neighbour map, and returns what an infeasible
    screen does. Otherwise the target builds one SHALLOW_PATHS cache,
    the screen search runs over it, and its status is feasible once it
    yields a placement, else the status it ends with: infeasible when
    its root node or its exhausted tree proves that no placement passes
    must-cross over the cache, which holds only relative to the cache.
    Which placement comes first depends on the seed, through the
    search's value order. Each placement gets one routing check, from
    the screen's leaf; one that ends past the deadline ends the target,
    and so does the placement_limit-th, after which the screen is not
    read again: no search counts the placements it yields."""
    if not matched:
        return "infeasible", 0, None, False
    nmap = build_neighbor_map(mrrg, nn)
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    placements = screen_placements(dfg, mrrg, nmap,
                                   _config(deadline, seed=seed), cache)
    tried, timed_out = 0, False
    while True:
        try:
            placement, leaf, _ = next(placements)
        except StopIteration as stop:
            # an empty stream ends with the search's verdict
            screened = stop.value[0] if not tried else "feasible"
            return screened, tried, None, timed_out
        tried += 1
        status, routing = _route(dfg, placement, leaf, deadline,
                                 limits.solve_time)
        if routing is not None:
            return ("feasible", tried, MappingSolution(placement, routing, nn),
                    timed_out)
        timed_out = timed_out or status == "timeout"
        if tried == limits.placement_limit or time.monotonic() >= deadline:
            return "feasible", tried, None, timed_out


def _route(dfg: Dfg, placement: dict[str, NodeKey], leaf, deadline: float,
           cap: float):
    """The routing check of one placement, decided by ilp.route_search
    within min(cap, time left) from the screen's leaf: the placement's
    (driver unit, sink unit) pairs with the cached routes must-cross
    left them. Its status and, when feasible, each driver's routes, one
    per DFG edge it drives, sorted by vertex sequence; no model is
    built."""
    status, chosen, _ = route_search(leaf, _config(deadline, cap))
    if status != "feasible":
        return status, None
    routing: dict[str, list[RoutePath]] = {}
    for o, p in dfg.point_edges():
        routing.setdefault(o, []).append(chosen[placement[o], placement[p]])
    return status, {o: tuple(sorted(paths, key=lambda rp: rp.vertices))
                    for o, paths in sorted(routing.items())}


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
            # a route's last vertex is left out of the interior, so one
            # that ends on a routing vertex must be caught here
            end = mrrg.nodes.get(rp.vertices[-1])
            if end is None or end.kind != FU:
                problems.append(f"path for {driver} ends at "
                                f"{rp.vertices[-1]}, off a function unit")
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
    if not is_int(max_ii) or max_ii < 1:
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
