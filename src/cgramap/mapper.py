"""Staged mapping driver.

For each neighbour-count target in the schedule: screen with the
placement-only model, enumerate relaxed placements (3 paths per
connection, overuse up to 2), and check each placement with the exact
routing-only model over all k cached paths. The first routable
placement wins; growing the neighbourhood only happens when the cheap
stages say the current one cannot work.

Routes are built on demand: only after a screen passes, and only for
the (driver unit, sink unit) pairs the screen model declares edge
variables for, which are the only pairs the relaxed and routing models
read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .dfg import Dfg, cover_set, fanin_cone
from .ilp import InfeasibleModel, build_variant, used_pairs
from .mrrg import FU, ArchSpec, Mrrg, NodeKey, build_mrrg
from .neighbors import NeighborMap, build_neighbor_map
from .paths import DEFAULT_K, PathCache, RoutePath, build_path_cache
from .solver import SolveConfig, enumerate_solutions, solve

MAPPED = "mapped"
NOT_MAPPABLE = "not_mappable"
TIMED_OUT = "timed_out"

GENERIC_SCHEDULE = tuple(range(4, 25, 2))


@dataclass(frozen=True)
class MapLimits:
    placement_limit: int = 100
    solve_time: float = 120.0
    total_time: float = 1800.0

    def __post_init__(self):
        if self.placement_limit < 1:
            raise ValueError("placement limit must be at least 1")
        if self.solve_time <= 0 or self.total_time <= 0:
            raise ValueError("time limits must be positive")


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
    stats: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MapOutcome:
    status: str
    solution: MappingSolution | None
    attempts: tuple[NnAttempt, ...]


def _check_schedule(schedule) -> tuple[int, ...]:
    sched = tuple(schedule)
    if not sched:
        raise ValueError("schedule is empty")
    if any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] < 1:
        raise ValueError("schedule must be strictly increasing and positive")
    return sched


def _placement_of(assignment) -> dict[str, NodeKey]:
    return {var.idx[0]: var.idx[1]
            for var, value in assignment.items()
            if var.cls == "f" and value == 1}


def _routes_of(model, assignment, cache: PathCache,
               placement: dict[str, NodeKey], dfg: Dfg):
    chosen: dict[tuple[NodeKey, NodeKey], int] = {}
    for var, value in assignment.items():
        if var.cls != "p" or value != 1:
            continue
        u, v, q = var.idx
        if chosen.get((u, v), q + 1) > q:
            chosen[u, v] = q
    routing: dict[str, list[RoutePath]] = {}
    for o, p in dfg.point_edges():
        if o not in placement or p not in placement:
            continue
        u, v = placement[o], placement[p]
        routing.setdefault(o, []).append(cache[u, v][chosen[u, v]])
    return {o: tuple(sorted(paths, key=lambda rp: rp.vertices))
            for o, paths in sorted(routing.items())}


def map_dfg(dfg: Dfg, mrrg: Mrrg, schedule=GENERIC_SCHEDULE,
            limits: MapLimits = MapLimits(), seed: int = 0,
            k_paths: int = DEFAULT_K) -> MapOutcome:
    """Run the staged search over the neighbour-count schedule."""
    sched = _check_schedule(schedule)
    deadline = time.monotonic() + limits.total_time
    attempts: list[NnAttempt] = []

    for nn in sched:
        start = time.monotonic()
        if start >= deadline:
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
        remaining = deadline - start
        nmap = build_neighbor_map(mrrg, nn)
        try:
            screen_model = build_variant("placement_only", dfg, mrrg, nmap)
        except InfeasibleModel:
            attempts.append(NnAttempt(nn, "infeasible", 0, False,
                                      time.monotonic() - start))
            continue
        cfg = SolveConfig(seed=seed,
                          time_limit=min(limits.solve_time, remaining))
        screen = solve(screen_model, cfg)
        if screen.status == "timeout":
            attempts.append(NnAttempt(nn, "timeout", 0, False,
                                      time.monotonic() - start))
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
        if screen.status == "infeasible":
            attempts.append(NnAttempt(nn, "infeasible", 0, False,
                                      time.monotonic() - start))
            continue

        used: dict[NodeKey, list[NodeKey]] = {}
        for u, w in used_pairs(screen_model):
            used.setdefault(u, []).append(w)
        cache = build_path_cache(
            mrrg, NeighborMap(nn, {u: tuple(ws) for u, ws in used.items()}),
            k_paths)
        relaxed = build_variant("relaxed_placement", dfg, mrrg, nmap, cache)
        enum_cfg = SolveConfig(seed=seed,
                               time_limit=max(deadline - time.monotonic(),
                                              0.001),
                               solution_limit=limits.placement_limit)
        tried = 0
        for candidate in enumerate_solutions(relaxed, enum_cfg):
            tried += 1
            placement = _placement_of(candidate.assignment)
            try:
                routing_model = build_variant("routing_only", dfg, mrrg,
                                              nmap, cache,
                                              placement=placement)
            except InfeasibleModel:
                continue
            route_cfg = SolveConfig(
                seed=seed,
                time_limit=max(min(limits.solve_time,
                                   deadline - time.monotonic()), 0.001))
            routed = solve(routing_model, route_cfg)
            if routed.status == "feasible":
                routing = _routes_of(routing_model, routed.assignment,
                                     cache, placement, dfg)
                elapsed = time.monotonic() - start
                solution = MappingSolution(
                    placement=placement, routing=routing, nn=nn,
                    stats={"seconds": round(elapsed, 6),
                           "placements_tried": tried})
                problems = validate_mapping(dfg, mrrg, solution)
                if problems:
                    raise AssertionError(
                        f"mapping failed validation: {problems[0]}")
                attempts.append(NnAttempt(nn, "feasible", tried, True,
                                          elapsed))
                return MapOutcome(MAPPED, solution, tuple(attempts))
            if time.monotonic() >= deadline:
                attempts.append(NnAttempt(nn, "feasible", tried, False,
                                          time.monotonic() - start))
                return MapOutcome(TIMED_OUT, None, tuple(attempts))
        attempts.append(NnAttempt(nn, "feasible", tried, False,
                                  time.monotonic() - start))
        if time.monotonic() >= deadline:
            return MapOutcome(TIMED_OUT, None, tuple(attempts))
    return MapOutcome(NOT_MAPPABLE, None, tuple(attempts))


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
    required = fanin_cone(dfg, cover_set(dfg))
    for op_id in sorted(required):
        if op_id not in sol.placement:
            problems.append(f"op {op_id} is required but unplaced")

    by_pair: dict[tuple[NodeKey, NodeKey], RoutePath] = {}
    for driver, paths in sol.routing.items():
        if driver not in sol.placement:
            problems.append(f"routing for unplaced driver {driver}")
            continue
        for rp in paths:
            if rp.vertices[0] != sol.placement[driver]:
                problems.append(f"path for {driver} starts at "
                                f"{rp.vertices[0]}, not its unit")
            by_pair[rp.vertices[0], rp.vertices[-1]] = rp
            for a, b in zip(rp.vertices, rp.vertices[1:]):
                if b not in mrrg.fanout(a):
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
        pair = (sol.placement[o], sol.placement[p])
        rp = by_pair.get(pair)
        if rp is None:
            problems.append(f"no route for {o} -> {p}")
        elif len(rp) < 1:
            problems.append(f"empty route for {o} -> {p}")

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
    if max_ii < 1:
        raise ValueError("max II must be at least 1")
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
        stats = dict(sol.stats)
        if not include_times:
            stats["seconds"] = 0.0
        report["solution"] = {
            "nn": sol.nn,
            "placement": {op: list(unit) for op, unit
                          in sorted(sol.placement.items())},
            "routing": {driver: [[list(v) for v in rp.vertices]
                                 for rp in paths]
                        for driver, paths in sorted(sol.routing.items())},
            "stats": stats,
        }
    return report
