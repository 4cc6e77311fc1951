"""Staged driver checks: each target screens and routes its placements
through one path cache over its full neighbourhood, the screen search
yields the placements brute force finds routable over the cache, the
routing search decides as the brute-force product of cached routes
does, verdicts of the driver and of the combined model agree with brute
force, reports are stable, and the survey entry points run."""

import dataclasses
import hashlib
import json
from itertools import islice
from unittest.mock import ANY

import pytest

from cgramap import mapper
from cgramap.baseline import build_baseline, extract_mapping
from cgramap.dfg import Dfg, Operation, parse_dfg
from cgramap.ilp import (InfeasibleModel, build_variant, must_cross_blocks,
                         neighbor_domain, placeable, route_root,
                         route_search, screen_placements)
from cgramap.mapper import (MAPPED, NOT_MAPPABLE, SHALLOW_PATHS, TIMED_OUT,
                            MappingSolution, MapLimits, characterize,
                            map_dfg, map_min_ii, outcome_to_dict,
                            validate_mapping)
from cgramap.mrrg import ArchSpec, build_mrrg, fu_nodes
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import RoutePath, build_path_cache
from cgramap.solver import (FEASIBLE, INFEASIBLE, TIMEOUT, SolveConfig,
                            check_assignment, solve)
from helpers import (ACC, DEEP, DIAMOND, FAN3, FIR4, FIR4_HYCUBE_PLACEMENT,
                     FIR4_HYCUBE_ROUTED, JOIN, LDST, TREE5, baseline_point,
                     brute_force_mappable, drain, mapping_solution,
                     placements, refuted_at_root, routable, under_hash_seeds)

KERNELS = {
    "chain2": "op a add\nop b add\nedge a -> b:0\n",
    "chain3": "op a add\nop b add\nop c add\nedge a -> b:0\nedge b -> c:0\n",
    "chain5": "op a add\nop b add\nop c add\nop d add\nop e add\n"
              "edge a -> b:0\nedge b -> c:0\nedge c -> d:0\nedge d -> e:0\n",
    "fan2": "op a add\nop b add\nop c add\nedge a -> b:0, c:0\n",
    "fan3": FAN3,
    "join": JOIN,
    "loop": "op a add\nedge a -> a:0\n",
    "acc": ACC,
    "ldst": LDST,
    "stores3": "op a add\nop s0 store\nop s1 store\nop s2 store\n"
               "edge a -> s0:0, s1:0, s2:0\n",
    # a tree whose first feasible neighbourhood does not route
    "tree5": TREE5,
    "diamond": DIAMOND,
}

LIMITS = MapLimits(placement_limit=20, solve_time=5, total_time=10)
SCHEDULE = (2, 4, 8, 16)


@pytest.mark.parametrize("make", [
    lambda: SolveConfig(time_limit=float("nan")),
    lambda: MapLimits(solve_time=float("nan")),
    lambda: MapLimits(total_time=float("nan")),
    lambda: SolveConfig(time_limit="1"),
    lambda: MapLimits(solve_time="1"),
    lambda: MapLimits(total_time=None),
    lambda: SolveConfig(seed=None),
    lambda: SolveConfig(seed=1.5),
    lambda: SolveConfig(seed="a"),
    lambda: MapLimits(placement_limit=True),
    lambda: SolveConfig(time_limit=True),
    lambda: MapLimits(solve_time=True),
    lambda: MapLimits(total_time=True),
], ids=["solve_config", "solve_time", "total_time", "solve_config_str",
        "solve_time_str", "total_time_none", "seed_none", "seed_float",
        "seed_str", "placement_limit_bool",
        "time_limit_bool", "solve_time_bool", "total_time_bool"])
def test_nan_time_limit_rejected(make):
    # NaN compares false against everything, so a deadline made from it
    # would never pass; a str or None does not compare with 0 at all.
    # A seed of None would seed from the OS, and a bool count or time
    # limit passes as 1
    with pytest.raises(ValueError):
        make()


def test_non_int_counts_rejected():
    # a float would never equal the count of placements tried, which
    # ends a target at the cap, and would reach the report
    with pytest.raises(ValueError, match="placement limit"):
        MapLimits(placement_limit=2.5)
    dfg, mrrg = parse_dfg(KERNELS["chain2"]), fabric("ortho", 1)
    # None and 5 are no iterable: tuple() raised a bare TypeError
    for schedule in [(4.5,), (2, 4.0), (True,), None, 5]:
        with pytest.raises(ValueError, match="positive ints"):
            map_dfg(dfg, mrrg, schedule, LIMITS, seed=1)
        with pytest.raises(ValueError, match="positive ints"):
            characterize(ArchSpec("ortho", 2, 2), [1], [("chain2", dfg)],
                         schedule, LIMITS)
    for seed in [None, 1.5, "a", True]:
        with pytest.raises(ValueError, match="seed must be an int"):
            map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=seed)
    with pytest.raises(ValueError, match="max II must be an int"):
        map_min_ii(dfg, ArchSpec("ortho", 2, 2), max_ii=2.5)


def fabric(family, ii):
    return build_mrrg(ArchSpec(family, 2, 2), ii)


class _Clock:
    """The mapper's clock, standing still until a stage is made to run
    past the deadline; the solver keeps the real one."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        monkeypatch.setattr(mapper, "time", self)

    def monotonic(self):
        return self.now

    def pass_deadline(self):
        self.now += LIMITS.total_time + 1

    def after(self, stage):
        """stage, passing the deadline as it returns. Under _record a
        screen search is called at the first read of its stream."""

        def late(*args):
            done = stage(*args)
            self.pass_deadline()
            return done

        return late


def _ends(status):
    """A screen search that yields no placement and ends with status."""

    def screen(dfg, mrrg, nmap, cfg, cache):
        return status, 0
        yield

    return screen


def _answers(status):
    """A routing search that answers every check with status."""
    return lambda root, cfg: (status, None, 0)


def _refuses(count):
    """A routing search that answers its first count checks infeasible,
    as a proof at its root node, and runs the real search on the rest."""
    refused = []

    def route(root, cfg):
        if len(refused) < count:
            refused.append(root)
            return INFEASIBLE, None, 1
        return route_search(root, cfg)

    return route


def _record(monkeypatch, **stages):
    """Patch each stage map_dfg reads from cgramap.mapper to run as
    before, or as the replacement given under its name, and to append
    one event per call to the list returned, in call order:
      ("nmap", nn)                    a neighbour map asked for
      ("cache", nn, k, cache)         a path cache built
      ("screen", nn, cfg, cache)      a screen search started over cache
      ("yield", nn, placement, leaf)  a placement it yielded, with the
                                      leaf its routing check starts from
      ("screened", nn, end)           its return value, (status, nodes),
                                      unless map_dfg stopped reading it
      ("route", nn, root, found)      a routing search from root, found
                                      being what it returned and nn the
                                      target of the screen last started
      ("variant", variant)            a model built"""
    events, screened = [], []
    run = {name: stages.pop(name, getattr(mapper, name)) for name in (
        "build_neighbor_map", "screen_placements", "build_path_cache",
        "route_search", "build_variant")}
    assert not stages, stages

    def nmap_of(mrrg, nn):
        events.append(("nmap", nn))
        return run["build_neighbor_map"](mrrg, nn)

    def screen(dfg, mrrg, nmap, cfg, cache):
        nn = nmap.target_nn
        screened.append(nn)
        events.append(("screen", nn, cfg, cache))
        stream = run["screen_placements"](dfg, mrrg, nmap, cfg, cache)
        while True:
            try:
                placement, leaf, nodes = next(stream)
            except StopIteration as stop:
                events.append(("screened", nn, stop.value))
                return stop.value
            events.append(("yield", nn, placement, leaf))
            yield placement, leaf, nodes

    def cache_of(mrrg, nmap, k):
        cache = run["build_path_cache"](mrrg, nmap, k)
        events.append(("cache", nmap.target_nn, k, cache))
        return cache

    def route(root, cfg):
        found = run["route_search"](root, cfg)
        events.append(("route", screened[-1], root, found))
        return found

    def variant(name, *args, **kw):
        events.append(("variant", name))
        return run["build_variant"](name, *args, **kw)

    for name, stage in zip(run, (nmap_of, screen, cache_of, route, variant)):
        monkeypatch.setattr(mapper, name, stage)
    return events


def _of(events, kind):
    """The events of one kind, in order, each without its kind."""
    return [event[1:] for event in events if event[0] == kind]


def _opened(nn):
    """The events that open a target whose neighbour map was asked for:
    the map, its one SHALLOW_PATHS-deep cache and the screen search."""
    return [("nmap", nn), ("cache", nn, SHALLOW_PATHS, ANY),
            ("screen", nn, ANY, ANY)]


def _run(kernel, family, ii, schedule, seed=1):
    out = map_dfg(parse_dfg(KERNELS[kernel]), fabric(family, ii), schedule,
                  LIMITS, seed=seed)
    return out.status, [(a.nn, a.screen, a.placements_tried, a.routed)
                        for a in out.attempts]


def _chain2(schedule=(2, 4)):
    # chain2 passes its first screen on 2x2 ortho at II 1 and has many
    # placements; the screen's own placement routes
    return _run("chain2", "ortho", 1, schedule)


# (kernel, family, II, schedule, seed): the screen passes at NN 4 and its
# first placement routes
CHAIN5_ORTHO = ("chain5", "ortho", 2, (4,), 2)


def test_op_without_a_unit_is_not_mappable():
    # parse_dfg rejects an unknown opcode, a Dfg built directly does not;
    # the unit matching then refutes every target
    dfg = Dfg([Operation("a", "frob")], [])
    with pytest.raises(InfeasibleModel, match="a has no compatible unit"):
        build_baseline(dfg, fabric("ortho", 1))
    out = map_dfg(dfg, fabric("ortho", 1), (2, 4), LIMITS, seed=1)
    assert (out.status, [(a.nn, a.screen) for a in out.attempts]) == (
        NOT_MAPPABLE, [(2, INFEASIBLE), (4, INFEASIBLE)])


def test_unit_matching_refutes_before_the_neighbour_map(monkeypatch):
    # three stores and two memory units on 2x2 ADRES at II 1: no NN
    # helps, so no target asks for its neighbour map or searches a screen
    events = _record(monkeypatch)
    dfg, mrrg = parse_dfg(KERNELS["stores3"]), fabric("adres", 1)
    assert not placeable(dfg, mrrg)
    out = map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=1)
    assert (out.status, [(a.nn, a.screen, a.placements_tried)
                         for a in out.attempts]) == (
        NOT_MAPPABLE, [(nn, INFEASIBLE, 0) for nn in SCHEDULE])
    assert events == []


def test_unit_matching_runs_once_per_call(monkeypatch):
    # con1-con2 do not depend on NN, so one matching serves every target
    # of a call: stores3 is refuted at each of its targets, and loop's
    # first two targets fail their screens before the third maps
    calls = []

    def counted(dfg, mrrg):
        calls.append(dfg)
        return placeable(dfg, mrrg)

    monkeypatch.setattr(mapper, "placeable", counted)
    for kernel, family, schedule, status in (
            ("stores3", "adres", SCHEDULE, NOT_MAPPABLE),
            ("loop", "ortho", (1, 2, 4), MAPPED)):
        calls.clear()
        dfg = parse_dfg(KERNELS[kernel])
        out = map_dfg(dfg, fabric(family, 1), schedule, LIMITS, seed=1)
        assert (out.status, len(out.attempts)) == (status, len(schedule))
        assert calls == [dfg], kernel


def test_neighbourhood_check_refutes_before_the_screen(monkeypatch):
    # on 2x2 ortho at II 1 no ALU is its own neighbour at NN 1 or 2, so
    # the loop edge has no unit there and the screen search ends at its
    # root node; at NN 4 one is, and the search yields a placement
    events = _record(monkeypatch)
    dfg, mrrg = parse_dfg(KERNELS["loop"]), fabric("ortho", 1)
    out = map_dfg(dfg, mrrg, (1, 2, 4), LIMITS, seed=1)
    assert (out.status, [(a.nn, a.screen, a.placements_tried)
                         for a in out.attempts]) == (
        MAPPED, [(1, INFEASIBLE, 0), (2, INFEASIBLE, 0), (4, FEASIBLE, 1)])
    # the routing check starts from the leaf of NN 4's placement
    [(_, _, leaf)] = _of(events, "yield")
    assert events == [
        *_opened(1), ("screened", 1, (INFEASIBLE, 1)),
        *_opened(2), ("screened", 2, (INFEASIBLE, 1)),
        *_opened(4), ("yield", 4, ANY, leaf),
        ("route", 4, leaf, (FEASIBLE, ANY, ANY))]


# two chains, one of 2 adds and one of 5, on 2x2 ADRES at II 2, NN 2:
# each chain alone passes the check, so the cut leaves every op a unit,
# and the 8 ALUs hold 7 ops; only the matching over the units the cut
# leaves refutes them together
TWO_CHAINS = ("op a add\nop b add\nedge a -> b:0\n"
              "op c add\nop d add\nop e add\nop f add\nop g add\n"
              "edge c -> d:0\nedge d -> e:0\nedge e -> f:0\nedge f -> g:0\n")


def test_matching_after_the_cut_refutes(monkeypatch):
    dfg, mrrg = parse_dfg(TWO_CHAINS), fabric("adres", 2)
    nmap = build_neighbor_map(mrrg, 2)
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    for chain in (KERNELS["chain2"], KERNELS["chain5"]):
        assert not refuted_at_root(parse_dfg(chain), mrrg, nmap, cache)
    assert placeable(dfg, mrrg)
    assert refuted_at_root(dfg, mrrg, nmap, cache)
    # a proof: no placement meets the screen it skips
    assert next(placements(dfg, mrrg, nmap), None) is None
    events = _record(monkeypatch)
    out = map_dfg(dfg, mrrg, (2,), LIMITS, seed=1)
    assert [(a.nn, a.screen, a.placements_tried) for a in out.attempts] == [
        (2, INFEASIBLE, 0)]
    # the mapper's screen search ends there too
    assert events == [*_opened(2), ("screened", 2, (INFEASIBLE, 1))]


@pytest.mark.pin
def test_must_cross_refuses_at_the_root():
    # acc on 1x3 HyCUBE at II 1, NN 8 has one placement that meets
    # con1-con3, ld on mem_0 and acc on pe_0_0's ALU. With one or two
    # cached routes per pair, every route of both its connections, one
    # driven by mem_0 and one by the ALU, enters pe_0_0 through its xa
    # input, so must-cross refutes it, and with it the target, at the
    # screen search's root node; with SHALLOW_PATHS routes it routes
    dfg = parse_dfg(ACC)
    mrrg = build_mrrg(ArchSpec("hycube", 1, 3), 1)
    nmap = build_neighbor_map(mrrg, 8)
    [place] = placements(dfg, mrrg, nmap)
    assert place == {"ld": ("mem_0", 0), "acc": ("pe_0_0.alu", 0)}
    pairs = {(place[o], place[p]) for o, p in dfg.point_edges()}
    crossed = (("pe_0_0.in_xa", 0), ("xb_0_0.to_pxa", 0))
    for k, blocked in ((1, (("pe_0_0.a", 0), *crossed)), (2, crossed)):
        cache = build_path_cache(mrrg, nmap, k)
        assert refuted_at_root(dfg, mrrg, nmap, cache), k
        assert not routable(pairs, cache), k
        assert must_cross_blocks(pairs, cache) == dict.fromkeys(
            pairs, blocked), k
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    assert not refuted_at_root(dfg, mrrg, nmap, cache)
    assert routable(pairs, cache)
    assert must_cross_blocks(pairs, cache) == {}


def test_screen_timeout_ends_the_run(monkeypatch):
    # a screen search that times out before its first placement
    _Clock(monkeypatch)
    _record(monkeypatch, screen_placements=_ends(TIMEOUT))
    assert _chain2() == (TIMED_OUT, [(2, TIMEOUT, 0, False)])


def test_late_infeasible_screen_moves_on(monkeypatch):
    # the next target would start after the deadline; at the last target
    # the schedule simply ends
    clock = _Clock(monkeypatch)
    _record(monkeypatch, screen_placements=clock.after(_ends(INFEASIBLE)))
    assert _chain2() == (TIMED_OUT, [(2, INFEASIBLE, 0, False)])
    assert _chain2((2,)) == (NOT_MAPPABLE, [(2, INFEASIBLE, 0, False)])


def test_deadline_during_enumeration_ends_the_run(monkeypatch):
    # timed out, not unmappable, even at the last target; the first
    # placement, whose routing check is answered infeasible, counts as
    # tried
    clock = _Clock(monkeypatch)

    def screen_one_then_time_out(dfg, mrrg, nmap, cfg, cache):
        yield next(screen_placements(dfg, mrrg, nmap, cfg, cache))
        clock.pass_deadline()
        return TIMEOUT, 0

    _record(monkeypatch, screen_placements=screen_one_then_time_out,
            route_search=_answers(INFEASIBLE))
    assert _run(*CHAIN5_ORTHO) == (TIMED_OUT, [(4, FEASIBLE, 1, False)])


def test_deadline_during_routing_stops_the_enumeration(monkeypatch):
    # the screen search would go on yielding; the first placement whose
    # routing check ends past the deadline stops it, after that one check

    def screen_first_again(dfg, mrrg, nmap, cfg, cache):
        first = next(screen_placements(dfg, mrrg, nmap, cfg, cache))
        for _ in range(3):
            yield first

    clock = _Clock(monkeypatch)
    events = _record(monkeypatch, screen_placements=screen_first_again,
                     route_search=clock.after(_answers(INFEASIBLE)))
    assert _run(*CHAIN5_ORTHO) == (TIMED_OUT, [(4, FEASIBLE, 1, False)])
    assert len(_of(events, "route")) == 1


def test_deadline_during_first_placement_check_ends_the_target(monkeypatch):
    # the routing check of the screen's first placement ends past the
    # deadline and ends the target: no other placement is checked, though
    # the search has more
    clock = _Clock(monkeypatch)
    events = _record(monkeypatch,
                     route_search=clock.after(_answers(INFEASIBLE)))
    assert _chain2((2,)) == (TIMED_OUT, [(2, FEASIBLE, 1, False)])
    assert len(_of(events, "route")) == 1


def test_screen_budget_taken_after_its_build(monkeypatch):
    # a neighbour map build that outlasts the run leaves the screen
    # search over it the 1 ms floor, not the time that was left before
    # the build
    clock = _Clock(monkeypatch)
    events = _record(monkeypatch,
                     build_neighbor_map=clock.after(build_neighbor_map),
                     screen_placements=_ends(TIMEOUT))
    assert _chain2() == (TIMED_OUT, [(2, TIMEOUT, 0, False)])
    assert [(nn, cfg.time_limit) for nn, cfg, _ in _of(events, "screen")] == [
        (2, 0.001)]


# (kernel, fabric, II, schedule, placement limit, expected attempts):
# tree5's first screen is refuted and it routes at its second; join on
# ADRES has up to k routes per pair, and its screen's first placement
# routes; so does chain5's, at the target after a refuted one
SAME_MODELS = [
    ("tree5", ArchSpec("ortho", 1, 4, route_through=False), 2, (1, 2, 4, 8),
     1, [(1, "infeasible", False), (2, "feasible", True)]),
    ("join", ArchSpec("adres", 2, 2), 2, SCHEDULE, 20,
     [(2, "infeasible", False), (4, "feasible", True)]),
    ("chain5", ArchSpec("ortho", 2, 2), 2, SCHEDULE, 20,
     [(2, "infeasible", False), (4, "feasible", True)]),
]
# seed 1 unless listed
SAME_MODELS_SEED = {"tree5": 4, "diamond": 3, "chain5": 2}
# (kernel, fabric, II, schedule, placement limit): diamond at NN 8, and
# DIAMOND_REFUTED, a placement that meets con1-con3 there and that
# must-cross refutes over SHALLOW_PATHS routes
DIAMOND_CASE = ("diamond", ArchSpec("adres", 2, 2), 2, (8,), 20)
DIAMOND_REFUTED = dict(zip("abcd", (("pe_0_0.alu", 0), ("pe_1_0.alu", 1),
                                    ("pe_1_0.alu", 0), ("pe_1_1.alu", 0))))


@pytest.mark.parametrize("kernel,spec,ii,schedule,placements,attempts",
                         SAME_MODELS)
def test_models_match_full_neighbourhood_cache(monkeypatch, kernel, spec, ii,
                                               schedule, placements,
                                               attempts):
    events = _record(monkeypatch)
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = build_mrrg(spec, ii)
    out = map_dfg(dfg, mrrg, schedule,
                  MapLimits(placement_limit=placements),
                  seed=SAME_MODELS_SEED.get(kernel, 1))
    assert out.status == MAPPED
    assert [(a.nn, a.screen, a.routed) for a in out.attempts] == attempts

    caches = {nn: cache for nn, _, cache in _of(events, "cache")}
    for nn, cache in caches.items():
        # each target's cache is over its full neighbourhood
        near = build_neighbor_map(mrrg, nn).neighbors
        assert set(cache.paths) == {(u, v) for u in near for v in near[u]}
    for nn, root, found in _of(events, "route"):
        # the screen leaves no placement that must-cross refutes at the
        # routing search's root node, and each connection of the leaf
        # keeps cached routes of its target
        cache = caches[nn]
        assert must_cross_blocks(root[0], cache) == {}
        assert found[0] == FEASIBLE and found[2] > 1
        for pair, rps in root[0].items():
            assert set(rps) <= set(cache[pair])
    assert [nn for nn, *_ in _of(events, "route")] == [
        a.nn for a in out.attempts if a.routed]


@pytest.mark.parametrize("kernel,spec,ii,schedule,placements,seed,refused,"
                         "tried", [
    ("fan3", ArchSpec("adres", 4, 4), 2, SCHEDULE, 20, 1, 0, {2: 1}),
    (*SAME_MODELS[0][:5], SAME_MODELS_SEED["tree5"], 0, {2: 1}),
    (*DIAMOND_CASE, SAME_MODELS_SEED["diamond"], 2, {8: 3}),
    ("chain5", ArchSpec("adres", 2, 2), 2, SCHEDULE, 20, 4, 5, {8: 6}),
], ids=["fan3", "tree5", "diamond", "chain5-adres"])
def test_cache_depths(monkeypatch, kernel, spec, ii, schedule, placements,
                      seed, refused, tried):
    # each target whose neighbour map is asked for builds one
    # SHALLOW_PATHS-deep cache over that map, right after it, however many
    # placements it tries, and its screen search reads that cache. Each
    # placement the search yields gets one routing check, right after it,
    # from the leaf it was yielded with, whose connections are the
    # placement's. The first `refused` checks are answered infeasible, so
    # that a target tries more than one placement
    events = _record(monkeypatch, route_search=_refuses(refused))
    dfg = parse_dfg(KERNELS[kernel])
    out = map_dfg(dfg, build_mrrg(spec, ii), schedule,
                  MapLimits(placement_limit=placements), seed=seed)
    assert out.status == MAPPED

    caches = {}
    for i, event in enumerate(events):
        if event[0] == "nmap":
            assert events[i:i + 3] == _opened(event[1])
            cache = caches[event[1]] = events[i + 1][-1]
            assert events[i + 2][-1] is cache
    assert len(_of(events, "cache")) == len(caches)
    counts = {}
    for i, event in enumerate(events):
        if event[0] != "yield":
            continue
        _, nn, place, leaf = event
        assert events[i + 1] == ("route", nn, leaf, ANY)
        assert list(leaf[0]) == sorted({(place[o], place[p])
                                        for o, p in dfg.point_edges()})
        counts[nn] = counts.get(nn, 0) + 1
    assert len(_of(events, "route")) == sum(counts.values())
    assert counts == {a.nn: a.placements_tried for a in out.attempts
                      if a.screen == "feasible"}
    assert counts == tried


def test_screen_prunes_what_must_cross_refutes(monkeypatch):
    # DIAMOND_REFUTED meets con1-con3 at NN 8, but every SHALLOW_PATHS
    # route of c -> d crosses a vertex some other driver's routes all
    # cross, so the screen search never yields it, and the run maps on
    # a placement whose routes it yields
    events = _record(monkeypatch)
    kernel, spec, ii, schedule, limit = DIAMOND_CASE
    dfg, mrrg = parse_dfg(KERNELS[kernel]), build_mrrg(spec, ii)
    nmap = build_neighbor_map(mrrg, 8)
    shallow = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    place = DIAMOND_REFUTED
    assert place in list(placements(dfg, mrrg, nmap))
    pairs = [(place[o], place[p]) for o, p in dfg.point_edges()]
    blocked = (("pe_0_0.out", 0), ("pe_0_0.out", 1), ("pe_0_0.reg", 1),
               ("pe_1_0.out", 0))
    assert must_cross_blocks(pairs, shallow) == {
        (place["c"], place["d"]): blocked}
    out = map_dfg(dfg, mrrg, schedule, MapLimits(placement_limit=limit),
                  seed=SAME_MODELS_SEED[kernel])
    assert [(a.nn, a.screen, a.placements_tried, a.routed)
            for a in out.attempts] == [(8, FEASIBLE, 1, True)]
    [(_, first, _)] = _of(events, "yield")
    assert first != place and out.solution.placement == first
    assert validate_mapping(dfg, mrrg, out.solution) == []
    for paths in out.solution.routing.values():
        for rp in paths:
            assert rp in shallow[rp.vertices[0], rp.vertices[-1]]
    cfg = SolveConfig(seed=SAME_MODELS_SEED[kernel], time_limit=60)
    assert place not in [yielded for yielded, _, _ in screen_placements(
        dfg, mrrg, nmap, cfg, shallow)]


def test_first_placement_that_routes_reads_only_its_own_pairs(monkeypatch):
    # join's screen search at NN 4 yields a first placement that routes
    # on the target's SHALLOW_PATHS cache: one routing search is all that
    # runs past the screen, it reads the placement's own pairs alone, no
    # model is built, and the mapping places what the search placed
    events = _record(monkeypatch)
    dfg, mrrg = parse_dfg(KERNELS["join"]), fabric("adres", 2)
    out = map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=1)
    assert out.status == MAPPED
    assert [(a.nn, a.screen, a.placements_tried, a.routed)
            for a in out.attempts] == [(2, INFEASIBLE, 0, False),
                                       (4, FEASIBLE, 1, True)]
    assert _of(events, "variant") == []
    [(nn, root, (status, routes, _))] = _of(events, "route")
    [(nn, place, leaf)] = _of(events, "yield")
    assert (root, status) == (leaf, FEASIBLE)
    assert out.solution.placement == place
    assert [(nn, k) for nn, k, _ in _of(events, "cache")] == [
        (2, SHALLOW_PATHS), (4, SHALLOW_PATHS)]
    own = {(place[o], place[p]) for o, p in dfg.point_edges()}
    assert set(root[0]) == set(routes) == own
    # the graph's route table holds the pairs the screen searches fixed,
    # at the depth they were enumerated at: here the NN-4 search went
    # straight to its leaf, and fixed the placement's own pairs alone
    assert {pair: k for pair, (k, _) in mrrg.route_table.items()} == (
        dict.fromkeys(own, SHALLOW_PATHS))
    assert own < {(u, v) for _, u, _, v in neighbor_domain(
        dfg, mrrg, build_neighbor_map(mrrg, nn))}


# CHAIN5_ORTHO, and chain5 on 2x2 ADRES at II 2, seed 4, which maps at
# NN 8; the checks before the placement that maps are answered infeasible
@pytest.mark.parametrize("kernel,family,ii,schedule,seed,tried", [
    (*CHAIN5_ORTHO, 3), ("chain5", "adres", 2, SCHEDULE, 4, 6)],
    ids=["chain5-ortho", "chain5-adres"])
def test_each_placement_is_routed_once_per_depth(monkeypatch, kernel, family,
                                                 ii, schedule, seed, tried):
    # within one target, no placement gets two routing checks, and the
    # first placement is the first one a search of its own at the same
    # seed yields
    events = _record(monkeypatch, route_search=_refuses(tried - 1))
    dfg, mrrg = parse_dfg(KERNELS[kernel]), fabric(family, ii)
    out = map_dfg(dfg, mrrg, schedule, LIMITS, seed=seed)
    # (NN, placement) of each routing check, which checks the placement
    # yielded last
    checks, firsts = [], {}
    for event in events:
        if event[0] == "yield":
            _, nn, place, _ = event
            firsts.setdefault(nn, place)
        elif event[0] == "route":
            checks.append((event[1], tuple(sorted(place.items()))))
    assert len(checks) == len(set(checks)) == tried
    assert out.status == MAPPED
    assert (out.attempts[-1].placements_tried, out.attempts[-1].routed) == (
        tried, True)
    screens = {nn: (cfg, cache) for nn, cfg, cache in _of(events, "screen")}
    assert firsts and all(
        first == next(screen_placements(
            dfg, mrrg, build_neighbor_map(mrrg, nn), *screens[nn]))[0]
        for nn, first in firsts.items())


@pytest.mark.parametrize("status,verdict,limit", [
    (TIMEOUT, TIMED_OUT, 2), (INFEASIBLE, NOT_MAPPABLE, 2),
    (INFEASIBLE, NOT_MAPPABLE, 3)],
    ids=["timeout-timed_out", "infeasible-not_mappable", "placement_limit"])
def test_screen_placement_timeout_reads_timed_out(monkeypatch, status,
                                                  verdict, limit):
    # every routing check answers status, one check per placement. A
    # timeout proves nothing: it ends that placement, as a proof does,
    # and the search goes on to the next, up to the placement limit; no
    # placement having been proven unroutable, the run timed out rather
    # than found the kernel unmappable. Proofs at every placement leave
    # it unmappable at the last target. The cap has one home, the
    # mapper: the screen search has more placements, and its stream is
    # not read past the last one tried, so it never ends
    _Clock(monkeypatch)
    events = _record(monkeypatch, route_search=_answers(status))
    out = map_dfg(parse_dfg(KERNELS["chain2"]), fabric("ortho", 1), (2,),
                  dataclasses.replace(LIMITS, placement_limit=limit), seed=1)
    assert (out.status, [(a.nn, a.screen, a.placements_tried, a.routed)
                         for a in out.attempts]) == (
        verdict, [(2, FEASIBLE, limit, False)])
    assert [nn for nn, *_ in _of(events, "route")] == [2] * limit
    assert _of(events, "screened") == []


# (family, II, kernel, brute-force verdict). Brute force takes seconds or
# more on 2x2 HyCUBE at II 2, so HyCUBE is covered at II 1 only.
AGREEMENT = [
    ("ortho", 1, "loop", True), ("ortho", 1, "join", True),
    ("ortho", 1, "chain5", False),
    ("ortho", 2, "fan2", True), ("ortho", 2, "loop", True),
    ("adres", 1, "chain2", True), ("adres", 1, "stores3", False),
    ("adres", 2, "join", True), ("adres", 2, "acc", True),
    ("clustered", 1, "acc", True), ("clustered", 1, "ldst", False),
    ("clustered", 2, "chain2", True), ("clustered", 2, "loop", True),
    ("hycube", 1, "ldst", True), ("hycube", 1, "acc", True),
    ("hycube", 1, "chain2", True), ("hycube", 1, "stores3", False),
]


@pytest.mark.parametrize("family,ii,kernel,mappable", AGREEMENT)
def test_agreement_with_brute_force(family, ii, kernel, mappable):
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = fabric(family, ii)
    assert brute_force_mappable(dfg, mrrg) == mappable
    out = map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=1)
    if out.status == MAPPED:
        assert mappable
        assert validate_mapping(dfg, mrrg, out.solution) == []
    if not mappable:
        assert out.status == NOT_MAPPABLE
    # so does the per-node baseline, and its mapping passes the traversal
    try:
        base = build_baseline(dfg, mrrg)
    except InfeasibleModel:
        assert not mappable
    else:
        # the staged mapping is a point of the baseline model
        if out.status == MAPPED:
            point = baseline_point(out.solution)
            assert set(point) <= set(base.variables)
            assert check_assignment(base.constraints, point) == []
        res = solve(base, SolveConfig(seed=1, time_limit=30))
        assert res.status == (FEASIBLE if mappable else "infeasible")
        if res.status == FEASIBLE:
            placement, routes = extract_mapping(base, dfg, mrrg,
                                                res.assignment)
            sol = mapping_solution(placement, routes)
            assert validate_mapping(dfg, mrrg, sol) == []
    # the combined model at full neighbour count decides alone
    nmap = build_neighbor_map(mrrg, len(fu_nodes(mrrg)))
    try:
        model = build_variant("combined", dfg, mrrg, nmap,
                              build_path_cache(mrrg, nmap, DEEP))
    except InfeasibleModel:
        assert not mappable
        return
    res = solve(model, SolveConfig(seed=1, time_limit=30))
    assert res.status == (FEASIBLE if mappable else "infeasible")


@pytest.mark.parametrize("family,ii,kernel,mappable", AGREEMENT)
@pytest.mark.pin
def test_screen_search_matches_the_0_1_screen(family, ii, kernel, mappable):
    # at every target of the schedule, over caches of 1 and of
    # SHALLOW_PATHS routes per pair, the screen search yields each
    # placement brute force finds that some product of one cached route
    # per connection routes, once, and exhausts its tree; the routing
    # search routes each from the leaf it was yielded with. One route
    # per pair makes every interior vertex one to cross, so must-cross
    # prunes most there
    dfg, mrrg = parse_dfg(KERNELS[kernel]), fabric(family, ii)
    cfg = SolveConfig(seed=1, time_limit=60)
    for nn in SCHEDULE:
        nmap = build_neighbor_map(mrrg, nn)
        for k in (1, SHALLOW_PATHS):
            cache = build_path_cache(mrrg, nmap, k)
            found, (status, _) = drain(
                screen_placements(dfg, mrrg, nmap, cfg, cache))
            assert status == INFEASIBLE
            assert sorted(tuple(sorted(place.items()))
                          for place, _, _ in found) == sorted(
                tuple(sorted(place.items()))
                for place in placements(dfg, mrrg, nmap)
                if routable({(place[o], place[p])
                             for o, p in dfg.point_edges()}, cache))
            assert all(route_search(leaf, cfg)[0] == FEASIBLE
                       for _, leaf, _ in found)


@pytest.mark.pin
def test_screen_search_node_counts_are_pinned():
    # fir4's NN-4 screen on 4x4 ADRES at II 2 passes the search's root
    # node and takes a 0/1 solve of its con1-con3 rows 9k-10k nodes to
    # refute; the search refutes it in a few. Neither the op branched on
    # nor the order of its units may come from set iteration order,
    # which the hash seed changes
    dfg = parse_dfg(FIR4)
    mrrg = build_mrrg(ArchSpec("adres", 4, 4), 2)
    nmap = build_neighbor_map(mrrg, 4)
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    assert not refuted_at_root(dfg, mrrg, nmap, cache)
    cfg = SolveConfig(seed=1, time_limit=60)
    assert drain(screen_placements(dfg, mrrg, nmap, cfg, cache)) == (
        [], (INFEASIBLE, 7))
    # and the first placements of fir4's NN-10 screen on 4x4 HyCUBE at
    # seeds 1-3. FIR4_HYCUBE_PLACEMENT, where con1-con3 alone led at seed
    # 1, in 7 nodes, is pruned by must-cross; each of these routes
    mrrg = build_mrrg(ArchSpec("hycube", 4, 4), 2)
    nmap = build_neighbor_map(mrrg, 10)
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    firsts = []
    for seed, count in zip((1, 2, 3), (26, 12, 12)):
        cfg = SolveConfig(seed=seed, time_limit=60)
        first, leaf, nodes = next(
            screen_placements(dfg, mrrg, nmap, cfg, cache))
        assert nodes == count, seed
        assert route_search(leaf, cfg)[0] == FEASIBLE
        firsts.append(first)
    assert FIR4_HYCUBE_PLACEMENT not in firsts
    assert firsts[2] == FIR4_HYCUBE_ROUTED


@pytest.mark.parametrize("nn,counts", [(20, [15, 17, 15]),
                                       (24, [17, 16, 16])])
@pytest.mark.pin
def test_deep_screen_node_counts_are_pinned(nn, counts):
    # nodes to the first placement of fir4's deep screens on 4x4 HyCUBE
    # at II 2, seeds 1-3, over SHALLOW_PATHS routes. A unit that is its
    # own neighbour supports no arc between two operations, which never
    # share a unit; while it did, only the matching caught it, and each
    # of these screens took 50k nodes or more, or timed out. The first
    # placement that con1-con3 alone reach at each seed, in 11-15 nodes,
    # is refuted by must-cross, which prunes it here
    dfg, mrrg = parse_dfg(FIR4), build_mrrg(ArchSpec("hycube", 4, 4), 2)
    nmap = build_neighbor_map(mrrg, nn)
    cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
    for seed, count in zip((1, 2, 3), counts):
        cfg = SolveConfig(seed=seed, time_limit=10)
        *_, nodes = next(screen_placements(dfg, mrrg, nmap, cfg, cache))
        assert nodes == count, seed


@pytest.mark.parametrize("family,ii,kernel,mappable", AGREEMENT)
@pytest.mark.pin
def test_route_search_matches_the_routing_model(family, ii, kernel,
                                                mappable):
    # on each of the first 20 placements brute force finds at every
    # target of the schedule, routable or not, over SHALLOW_PATHS and
    # over DEEP routes, the routing search from the cache alone routes
    # exactly when some product of one cached route per connection does,
    # and what it routes passes the traversal check
    dfg, mrrg = parse_dfg(KERNELS[kernel]), fabric(family, ii)
    cfg = SolveConfig(time_limit=60)
    for nn in SCHEDULE:
        nmap = build_neighbor_map(mrrg, nn)
        for place in islice(placements(dfg, mrrg, nmap), 20):
            edges = dfg.point_edges()
            pairs = [(place[o], place[p]) for o, p in edges]
            for k in (SHALLOW_PATHS, DEEP):
                cache = build_path_cache(mrrg, nmap, k)
                status, routes, _ = route_search(route_root(pairs, cache),
                                                 cfg)
                assert status == (FEASIBLE if routable(pairs, cache)
                                  else INFEASIBLE), (nn, k, place)
                if status == FEASIBLE:
                    sol = mapping_solution(place, {
                        (o, p): routes[place[o], place[p]] for o, p in edges})
                    assert validate_mapping(dfg, mrrg, sol) == []


@pytest.mark.parametrize("k,chosen", [
    (SHALLOW_PATHS, [0, 0, 0, 0, 1, 1, 2, 1, 0, 2, 2]),
    (DEEP, [0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 3])])
@pytest.mark.pin
def test_route_search_node_counts_are_pinned(k, chosen):
    # fir4 on 4x4 HyCUBE at II 2, NN 10: FIR4_HYCUBE_PLACEMENT is refuted
    # at the search's root node, the must-cross check, and
    # FIR4_HYCUBE_ROUTED routes; chosen gives the index of each
    # connection's route in its cached list, in pair order. Neither the
    # connection branched on nor the order of its routes may come from
    # set iteration order, which the hash seed changes
    dfg, mrrg = parse_dfg(FIR4), build_mrrg(ArchSpec("hycube", 4, 4), 2)
    cache = build_path_cache(mrrg, build_neighbor_map(mrrg, 10), k)
    cfg = SolveConfig(time_limit=60)

    def pairs(place):
        return [(place[o], place[p]) for o, p in dfg.point_edges()]

    assert route_search(route_root(pairs(FIR4_HYCUBE_PLACEMENT), cache),
                        cfg) == (INFEASIBLE, None, 1)
    status, routes, nodes = route_search(
        route_root(pairs(FIR4_HYCUBE_ROUTED), cache), cfg)
    assert (status, nodes) == (FEASIBLE, 12)
    assert [cache[pair].index(routes[pair])
            for pair in sorted(routes)] == chosen


def _pe(*names):
    return tuple((f"pe_{n}", 0) for n in names)


def test_validate_mapping_reports_malformed_solutions():
    # a solution from outside gets a list of problems, never an exception
    dfg = parse_dfg(KERNELS["chain3"])
    mrrg = fabric("ortho", 1)
    out = map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=1)
    assert out.status == MAPPED
    sol = out.solution
    assert validate_mapping(dfg, mrrg, sol) == []
    a, b = sol.placement["a"], sol.placement["b"]
    for vertices in ((), (a,)):
        bad = dataclasses.replace(
            sol, routing={**sol.routing, "a": (RoutePath(a, b, vertices),)})
        assert validate_mapping(dfg, mrrg, bad) == [
            "path for a has fewer than 2 vertices", "no route for a -> b"]
    gone = ("nope", 0)
    bad = dataclasses.replace(
        sol, routing={**sol.routing, "a": (RoutePath(a, b, (a, gone, b)),)})
    assert validate_mapping(dfg, mrrg, bad) == [
        f"path for a uses missing edge {a} -> {gone}",
        f"path for a uses missing edge {gone} -> {b}",
        f"path for a routes through {gone}"]
    # every operation must be placed, including one that feeds a placed op
    partial = dataclasses.replace(
        sol, placement={o: u for o, u in sol.placement.items() if o != "a"})
    assert "op a is unplaced" in validate_mapping(dfg, mrrg, partial)

    # one corrupted copy per rule of a mapping written out by hand: a on
    # PE 0_0, b on 0_1, c on 1_1
    a, b, c = _pe("0_0.alu", "0_1.alu", "1_1.alu")
    good = MappingSolution(
        {"a": a, "b": b, "c": c},
        {"a": (RoutePath(a, b, _pe("0_0.alu", "0_0.out", "0_1.in_s",
                                   "0_1.a", "0_1.alu")),),
         "b": (RoutePath(b, c, _pe("0_1.alu", "0_1.out", "1_1.in_w",
                                   "1_1.b", "1_1.alu")),)}, 2)
    assert validate_mapping(dfg, mrrg, good) == []

    def placed(**units):
        return dataclasses.replace(good, placement={**good.placement,
                                                    **units})

    def routed(*vertices):
        path = RoutePath(vertices[0], vertices[-1], vertices)
        return dataclasses.replace(good, routing={**good.routing,
                                                  "b": (path,)})

    cut = "no route for b -> c"
    wire, const = ("pe_1_0.reg", 0), ("pe_1_0.const", 0)
    stray = ("pe_0_0.out", 0)
    listed = (b, ["pe_0_1.out", 0], *_pe("1_1.in_w", "1_1.b", "1_1.alu"))
    cases = [
        (placed(zz=("pe_1_0.alu", 0)), ["placement names unknown op zz"]),
        (placed(c=gone), [f"c placed on missing node {gone}", cut]),
        (placed(c=wire), [f"c placed on routing node {wire}", cut]),
        (placed(c=const),
         [f"c (add) placed on incompatible unit {const}", cut]),
        (placed(c=a), [f"unit {a} hosts ['a', 'c']", cut]),
        (routed(*_pe("1_0.alu", "1_0.out", "1_1.in_s", "1_1.b", "1_1.alu")),
         [f"path for b starts at {('pe_1_0.alu', 0)}, not its unit", cut]),
        # out -> reg -> out is the register's loop
        (routed(*_pe("0_1.alu", "0_1.out", "0_1.reg", "0_1.out", "1_1.in_w",
                     "1_1.b", "1_1.alu")),
         ["path for b repeats a vertex"]),
        # through PE 0_0's bypass, onto the output a's route leaves by
        (routed(*_pe("0_1.alu", "0_1.out", "0_0.in_n", "0_0.bypass",
                     "0_0.out", "1_0.in_w", "1_0.bypass", "1_0.out",
                     "1_1.in_s", "1_1.a", "1_1.alu")),
         [f"a and b share vertex {('pe_0_0.out', 0)}"]),
        # one more route of b, onto the output a's route leaves by; the
        # shared-vertex check reads interiors only, so its end is caught
        (dataclasses.replace(good, routing={**good.routing, "b": (
            *good.routing["b"], RoutePath(b, stray, (*_pe(
                "0_1.alu", "0_1.out", "0_0.in_n", "0_0.bypass"), stray)))}),
         [f"path for b ends at {stray}, off a function unit"]),
        # units and vertices in the list form outcome_to_dict writes, and
        # a unit named by its str alone: each raised TypeError when hashed
        # or sorted
        (placed(c=list(c)), [f"c placed on malformed unit {list(c)!r}"]),
        (placed(c=c[0]), [f"c placed on malformed unit {c[0]!r}"]),
        (routed(*listed),
         [f"path for b has a malformed vertex in {listed!r}", cut]),
    ]
    for bad, problems in cases:
        assert validate_mapping(dfg, mrrg, bad) == problems


def join_report() -> str:
    """The report, times dropped, of mapping join on 2x2 ADRES at II 2."""
    out = map_dfg(parse_dfg(KERNELS["join"]), fabric("adres", 2), SCHEDULE,
                  LIMITS, seed=4)
    return json.dumps(outcome_to_dict(out, include_times=False),
                      sort_keys=True)


def test_report_is_byte_stable():
    reports = [join_report() for _ in range(2)]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["status"] == MAPPED


def shared_mrrg_reports(shared: bool = True) -> str:
    """The reports, times dropped, of mapping diamond (DIAMOND_CASE) and
    then join on 2x2 ADRES at II 2, both onto one MRRG or each onto its
    own."""
    mrrg = fabric("adres", 2)
    reports = []
    for kernel, schedule, seed in (("diamond", DIAMOND_CASE[3], 3),
                                   ("join", SCHEDULE, 4)):
        out = map_dfg(parse_dfg(KERNELS[kernel]), mrrg, schedule, LIMITS,
                      seed=seed)
        reports.append(outcome_to_dict(out, include_times=False))
        if not shared:
            mrrg = fabric("adres", 2)
    return json.dumps(reports, sort_keys=True)


def test_report_is_stable_across_hash_seeds():
    # str hashes, and so the order of a set of strings, change with
    # PYTHONHASHSEED; a search steered by such an order differs here
    reports = under_hash_seeds("test_mapper.join_report()")
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["status"] == MAPPED


def test_shared_mrrg_reports_are_stable_across_hash_seeds():
    # the second mapping reads neighbour maps and routes the first left
    # on the MRRG; neither the hash seed nor that reuse may show
    reports = under_hash_seeds("test_mapper.shared_mrrg_reports()")
    assert reports[0] == reports[1]
    assert reports[0].strip() == shared_mrrg_reports(shared=False)
    assert [r["status"] for r in json.loads(reports[0])] == [MAPPED, MAPPED]


def outcomes_digest(routing: bool = True) -> str:
    """sha256 of the reports, times dropped, of every KERNELS entry on
    the four 2x2 families at II 1-2 and seeds 1-3, one MRRG per (family,
    II) per seed; with routing False, each mapping's routes are dropped
    from its report."""
    reports = []
    for seed in (1, 2, 3):
        for family in ("ortho", "adres", "clustered", "hycube"):
            for ii in (1, 2):
                mrrg = fabric(family, ii)
                for text in KERNELS.values():
                    out = map_dfg(parse_dfg(text), mrrg, SCHEDULE, LIMITS,
                                  seed=seed)
                    report = outcome_to_dict(out, include_times=False)
                    if not routing and "solution" in report:
                        del report["solution"]["routing"]
                    reports.append(report)
    return hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()


@pytest.mark.pin
def test_outcomes_digest_is_pinned():
    # statuses, attempts (NN, screen status, placements tried, routed)
    # and mappings of 288 runs. A change that is meant to keep every
    # verdict and mapping keeps this value; a change to it is re-pinned
    # only with the reason given in CHANGES.md
    assert outcomes_digest() == (
        "fb51b9070500f7f1428a2bb30abf018b7434f265c38ef773dcb54c889fbb44c7")


@pytest.mark.pin
def test_outcome_verdicts_digest_is_pinned():
    # the same 288 runs with each mapping's routes dropped: statuses,
    # attempts and placements. A change that picks other routes for the
    # same placements re-pins only the digest above; one that changes a
    # verdict, an attempt or a placement re-pins this one too
    assert outcomes_digest(routing=False) == (
        "e7aa2aa58f0293b3f7e04e650f34429731c842ce63a6b6c2db353d3df70a59ff")


def test_characterize_smoke():
    suite = [("chain3", parse_dfg(KERNELS["chain3"])),
             ("chain5", parse_dfg(KERNELS["chain5"]))]
    rows = characterize(ArchSpec("ortho", 2, 2), [1], suite,
                        schedule=(2, 4), limits=LIMITS, seed=1)
    assert rows == [(1, 2, 1, 2, 0.5), (1, 4, 1, 2, 0.5)]
    with pytest.raises(ValueError):
        characterize(ArchSpec("ortho", 2, 2), [1], [])


def test_map_min_ii_smoke():
    dfg = parse_dfg(KERNELS["loop"])
    ii, out = map_min_ii(dfg, ArchSpec("ortho", 2, 2), 2, SCHEDULE, LIMITS,
                         seed=1)
    assert (ii, out.status) == (1, MAPPED)
    ii, out = map_min_ii(parse_dfg(KERNELS["stores3"]),
                         ArchSpec("adres", 2, 2), 1, SCHEDULE, LIMITS, seed=1)
    assert (ii, out.status) == (1, NOT_MAPPABLE)
    with pytest.raises(ValueError):
        map_min_ii(dfg, ArchSpec("ortho", 2, 2), 0)
