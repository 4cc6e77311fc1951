"""Staged driver checks: routes built on demand give the same models as
the full neighbourhood cache, verdicts of the driver and of the combined
model agree with brute force, reports are stable, and the survey entry
points run."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cgramap import mapper
from cgramap.baseline import build_baseline, extract_mapping
from cgramap.dfg import Dfg, Operation, parse_dfg
from cgramap.ilp import InfeasibleModel, build_variant, used_pairs
from cgramap.mapper import (MAPPED, NOT_MAPPABLE, RELAXED_PATHS, TIMED_OUT,
                            MappingSolution, MapLimits, characterize,
                            map_dfg, map_min_ii, outcome_to_dict,
                            validate_mapping)
from cgramap.mrrg import ArchSpec, build_mrrg, fu_nodes
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import DEFAULT_K, RoutePath, build_path_cache
from cgramap.solver import (FEASIBLE, INFEASIBLE, TIMEOUT, SolveConfig,
                            SolveResult, solve)
from helpers import brute_force_mappable

KERNELS = {
    "chain2": "op a add\nop b add\nedge a -> b:0\n",
    "chain3": "op a add\nop b add\nop c add\nedge a -> b:0\nedge b -> c:0\n",
    "chain5": "op a add\nop b add\nop c add\nop d add\nop e add\n"
              "edge a -> b:0\nedge b -> c:0\nedge c -> d:0\nedge d -> e:0\n",
    "fan2": "op a add\nop b add\nop c add\nedge a -> b:0, c:0\n",
    "fan3": "op a add\nop b add\nop c add\nop d add\n"
            "edge a -> b:0, c:0, d:0\n",
    "join": "op a add\nop b add\nop c add\nedge a -> c:0\nedge b -> c:1\n",
    "loop": "op a add\nedge a -> a:0\n",
    "acc": "op ld load\nop acc add\nedge ld -> acc:1\nedge acc -> acc:0\n",
    "ldst": "op ld load\nop st store\nedge ld -> st:0\n",
    "stores3": "op a add\nop s0 store\nop s1 store\nop s2 store\n"
               "edge a -> s0:0, s1:0, s2:0\n",
    # a tree whose first feasible neighbourhood does not route
    "tree5": "op a add\nop b add\nop c add\nop d add\nop e add\n"
             "edge a -> b:0\nedge b -> c:0, d:0\nedge c -> e:0\n",
    "diamond": "op a add\nop b add\nop c add\nop d add\n"
               "edge a -> b:0, c:0\nedge b -> d:0\nedge c -> d:1\n",
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
], ids=["solve_config", "solve_time", "total_time", "solve_config_str",
        "solve_time_str", "total_time_none"])
def test_nan_time_limit_rejected(make):
    # NaN compares false against everything, so a deadline made from it
    # would never pass; a str or None does not compare with 0 at all
    with pytest.raises(ValueError):
        make()


def test_non_int_counts_rejected():
    # a float would reach range() in enumerate_solutions or the report
    with pytest.raises(ValueError, match="placement limit"):
        MapLimits(placement_limit=2.5)
    dfg, mrrg = parse_dfg(KERNELS["chain2"]), fabric("ortho", 1)
    for schedule in [(4.5,), (2, 4.0)]:
        with pytest.raises(ValueError, match="positive ints"):
            map_dfg(dfg, mrrg, schedule, LIMITS, seed=1)
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


def _stub_solve(monkeypatch, clock, variant, status, late=False, seen=None):
    """mapper.solve answers models of one variant with status, ending
    past the deadline if asked, and records each config."""
    real_solve = mapper.solve

    def stub(model, cfg):
        if seen is not None:
            seen.append((model.variant, cfg))
        if model.variant != variant:
            return real_solve(model, cfg)
        if late:
            clock.pass_deadline()
        return SolveResult(status, None, 0, 0.0)

    monkeypatch.setattr(mapper, "solve", stub)


def _chain2(schedule=(2, 4)):
    # chain2 passes its first screen on 2x2 ortho at II 1 and has many
    # placements
    out = map_dfg(parse_dfg(KERNELS["chain2"]), fabric("ortho", 1),
                  schedule, LIMITS, seed=1)
    return out.status, [(a.nn, a.screen, a.placements_tried, a.routed)
                        for a in out.attempts]


def test_op_without_a_unit_is_not_mappable():
    # parse_dfg rejects an unknown opcode, a Dfg built directly does not;
    # every screen build then proves the op has no unit
    dfg = Dfg([Operation("a", "frob")], [])
    with pytest.raises(InfeasibleModel, match="a has no compatible unit"):
        build_baseline(dfg, fabric("ortho", 1))
    out = map_dfg(dfg, fabric("ortho", 1), (2, 4), LIMITS, seed=1)
    assert (out.status, [(a.nn, a.screen) for a in out.attempts]) == (
        NOT_MAPPABLE, [(2, INFEASIBLE), (4, INFEASIBLE)])


def test_screen_timeout_ends_the_run(monkeypatch):
    _stub_solve(monkeypatch, _Clock(monkeypatch), "placement_only", TIMEOUT)
    assert _chain2() == (TIMED_OUT, [(2, TIMEOUT, 0, False)])


def test_late_infeasible_screen_moves_on(monkeypatch):
    # the next target would start after the deadline; at the last target
    # the schedule simply ends
    _stub_solve(monkeypatch, _Clock(monkeypatch), "placement_only",
                INFEASIBLE, late=True)
    assert _chain2() == (TIMED_OUT, [(2, INFEASIBLE, 0, False)])
    assert _chain2((2,)) == (NOT_MAPPABLE, [(2, INFEASIBLE, 0, False)])


def test_deadline_during_enumeration_ends_the_run(monkeypatch):
    # timed out, not unmappable, even at the last target
    clock = _Clock(monkeypatch)

    def enumerate_nothing(model, cfg):
        clock.pass_deadline()
        yield from ()

    monkeypatch.setattr(mapper, "enumerate_solutions", enumerate_nothing)
    assert _chain2((2,)) == (TIMED_OUT, [(2, FEASIBLE, 0, False)])


def test_deadline_during_routing_stops_the_enumeration(monkeypatch):
    # the enumeration would go on yielding; the first routing solve
    # that ends past the deadline stops it
    real_enumerate = mapper.enumerate_solutions

    def enumerate_first_again(model, cfg):
        first = next(real_enumerate(model, cfg))
        for _ in range(3):
            yield first

    monkeypatch.setattr(mapper, "enumerate_solutions", enumerate_first_again)
    _stub_solve(monkeypatch, _Clock(monkeypatch), "routing_only", INFEASIBLE,
                late=True)
    assert _chain2((2,)) == (TIMED_OUT, [(2, FEASIBLE, 1, False)])


def test_screen_budget_taken_after_its_build(monkeypatch):
    # a screen build that outlasts the run leaves its solve the 1 ms
    # floor, not the time that was left before the build
    real_variant = mapper.build_variant
    clock = _Clock(monkeypatch)

    def slow_variant(variant, *args, **kw):
        model = real_variant(variant, *args, **kw)
        if variant == "placement_only":
            clock.pass_deadline()
        return model

    monkeypatch.setattr(mapper, "build_variant", slow_variant)
    seen = []
    _stub_solve(monkeypatch, clock, "placement_only", TIMEOUT, seen=seen)
    assert _chain2() == (TIMED_OUT, [(2, TIMEOUT, 0, False)])
    assert [(v, cfg.time_limit) for v, cfg in seen] == [
        ("placement_only", 0.001)]


# (kernel, fabric, II, schedule, placement limit, expected attempts):
# tree5 passes two screens and routes only at the second, so models are
# built at two targets of one call; join on ADRES has up to k routes per
# pair
SAME_MODELS = [
    ("tree5", ArchSpec("ortho", 1, 4, route_through=False), 2, (1, 2, 4, 8),
     1, [(1, "infeasible", False), (2, "feasible", False),
         (4, "feasible", True)]),
    ("join", ArchSpec("adres", 2, 2), 2, SCHEDULE, 20,
     [(2, "infeasible", False), (4, "feasible", True)]),
]
# seed 1 unless listed: tree5 passes two screens under seeds 3 and 5, and
# at seed 1 its first placement already routes at NN 2; diamond's first
# placement at seed 3 routes only on DEFAULT_K routes
SAME_MODELS_SEED = {"tree5": 3, "diamond": 3}
# the (variant, NN, cache depth) of every model past the screens: each
# placement's routing model reads RELAXED_PATHS routes, and DEFAULT_K
# ones only after that is proven infeasible, as at tree5's NN 2
SAME_MODELS_BUILT = {
    "tree5": [("relaxed_placement", 2, RELAXED_PATHS),
              ("routing_only", 2, RELAXED_PATHS),
              ("routing_only", 2, DEFAULT_K),
              ("relaxed_placement", 4, RELAXED_PATHS),
              ("routing_only", 4, RELAXED_PATHS)],
    "join": [("relaxed_placement", 4, RELAXED_PATHS),
             ("routing_only", 4, RELAXED_PATHS)],
}
# (kernel, fabric, II, schedule, placement limit): the first relaxed
# placement is proven unroutable on RELAXED_PATHS routes in a few nodes
# and routes on DEFAULT_K ones
DEEP_CASE = ("diamond", ArchSpec("adres", 2, 2), 2, (8,), 20)


@pytest.mark.parametrize("kernel,spec,ii,schedule,placements,attempts",
                         SAME_MODELS)
def test_models_match_full_neighbourhood_cache(monkeypatch, kernel, spec, ii,
                                               schedule, placements,
                                               attempts):
    real_variant = mapper.build_variant
    built = []

    def recording_variant(variant, dfg, mrrg, nmap, cache=None, **kw):
        model = real_variant(variant, dfg, mrrg, nmap, cache, **kw)
        built.append((variant, nmap, kw, model))
        return model

    monkeypatch.setattr(mapper, "build_variant", recording_variant)
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = build_mrrg(spec, ii)
    out = map_dfg(dfg, mrrg, schedule,
                  MapLimits(placement_limit=placements),
                  seed=SAME_MODELS_SEED.get(kernel, 1))
    assert out.status == MAPPED
    assert [(a.nn, a.screen, a.routed) for a in out.attempts] == attempts

    # the reference reads a full-neighbourhood cache as deep as the
    # recorded model's
    full = {}
    checked = []
    for variant, nmap, kw, model in built:
        if variant == "placement_only":
            continue
        nn, k = nmap.target_nn, model.metadata["k"]
        if (nn, k) not in full:
            full[nn, k] = build_path_cache(mrrg, build_neighbor_map(mrrg, nn),
                                           k)
        ref = real_variant(variant, dfg, mrrg, nmap, full[nn, k], **kw)
        assert model.variables == ref.variables, (variant, nn, k)
        assert model.constraints == ref.constraints, (variant, nn, k)
        checked.append((variant, nn, k))
    routed = [nn for nn, screen, _ in attempts if screen == "feasible"]
    assert [nn for v, nn, _ in checked if v == "relaxed_placement"] == routed
    assert checked == SAME_MODELS_BUILT[kernel]


@pytest.mark.parametrize("kernel,spec,ii,schedule,placements,deepened", [
    ("fan3", ArchSpec("adres", 4, 4), 2, SCHEDULE, 20, 0),
    (*SAME_MODELS[0][:5], 1),
    (*DEEP_CASE, 1),
], ids=["fan3", "tree5", "diamond"])
def test_cache_depths(monkeypatch, kernel, spec, ii, schedule, placements,
                      deepened):
    # per NN: one RELAXED_PATHS-deep cache over the screen's pairs; each
    # tried placement's first routing model reads that cache, and a
    # DEFAULT_K-deep cache over just the placement's pairs is built, with
    # its routing model right after it, only when that model is proven
    # infeasible
    real_cache, real_variant = mapper.build_path_cache, mapper.build_variant
    real_solve = mapper.solve
    events = []

    def recording_cache(mrrg, nmap, k=DEFAULT_K):
        cache = real_cache(mrrg, nmap, k)
        events.append(("cache", nmap.target_nn, cache))
        return cache

    def recording_variant(variant, dfg, mrrg, nmap, cache=None, **kw):
        events.append((variant, nmap.target_nn, cache, kw))
        model = real_variant(variant, dfg, mrrg, nmap, cache, **kw)
        events[-1] += (model,)
        return model

    def recording_solve(model, cfg):
        res = real_solve(model, cfg)
        events.append(("solve", model, res.status))
        return res

    monkeypatch.setattr(mapper, "build_path_cache", recording_cache)
    monkeypatch.setattr(mapper, "build_variant", recording_variant)
    monkeypatch.setattr(mapper, "solve", recording_solve)
    dfg = parse_dfg(KERNELS[kernel])
    out = map_dfg(dfg, build_mrrg(spec, ii), schedule,
                  MapLimits(placement_limit=placements),
                  seed=SAME_MODELS_SEED.get(kernel, 1))
    assert out.status == MAPPED

    shallow, tried, deep = {}, {}, 0
    for i, event in enumerate(events):
        kind, nn = event[:2]
        if kind == "cache":
            cache = event[2]
            user, user_nn, user_cache = events[i + 1][:3]
            assert user_nn == nn and user_cache is cache
            if user == "relaxed_placement":
                # the screen model came just before and has passed
                screen = events[i - 2]
                assert screen[0] == "placement_only"
                assert events[i - 1] == ("solve", screen[4], FEASIBLE)
                assert cache.k == RELAXED_PATHS
                assert list(cache.paths) == used_pairs(screen[4])
                assert nn not in shallow
                shallow[nn], tried[nn] = cache, 0
            else:
                assert user == "routing_only"
                assert cache.k == DEFAULT_K
                place = events[i + 1][3]["placement"]
                assert set(cache.paths) == {(place[o], place[p])
                                            for o, p in dfg.point_edges()}
                # the placement's shallow check just before was a proof
                first, proof = events[i - 2], events[i - 1]
                assert first[0] == "routing_only"
                assert first[2] is shallow[nn]
                assert first[3]["placement"] == place
                assert proof == ("solve", first[4], INFEASIBLE)
                deep += 1
        elif kind == "routing_only" and event[2] is shallow.get(nn):
            tried[nn] += 1
            assert event[4].metadata["k"] == RELAXED_PATHS
            status = events[i + 1][2]
            follows = events[i + 2][0] if i + 2 < len(events) else None
            assert (follows == "cache") == (status == INFEASIBLE)
    assert tried == {a.nn: a.placements_tried for a in out.attempts
                     if a.screen == "feasible"}
    assert tried
    assert deep == deepened


def test_deep_stage_routes_what_shallow_cannot(monkeypatch):
    # the first placement is proven unroutable on RELAXED_PATHS routes and
    # routes on DEFAULT_K ones; a run without the deep stage would go on
    # to other placements
    real_solve = mapper.solve
    checks, nodes = [], []

    def recording_solve(model, cfg):
        res = real_solve(model, cfg)
        if model.variant == "routing_only":
            checks.append((model.metadata["k"], len(model.variables),
                           len(model.constraints), res.status))
            nodes.append(res.nodes)
        return res

    monkeypatch.setattr(mapper, "solve", recording_solve)
    kernel, spec, ii, schedule, placements = DEEP_CASE
    dfg, mrrg = parse_dfg(KERNELS[kernel]), build_mrrg(spec, ii)
    out = map_dfg(dfg, mrrg, schedule, MapLimits(placement_limit=placements),
                  seed=SAME_MODELS_SEED[kernel])
    assert out.status == MAPPED and out.solution.nn == 8
    assert [(a.nn, a.screen, a.placements_tried, a.routed)
            for a in out.attempts] == [(8, FEASIBLE, 1, True)]
    assert out.solution.placement == {
        "a": ("pe_0_0.alu", 1), "b": ("pe_1_0.alu", 1),
        "c": ("pe_1_0.alu", 0), "d": ("pe_0_0.alu", 0)}
    assert validate_mapping(dfg, mrrg, out.solution) == []
    assert checks == [(RELAXED_PATHS, 36, 53, INFEASIBLE),
                      (DEFAULT_K, 173, 852, FEASIBLE)]
    assert nodes[0] == 10
    # so some route reported lies past its pair's first RELAXED_PATHS
    nmap = build_neighbor_map(mrrg, 8)
    shallow = build_path_cache(mrrg, nmap, RELAXED_PATHS)
    assert any(rp not in shallow[rp.vertices[0], rp.vertices[-1]]
               for paths in out.solution.routing.values() for rp in paths)


def test_shallow_timeout_does_not_deepen(monkeypatch):
    # a timeout proves nothing: it ends that placement, as a routing
    # timeout always has, and no DEFAULT_K cache is built
    real_cache = mapper.build_path_cache
    depths = []

    def recording_cache(mrrg, nmap, k=DEFAULT_K):
        depths.append(k)
        return real_cache(mrrg, nmap, k)

    monkeypatch.setattr(mapper, "build_path_cache", recording_cache)
    seen = []
    _stub_solve(monkeypatch, _Clock(monkeypatch), "routing_only", TIMEOUT,
                seen=seen)
    kernel, spec, ii, schedule, _ = DEEP_CASE
    out = map_dfg(parse_dfg(KERNELS[kernel]), build_mrrg(spec, ii), schedule,
                  MapLimits(placement_limit=2),
                  seed=SAME_MODELS_SEED[kernel])
    assert (out.status, [(a.nn, a.screen, a.placements_tried, a.routed)
                         for a in out.attempts]) == (
        NOT_MAPPABLE, [(8, FEASIBLE, 2, False)])
    assert depths == [RELAXED_PATHS]
    assert [variant for variant, _ in seen] == [
        "placement_only", "routing_only", "routing_only"]


@pytest.mark.parametrize("kernel,spec,ii,schedule", [
    ("fan3", ArchSpec("adres", 4, 4), 2, SCHEDULE),
    *(case[:4] for case in SAME_MODELS),
], ids=["fan3", "tree5", "join"])
def test_relaxed_model_extends_screen(kernel, spec, ii, schedule):
    # at every target whose screen builds, the relaxed model built over
    # the screen equals a fresh build, and the screen is left as it was
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = build_mrrg(spec, ii)
    screens = {}
    for nn in schedule:
        nmap = build_neighbor_map(mrrg, nn)
        try:
            screen = build_variant("placement_only", dfg, mrrg, nmap)
        except InfeasibleModel:
            continue
        screens[nn] = screen
        before = (list(screen.variables), list(screen.constraints),
                  dict(screen.metadata))
        cache = build_path_cache(mrrg, build_neighbor_map(mrrg, nn),
                                 RELAXED_PATHS)
        fresh = build_variant("relaxed_placement", dfg, mrrg, nmap, cache)
        grown = build_variant("relaxed_placement", dfg, mrrg, nmap, cache,
                              screen=screen)
        assert grown.variables == fresh.variables
        assert grown.constraints == fresh.constraints
        assert grown.metadata == fresh.metadata
        assert (screen.variables, screen.constraints,
                screen.metadata) == before
        # a relaxed model is no screen, and neither is one at another NN;
        # only the relaxed model extends one
        with pytest.raises(ValueError):
            build_variant("relaxed_placement", dfg, mrrg, nmap, cache,
                          screen=grown)
        with pytest.raises(ValueError):
            build_variant("combined", dfg, mrrg, nmap, cache, screen=screen)
        for other, model in screens.items():
            if other != nn:
                with pytest.raises(ValueError):
                    build_variant("relaxed_placement", dfg, mrrg, nmap,
                                  cache, screen=model)
    assert len(screens) >= 2


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
        res = solve(base, SolveConfig(seed=1, time_limit=30))
        assert res.status == (FEASIBLE if mappable else "infeasible")
        if res.status == FEASIBLE:
            placement, routes = extract_mapping(base, dfg, mrrg,
                                                res.assignment)
            routing = {}
            for (driver, _), route in sorted(routes.items()):
                routing.setdefault(driver, []).append(route)
            sol = MappingSolution(placement, {o: tuple(rs) for o, rs
                                              in routing.items()}, 0)
            assert validate_mapping(dfg, mrrg, sol) == []
    # the combined model at full neighbour count decides alone
    nmap = build_neighbor_map(mrrg, len(fu_nodes(mrrg)))
    try:
        model = build_variant("combined", dfg, mrrg, nmap,
                              build_path_cache(mrrg, nmap))
    except InfeasibleModel:
        assert not mappable
        return
    res = solve(model, SolveConfig(seed=1, time_limit=30))
    assert res.status == (FEASIBLE if mappable else "infeasible")


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


def test_report_is_stable_across_hash_seeds():
    # str hashes, and so the order of a set of strings, change with
    # PYTHONHASHSEED; a search steered by such an order differs here
    tests = Path(__file__).resolve().parent
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                               str(tests)]))
        run = subprocess.run(
            [sys.executable, "-c",
             "from test_mapper import join_report; print(join_report())"],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["status"] == MAPPED


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
