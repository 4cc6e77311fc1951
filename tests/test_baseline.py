"""Per-node reference model checks, including agreement with the
path-based formulation on small instances."""

import hashlib
import random

import pytest

from cgramap.baseline import build_baseline, extract_mapping
from cgramap.dfg import parse_dfg
from cgramap.ilp import build_variant
from cgramap.mapper import validate_mapping
from cgramap.mrrg import (ArchSpec, build_mrrg, compatible_nodes, fu_nodes,
                          hop_dists)
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import RoutePath, build_path_cache, is_valid_path
from cgramap.solver import SolveConfig, check_assignment, solve
from helpers import baseline_point, brute_force_mappable, mapping_solution

CFG = SolveConfig(seed=0, time_limit=120)


def ortho(rows, cols, ii, route_through=True):
    return build_mrrg(ArchSpec("ortho", rows, cols,
                               route_through=route_through), ii)


# a chain, a fan-out, a self-loop behind a load, and a const feeding an
# op whose net fans out to a store and back into itself
PINNED_KERNELS = (
    "op a add\nop b add\nop c add\nedge a -> b:0\nedge b -> c:0\n",
    "op a add\nop b add\nop c add\nop d add\nedge a -> b:0, c:0, d:0\n",
    "op ld load\nop acc add\nedge ld -> acc:1\nedge acc -> acc:0\n",
    "op c const const=3\nop a add\nop s store\n"
    "edge c -> a:0\nedge a -> s:0, a:1\n",
)


def _pinned_fabrics():
    # every family with the bypass on and off, II cycling through 1-3
    ii = 0
    for family in ("ortho", "adres", "clustered", "hycube"):
        for route_through in (True, False):
            ii = ii % 3 + 1
            yield build_mrrg(ArchSpec(family, 2, 2,
                                      route_through=route_through), ii)


def test_baseline_model_is_pinned():
    # a rewrite of the builder must give the same model: the same
    # variables in the same order, the same rows with the same terms in
    # the same order, and the same metadata
    h = hashlib.sha256()
    for mrrg in _pinned_fabrics():
        for text in PINNED_KERNELS:
            model = build_baseline(parse_dfg(text), mrrg)
            h.update(repr((sorted(model.metadata.items()), model.variables,
                           model.constraints)).encode())
    assert h.hexdigest() == (
        "9ef3e944190662dc68543cdef187c6da371300464162535565c7e9429def5385")


def test_single_op_reduces_to_placement():
    dfg = parse_dfg("op a add\n")
    mrrg = ortho(2, 2, 1)
    model = build_baseline(dfg, mrrg)
    assert all(v.cls == "f" for v in model.variables)
    assert {c.tag for c in model.constraints} <= {"con1", "con2"}
    res = solve(model, CFG)
    assert res.status == "feasible"
    placement, routes = extract_mapping(model, dfg, mrrg, res.assignment)
    assert set(placement) == {"a"}
    assert routes == {}


def test_chain_routes_and_extracts():
    dfg = parse_dfg("op a add\nop b add\nedge a -> b:0\n")
    mrrg = ortho(2, 2, 1)
    model = build_baseline(dfg, mrrg)
    res = solve(model, CFG)
    assert res.status == "feasible"
    placement, routes = extract_mapping(model, dfg, mrrg, res.assignment)
    assert set(placement) == {"a", "b"}
    route = routes["a", "b"]
    assert route.vertices[0] == placement["a"]
    assert route.vertices[-1] == placement["b"]
    assert is_valid_path(mrrg, route)


def test_const_feeds_only_its_own_unit():
    dfg = parse_dfg("op c const const=3\nop a add\nedge c -> a:0\n")
    mrrg = ortho(2, 2, 1)
    model = build_baseline(dfg, mrrg)
    res = solve(model, CFG)
    assert res.status == "feasible"
    placement, routes = extract_mapping(model, dfg, mrrg, res.assignment)
    cs, _ = placement["c"]
    als, _ = placement["a"]
    assert cs.rsplit(".", 1)[0] == als.rsplit(".", 1)[0]
    assert is_valid_path(mrrg, routes["c", "a"])


def test_self_loop_closes_a_cycle():
    dfg = parse_dfg("op acc add\nedge acc -> acc:0\n")
    for ii in (1, 2):
        mrrg = ortho(2, 2, ii)
        model = build_baseline(dfg, mrrg)
        res = solve(model, CFG)
        assert res.status == "feasible", f"ii={ii}"
        placement, routes = extract_mapping(model, dfg, mrrg, res.assignment)
        route = routes["acc", "acc"]
        assert route.vertices[0] == route.vertices[-1] == placement["acc"]
        assert len(route) >= 2
        assert is_valid_path(mrrg, route)


def _route(text):
    vertices = tuple((name, int(ctx)) for name, ctx in
                     (word.split("@") for word in text.split()))
    return RoutePath(vertices[0], vertices[-1], vertices)


# a mapping of the gate kernel on 2x2 ortho at II 2 with the bypass on:
# a's two routes and b's route cross pe_1_1 by its bypass, a's in
# context 1 and b's in context 0
GATE_PLACEMENT = {"a": ("pe_0_1.alu", 0), "b": ("pe_0_1.alu", 1),
                  "c": ("pe_1_0.alu", 0), "d": ("pe_0_0.alu", 1),
                  "e": ("pe_1_0.alu", 1)}
GATE_ROUTES = {
    ("a", "b"): "pe_0_1.alu@0 pe_0_1.out@1 pe_1_1.in_w@1 pe_1_1.bypass@1 "
                "pe_1_1.out@1 pe_0_1.in_e@1 pe_0_1.a@1 pe_0_1.alu@1",
    ("a", "e"): "pe_0_1.alu@0 pe_0_1.out@1 pe_1_1.in_w@1 pe_1_1.bypass@1 "
                "pe_1_1.out@1 pe_1_0.in_n@1 pe_1_0.a@1 pe_1_0.alu@1",
    ("b", "c"): "pe_0_1.alu@1 pe_0_1.out@0 pe_1_1.in_w@0 pe_1_1.bypass@0 "
                "pe_1_1.out@0 pe_1_0.in_n@0 pe_1_0.a@0 pe_1_0.alu@0",
    ("c", "d"): "pe_1_0.alu@0 pe_1_0.out@1 pe_0_0.in_e@1 pe_0_0.b@1 "
                "pe_0_0.alu@1",
    ("d", "e"): "pe_0_0.alu@1 pe_0_0.out@0 pe_0_0.reg@0 pe_0_0.out@1 "
                "pe_1_0.in_w@1 pe_1_0.b@1 pe_1_0.alu@1",
}


def test_route_through_gate():
    # two hops of distance between the end ops with every middle unit
    # busy: only the bypass wires can carry the middle leg
    text = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
            "edge a -> b:0\nedge b -> c:0\nedge c -> d:0\nedge d -> e:0\n"
            "edge a -> e:1\n")
    dfg = parse_dfg(text)
    mrrg = ortho(2, 2, 2, route_through=True)
    sol = mapping_solution(GATE_PLACEMENT, {pair: _route(text) for pair, text
                                            in GATE_ROUTES.items()})
    assert validate_mapping(dfg, mrrg, sol) == []
    # with the bypass, the mapping is a point of the baseline model
    with_rt = build_baseline(dfg, mrrg)
    point = baseline_point(sol)
    assert set(point) <= set(with_rt.variables)
    assert check_assignment(with_rt.constraints, point) == []
    without = build_baseline(dfg, ortho(2, 2, 2, route_through=False))
    assert solve(without, CFG).status == "infeasible"


def test_window_structure():
    dfg = parse_dfg("op a add\nop b add\nedge a -> b:0\n")
    mrrg = ortho(3, 3, 1)
    model = build_baseline(dfg, mrrg)
    lmax = model.metadata["lmax!a"]
    # a's hop budget: the widest spread from a driver unit to a sink unit
    # over routing nodes, plus 2 * II + 4, capped at one more than the
    # number of routing nodes
    ops = dfg.ops_by_id
    fwd = hop_dists(mrrg, compatible_nodes(mrrg, ops["a"]))
    bwd = hop_dists(mrrg, compatible_nodes(mrrg, ops["b"]), backward=True)
    spread = max(fwd[n] + bwd[n] for n in fwd
                 if n in bwd and not mrrg.is_fu(n))
    routing = sum(1 for n in mrrg.nodes if not mrrg.is_fu(n))
    assert model.metadata["hop_slack"] == 2 * mrrg.ii + 4
    assert lmax == min(routing + 1, spread + 2 * mrrg.ii + 4)
    layers = [v.idx[2] for v in model.variables if v.cls == "r"]
    assert layers and min(layers) == 1 and max(layers) <= lmax
    marked = {v.idx[1] for v in model.variables if v.cls == "z"}
    assert all(not mrrg.is_fu(n) for n in marked)


def test_var_count_tracks_ii():
    dfg = parse_dfg("op a add\nop b add\nop c add\n"
                    "edge a -> b:0\nedge b -> c:0\n")
    small = build_baseline(dfg, ortho(3, 3, 1))
    big = build_baseline(dfg, ortho(3, 3, 2))
    ratio = len(big.variables) / len(small.variables)
    assert 1.3 <= ratio <= 3.5


def _random_dfg(rng):
    n = rng.randint(2, 4)
    lines = [f"op v{i} add" for i in range(n)]
    for i in range(1, n):
        src = rng.randrange(i)
        lines.append(f"edge v{src} -> v{i}:0")
    if rng.random() < 0.4:
        a, b = rng.sample(range(n), 2)
        if a > b:
            a, b = b, a
        lines.append(f"edge v{a} -> v{b}:1")
    return parse_dfg("\n".join(lines) + "\n")


def test_agreement_with_brute_force():
    rng = random.Random(3111)
    for trial in range(12):
        dfg = _random_dfg(rng)
        ii = rng.choice([1, 2])
        mrrg = ortho(2, 2, ii)
        base = build_baseline(dfg, mrrg)
        ours = solve(base, CFG)
        assert ours.status in ("feasible", "infeasible")
        truth = brute_force_mappable(dfg, mrrg)
        assert (ours.status == "feasible") == truth, f"trial {trial}"
        if ours.status == "feasible":
            placement, routes = extract_mapping(base, dfg, mrrg,
                                                ours.assignment)
            assert set(placement) == {op.id for op in dfg.operations}
            for (driver, sink), route in routes.items():
                assert route.vertices[0] == placement[driver]
                assert route.vertices[-1] == placement[sink]
                assert is_valid_path(mrrg, route)
            sol = mapping_solution(placement, routes)
            assert validate_mapping(dfg, mrrg, sol) == []


def test_agreement_with_combined_model():
    # one instance small enough for the monolithic model: the self loop
    dfg = parse_dfg("op acc add\nedge acc -> acc:0\n")
    for ii in (1, 2):
        mrrg = ortho(2, 2, ii)
        ours = solve(build_baseline(dfg, mrrg), CFG)
        nmap = build_neighbor_map(mrrg, len(fu_nodes(mrrg)))
        cache = build_path_cache(mrrg, nmap, 16)
        combined = build_variant("combined", dfg, mrrg, nmap, cache,
                                 paths_per_connection=16)
        theirs = solve(combined, CFG)
        assert ours.status == theirs.status == "feasible", f"ii={ii}"


def test_extraction_deterministic():
    dfg = parse_dfg("op a add\nop b add\nop c add\n"
                    "edge a -> b:0\nedge a -> c:0\n")
    mrrg = ortho(2, 2, 1)
    model = build_baseline(dfg, mrrg)
    first = solve(model, SolveConfig(seed=5, time_limit=120))
    second = solve(model, SolveConfig(seed=5, time_limit=120))
    assert first.assignment == second.assignment
    a = extract_mapping(model, dfg, mrrg, first.assignment)
    b = extract_mapping(model, dfg, mrrg, second.assignment)
    assert a == b


def _chain2():
    dfg = parse_dfg("op a add\nop b add\nedge a -> b:0\n")
    mrrg = ortho(2, 2, 1)
    model = build_baseline(dfg, mrrg)
    res = solve(model, CFG)
    assert res.status == "feasible"
    return dfg, mrrg, model, res.assignment


def test_extraction_rejects_an_unplaced_op():
    dfg, mrrg, model, _ = _chain2()
    with pytest.raises(ValueError, match="unplaced"):
        extract_mapping(model, dfg, mrrg, {})


def test_extraction_rejects_an_op_placed_twice():
    dfg, mrrg, model, assignment = _chain2()
    twice = dict(assignment)
    for var in model.variables:
        if var.cls == "f" and var.idx[0] == "a":
            twice[var] = 1
    with pytest.raises(ValueError, match="placed twice"):
        extract_mapping(model, dfg, mrrg, twice)


def test_extraction_rejects_a_connection_without_a_route():
    # the placement alone: no routing node carries a's signal
    dfg, mrrg, model, assignment = _chain2()
    bare = {var: value if var.cls == "f" else 0
            for var, value in assignment.items()}
    with pytest.raises(ValueError, match="no route for a->b"):
        extract_mapping(model, dfg, mrrg, bare)
