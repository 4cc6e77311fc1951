"""Per-node reference model checks, including agreement with the
path-based formulation on small instances."""

import random

from cgramap.baseline import build_baseline, extract_mapping, rvar, zvar
from cgramap.dfg import parse_dfg
from cgramap.ilp import build_variant
from cgramap.mrrg import (ArchSpec, build_mrrg, compatible_nodes, fu_nodes,
                          hop_dists)
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import build_path_cache, is_valid_path
from cgramap.solver import SolveConfig, solve
from helpers import brute_force_mappable

CFG = SolveConfig(seed=0, time_limit=120)


def ortho(rows, cols, ii, route_through=True):
    return build_mrrg(ArchSpec("ortho", rows, cols,
                               route_through=route_through), ii)


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


def test_route_through_gate():
    # two hops of distance between the end ops with every middle unit
    # busy: only the bypass wires can carry the middle leg
    text = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
            "edge a -> b:0\nedge b -> c:0\nedge c -> d:0\nedge d -> e:0\n"
            "edge a -> e:1\n")
    dfg = parse_dfg(text)
    with_rt = build_baseline(dfg, ortho(2, 2, 2, route_through=True))
    without = build_baseline(dfg, ortho(2, 2, 2, route_through=False))
    res = solve(with_rt, CFG)
    assert res.status == "feasible"
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
    fwd = hop_dists(mrrg, compatible_nodes(mrrg, ops["a"]), mrrg.fanout)
    bwd = hop_dists(mrrg, compatible_nodes(mrrg, ops["b"]), mrrg.fanin)
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
