import hashlib
import random

import pytest

from cgramap import paths
from cgramap.mapper import SHALLOW_PATHS
from cgramap.mrrg import (FU, ROUTE, ArchSpec, Mrrg, MrrgNode, build_mrrg,
                          fu_nodes)
from cgramap.neighbors import NeighborMap, build_neighbor_map
from cgramap.paths import (DEFAULT_K, RoutePath, build_path_cache,
                           is_valid_path, k_shortest_paths)

from helpers import all_simple_paths, simple_paths_from, under_hash_seeds


def mk_graph(fus, routes, edges, ii=1):
    """Ad-hoc graph from name -> latency dicts; edges wired at every
    context with the usual wrap rule."""
    nodes = {}
    for name, lat in fus.items():
        for t in range(ii):
            nodes[(name, t)] = MrrgNode(name, t, FU, lat, ("add",))
    for name, lat in routes.items():
        for t in range(ii):
            nodes[(name, t)] = MrrgNode(name, t, ROUTE, lat, ())
    lats = {**fus, **routes}
    wired = []
    for a, b in edges:
        for t in range(ii):
            wired.append(((a, t), (b, (t + lats[a]) % ii)))
    return Mrrg(ii, nodes, wired)


def by_length(paths):
    return sorted(paths, key=lambda p: (len(p), p))


def sorted_paths(mrrg, u, v):
    return by_length(all_simple_paths(mrrg, u, v))


def test_two_parallel_mux_chains():
    m = mk_graph({"u": 1, "v": 1}, {"m1": 0, "m2": 0},
                 [("u", "m1"), ("u", "m2"), ("m1", "v"), ("m2", "v")])
    got = k_shortest_paths(m, ("u", 0), ("v", 0), 20)
    assert [p.vertices for p in got] == [
        (("u", 0), ("m1", 0), ("v", 0)),
        (("u", 0), ("m2", 0), ("v", 0)),
    ]


def test_unreachable_gives_empty():
    m = mk_graph({"u": 1, "v": 1}, {"m1": 0}, [("u", "m1")])
    assert k_shortest_paths(m, ("u", 0), ("v", 0), 20) == ()


def test_cascaded_crossbars_multiply():
    # two cascaded 3-wide crossbars: one route per (first leg, second leg)
    routes = {f"a{i}": 0 for i in range(3)}
    routes.update({f"b{i}": 0 for i in range(3)})
    edges = [("u", f"a{i}") for i in range(3)]
    edges += [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
    edges += [(f"b{j}", "v") for j in range(3)]
    m = mk_graph({"u": 1, "v": 1}, routes, edges)
    got = k_shortest_paths(m, ("u", 0), ("v", 0), 20)
    assert len(got) == 9
    assert [p.vertices for p in got] == sorted_paths(m, ("u", 0), ("v", 0))[:20]


def test_interiors_are_routing_nodes_only():
    # w is a unit sitting on the only short road from u to v; the road
    # through it must not be taken, leaving just the long way round
    m = mk_graph({"u": 1, "v": 1, "w": 1},
                 {"r1": 0, "r2": 0, "r3": 0, "r4": 0},
                 [("u", "r1"), ("r1", "w"), ("w", "r2"), ("r2", "v"),
                  ("u", "r3"), ("r3", "r4"), ("r4", "v")])
    got = k_shortest_paths(m, ("u", 0), ("v", 0), 20)
    assert [p.vertices for p in got] == [
        (("u", 0), ("r3", 0), ("r4", 0), ("v", 0)),
    ]


def test_self_pair_enumerates_cycles():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=2)
    u = ("pe_0_0.alu", 0)
    got = k_shortest_paths(m, u, u, 20)
    assert got
    for rp in got:
        assert rp.driver == rp.sink == u
        assert is_valid_path(m, rp)
    assert [p.vertices for p in got] == [tuple(p) for p in
                                         sorted_paths(m, u, u)[:20]]


def test_is_valid_path_rejects_each_fault():
    # units a, b, c and routing vertices x, y; each bad route breaks one
    # rule and would pass the others
    m = mk_graph({"a": 1, "b": 1, "c": 1}, {"x": 0, "y": 0},
                 [("a", "x"), ("x", "b"), ("x", "y"), ("y", "x"),
                  ("y", "a"), ("x", "c"), ("c", "y")])
    a, b, c, x, y = (("a", 0), ("b", 0), ("c", 0), ("x", 0), ("y", 0))
    assert is_valid_path(m, RoutePath(a, b, (a, x, b)))
    # a cycle's driver is its sink, and that shared endpoint is no repeat
    assert is_valid_path(m, RoutePath(a, a, (a, x, y, a)))
    bad = {"one vertex": RoutePath(a, a, (a,)),
           "last vertex not the sink": RoutePath(a, b, (a, x, c)),
           "first vertex not the driver": RoutePath(c, b, (a, x, b)),
           "routing vertex as sink": RoutePath(a, x, (a, x)),
           "routing vertex as driver": RoutePath(y, a, (y, a)),
           "hop that is no edge": RoutePath(a, a, (a, y, a)),
           "unit in the interior": RoutePath(a, a, (a, x, c, y, a)),
           "repeated vertex": RoutePath(a, b, (a, x, y, x, b))}
    assert [fault for fault, rp in bad.items()
            if is_valid_path(m, rp)] == []


def test_argument_errors():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    alu = ("pe_0_0.alu", 0)
    full, empty = build_neighbor_map(m, 4), NeighborMap(4, {})
    for bad in (0, -1, 2.5, "3", None, True):
        with pytest.raises(ValueError):
            k_shortest_paths(m, alu, alu, bad)
        # checked once up front, so a map with no pairs rejects it too
        for nmap in (full, empty):
            with pytest.raises(ValueError):
                build_path_cache(m, nmap, bad)


@pytest.mark.parametrize("end", [0, 1])
def test_endpoint_must_be_a_unit_of_the_graph(end):
    # a key the graph lacks and a routing vertex are rejected by name at
    # either end, as find_neighbors rejects them, and leave no entry in
    # the route table
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    alu = ("pe_0_0.alu", 0)
    k_shortest_paths(m, alu, alu, 4)
    for bad, error, says in ((("nope", 0), KeyError, "unknown node"),
                             (("pe_0_0.out", 0), ValueError,
                              "is not an FU node")):
        pair = [alu, alu]
        pair[end] = bad
        with pytest.raises(error, match=says):
            k_shortest_paths(m, *pair, 4)
    assert list(m.route_table) == [(alu, alu)]


def rand_graph(rng):
    n_fu = rng.randint(2, 4)
    n_route = rng.randint(4, 10)
    ii = rng.choice((1, 2))
    fus = {f"f{i}": rng.choice((0, 1)) for i in range(n_fu)}
    routes = {f"r{i}": rng.choice((0, 0, 0, 1)) for i in range(n_route)}
    names = list(fus) + list(routes)
    edges = [(a, b) for a in names for b in names
             if a != b and rng.random() < 0.25]
    return mk_graph(fus, routes, edges, ii), ii


def test_matches_exhaustive_enumeration_on_random_graphs():
    rng = random.Random(20)
    for trial in range(200):
        m, ii = rand_graph(rng)
        u = ("f0", 0)
        v = (rng.choice(("f0", "f1")), rng.randint(0, ii - 1))
        fus = fu_nodes(m)
        every = {}
        for a in fus:
            found = simple_paths_from(m, a)
            for b in fus:
                every[a, b] = by_length(found.get(b, []))
        for k in (1, 3, 20):
            got = k_shortest_paths(m, u, v, k)
            assert [p.vertices for p in got] == every[u, v][:k]
            for rp in got:
                assert is_valid_path(m, rp)
        # the cache shares one distance table per sink among all its
        # drivers; every pair, self and unreachable ones included, must
        # still get its own routes. The graph keeps each pair's routes at
        # the deepest k asked, so the descending depths are prefix slices
        # of what the first of them enumerated
        nmap = NeighborMap(len(fus), {a: fus for a in fus})
        for k in (1, 3, 20, 3, 1):
            cache = build_path_cache(m, nmap, k)
            assert set(cache.paths) == {(a, b) for a in fus for b in fus}
            for (a, b), ps in cache.paths.items():
                assert ps == k_shortest_paths(m, a, b, k)
                assert [p.vertices for p in ps] == every[a, b][:k]


def test_cache_on_ortho_grid():
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    nmap = build_neighbor_map(m, 4)
    cache = build_path_cache(m, nmap, 3)
    for (u, v), ps in cache.paths.items():
        assert v in nmap[u]
        assert ps == tuple(
            RoutePath(u, v, tuple(p)) for p in sorted_paths(m, u, v)[:3])
    for x, y, nx, ny in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 2, 1), (1, 1, 1, 2)]:
        a = (f"pe_{x}_{y}.alu", 0)
        b = (f"pe_{nx}_{ny}.alu", 0)
        assert 1 <= len(cache[(a, b)]) <= 3
        assert 1 <= len(cache[(b, a)]) <= 3


def test_cache_k1_is_bfs_shortest():
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    nmap = build_neighbor_map(m, 4)
    cache = build_path_cache(m, nmap, 1)
    for (u, v), ps in cache.paths.items():
        want = sorted_paths(m, u, v)
        assert len(ps) == min(1, len(want))
        if ps:
            assert ps[0].vertices == tuple(want[0])
            # shortest by plain breadth-first distance
            assert len(ps[0]) == len(want[0]) - 1


def test_cache_determinism_and_reuse():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=2)
    big = build_path_cache(m, build_neighbor_map(m, 8), 5)
    assert big == build_path_cache(m, build_neighbor_map(m, 8), 5)
    small = build_path_cache(m, build_neighbor_map(m, 2), 5)
    assert set(small.paths) <= set(big.paths)
    for pair, ps in small.paths.items():
        assert big[pair] == ps


@pytest.mark.parametrize("family", ["adres", "hycube"])
def test_shallow_cache_is_prefix_of_deep_one(family):
    # map_dfg routes each placement over a SHALLOW_PATHS-deep cache
    # first and over a DEFAULT_K-deep one only when that is proven
    # infeasible; what routes on the shallow routes routes on the deep
    # ones only because the shallow list is the deep list's prefix
    m = build_mrrg(ArchSpec(family, 4, 4), ii=2)
    nmap = build_neighbor_map(m, 8)
    shallow = build_path_cache(m, nmap, SHALLOW_PATHS)
    deep = build_path_cache(m, nmap, DEFAULT_K)
    assert list(shallow.paths) == list(deep.paths)
    assert any(len(ps) > SHALLOW_PATHS for ps in deep.paths.values())
    for pair, ps in deep.paths.items():
        assert shallow[pair] == ps[:SHALLOW_PATHS]


def test_empty_neighbor_map_gives_empty_cache():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    cache = build_path_cache(m, NeighborMap(4, {}), 20)
    assert cache.paths == {}
    assert cache.get((("pe_0_0.alu", 0), ("pe_1_0.alu", 0))) == ()


@pytest.mark.parametrize("depths", [(20, 3, 1), (1, 3, 20)])
def test_routes_are_kept_per_mrrg(monkeypatch, depths):
    # each request, in either order, gives what a fresh graph gives; a
    # pair is enumerated again only when it is asked deeper than before
    # and its list was full at the earlier depth
    spec = ArchSpec("adres", 3, 3)
    m = build_mrrg(spec, ii=2)
    nmap = build_neighbor_map(m, 8)
    enumerated = []
    real_routes = paths._routes

    def counting_routes(view, src, dst, k, dist):
        if view is m.ids:
            enumerated.append((view.keys[src], view.keys[dst]))
        return real_routes(view, src, dst, k, dist)

    monkeypatch.setattr(paths, "_routes", counting_routes)
    previous, caches = None, {}
    for k in depths:
        enumerated.clear()
        cache = build_path_cache(m, nmap, k)
        if previous is None:
            want = set(cache.paths)
        elif k < previous.k:
            want = set()
        else:
            want = {pair for pair, ps in previous.paths.items()
                    if len(ps) == previous.k}
        assert sorted(enumerated) == sorted(want)
        fresh = build_mrrg(spec, ii=2)
        assert cache == build_path_cache(fresh, build_neighbor_map(fresh, 8),
                                         k)
        for pair, ps in cache.paths.items():
            assert k_shortest_paths(m, *pair, k) == ps
        previous = caches[k] = cache
    # both kinds of list occur: cut at the depth asked, and complete
    deepest = caches[DEFAULT_K].paths.values()
    assert any(len(ps) == DEFAULT_K for ps in deepest)
    assert any(0 < len(ps) < SHALLOW_PATHS for ps in deepest)


def test_memoised_depth_does_not_admit_a_bool():
    # True == 1 and both hash alike: k is checked before any lookup
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    nmap = build_neighbor_map(m, 4)
    alu = ("pe_0_0.alu", 0)
    build_path_cache(m, nmap, 1)
    k_shortest_paths(m, alu, alu, 1)
    with pytest.raises(ValueError):
        build_path_cache(m, nmap, True)
    with pytest.raises(ValueError):
        k_shortest_paths(m, alu, alu, True)


def connectivity_digest() -> str:
    """sha256 over the neighbour maps at NN 4, 8 and 16 and the route
    caches at k 3 and 20 over the NN 4 map, in the order they are built,
    of one small fabric per family at II 2 (3x3; clustered 2x4, as its
    sides must be even)."""
    h = hashlib.sha256()
    for fam in ("ortho", "adres", "clustered", "hycube"):
        rows, cols = (2, 4) if fam == "clustered" else (3, 3)
        m = build_mrrg(ArchSpec(fam, rows, cols), 2)
        for nn in (4, 8, 16):
            nmap = build_neighbor_map(m, nn)
            h.update(repr(list(nmap.neighbors.items())).encode())
        for k in (3, 20):
            cache = build_path_cache(m, build_neighbor_map(m, 4), k)
            h.update(repr(list(cache.paths.items())).encode())
    return h.hexdigest()


def test_connectivity_is_stable_across_hash_seeds():
    # unit ids come from sorted keys, so no set or dict order may reach a
    # map, a route or the order either is listed in; the pinned digest is
    # the one walks over keys give, so walking ids changed none of them
    digests = under_hash_seeds("test_paths.connectivity_digest()")
    assert digests[0] == digests[1]
    assert digests[0].strip() == connectivity_digest() == (
        "04c069e2705a3515ca33915e809e8f59f10abccc05117f119a883ae8e7dffd9a")
