import random

import pytest

from cgramap.mrrg import ArchSpec, build_mrrg, fu_nodes
from cgramap.neighbors import NeighborMap, build_neighbor_map, find_neighbors

from helpers import fu_depths, neighbors_oracle


def test_center_pe_target_4_is_the_adjacent_alus():
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    got = find_neighbors(m, ("pe_1_1.alu", 0), 4)
    assert got == (
        ("pe_0_1.alu", 0), ("pe_1_0.alu", 0), ("pe_1_2.alu", 0), ("pe_2_1.alu", 0),
    )
    depths = fu_depths(m, ("pe_1_1.alu", 0))
    assert len({depths[k] for k in got}) == 1  # one wave


def test_target_zero_is_empty():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    assert find_neighbors(m, ("pe_0_0.alu", 0), 0) == ()


@pytest.mark.parametrize("bad", [-1, 2.5, "3", None, True])
def test_bad_target_rejected(bad):
    # rejected up front, before the wave loop compares a count it cannot
    # use; a bool would pass as 0 or 1
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    with pytest.raises(ValueError, match="target_nn must be an int"):
        find_neighbors(m, ("pe_0_0.alu", 0), bad)
    with pytest.raises(ValueError, match="target_nn must be an int"):
        build_neighbor_map(m, bad)


def test_whole_final_wave_returned():
    # the wave that satisfies target 1 from the centre finds all four
    # adjacent ALUs at once
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    assert len(find_neighbors(m, ("pe_1_1.alu", 0), 1)) == 4


def test_exhaustion_returns_all_reachable():
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    got = find_neighbors(m, ("pe_1_1.alu", 0), 10_000)
    assert set(got) == set(fu_depths(m, ("pe_1_1.alu", 0)))
    # with route-through on, every ALU is eventually reachable, including
    # the source via a bounce off a neighbour; const FUs are pure sources
    # and are never discovered
    assert len(got) == 9
    assert ("pe_1_1.alu", 0) in got
    assert all(s.endswith(".alu") for s, _ in got)


def test_no_route_through_limits_reach():
    m = build_mrrg(ArchSpec("ortho", 3, 3, route_through=False), ii=1)
    got = find_neighbors(m, ("pe_0_0.alu", 0), 10_000)
    # nothing forwards through a PE, so only the orthogonal neighbours'
    # ALUs are ever reachable, whatever the target
    assert got == (("pe_0_1.alu", 0), ("pe_1_0.alu", 0))


def test_single_pe():
    m = build_mrrg(ArchSpec("ortho", 1, 1), ii=2)
    assert find_neighbors(m, ("pe_0_0.alu", 0), 8) == ()
    assert find_neighbors(m, ("pe_0_0.const", 0), 8) == (("pe_0_0.alu", 0),)


def test_const_feeds_only_its_own_alu():
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    assert find_neighbors(m, ("pe_1_1.const", 0), 99) == (("pe_1_1.alu", 0),)


def test_clustered_wave_ordering():
    # waves ripple outward per FU kind: the home cluster's io/mem come
    # first of all, and every intra-cluster ALU is found before any ALU
    # in another cluster.  Neighbouring clusters' io/mem may slip in
    # between the two because the crossbar-to-crossbar link is a single
    # hop while reaching an ALU costs the full in/mux ladder.
    m = build_mrrg(ArchSpec("clustered", 4, 4), ii=1)
    src = ("pe_0_0.alu", 0)
    depths = fu_depths(m, src)
    own_iomem = [k for k in depths if k[0] in ("io_0_0", "mem_0_0")]
    intra_alu = [k for k in depths if k[0] in
                 ("pe_1_0.alu", "pe_0_1.alu", "pe_1_1.alu")]
    inter_alu = [k for k in depths
                 if k[0].endswith(".alu") and k[0] not in
                 ("pe_0_0.alu", "pe_1_0.alu", "pe_0_1.alu", "pe_1_1.alu")]
    assert own_iomem and intra_alu and inter_alu
    others = [k for k in depths if k not in own_iomem and k != src]
    assert max(depths[k] for k in own_iomem) < min(depths[k] for k in others)
    assert max(depths[k] for k in intra_alu) < min(depths[k] for k in inter_alu)
    # a small target therefore stays inside the cluster
    small = find_neighbors(m, src, 2)
    assert set(small) == {("io_0_0", 0), ("mem_0_0", 0)}


@pytest.mark.parametrize("fam,rows,cols,ii", [
    ("ortho", 3, 3, 1), ("ortho", 2, 2, 2), ("adres", 3, 3, 1),
    ("clustered", 4, 4, 1), ("hycube", 3, 3, 2),
])
def test_agrees_with_oracle_and_is_monotone(fam, rows, cols, ii):
    m = build_mrrg(ArchSpec(fam, rows, cols), ii)
    rng = random.Random(7)
    fus = fu_nodes(m)
    for src in rng.sample(fus, min(6, len(fus))):
        prev = None
        for target in (1, 2, 4, 8, 16, 32, 10_000):
            got = find_neighbors(m, src, target)
            assert got == neighbors_oracle(m, src, target)
            reachable = set(fu_depths(m, src))
            if len(reachable) >= target:
                assert len(got) >= target
            else:
                assert set(got) == reachable
            if prev is not None:
                assert set(prev) <= set(got)
            prev = got


@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_resumed_search_ignores_target_order(fam):
    # each unit's search is kept on the graph and resumed by a deeper
    # target; whatever order targets come in, from the smallest to one
    # past exhaustion, every answer is the one a fresh graph gives
    for rt in (True, False):
        for ii in (1, 2, 3):
            spec = ArchSpec(fam, 2, 4 if fam == "clustered" else 3,
                            route_through=rt)
            fresh = build_mrrg(spec, ii)
            n = len(fresh.fus)
            up = (1, 2, 4, 8, 16, n, n + 1)
            orders = (up, up[::-1], (4, 1, 4, n + 1, 2, n, 1, 16, 8, 8))
            oracle = {}
            for targets in orders:
                m = build_mrrg(spec, ii)
                for target in targets:
                    for src in fu_nodes(m):
                        if (src, target) not in oracle:
                            oracle[src, target] = neighbors_oracle(
                                fresh, src, target)
                        got = find_neighbors(m, src, target)
                        assert got == oracle[src, target]


def test_neighbor_map_covers_every_fu_and_is_deterministic():
    m = build_mrrg(ArchSpec("adres", 2, 2), ii=1)
    nm = build_neighbor_map(m, 4)
    assert isinstance(nm, NeighborMap)
    assert set(nm.neighbors) == set(fu_nodes(m))
    again = build_neighbor_map(m, 4)
    assert nm.neighbors == again.neighbors
    for bad in (0, -1, 2.5, "4", None):
        with pytest.raises(ValueError):
            build_neighbor_map(m, bad)


def test_source_must_be_fu():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    with pytest.raises(ValueError):
        find_neighbors(m, ("pe_0_0.out", 0), 4)
    with pytest.raises(KeyError):
        find_neighbors(m, ("nope", 0), 4)


def test_neighbor_map_is_kept_per_mrrg():
    # one map per target on each graph, whatever order targets come in,
    # equal to the map a fresh graph gives
    spec = ArchSpec("adres", 2, 2)
    m = build_mrrg(spec, ii=2)
    got = [build_neighbor_map(m, nn) for nn in (8, 4, 8)]
    for nn, nmap in zip((8, 4, 8), got):
        assert nmap.target_nn == nn
        assert nmap == build_neighbor_map(build_mrrg(spec, ii=2), nn)
    assert got[2] is got[0]
    assert got[1].neighbors != got[0].neighbors
    # True == 1 and both hash alike, so a lookup before the check would
    # hand out the map for 1
    build_neighbor_map(m, 1)
    with pytest.raises(ValueError, match="target_nn must be an int"):
        build_neighbor_map(m, True)


def test_neighbor_map_is_read_only():
    # every caller on a graph shares one map, so none may change it
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    nmap = build_neighbor_map(m, 4)
    alu = ("pe_0_0.alu", 0)
    with pytest.raises(TypeError):
        nmap.neighbors[alu] = ()
    with pytest.raises(TypeError):
        del nmap.neighbors[alu]
    # and a map made by hand is a copy of the dict it was given
    given = {alu: (("pe_1_0.alu", 0),)}
    made = NeighborMap(1, given)
    given[alu] = ()
    assert made[alu] == (("pe_1_0.alu", 0),)


def test_others_drops_only_the_unit_itself():
    # at II 1 an ALU's output can come back to it, so it is its own
    # neighbour; others drops just that unit, and keeps the very tuple
    # of every unit that is not its own neighbour
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    nmap = build_neighbor_map(m, 4)
    assert nmap.others is nmap.others
    own = [u for u, near in nmap.neighbors.items() if u in near]
    assert own
    for u, near in nmap.neighbors.items():
        if u in own:
            assert nmap.others[u] == tuple(v for v in near if v != u)
        else:
            assert nmap.others[u] is near
    with pytest.raises(TypeError):
        nmap.others[own[0]] = ()
