"""Property tests: the DFG and architecture text formats read back what
they write, a target the unit matching or the screen search's root node
refutes has no placement that routes over its cache, a routing check
the must-cross rule refutes has no routing, the routing search finds a
routing exactly when one exists, and neighbour maps and routes commute
with the context rotation. Derandomized with few examples, so they run
in a couple of seconds and give the same cases on every run."""

from functools import lru_cache
from itertools import islice

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cgramap.dfg import (OPCODES, Dfg, Edge, Operation,  # noqa: E402
                         parse_dfg, serialize_dfg)
from cgramap.ilp import (must_cross_blocks, placeable,  # noqa: E402
                         route_root, route_search)
from cgramap.mapper import SHALLOW_PATHS  # noqa: E402
from cgramap.mrrg import (ArchError, ArchSpec, build_mrrg,  # noqa: E402
                          parse_arch, serialize_arch)
from cgramap.neighbors import build_neighbor_map  # noqa: E402
from cgramap.paths import build_path_cache  # noqa: E402
from cgramap.solver import FEASIBLE, INFEASIBLE, SolveConfig  # noqa: E402
from helpers import (DEEP, brute_force_mappable, placements,  # noqa: E402
                     refuted_at_root, routable)

PROFILE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=150)

HEAD = "abcxyzAZ_"
IDS = st.builds(str.__add__, st.sampled_from(HEAD),
                st.text(HEAD + "09", max_size=3))


@st.composite
def dfgs(draw):
    """1-6 ops of any opcode, some with a const payload, and edges from
    any op to distinct (sink, operand) slots: fan-out, cycles and
    self-edges included."""
    ids = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    ops = [Operation(i, draw(st.sampled_from(sorted(OPCODES))),
                     draw(st.none() | st.integers(-99, 99)))
           for i in ids]
    slots = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 3)),
                          max_size=10, unique=True))
    return Dfg(ops, [Edge(draw(st.sampled_from(ids)), (slot,))
                     for slot in slots])


def _valid(spec):
    try:
        spec.validate()
    except ArchError:
        return False
    return True


SPECS = st.builds(
    ArchSpec,
    family=st.sampled_from(("ortho", "adres", "clustered", "hycube")),
    rows=st.integers(1, 6), cols=st.integers(1, 6),
    route_through=st.booleans(),
).filter(_valid)


@PROFILE
@given(dfgs())
def test_dfg_text_round_trip(dfg):
    assert parse_dfg(serialize_dfg(dfg)) == dfg


@PROFILE
@given(SPECS)
def test_arch_text_round_trip(spec):
    assert parse_arch(serialize_arch(spec)) == spec


# every valid 1x2 to 2x3 fabric (clustered ones are 2x2 only) at II 1-2
TINY = [(family, rows, cols, ii)
        for family in ("ortho", "adres", "clustered", "hycube")
        for rows, cols in ((1, 2), (1, 3), (2, 2), (2, 3))
        if _valid(ArchSpec(family, rows, cols)) for ii in (1, 2)]


@lru_cache(maxsize=None)
def tiny_mrrg(family, rows, cols, ii):
    return build_mrrg(ArchSpec(family, rows, cols), ii)


# a cache depth no pair of a fabric of up to 50 vertices reaches, so that
# a cache built at it holds every route
EVERY = 10 ** 6


def _pairs(dfg, place):
    return {(place[o], place[p]) for o, p in dfg.point_edges()}


@settings(PROFILE, max_examples=100)
@given(dfgs(), st.sampled_from(TINY))
def test_refuted_target_has_no_placement(dfg, fabric):
    # a refusal, by the unit matching or at the screen search's root
    # node over a SHALLOW_PATHS cache, is a proof: brute force finds no
    # placement that meets the screen's con1-con3 and routes over the
    # cache. At the full neighbourhood, which holds every unit a route
    # reaches, over a cache that holds every route, no mapping exists
    # either (checked by brute force where it is quick: up to 4 ops on
    # fabrics of up to 50 vertices, whose pairs have at most a few
    # thousand routes)
    mrrg = tiny_mrrg(*fabric)
    full = len(mrrg.fus)
    for nn in (1, 2, 4, 8, full):
        nmap = build_neighbor_map(mrrg, nn)
        cache = build_path_cache(mrrg, nmap, SHALLOW_PATHS)
        if (placeable(dfg, mrrg)
                and not refuted_at_root(dfg, mrrg, nmap, cache)):
            continue
        assert not any(routable(_pairs(dfg, place), cache)
                       for place in placements(dfg, mrrg, nmap)), nn
    if len(dfg.operations) <= 4 and len(mrrg.nodes) <= 50:
        nmap = build_neighbor_map(mrrg, full)
        if refuted_at_root(dfg, mrrg, nmap,
                           build_path_cache(mrrg, nmap, EVERY)):
            assert not brute_force_mappable(dfg, mrrg)


@settings(PROFILE, max_examples=60)
@given(dfgs(), st.sampled_from(TINY), st.sampled_from((2, 4, 8)))
def test_must_cross_refutes_only_unroutable_placements(dfg, fabric, nn):
    # the routing search is infeasible exactly when no choice of one
    # cached route per pair works, and a must-cross refutation, the
    # search's root node, is a proof of that.
    # Up to three placements brute force finds per case, routable or
    # not, each over 1, 3 and 20 routes per pair; one route per pair
    # makes every interior vertex one to cross, so refutations are
    # common there
    mrrg = tiny_mrrg(*fabric)
    nmap = build_neighbor_map(mrrg, nn)
    for place in islice(placements(dfg, mrrg, nmap), 3):
        pairs = _pairs(dfg, place)
        for k in (1, 3, DEEP):
            cache = build_path_cache(mrrg, nmap, k)
            status, _, nodes = route_search(route_root(pairs, cache),
                                            SolveConfig(1, 10))
            assert status == (FEASIBLE if routable(pairs, cache)
                              else INFEASIBLE)
            if must_cross_blocks(pairs, cache):
                assert (status, nodes) == (INFEASIBLE, 1)


@pytest.mark.parametrize("ii", [2, 3])
@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_neighbor_map_commutes_with_context_rotation(fam, ii):
    # _Builder.add_edge wires every context alike, so t -> (t + 1) mod II
    # is an automorphism of the MRRG and must carry each unit's
    # neighbours onto its rotated twin's
    m = build_mrrg(ArchSpec(fam, 4, 4), ii)

    def rotate(key):
        return key[0], (key[1] + 1) % ii

    for nn in (4, 8, 16):
        nmap = build_neighbor_map(m, nn)
        for u, found in nmap.neighbors.items():
            assert nmap[rotate(u)] == tuple(sorted(map(rotate, found)))


@pytest.mark.parametrize("ii", [2, 3])
@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_path_cache_commutes_with_context_rotation(fam, ii):
    # the same automorphism carries each pair's routes, in order, onto
    # its rotated twin's: route order (length, then vertex keys) never
    # turns on a context number. Shallower lists are prefixes of these
    m = build_mrrg(ArchSpec(fam, 4, 4), ii)

    def rotate(key):
        return key[0], (key[1] + 1) % ii

    cache = build_path_cache(m, build_neighbor_map(m, 4), DEEP)
    for (u, v), routes in cache.paths.items():
        assert [rp.vertices for rp in cache[rotate(u), rotate(v)]] == [
            tuple(map(rotate, rp.vertices)) for rp in routes]
