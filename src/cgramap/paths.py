"""K-shortest route enumeration between functional unit pairs.

Routes start and end at functional units but never pass through one; the
interior of every path is routing nodes only. Enumeration is best-first
over partial paths with an exact distance-to-sink table as the heuristic,
so paths are produced directly in (length, lexicographic vertex sequence)
order without materialising the full path set first. A pair with equal
endpoints asks for cycles through that unit, which the wrap edges of the
time-extended graph make well-defined.

Routes depend on the graph alone, so each MRRG keeps a route table that
lives as long as it does: every (driver, sink) pair ever asked for, at
the deepest k asked so far. Since enumeration yields a prefix of the
sorted path set, a shallower request is served by a prefix slice, and a
list shorter than the k it was asked at holds every route, so serves any
k. A path cache is a view of its neighbour map and enumerates nothing
when built: a pair's routes are found the first time it is read, from
the table where it holds them deep enough, else by enumeration at the
cache's k, and kept by the cache. The cache keeps one distance-to-sink
table per distinct sink it has read, shared among every driver routed
there. A routing check that reads a few pairs pays for those alone.

Enumeration walks the MRRG's id view, whose ids follow key order, and
makes RoutePaths of keys only of the routes it returns.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field

from .dfg import is_int
from .mrrg import IdView, Mrrg, NodeKey
from .neighbors import NeighborMap


@dataclass(frozen=True)
class RoutePath:
    """One cycle-free route; vertices include both endpoints. interior,
    vertices[1:-1], is sliced once, for the searches; ==, hash and repr
    leave it out."""

    driver: NodeKey
    sink: NodeKey
    vertices: tuple[NodeKey, ...]
    interior: tuple[NodeKey, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "interior", self.vertices[1:-1])

    def __len__(self) -> int:
        return len(self.vertices) - 1


def is_valid_path(mrrg: Mrrg, rp: RoutePath) -> bool:
    """Check a route against the graph: endpoints are FUs, every hop is
    an edge, interiors are routing nodes, and no vertex repeats (the
    shared endpoint of a cycle excepted)."""
    vs = rp.vertices
    if len(vs) < 2 or vs[0] != rp.driver or vs[-1] != rp.sink:
        return False
    if not (mrrg.is_fu(rp.driver) and mrrg.is_fu(rp.sink)):
        return False
    for a, b in zip(vs, vs[1:]):
        if b not in mrrg.fanout(a):
            return False
    if any(mrrg.is_fu(n) for n in vs[1:-1]):
        return False
    body = vs[:-1] if rp.driver == rp.sink else vs
    return len(set(body)) == len(body)


def _check_k(k) -> None:
    if not is_int(k) or k < 1:
        raise ValueError(f"k must be an int of at least 1, got {k!r}")


def k_shortest_paths(mrrg: Mrrg, u: NodeKey, v: NodeKey,
                     k: int) -> tuple[RoutePath, ...]:
    """The k shortest simple routes from FU u to FU v, by hop count.

    Equal lengths tie-break on the vertex sequence, so the result is a
    strict prefix of the fully sorted path set. u == v enumerates cycles
    through u. Returns fewer than k paths when fewer exist, empty when v
    is unreachable. An endpoint that is not a unit of the graph raises
    as in find_neighbors.
    """
    _check_k(k)
    return _routes_for(mrrg, (u, v), k, {})


def _routes_for(mrrg: Mrrg, pair, k: int,
                dists: dict[int, dict[int, int]]) -> tuple[RoutePath, ...]:
    """k_shortest_paths for one (driver, sink) pair, from the MRRG's
    route table where it holds the pair deep enough; else enumerated
    over dists[sink id], the sink's distance table, made there on first
    need, and stored in the table at depth k."""
    held = mrrg.route_table.get(pair)
    if held is not None and (k <= held[0] or len(held[1]) < held[0]):
        return held[1][:k]
    view = mrrg.ids
    src, dst = map(view.unit, pair)
    dist = dists.get(dst)
    if dist is None:
        dist = dists[dst] = view.hop_dists((dst,), view.fanin)
    routes = _routes(view, src, dst, k, dist)
    mrrg.route_table[pair] = (k, routes)
    return routes


def _routes(view: IdView, u: int, v: int, k: int,
            dist: dict[int, int]) -> tuple[RoutePath, ...]:
    """k_shortest_paths between unit ids given dist, the exact remaining
    hops to v from every id that reaches it (a backward BFS from v)."""
    if u not in dist:
        return ()
    fanout, fu = view.fanout, view.fu
    found: list[tuple[int, ...]] = []
    heap: list[tuple[int, tuple[int, ...]]] = [(dist[u], (u,))]
    while heap and len(found) < k:
        f, path = heapq.heappop(heap)
        cur = path[-1]
        if cur == v and len(path) > 1:
            found.append(path)
            continue
        g = f - dist[cur]
        for nxt in fanout[cur]:
            if nxt != v and (fu[nxt] or nxt in path):
                continue
            rem = dist.get(nxt)
            if rem is None:
                continue
            heapq.heappush(heap, (g + 1 + rem, path + (nxt,)))
    key = view.keys.__getitem__
    return tuple(RoutePath(key(u), key(v), tuple(map(key, p))) for p in found)


class _LazyRoutes(Mapping):
    """Each (source, neighbour) pair of a neighbour map to its routes at
    depth k, found through _routes_for the first time the pair is read
    and kept. in, len and iteration read the map alone, its pairs in
    sorted-driver order; a pair outside the map raises KeyError."""

    def __init__(self, mrrg: Mrrg, nmap: NeighborMap, k: int):
        self._mrrg = mrrg
        self._near = nmap.neighbors
        self._k = k
        self._routes: dict = {}
        # sink id -> its distance table, for every sink read so far
        self._dists: dict[int, dict[int, int]] = {}

    def __getitem__(self, pair):
        routes = self._routes.get(pair)
        if routes is None:
            if pair not in self:
                raise KeyError(pair)
            routes = self._routes[pair] = _routes_for(
                self._mrrg, pair, self._k, self._dists)
        return routes

    def __contains__(self, pair) -> bool:
        u, v = pair
        return v in self._near.get(u, ())

    def __iter__(self):
        for u in sorted(self._near):
            for v in self._near[u]:
                yield u, v

    def __len__(self) -> int:
        return sum(map(len, self._near.values()))


@dataclass(frozen=True)
class PathCache:
    """Routes for the FU pairs a neighbor map lists, each list sorted and
    <= k long. paths is a read-only view of the map that finds a
    pair's routes when the pair is first read; get gives () for a pair
    outside the map."""

    k: int
    paths: Mapping[tuple[NodeKey, NodeKey], tuple[RoutePath, ...]]

    def __getitem__(self, pair: tuple[NodeKey, NodeKey]) -> tuple[RoutePath, ...]:
        return self.paths[pair]

    def get(self, pair: tuple[NodeKey, NodeKey]) -> tuple[RoutePath, ...]:
        return self.paths.get(pair, ())


def build_path_cache(mrrg: Mrrg, nmap: NeighborMap, k: int) -> PathCache:
    """Routes for every (source, neighbor) pair in the map, in
    sorted-source order, each equal to k_shortest_paths for that pair.
    Building costs O(1): the cache reads its pairs from the map, and a
    pair's routes are found when it is first read, from the MRRG's
    route table where an earlier read left them deep enough, so a pair
    with an endpoint that is no unit raises when read. A cache built
    for some neighbor count serves any smaller count too, since
    shrinking the target only drops pairs.
    """
    _check_k(k)
    return PathCache(k, _LazyRoutes(mrrg, nmap, k))
