"""K-shortest route enumeration between functional unit pairs.

Routes start and end at functional units but never pass through one; the
interior of every path is routing nodes only. Enumeration is best-first
over partial paths with an exact distance-to-sink table as the heuristic,
so paths are produced directly in (length, lexicographic vertex sequence)
order without materialising the full path set first. The table depends
on the sink alone, so a cache computes one per distinct sink and shares
it among every driver routed there. A pair with equal endpoints asks for
cycles through that unit, which the wrap edges of the time-extended
graph make well-defined.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .mrrg import Mrrg, NodeKey, hop_dists
from .neighbors import NeighborMap

DEFAULT_K = 20


@dataclass(frozen=True)
class RoutePath:
    """One cycle-free route; vertices include both endpoints."""

    driver: NodeKey
    sink: NodeKey
    vertices: tuple[NodeKey, ...]

    def interior(self) -> tuple[NodeKey, ...]:
        return self.vertices[1:-1]

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
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an int of at least 1, got {k!r}")


def k_shortest_paths(mrrg: Mrrg, u: NodeKey, v: NodeKey,
                     k: int = DEFAULT_K) -> tuple[RoutePath, ...]:
    """The k shortest simple routes from FU u to FU v, by hop count.

    Equal lengths tie-break on the vertex sequence, so the result is a
    strict prefix of the fully sorted path set. u == v enumerates cycles
    through u. Returns fewer than k paths when fewer exist, empty when v
    is unreachable.
    """
    _check_k(k)
    return _routes(mrrg, u, v, k, hop_dists(mrrg, (v,), mrrg.fanin))


def _routes(mrrg: Mrrg, u: NodeKey, v: NodeKey, k: int,
            dist: dict[NodeKey, int]) -> tuple[RoutePath, ...]:
    """k_shortest_paths given dist, the exact remaining hops to v from
    every vertex that reaches it (a backward BFS from v)."""
    if not (mrrg.is_fu(u) and mrrg.is_fu(v)):
        raise ValueError("path endpoints must be functional units")
    if u not in dist:
        return ()
    fus = mrrg.fus
    found: list[RoutePath] = []
    heap: list[tuple[int, tuple[NodeKey, ...]]] = [(dist[u], (u,))]
    while heap and len(found) < k:
        f, path = heapq.heappop(heap)
        cur = path[-1]
        if cur == v and len(path) > 1:
            found.append(RoutePath(u, v, path))
            continue
        g = f - dist[cur]
        for nxt in mrrg.fanout(cur):
            if nxt != v and (nxt in fus or nxt in path):
                continue
            rem = dist.get(nxt)
            if rem is None:
                continue
            heapq.heappush(heap, (g + 1 + rem, path + (nxt,)))
    return tuple(found)


@dataclass(frozen=True)
class PathCache:
    """Routes for the FU pairs a neighbor map lists, each list sorted and
    <= k long."""

    k: int
    paths: dict[tuple[NodeKey, NodeKey], tuple[RoutePath, ...]]

    def __getitem__(self, pair: tuple[NodeKey, NodeKey]) -> tuple[RoutePath, ...]:
        return self.paths[pair]

    def get(self, pair: tuple[NodeKey, NodeKey]) -> tuple[RoutePath, ...]:
        return self.paths.get(pair, ())


def build_path_cache(mrrg: Mrrg, nmap: NeighborMap,
                     k: int = DEFAULT_K) -> PathCache:
    """Enumerate routes for every (source, neighbor) pair in the map,
    each equal to k_shortest_paths for that pair.

    The distance-to-sink table is computed once per distinct sink and
    serves every source routed to it; one table is held at a time. A
    cache built for some neighbor count serves any smaller count too,
    since shrinking the target only drops pairs.
    """
    _check_k(k)
    pairs = [(src, dst) for src in sorted(nmap.neighbors)
             for dst in nmap.neighbors[src]]
    by_sink: dict[NodeKey, list[NodeKey]] = {}
    for src, dst in pairs:
        by_sink.setdefault(dst, []).append(src)
    found = {}
    for dst, srcs in by_sink.items():
        dist = hop_dists(mrrg, (dst,), mrrg.fanin)
        for src in srcs:
            found[(src, dst)] = _routes(mrrg, src, dst, k, dist)
    return PathCache(k, {pair: found[pair] for pair in pairs})
