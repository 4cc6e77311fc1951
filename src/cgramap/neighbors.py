"""Neighbour discovery: which FUs can feed which other FUs.

Breadth-first search from a source FU along fanout edges, advancing in whole
waves. After each wave the number of FUs discovered so far is compared to
the target; once it reaches the target the search stops and everything
discovered is returned, including the entire final wave, so the result can
overshoot the target but never splits a wave. If the graph is exhausted
first, all reachable FUs are returned.

FU vertices are discovery endpoints: they are recorded but never expanded
through, because a value cannot pass through a function unit without
occupying it (route-throughs are explicit routing vertices and are traversed
normally). The source itself is excluded unless the search walks a cycle
back into it, in which case it is its own neighbour.

The map for a target depends on the graph alone, so build_neighbor_map
computes it once per (MRRG, target) and keeps it on the MRRG: later calls,
from any mapping run over that graph, get the same read-only map.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .dfg import is_int
from .mrrg import Mrrg, NodeKey, fu_nodes


def find_neighbors(mrrg: Mrrg, source: NodeKey,
                   target_nn: int) -> tuple[NodeKey, ...]:
    """Sorted FU keys discovered from source under the wave stop rule;
    a target of 0 finds none."""
    if not is_int(target_nn) or target_nn < 0:
        raise ValueError(
            f"target_nn must be an int of at least 0, got {target_nn!r}")
    if source not in mrrg.nodes:
        raise KeyError(f"unknown node {source}")
    if not mrrg.is_fu(source):
        raise ValueError(f"{source} is not an FU node")

    fus = mrrg.fus
    found: set[NodeKey] = set()
    visited: set[NodeKey] = {source}
    frontier: list[NodeKey] = [source]
    while frontier and len(found) < target_nn:
        nxt: list[NodeKey] = []
        for n in frontier:
            for m in mrrg.fanout(n):
                if m == source:
                    found.add(source)  # re-reached via a cycle
                    continue
                if m in visited:
                    continue
                visited.add(m)
                if m in fus:
                    found.add(m)
                else:
                    nxt.append(m)
        frontier = nxt
    return tuple(sorted(found))


@dataclass(frozen=True)
class NeighborMap:
    """Neighbour units per source unit. The mapping is a read-only copy
    of the one given, since one map is shared by every caller."""

    target_nn: int
    neighbors: Mapping[NodeKey, tuple[NodeKey, ...]]

    def __post_init__(self):
        object.__setattr__(self, "neighbors",
                           MappingProxyType(dict(self.neighbors)))

    def __getitem__(self, key: NodeKey) -> tuple[NodeKey, ...]:
        return self.neighbors[key]


def build_neighbor_map(mrrg: Mrrg, target_nn: int) -> NeighborMap:
    """find_neighbors for every FU vertex, computed on the first request
    for this target and returned from the MRRG after that."""
    # checked before the lookup: True == 1 would find the map for 1
    if not is_int(target_nn) or target_nn < 1:
        raise ValueError(
            f"target_nn must be an int of at least 1, got {target_nn!r}")
    nmap = mrrg.neighbor_maps.get(target_nn)
    if nmap is None:
        nmap = mrrg.neighbor_maps[target_nn] = NeighborMap(
            target_nn,
            {u: find_neighbors(mrrg, u, target_nn) for u in fu_nodes(mrrg)})
    return nmap
