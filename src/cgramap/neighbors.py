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

Each unit's search walks the MRRG's id view and is kept on the MRRG: a
deeper target resumes it, a shallower one reads an earlier wave's prefix.
Its state is a list: ids found in discovery order, waves[w] the count
found after w waves, the frontier and a seen flag per id; the last two
are dropped once the frontier is empty.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .dfg import is_int
from .mrrg import IdView, Mrrg, NodeKey


def find_neighbors(mrrg: Mrrg, source: NodeKey,
                   target_nn: int) -> tuple[NodeKey, ...]:
    """Sorted FU keys discovered from source under the wave stop rule;
    a target of 0 finds none."""
    if not is_int(target_nn) or target_nn < 0:
        raise ValueError(
            f"target_nn must be an int of at least 0, got {target_nn!r}")
    view = mrrg.ids
    return _neighbors(view, view.unit(source), target_nn)


def _neighbors(view: IdView, source: int, target: int) -> tuple[NodeKey, ...]:
    search = view.searches.get(source)
    if search is None:
        # the source starts unseen, so a cycle back into it finds it
        search = view.searches[source] = [
            [], [0], [source], bytearray(len(view.keys))]
    found, waves, frontier, seen = search
    fanout, fu = view.fanout, view.fu
    while frontier and waves[-1] < target:
        nxt = []
        for n in frontier:
            for m in fanout[n]:
                if not seen[m]:
                    seen[m] = 1
                    (found if fu[m] else nxt).append(m)
        waves.append(len(found))
        frontier = search[2] = nxt
        if not nxt:
            search[3] = None
    end = waves[min(bisect_left(waves, target), len(waves) - 1)]
    return tuple(map(view.keys.__getitem__, sorted(found[:end])))


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

    @cached_property
    def others(self) -> Mapping[NodeKey, tuple[NodeKey, ...]]:
        """Each unit's neighbours other than itself: the tuple in
        neighbors where the unit is not its own neighbour."""
        return MappingProxyType({
            u: tuple(v for v in near if v != u) if u in near else near
            for u, near in self.neighbors.items()})


def build_neighbor_map(mrrg: Mrrg, target_nn: int) -> NeighborMap:
    """find_neighbors for every FU vertex, computed on the first request
    for this target and returned from the MRRG after that."""
    # checked before the lookup: True == 1 would find the map for 1
    if not is_int(target_nn) or target_nn < 1:
        raise ValueError(
            f"target_nn must be an int of at least 1, got {target_nn!r}")
    nmap = mrrg.neighbor_maps.get(target_nn)
    if nmap is None:
        view = mrrg.ids
        nmap = mrrg.neighbor_maps[target_nn] = NeighborMap(
            target_nn, {view.keys[u]: _neighbors(view, u, target_nn)
                        for u, fu in enumerate(view.fu) if fu})
    return nmap
