"""Per-node reference formulation.

One usage var says a signal occupies a routing node, and layered
reachability vars witness how the signal got there: a mark at hop layer
l needs a fanin mark at l-1, with layer 0 pinned to the placed driver.
The layering makes wrap-around support impossible, so usage marks are
honest and node exclusivity between different signals is the whole
sharing story. Routing is decided per node rather than per enumerated
path, which keeps the variable count roughly linear in the number of
contexts but gives the search far less structure to grab onto.

Layer budgets keep the var count sane: a node only gets layer l when a
driver candidate can reach it in at most l hops and a sink candidate is
still reachable within the per-signal hop budget.
"""

from __future__ import annotations

from .dfg import Dfg
from .ilp import (IlpModel, VarId, add_fu_exclusivity, add_must_map,
                  declare_f, fvar)
from .mrrg import Mrrg, NodeKey, compatible_nodes, fu_nodes, hop_dists
from .paths import RoutePath


class _Window:
    """Per-signal layer bounds for the routing nodes it may touch."""

    def __init__(self, dfg: Dfg, mrrg: Mrrg, driver: str, sinks, slack: int,
                 route_count: int):
        ops = dfg.ops_by_id
        self.driver = driver
        self.sinks = tuple(sinks)
        self.driver_cands = compatible_nodes(mrrg, ops[driver])
        self.sink_cands = {p: compatible_nodes(mrrg, ops[p]) for p in sinks}
        all_sinks = sorted({v for cands in self.sink_cands.values()
                            for v in cands})
        self.fwd = self._routing(mrrg, self.driver_cands, mrrg.fanout)
        self.bwd = self._routing(mrrg, all_sinks, mrrg.fanin)
        spread = [self.fwd[n] + self.bwd[n] for n in self.fwd
                  if n in self.bwd]
        self.lmax = min(route_count + 1, (max(spread) if spread else 0) + slack)
        self.nodes = sorted(n for n in self.fwd if n in self.bwd
                            and self.fwd[n] + self.bwd[n] <= self.lmax)
        self.members = frozenset(self.nodes)

    @staticmethod
    def _routing(mrrg: Mrrg, ends, step) -> dict[NodeKey, int]:
        return {n: d for n, d in hop_dists(mrrg, ends, step).items()
                if not mrrg.is_fu(n)}

    def layers(self, n: NodeKey) -> range:
        return range(self.fwd[n], self.lmax - self.bwd[n] + 1)

    def has(self, n: NodeKey, layer: int) -> bool:
        return n in self.members and layer in self.layers(n)


def zvar(driver: str, n: NodeKey) -> VarId:
    return VarId("z", (driver, n))


def rvar(driver: str, n: NodeKey, layer: int) -> VarId:
    return VarId("r", (driver, n, layer))


def _hyperedges(dfg: Dfg) -> dict[str, list[str]]:
    hyper: dict[str, set[str]] = {}
    for edge in dfg.edges:
        bucket = hyper.setdefault(edge.driver, set())
        for sink, _ in edge.sinks:
            bucket.add(sink)
    return {o: sorted(sinks) for o, sinks in sorted(hyper.items())}


def build_baseline(dfg: Dfg, mrrg: Mrrg) -> IlpModel:
    """Model whose solutions are exactly the valid mappings, up to the
    hop budget: longer detours than lmax per signal are out of scope.
    A signal's lmax is its widest driver-to-sink spread plus 2 * II + 4,
    capped at one more than the number of routing nodes."""
    slack = 2 * mrrg.ii + 4
    model = IlpModel("baseline", hop_slack=slack)
    declare_f(model, dfg, mrrg)
    add_fu_exclusivity(model, fu_nodes(mrrg))
    add_must_map(model, dfg)

    route_count = sum(1 for n in mrrg.nodes if not mrrg.is_fu(n))
    windows: dict[str, _Window] = {}
    for driver, sinks in _hyperedges(dfg).items():
        win = _Window(dfg, mrrg, driver, sinks, slack, route_count)
        windows[driver] = win
        model.metadata[f"lmax!{driver}"] = win.lmax
        for n in win.nodes:
            model.add_var(zvar(driver, n))
            for layer in win.layers(n):
                model.add_var(rvar(driver, n, layer))

    for driver, win in windows.items():
        dcand = set(win.driver_cands)
        for n in win.nodes:
            marks = [rvar(driver, n, layer) for layer in win.layers(n)]
            z = zvar(driver, n)
            for mark in marks:
                model.add_constraint([(1, mark), (-1, z)], "<=", 0, "usage")
            model.add_constraint([(1, z)] + [(-1, m) for m in marks],
                                 "<=", 0, "reach")
            for layer in win.layers(n):
                support = [(-1, rvar(driver, m, layer - 1))
                           for m in mrrg.fanin(n)
                           if win.has(m, layer - 1)]
                if layer == 1:
                    support += [(-1, fvar(driver, u))
                                for u in mrrg.fanin(n) if u in dcand]
                model.add_constraint([(1, rvar(driver, n, layer))] + support,
                                     "<=", 0, "back")
                ahead = [(-1, rvar(driver, m, layer + 1))
                         for m in mrrg.fanout(n)
                         if win.has(m, layer + 1)]
                ahead += [(-1, fvar(sink, v))
                          for sink, v in _fed_sinks(mrrg, win, n)]
                model.add_constraint([(1, rvar(driver, n, layer))] + ahead,
                                     "<=", 0, "fwd")

        for sink in win.sinks:
            for v in win.sink_cands[sink]:
                arrive = [(-1, zvar(driver, n)) for n in mrrg.fanin(v)
                          if n in win.members]
                if sink != driver:
                    arrive += [(-1, fvar(driver, u)) for u in mrrg.fanin(v)
                               if u in dcand and u != v]
                model.add_constraint([(1, fvar(sink, v))] + arrive,
                                     "<=", 0, "arrive")

    users: dict[NodeKey, list[VarId]] = {}
    for driver, win in windows.items():
        for n in win.nodes:
            users.setdefault(n, []).append(zvar(driver, n))
    for n in sorted(users):
        if len(users[n]) > 1:
            model.add_constraint([(1, z) for z in users[n]], "<=", 1, "share")
    return model


def _fed_sinks(mrrg: Mrrg, win: _Window, n: NodeKey):
    fanout = set(mrrg.fanout(n))
    return [(sink, v) for sink in win.sinks for v in win.sink_cands[sink]
            if v in fanout]


def extract_mapping(model: IlpModel, dfg: Dfg, mrrg: Mrrg, assignment):
    """Placement and one route per connection out of a feasible
    assignment. The backward walk always succeeds because every mark has
    fanin support one layer down; loops in the walk are erased."""
    placement: dict[str, NodeKey] = {}
    for var, value in assignment.items():
        if var.cls == "f" and value == 1:
            op, u = var.idx
            if op in placement:
                raise AssertionError(f"operation {op} placed twice")
            placement[op] = u
    marks: dict[str, dict[NodeKey, list[int]]] = {}
    used: dict[str, set[NodeKey]] = {}
    for var, value in assignment.items():
        if value != 1:
            continue
        if var.cls == "r":
            driver, n, layer = var.idx
            marks.setdefault(driver, {}).setdefault(n, []).append(layer)
        elif var.cls == "z":
            driver, n = var.idx
            used.setdefault(driver, set()).add(n)

    routes: dict[tuple[str, str], RoutePath] = {}
    for driver, sink in dfg.point_edges():
        u, v = placement[driver], placement[sink]
        layered = marks.get(driver, {})
        entries = []
        for n in mrrg.fanin(v):
            if n in used.get(driver, ()) and layered.get(n):
                entries.append((min(layered[n]), n))
        if not entries:
            if u in mrrg.fanin(v):
                routes[driver, sink] = RoutePath(u, v, (u, v))
                continue
            raise AssertionError(f"no arrival support for {driver}->{sink}")
        layer, last = min(entries)
        walk = [last]
        while layer > 1:
            prev = min(m for m in mrrg.fanin(walk[-1])
                       if layer - 1 in layered.get(m, ()))
            walk.append(prev)
            layer -= 1
        if u not in mrrg.fanin(walk[-1]):
            raise AssertionError(f"walk for {driver}->{sink} misses driver")
        interior = list(reversed(walk))
        erased: list[NodeKey] = []
        index: dict[NodeKey, int] = {}
        for node in interior:
            if node in index:
                for gone in erased[index[node] + 1:]:
                    del index[gone]
                del erased[index[node] + 1:]
            else:
                index[node] = len(erased)
                erased.append(node)
        routes[driver, sink] = RoutePath(u, v, (u, *erased, v))
    return placement, routes
