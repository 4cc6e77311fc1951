"""Per-node reference formulation.

One usage var says a signal occupies a routing node, and layered
reachability vars witness how the signal got there: a mark at hop layer
l > 1 needs a fanin mark at l-1, and a mark at layer 1 needs the driver
placed on a fanin unit. One usage row per (signal d, node n),
sum(r[d,n,l] over l) - M*z[d,n] <= 0 with M the node's layer count, says
any mark uses the node. The layering makes wrap-around support
impossible, so usage marks are honest and node exclusivity between
different signals is the whole sharing story. Routing is decided per
node rather than per enumerated path, which keeps the variable count
roughly linear in the number of contexts but gives the search far less
structure to grab onto.

Layer budgets keep the var count sane: a node only gets layer l when a
driver candidate can reach it in at most l hops and a sink candidate is
still reachable within the per-signal hop budget.
"""

from __future__ import annotations

from collections import deque

from .dfg import Dfg
from .ilp import (IlpModel, VarId, add_fu_exclusivity, add_implication,
                  add_must_map, declare_f, gc_paused)
from .mrrg import Mrrg, NodeKey, fu_nodes, hop_dists
from .paths import RoutePath


def zvar(driver: str, n: NodeKey) -> VarId:
    return VarId("z", (driver, n))


def rvar(driver: str, n: NodeKey, layer: int) -> VarId:
    return VarId("r", (driver, n, layer))


@gc_paused
def build_baseline(dfg: Dfg, mrrg: Mrrg) -> IlpModel:
    """Model whose solutions are exactly the valid mappings, up to the
    hop budget: longer detours than lmax per signal are out of scope.
    A signal's lmax is its widest driver-to-sink spread plus 2 * II + 4,
    capped at one more than the number of routing nodes."""
    slack = 2 * mrrg.ii + 4
    model = IlpModel("baseline", hop_slack=slack)
    f_of = declare_f(model, dfg, mrrg)
    add_fu_exclusivity(model, f_of, fu_nodes(mrrg))
    add_must_map(model, f_of)

    route_count = len(mrrg.nodes) - len(mrrg.fus)
    users: dict[NodeKey, list[VarId]] = {}
    for edge in dfg.edges:
        driver = edge.driver
        units = f_of[driver]
        sinks = {s: f_of[s] for s, _ in edge.sinks}
        fwd = hop_dists(mrrg, units)
        bwd = hop_dists(mrrg, {v for vs in sinks.values() for v in vs},
                        backward=True)
        spans = {n: fwd[n] + bwd[n] for n in fwd.keys() & bwd.keys()
                 if n not in mrrg.fus}
        lmax = min(route_count + 1, max(spans.values(), default=0) + slack)
        model.metadata[f"lmax!{driver}"] = lmax
        # the driver's window: marks[n][layer] is the mark of node n there
        marks: dict[NodeKey, dict[int, VarId]] = {}
        for n in sorted(spans):
            if spans[n] <= lmax:
                model.add_var(zvar(driver, n))
                marks[n] = {layer: model.add_var(rvar(driver, n, layer))
                            for layer in range(fwd[n], lmax - bwd[n] + 1)}

        for n, layers in marks.items():
            z = zvar(driver, n)
            users.setdefault(n, []).append(z)
            add_implication(model, layers.values(), z, "usage")
            model.add_constraint([(1, z)] + [(-1, r) for r in layers.values()],
                                 "<=", 0, "reach")
            fanout = set(mrrg.fanout(n))
            fed = [(-1, f) for vs in sinks.values() for v, f in vs.items()
                   if v in fanout]
            for layer, r in layers.items():
                back = [(-1, marks[m][layer - 1]) for m in mrrg.fanin(n)
                        if layer - 1 in marks.get(m, ())]
                if layer == 1:
                    back += [(-1, units[u]) for u in mrrg.fanin(n)
                             if u in units]
                model.add_constraint([(1, r)] + back, "<=", 0, "back")
                ahead = [(-1, marks[m][layer + 1]) for m in mrrg.fanout(n)
                         if layer + 1 in marks.get(m, ())]
                model.add_constraint([(1, r)] + ahead + fed, "<=", 0, "fwd")

        for sink, vs in sinks.items():
            for v, f in vs.items():
                arrive = [(-1, zvar(driver, n)) for n in mrrg.fanin(v)
                          if n in marks]
                if sink != driver:
                    arrive += [(-1, units[u]) for u in mrrg.fanin(v)
                               if u in units and u != v]
                model.add_constraint([(1, f)] + arrive, "<=", 0, "arrive")

    for n in sorted(users):
        if len(users[n]) > 1:
            model.add_constraint([(1, z) for z in users[n]], "<=", 1, "share")
    return model


def extract_mapping(model: IlpModel, dfg: Dfg, mrrg: Mrrg, assignment):
    """Placement and one route per connection out of a feasible
    assignment. Each route is a shortest path, found breadth first, from
    the driver's unit to the sink's unit through the routing nodes whose
    z[driver, n] is 1. A feasible assignment always has one: the back
    rows give every used node fanin support down to the driver's unit,
    and the arrive rows put a used node or the driver's unit on the
    sink's fanin. A loop edge's route is a cycle through its unit.

    Raises ValueError when the assignment leaves an operation unplaced,
    places one twice, or gives a connection no such route."""
    placement: dict[str, NodeKey] = {}
    used: dict[str, set[NodeKey]] = {}
    for var, value in assignment.items():
        if value != 1:
            continue
        if var.cls == "f":
            op, u = var.idx
            if op in placement:
                raise ValueError(f"operation {op} placed twice")
            placement[op] = u
        elif var.cls == "z":
            driver, n = var.idx
            used.setdefault(driver, set()).add(n)
    for op in dfg.operations:
        if op.id not in placement:
            raise ValueError(f"operation {op.id} is unplaced")

    routes: dict[tuple[str, str], RoutePath] = {}
    for driver, sink in dfg.point_edges():
        u, v = placement[driver], placement[sink]
        route = _search(mrrg, u, v, used.get(driver, set()))
        if route is None:
            raise ValueError(f"no route for {driver}->{sink} through "
                             f"the nodes {driver} uses")
        routes[driver, sink] = RoutePath(u, v, route)
    return placement, routes


def _search(mrrg: Mrrg, u: NodeKey, v: NodeKey, used: set[NodeKey]):
    """Vertices of a shortest path from u to v whose interior lies in
    used, or None. u is where the search starts, not a vertex it reaches,
    so for u == v the path is a cycle."""
    parent: dict[NodeKey, NodeKey] = {}
    frontier = deque([u])
    while frontier:
        n = frontier.popleft()
        for m in mrrg.fanout(n):
            if m == v:
                path = [v, n]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if m in used and m not in parent:
                parent[m] = n
                frontier.append(m)
    return None
