"""The mapper's placement and routing searches, and the combined 0/1
model of the same constraints.

Three variable classes: f (operation o sits on unit u), p (path q between
units u and v is switched on), y (routing vertex n carries the signal of
driver unit u). The constraint families:

  con1  unit exclusivity: each FU hosts at most one operation
  con2  must map: every operation placed exactly once
  con3  neighbour required: a sink p on unit v needs its driver o on a
        unit u with v in u's neighbour set, one row f[p,v] - sum f[o,u]
        <= 0 per (DFG edge (o,p), unit v); a loop edge closes on its unit
  con5  path required: an edge placed on a neighbour pair needs a path,
        f[o,u] + f[p,v] - sum_q p[u,v,q] <= 1 (f[o,u] - sum_q p[u,u,q]
        <= 0 for a loop edge)
  con6  path exclusivity: a routing vertex carries at most one
        signal; a path switched on claims its driver's y at every
        interior vertex, one row sum(p of u crossing n) - M*y[n,u] <= 0
        per (vertex n, driver u)

The numbering is that of a formulation with a variable per placed DFG
edge (o, u, p, v), equal to f[o,u] * f[p,v] as con2 places each op once;
con3 and con5 project it out, and with it that formulation's con4.

The mapper builds no model. It searches con1-3 without one, with
con5-6 over the cached routes at must-cross strength
(screen_placements, over each operation's units, kept arc-consistent
and matchable onto distinct units, each connection whose ends are
fixed keeping the routes that cross no vertex another connection must
cross), and then con5-6 in full over a placement's routes likewise
(route_search, over each connection's routes, from the fixpoint the
screen's leaf holds). Both are one depth-first loop, _depth_first;
each search gives it only its root node, its propagation and its value
order, and ends only when its tree is exhausted or its time is out: a
caller stops reading once it has the leaves it needs.

build_variant builds the one model, combined (con1-3, con5-6), over the
neighbour map and the path cache; the benchmark's exact workload and
the tests solve it. Variables and rows are named tuples: building one
runs the __new__ that namedtuple generates in Python, while hashing,
comparing and looking one up run natively. A row keeps its terms in
the order its builder lists them; the solver's one read of the rows,
not the model, rejects a variable repeated within one. Building a model
and solving one run with the cyclic garbage collector paused
(gc_paused).

Each implication group is one row, M being its number of summed terms,
in place of M rows x - g <= 0: the two forms admit the same 0/1 points
and the solver forces the same values from them (any x at 1 forces g to
1, g at 0 forces every x to 0), with one row to read instead of M. For
an LP relaxation the aggregated row is the weaker, big-M form.
"""

from __future__ import annotations

import functools
import gc
import random
import time
from typing import NamedTuple

from .dfg import Dfg
from .mrrg import Mrrg, NodeKey, compatible_nodes, fu_nodes
from .neighbors import NeighborMap
from .paths import PathCache

MODEL_KINDS = ("combined", "baseline")


class InfeasibleModel(Exception):
    """Construction already proves there is no solution."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def gc_paused(func):
    """Wrap func to run with the cyclic garbage collector disabled,
    enabling it again in a finally block only if it was on when func was
    entered. A model build and the solver's read of the rows allocate
    containers by the hundred thousand on a 4x4 fabric, which live until
    the call returns, and each collection would walk them again. This
    relies on func making no reference cycles: reference counting then
    frees all its garbage, so pausing the collector delays none. func
    must not be a generator function, whose body runs after the wrapper
    has returned."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class VarId(NamedTuple):
    """A model variable: its class letter and the tuple naming it. As a
    tuple it hashes as hash((cls, idx)) and orders by (cls, idx), and
    hashing, comparing and looking one up run no Python code; building
    one runs the __new__ that namedtuple generates in Python."""

    cls: str
    idx: tuple


def fvar(op: str, u: NodeKey) -> VarId:
    return VarId("f", (op, u))


def pvar(u: NodeKey, v: NodeKey, q: int) -> VarId:
    return VarId("p", (u, v, q))


def yvar(n: NodeKey, u: NodeKey) -> VarId:
    return VarId("y", (n, u))


class LinearConstraint(NamedTuple):
    terms: tuple[tuple[int, VarId], ...]
    relation: str
    rhs: int
    tag: str


class IlpModel:
    """Mutable while building, treated as frozen afterwards."""

    def __init__(self, variant: str, **metadata):
        if variant not in MODEL_KINDS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.metadata = dict(metadata)
        self.variables: list[VarId] = []
        self._declared: dict[VarId, int] = {}
        self.constraints: list[LinearConstraint] = []
        # the placements (o, u, p, v) the rows allow each DFG edge (o, p);
        # empty for a model build_variant did not build
        self.domain: tuple[tuple[str, NodeKey, str, NodeKey], ...] = ()

    def add_var(self, var: VarId) -> VarId:
        if var not in self._declared:
            self._declared[var] = len(self.variables)
            self.variables.append(var)
        return var

    def add_constraint(self, terms, relation: str, rhs: int, tag: str) -> None:
        """Append the row with its terms in the order given. The
        relation, the coefficients, whether each variable is declared
        and whether one repeats are checked by the solver, which reads
        every row once."""
        self.constraints.append(
            LinearConstraint(tuple(terms), relation, rhs, tag))

    def vars_by_class(self) -> dict[str, list[VarId]]:
        out: dict[str, list[VarId]] = {}
        for v in self.variables:
            out.setdefault(v.cls, []).append(v)
        return out

    def stats(self) -> str:
        by_cls = {c: len(vs) for c, vs in self.vars_by_class().items()}
        by_tag: dict[str, int] = {}
        for con in self.constraints:
            by_tag[con.tag] = by_tag.get(con.tag, 0) + 1
        lines = [f"variant {self.variant}"]
        for key in sorted(self.metadata):
            lines.append(f"{key} {self.metadata[key]}")
        parts = " ".join(f"{c}={n}" for c, n in sorted(by_cls.items()))
        lines.append(f"variables total={len(self.variables)} {parts}".rstrip())
        parts = " ".join(f"{t}={n}" for t, n in sorted(by_tag.items()))
        lines.append(f"constraints total={len(self.constraints)} {parts}".rstrip())
        return "\n".join(lines)


def declare_f(model: IlpModel, dfg: Dfg,
              mrrg: Mrrg) -> dict[str, dict[NodeKey, VarId]]:
    """Declare f[o,u] for each op o and each unit u it fits, and return
    them as op -> unit -> variable, in declaration order: the index the
    row builders read. An op with no unit maps to an empty dict, which
    add_must_map rejects."""
    return {op.id: {u: model.add_var(fvar(op.id, u))
                    for u in compatible_nodes(mrrg, op)}
            for op in dfg.operations}


def neighbor_domain(dfg: Dfg, mrrg: Mrrg,
                    nmap: NeighborMap) -> tuple[tuple, ...]:
    """Every (o, u, p, v) with (o, p) a DFG edge, u and v units the two
    operations fit and v in u's neighbour set; a loop edge closes only
    on the unit hosting the operation."""
    ops = dfg.ops_by_id
    domain = []
    for o, p in dfg.point_edges():
        sinks = compatible_nodes(mrrg, ops[p])
        for u in compatible_nodes(mrrg, ops[o]):
            reach = set(nmap[u])
            domain.extend((o, u, p, v) for v in sinks
                          if v in reach and (o != p or v == u))
    return tuple(domain)


def placeable(dfg: Dfg, mrrg: Mrrg) -> bool:
    """False only when the operations do not match onto distinct
    compatible units, so that no placement meets con1-con2 at any NN."""
    return _matched({op.id: set(compatible_nodes(mrrg, op))
                     for op in dfg.operations})


def _domains(dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap):
    """Each operation's compatible units, a loop edge keeping only the
    units that are their own neighbour, and the arcs con3 reads through
    each operation: the DFG edges between distinct operations."""
    units = {op.id: set(compatible_nodes(mrrg, op)) for op in dfg.operations}
    through: dict[str, list[tuple[str, str]]] = {o: [] for o in units}
    for o, p in dfg.point_edges():
        if o == p:
            units[o] = {u for u in units[o] if u in nmap[u]}
        else:
            through[o].append((o, p))
            through[p].append((o, p))
    return units, through


def _consistent(units, near, through, queue) -> bool:
    """Arc consistency (AC-3; Mackworth, AI 1977) from the arcs in queue:
    cut the units of each arc's ends to those with a partner across it
    (v in near[u], near being NeighborMap.others: distinct operations
    never share a unit), queueing again the other arcs through an end
    that lost units, until the queue is empty. Cut domains are replaced,
    not edited, so a copy of units that shares their sets stays intact.
    False once an operation has no unit left."""
    while queue:
        o, p = arc = queue.pop()
        sinks = units[p]
        drivers = {u for u in units[o] if not sinks.isdisjoint(near[u])}
        if not drivers:
            return False
        unmet = set(sinks)
        for u in drivers:
            unmet.difference_update(near[u])
            if not unmet:
                break
        if unmet or len(drivers) < len(units[o]):
            units[o], units[p] = drivers, sinks - unmet
            queue.update(a for a in through[o] + through[p] if a != arc)
    return True


def _matched(units) -> bool:
    """Whether the operations match onto distinct units, each onto one of
    its own: the all-different test (Regin, AAAI 1994), by augmenting
    paths."""
    host: dict[NodeKey, str] = {}
    return all(_augment(o, units, host, set()) for o in units)


def _augment(o, units, host, seen) -> bool:
    """Whether an augmenting path from o through units not in seen gives
    o one of units[o], moving the operations on its way; host (unit ->
    operation) records the matching. Not a closure in _matched: a
    recursive closure is a reference cycle that only the cyclic
    collector frees."""
    for u in units[o]:
        if u in seen:
            continue
        seen.add(u)
        if u not in host or _augment(host[u], units, host, seen):
            host[u] = o
            return True
    return False


def _settle(units, near, through, changed) -> bool:
    """Propagate one search node to a fixpoint from the arcs through the
    operations in changed: arc consistency, then every operation left
    with one unit takes it from all the others, queueing the arcs
    through the ones that lose it, until neither cuts more; then the
    matching. False when either proves the node has no placement."""
    queue = {a for o in changed for a in through[o]}
    while True:
        if not _consistent(units, near, through, queue):
            return False
        # two operations left on one unit fail the matching
        taken = {next(iter(us)) for us in units.values() if len(us) == 1}
        cut = False
        for o, us in units.items():
            if len(us) > 1 and not taken.isdisjoint(us):
                units[o] = us = us - taken
                if not us:
                    return False
                queue.update(through[o])
                cut = True
        if not cut:
            return _matched(units)


def _depth_first(root, settle, values, cfg):
    """Depth-first search that propagates every node. A node is a tuple
    of dicts, the first mapping each variable to its values left;
    settle(node, changed) propagates it in place from the variables in
    changed (all of them at the root), replacing dict entries without
    editing them, and is False when the node has no leaf. A node
    branches on the variable with the fewest values left, ties to dict
    order: each child, a copy, gives it the next singleton of
    values(node, variable). Yields each leaf, where every variable has
    one value, with the nodes so far, and reads the clock at every
    node; the caller stops reading once it has the leaves it needs.
    Returns (status, nodes): infeasible once the tree is exhausted,
    timeout past cfg.time_limit."""
    deadline = time.monotonic() + cfg.time_limit
    nodes = 0
    # (node, variable branched on, its singletons not yet tried there)
    stack: list[tuple[tuple, object, list]] = []
    node, changed = root, list(root[0])
    while True:
        nodes += 1
        if time.monotonic() > deadline:
            return "timeout", nodes
        if settle(node, changed):
            open_ = [var for var, vals in node[0].items() if len(vals) > 1]
            if open_:
                var = min(open_, key=lambda var: len(node[0][var]))
                stack.append((node, var, values(node, var)[::-1]))
            else:
                yield node, nodes
        if not stack:
            return "infeasible", nodes
        parent, var, left = stack[-1]
        node = tuple(map(dict, parent))
        node[0][var] = left.pop()
        changed = [var]
        if not left:
            stack.pop()


def screen_placements(dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap, cfg,
                      cache: PathCache):
    """Yield each placement that meets con1-con3 and leaves every
    connection a cached route at must-cross strength, once, as
    (op -> unit, leaf, nodes), nodes being the search's node count so
    far. The search is _depth_first over the units each operation may
    take, maintaining arc consistency (Sabin & Freuder, CP 1994) and
    the matching test (_settle); the subgraph matching of LAD (Solnon,
    AIJ 2010) works alike. Ties go to more DFG edges through the
    operation, then to declaration order. Each operation tries its
    units in sorted order, shuffled once by random.Random(cfg.seed).
    cfg is a solver.SolveConfig whose time_limit bounds the search. The
    stream ends only when the tree is exhausted or the time is out,
    returning _depth_first's (status, nodes); a caller that needs fewer
    placements stops reading.

    A node also holds routes, each connection whose two ends have one
    unit with its cached routes, and their claims. A connection joins
    once its ends are fixed, without the routes through a vertex another
    driver claims, and must-cross (_cross) runs from the connections
    that joined; the node fails when one is left with no route. A leaf
    is the pruned (routes, claims), in pair order: route_search's root
    for the placement.

    So the search is exact over con1-con3 with con5-con6 at must-cross
    strength over the cache: it prunes no placement that some choice of
    one cached route per connection routes, and yields none that
    must-cross refutes; route_search from the leaf decides the rest. An
    infeasible end holds only relative to the cache. Forbidden partial
    assignments (a routing failure's core cut, the rotations of a
    placement) would enter as a settle that fails a node assigning one
    in full."""
    units, through = _domains(dfg, mrrg, nmap)
    rng = random.Random(cfg.seed)
    order = {}
    for o, us in units.items():
        order[o] = sorted(us)
        rng.shuffle(order[o])
    edges = dfg.point_edges()
    # pair -> its cached routes as (interior, route), read once a search
    read: dict[tuple[NodeKey, NodeKey], tuple] = {}

    def settle(node, changed):
        domains, routes, claims = node
        if not _settle(domains, nmap.others, through, changed):
            return False
        fresh = []
        for o, p in edges:
            us, vs = domains[o], domains[p]
            if len(us) == 1 == len(vs):
                pair = (*us, *vs)
                if pair in routes:
                    continue
                if pair not in read:
                    read[pair] = _entries(pair, cache)
                own = {pair[0]}
                taken = {n for n, ds in claims.items() if ds != own}
                routes[pair] = tuple(entry for entry in read[pair]
                                     if taken.isdisjoint(entry[0]))
                fresh.append(pair)
        return not fresh or _cross(routes, claims, fresh)

    busy = sorted(units, key=lambda o: -len(through[o]))  # stable
    search = _depth_first(
        ({o: units[o] for o in busy}, {}, {}), settle,
        lambda node, o: [{u} for u in order[o] if u in node[0][o]], cfg)
    while True:
        try:
            (leaf, routes, claims), nodes = next(search)
        except StopIteration as end:
            return end.value
        yield ({o: next(iter(leaf[o])) for o in units},
               ({pair: routes[pair] for pair in sorted(routes)}, claims),
               nodes)


def _entries(pair, cache: PathCache) -> tuple:
    """A connection's cached routes in cache order, each as (interior,
    route): the values the routing searches branch on."""
    return tuple((rp.interior(), rp) for rp in cache.get(pair))


def route_root(pairs, cache: PathCache) -> tuple[dict, dict]:
    """The root node of a routing check from the cache alone: each
    connection of pairs, in sorted order, with its cached routes, and
    no claims."""
    return {pair: _entries(pair, cache) for pair in sorted(set(pairs))}, {}


def _cross(routes, claims, changed, blocked=None) -> bool:
    """Propagate must-cross to its fixpoint, in rounds. Each round, each
    connection in changed (whose routes were cut) claims for its driver
    the interior vertices all its routes share; then every route that
    crosses a vertex claimed by another driver is dropped, and the
    connections that lost routes are the next round's changed. A route
    kept so far crosses no vertex another driver claimed, so only the
    vertices claimed this round are tested. Route lists and claims
    (vertex -> drivers) are replaced, not edited, so a copy that shares
    them stays intact.

    An emptied connection keeps its claims. That drops nothing more:
    every other driver's route through one of them was dropped in the
    round that emptied it. With blocked (connection -> vertices), each dropped route's
    vertices claimed by another driver are added there and the rounds
    run to the fixpoint; without, the first emptied connection ends
    them. False when some connection is left with no route."""
    while changed:
        fresh = set()
        for pair in changed:
            rps = routes[pair]
            if not rps:
                continue
            u = pair[0]
            for n in set(rps[0][0]).intersection(*(i for i, _ in rps[1:])):
                have = claims.get(n, frozenset())
                if u not in have:
                    claims[n] = have | {u}
                    fresh.add(n)
        changed = []
        # driver -> the vertices just claimed by another driver
        taken: dict[NodeKey, set] = {}
        for pair, rps in routes.items():
            u = pair[0]
            if u not in taken:
                own = {u}
                taken[u] = {n for n in fresh if claims[n] != own}
            keep = tuple(entry for entry in rps
                         if taken[u].isdisjoint(entry[0]))
            if len(keep) == len(rps):
                continue
            if blocked is not None:
                own = {u}
                blocked[pair].update(
                    n for inner, _ in rps if not taken[u].isdisjoint(inner)
                    for n in inner if n in claims and claims[n] != own)
            elif not keep:
                return False
            routes[pair] = keep
            changed.append(pair)
    return all(routes.values())


def must_cross_blocks(pairs, cache: PathCache
                      ) -> dict[tuple[NodeKey, NodeKey], tuple[NodeKey, ...]]:
    """A proof, found without search, that no choice of one cached route
    per (driver unit, sink unit) pair of a placement meets con6: the
    connections it leaves with no route, each with the vertices that
    blocked its routes; empty when it proves nothing. A connection must
    cross every interior vertex all its routes share, and by con6 no
    other driver's route may then cross that vertex, so such routes are
    dropped, until nothing more is (_cross). This is how route_search
    settles route_root's node. Relative to the cache, like the search."""
    routes, claims = route_root(pairs, cache)
    blocked: dict[tuple, set] = {pair: set() for pair in routes}
    _cross(routes, claims, list(routes), blocked)
    return {pair: tuple(sorted(blocked[pair]))
            for pair, rps in routes.items() if not rps}


def route_search(root, cfg):
    """Pick one route per connection of root, a (routes, claims) node
    from route_root or a screen_placements leaf, so that no routing
    vertex carries two drivers' signals (con5 and con6 over the cache),
    by _depth_first over each connection's routes, in pair order and
    cache order (shortest first, ties to the vertex sequence),
    propagating must_cross_blocks's fixpoint (_cross) at every node,
    the root included. No seed enters; of cfg, a solver.SolveConfig,
    only time_limit is read. Returns (status, routes, nodes): routes is
    {pair: route} when feasible, else None. Exact over the routes root
    holds: feasible exactly when some product of one route per pair
    meets con6 and the claims."""
    search = _depth_first(
        root, lambda node, changed: _cross(*node, changed),
        lambda node, pair: [(entry,) for entry in node[0][pair]], cfg)
    try:
        (routes, _), nodes = next(search)
    except StopIteration as end:
        return end.value[0], None, end.value[1]
    return "feasible", {pair: rps[0][1] for pair, rps in routes.items()}, nodes


def declare_p(model: IlpModel, cache: PathCache, pairs) -> None:
    for u, v in sorted(pairs):
        for q in range(len(cache.get((u, v)))):
            model.add_var(pvar(u, v, q))


def add_fu_exclusivity(model: IlpModel, f_of, fus) -> None:
    """con1 over declare_f's index: a row per unit in fus that some op
    fits."""
    by_u: dict[NodeKey, list[VarId]] = {}
    for units in f_of.values():
        for u, var in units.items():
            by_u.setdefault(u, []).append(var)
    for u in sorted(fus):
        terms = by_u.get(u)
        if terms:
            model.add_constraint([(1, v) for v in terms], "<=", 1, "con1")


def add_must_map(model: IlpModel, f_of) -> None:
    """con2 over declare_f's index, one row per op in its order."""
    for o, units in f_of.items():
        if not units:
            raise InfeasibleModel(f"operation {o} has no compatible unit")
        model.add_constraint([(1, v) for v in units.values()], "=", 1,
                             "con2")


def add_neighbor_required(model: IlpModel, dfg: Dfg, f_of) -> None:
    """con3 over the model's domain and declare_f's index."""
    drivers: dict[tuple, list[VarId]] = {}
    for o, u, p, v in model.domain:
        drivers.setdefault((o, p, v), []).append(f_of[o][u])
    for o, p in dfg.point_edges():
        for v, fv in f_of.get(p, {}).items():
            fs = drivers.get((o, p, v), ())
            if o == p and fs:
                continue  # the loop closes on the unit hosting it
            terms = [(1, fv)] + [(-1, f) for f in fs]
            model.add_constraint(terms, "<=", 0, "con3")


def add_implication(model: IlpModel, members, var: VarId, tag: str) -> None:
    """sum(members) - M*var <= 0, M the number of members: any member on
    needs var on."""
    terms = [(1, m) for m in members]
    terms.append((-len(terms), var))
    model.add_constraint(terms, "<=", 0, tag)


def add_path_required(model: IlpModel, cache: PathCache, f_of) -> None:
    """con5 over the model's domain and declare_f's index."""
    for o, u, p, v in model.domain:
        terms = [(1, f_of[o][u])] + [(-1, pvar(u, v, q))
                                     for q in range(len(cache.get((u, v))))]
        if o != p:
            terms.append((1, f_of[p][v]))
        model.add_constraint(terms, "<=", int(o != p), "con5")


def _interior_buckets(model: IlpModel, cache: PathCache):
    # vertex -> driver unit -> path vars of that driver whose interior
    # crosses the vertex
    buckets: dict[NodeKey, dict[NodeKey, list[VarId]]] = {}
    for var in model.variables:
        if var.cls != "p":
            continue
        u, v, q = var.idx
        for n in cache[(u, v)][q].interior():
            buckets.setdefault(n, {}).setdefault(u, []).append(var)
    return buckets


def add_path_exclusivity(model: IlpModel, cache: PathCache) -> None:
    """At most one signal (driver unit) per routing vertex. For each
    vertex n crossed by paths of more than one driver: one y[n,u] per
    driver u, one claim row sum(p of u crossing n) - M*y[n,u] <= 0 with
    M the number of those paths, and sum_u y[n,u] <= 1. This admits
    exactly the path sets in which no two paths of distinct drivers
    share an interior vertex; paths of one driver may share one."""
    buckets = _interior_buckets(model, cache)
    for n in sorted(buckets):
        by_driver = buckets[n]
        if len(by_driver) <= 1:
            continue
        ys = []
        for u in sorted(by_driver):
            y = model.add_var(yvar(n, u))
            ys.append((1, y))
            add_implication(model, by_driver[u], y, "con6")
        model.add_constraint(ys, "<=", 1, "con6")


@gc_paused
def build_variant(variant: str, dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap,
                  cache: PathCache, *,
                  paths_per_connection: int | None = None) -> IlpModel:
    """The combined model over the neighbour map and the path cache.
    Metadata records nn and the cache's k. The model reads every route
    the cache holds for a pair, so the caller picks the depth;
    paths_per_connection, if given, must equal the cache's k."""
    if variant != "combined":
        raise ValueError(f"unknown variant {variant!r}")
    if paths_per_connection is not None and paths_per_connection != cache.k:
        raise ValueError(f"paths_per_connection={paths_per_connection!r} "
                         f"is not the path cache's k")
    model = IlpModel(variant, nn=nmap.target_nn, k=cache.k)
    model.domain = neighbor_domain(dfg, mrrg, nmap)
    f_of = declare_f(model, dfg, mrrg)
    add_fu_exclusivity(model, f_of, fu_nodes(mrrg))
    add_must_map(model, f_of)
    add_neighbor_required(model, dfg, f_of)
    declare_p(model, cache, {(u, v) for _, u, _, v in model.domain})
    add_path_required(model, cache, f_of)
    add_path_exclusivity(model, cache)
    return model


def audit(model: IlpModel, dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap,
          cache: PathCache) -> list[str]:
    """Re-derive every variable's and domain entry's existence
    precondition and the model's structural invariants; returns found
    problems."""
    problems = []
    ops = dfg.ops_by_id
    edges = set(dfg.point_edges())
    for o, u, p, v in model.domain:
        if not ((o, p) in edges and u in compatible_nodes(mrrg, ops[o])
                and v in compatible_nodes(mrrg, ops[p]) and v in nmap[u]
                and (o != p or u == v)):
            problems.append(f"domain entry out of reach: {(o, u, p, v)}")
    crossed = set()  # (vertex, driver) of every in-domain path's interior
    ys = []
    for var in model.variables:
        if var.cls == "f":
            o, u = var.idx
            if o not in ops or u not in compatible_nodes(mrrg, ops[o]):
                problems.append(f"f out of domain: {var}")
        elif var.cls == "p":
            u, v, q = var.idx
            if q >= len(cache.get((u, v))):
                problems.append(f"p out of domain: {var}")
            else:
                crossed.update((n, u) for n in cache[(u, v)][q].interior())
        elif var.cls == "y":
            ys.append(var)
        else:
            problems.append(f"unknown class: {var}")
    for var in ys:
        if var.idx not in crossed:
            problems.append(f"y out of domain: {var}")
    declared = set(model.variables)
    if len(declared) != len(model.variables):
        problems.append("duplicate variable declaration")
    con6 = set()
    for con in model.constraints:
        vs = [v for _, v in con.terms]
        if len(set(vs)) != len(vs):
            problems.append(f"duplicate term in {con.tag} row")
        for v in vs:
            if v not in declared:
                problems.append(f"{con.tag} row references undeclared {v}")
        if con.tag == "con6":
            paths = [c for c, v in con.terms if v.cls == "p"]
            signals = [c for c, v in con.terms if v.cls == "y"]
            if paths and (set(paths) != {1} or signals != [-len(paths)]
                          or (con.relation, con.rhs) != ("<=", 0)):
                problems.append("malformed con6 claim row")
            # rows keep their builders' term order
            key = (frozenset(con.terms), con.relation, con.rhs)
            if key in con6:
                problems.append("duplicate con6 row")
            con6.add(key)
    return problems
