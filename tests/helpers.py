"""Reference oracles for the test suite, a runner for checks that need
a fresh interpreter, the kernels, with placements of one of them, and
a cache depth past the mapper's, that more than one test module reads,
a probe of the screen search's root node, the screen rows of a combined
model, and a generator drain.

Every oracle is written against the documented semantics only and stays
independent of the package's search and model-building code paths: plain
fixpoint scans, exhaustive recursion, no shared helpers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SUM4 = ("op a add\nop b add\nop c add\nop s add\n"
        "edge a -> c:0\nedge b -> c:1\nedge c -> s:0\nedge a -> s:1\n")
FAN3 = "op a add\nop b add\nop c add\nop d add\nedge a -> b:0, c:0, d:0\n"
DIAMOND = ("op a add\nop b add\nop c add\nop d add\n"
           "edge a -> b:0, c:0\nedge b -> d:0\nedge c -> d:1\n")
ACC = "op ld load\nop acc add\nedge ld -> acc:1\nedge acc -> acc:0\n"
TREE5 = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
         "edge a -> b:0\nedge b -> c:0, d:0\nedge c -> e:0\n")
JOIN = "op a add\nop b add\nop c add\nedge a -> c:0\nedge b -> c:1\n"
LDST = "op ld load\nop st store\nedge ld -> st:0\n"
# routes per pair in the deep caches tests check the searches over: many
# pairs of a 4x4 fabric have more, many of a 2x2 one fewer
DEEP = 20
# 12 ops: four loads, each squared, the squares summed pairwise into one
# stored value
FIR4 = "".join(f"op x{i} load\nop m{i} mul\n" for i in range(4)) + (
    "op a0 add\nop a1 add\nop a2 add\nop st store\n"
    + "".join(f"edge x{i} -> m{i}:0, m{i}:1\n" for i in range(4))
    + "edge m0 -> a0:0\nedge m1 -> a0:1\nedge m2 -> a1:0\n"
    "edge m3 -> a1:1\nedge a0 -> a2:0\nedge a1 -> a2:1\nedge a2 -> st:0\n")
# a placement of fir4 that meets con1-con3 at NN 10 on 4x4 HyCUBE at II
# 2, and that must-cross refutes: a1 and a2 share PE 0_1 in consecutive
# contexts. The NN-10 screen search at seed 1 yields it first over
# routes that cross no vertex, and prunes it over SHALLOW_PATHS routes
FIR4_HYCUBE_PLACEMENT = {
    "a0": ("pe_1_1.alu", 0), "a1": ("pe_0_1.alu", 0), "a2": ("pe_0_1.alu", 1),
    "m0": ("pe_1_2.alu", 1), "m1": ("pe_1_1.alu", 1), "m2": ("pe_0_0.alu", 1),
    "m3": ("pe_0_2.alu", 1), "st": ("mem_2", 1), "x0": ("mem_2", 0),
    "x1": ("mem_1", 0), "x2": ("mem_0", 0), "x3": ("mem_3", 0)}
# the placement fir4 maps with on 4x4 HyCUBE at II 2 under seed 3, the
# first of its NN-10 screen search, which routes on SHALLOW_PATHS routes
FIR4_HYCUBE_ROUTED = {
    "a0": ("pe_1_1.alu", 0), "a1": ("pe_1_3.alu", 0), "a2": ("pe_1_2.alu", 1),
    "m0": ("pe_1_0.alu", 1), "m1": ("pe_0_1.alu", 1), "m2": ("pe_0_3.alu", 1),
    "m3": ("pe_1_3.alu", 1), "st": ("mem_2", 1), "x0": ("mem_0", 0),
    "x1": ("mem_1", 0), "x2": ("mem_2", 0), "x3": ("mem_3", 0)}


def under_hash_seeds(call: str) -> list[str]:
    """What `print(<call>)` writes under PYTHONHASHSEED 0 and 1, with the
    test module that call names first imported (test_paths for
    "test_paths.digest()")."""
    tests = Path(__file__).resolve().parent
    module = call.split(".", 1)[0]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                               str(tests)]))
        run = subprocess.run(
            [sys.executable, "-c", f"import {module}; print({call})"],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


def fu_depths(mrrg, source):
    """Hop depth of every FU discoverable from source.

    Plain layered reachability, recomputing each layer from the visited set.
    FUs terminate exploration; the source only gains a depth if some
    expanded vertex points back at it.
    """
    depths = {}
    visited = {source}
    layer = [source]
    depth = 0
    while layer:
        depth += 1
        nxt = []
        for n in layer:
            for m in mrrg.fanout(n):
                if m == source:
                    depths.setdefault(source, depth)
                    continue
                if m in visited:
                    continue
                visited.add(m)
                if mrrg.is_fu(m):
                    depths.setdefault(m, depth)
                else:
                    nxt.append(m)
        layer = nxt
    return depths


def neighbors_oracle(mrrg, source, target):
    """Wave rule replayed over the global depth map: take whole depth
    groups in order until the running count reaches the target."""
    depths = fu_depths(mrrg, source)
    by_depth = {}
    for fu, d in depths.items():
        by_depth.setdefault(d, []).append(fu)
    picked = []
    for d in sorted(by_depth):
        if len(picked) >= target:
            break
        picked.extend(by_depth[d])
    return tuple(sorted(picked))


def satisfies(constraints, on_vars):
    """Evaluate 0/1 rows directly: variables in on_vars are 1, all other
    variables 0."""
    on = set(on_vars)
    for con in constraints:
        lhs = sum(c for c, v in con.terms if v in on)
        if con.relation == "<=" and lhs > con.rhs:
            return False
        if con.relation == ">=" and lhs < con.rhs:
            return False
        if con.relation == "=" and lhs != con.rhs:
            return False
    return True


def all_simple_paths(mrrg, u, v):
    """Every simple path from FU u to FU v whose interior vertices are
    routing nodes. For u == v, cycles through u (length >= 1). Exhaustive
    recursion; intended for small graphs."""
    return simple_paths_from(mrrg, u, v).get(v, [])


def simple_paths_from(mrrg, u, sink=None):
    """all_simple_paths from u to every FU, by sink, in one walk: the
    walk through routing nodes does not depend on the sink, which only
    decides where a path is recorded. Given a sink, only the paths that
    end there are recorded, so a large fabric keeps only those."""
    fus = {k for k in mrrg.nodes if mrrg.is_fu(k)}
    paths = {}
    seen = {u}

    def walk(n, acc):
        for m in mrrg.fanout(n):
            if m in fus:
                # an FU ends a path and is never expanded through
                if sink is None or m == sink:
                    paths.setdefault(m, []).append((u, *acc, m))
                continue
            if m in seen:
                continue
            seen.add(m)
            acc.append(m)
            walk(m, acc)
            acc.pop()
            seen.discard(m)

    walk(u, [])
    return paths


def exhaustive(model):
    """Whether any of the 2^n assignments satisfies every row. Small
    models only; the solver tests lean on this as the ground truth."""
    from itertools import product

    from cgramap.solver import check_assignment

    names = list(model.variables)
    return any(not check_assignment(model.constraints, dict(zip(names, bits)))
               for bits in product((0, 1), repeat=len(names)))


def baseline_point(solution):
    """The 0/1 point a valid mapping induces in the per-node baseline:
    f[op, unit] for each placed op, and z[d, n] and r[d, n, l] for each
    interior node n at hop l of a route of driver d. Every variable left
    out is 0."""
    from cgramap.ilp import VarId

    point = {VarId("f", (op, u)): 1 for op, u in solution.placement.items()}
    for driver, routes in solution.routing.items():
        for route in routes:
            for hop, n in enumerate(route.vertices[1:-1], start=1):
                point[VarId("z", (driver, n))] = 1
                point[VarId("r", (driver, n, hop))] = 1
    return point


def mapping_solution(placement, routes):
    """A MappingSolution from a placement and one route per (driver,
    sink) connection, the form extract_mapping returns."""
    from cgramap.mapper import MappingSolution

    routing = {}
    for (driver, _), route in sorted(routes.items()):
        routing.setdefault(driver, []).append(route)
    return MappingSolution(placement, {d: tuple(rs) for d, rs
                                       in routing.items()}, 0)


def drain(stream):
    """The items a generator yields, and what it returns."""
    items = []
    while True:
        try:
            items.append(next(stream))
        except StopIteration as stop:
            return items, stop.value


def refuted_at_root(dfg, mrrg, nmap, cache) -> bool:
    """Whether the screen search over the cache ends at its root node
    with no placement: arc consistency, the unit matching and must-cross
    over the routes of the connections whose ends the root fixes prove,
    before any branch, that none exists. Not an oracle: it runs the
    package's search."""
    from cgramap.ilp import screen_placements
    from cgramap.solver import INFEASIBLE, SolveConfig

    # one read: a stream that yields a placement was not refuted there
    try:
        next(screen_placements(dfg, mrrg, nmap, SolveConfig(seed=1), cache))
    except StopIteration as end:
        return end.value == (INFEASIBLE, 1)
    return False


def screen_of(model):
    """The placement screen of a combined model: its f variables, in
    declaration order, and its con1-con3 rows."""
    from cgramap.ilp import IlpModel

    screen = IlpModel(model.variant)
    for var in model.variables:
        if var.cls == "f":
            screen.add_var(var)
    screen.constraints = [c for c in model.constraints
                          if c.tag in ("con1", "con2", "con3")]
    return screen


def placements(dfg, mrrg, nmap=None):
    """Every assignment of the operations to distinct compatible units,
    as op -> unit, each once. Given nmap, only those where each DFG
    edge's sink unit is in its driver unit's neighbour list, a loop
    edge's unit being its own neighbour. Exhaustive recursion over the
    operations in DFG order, each edge checked once both its ends are
    placed. The reference the screen search is checked against."""
    from cgramap.mrrg import compatible_nodes

    ops = [op.id for op in dfg.operations]
    cands = {op.id: compatible_nodes(mrrg, op) for op in dfg.operations}
    # the edges each operation closes: those whose other end comes first
    closes = {o: [] for o in ops}
    if nmap is not None:
        at = {o: i for i, o in enumerate(ops)}
        for o, p in dfg.point_edges():
            closes[max(o, p, key=at.get)].append((o, p))
    placement = {}

    def place(i):
        if i == len(ops):
            yield dict(placement)
            return
        o = ops[i]
        for u in cands[o]:
            if u in placement.values():
                continue
            placement[o] = u
            if all(placement[p] in nmap[placement[d]] for d, p in closes[o]):
                yield from place(i + 1)
            del placement[o]

    return place(0)


def routable(pairs, cache) -> bool:
    """Whether some choice of one cached route per (driver unit, sink
    unit) pair leaves no interior vertex to two drivers: the product of
    the pairs' cached routes, tried in pair order, a choice that clashes
    with the ones before it ending its branch. The reference the routing
    search is checked against."""
    pairs = sorted(pairs)

    def extend(i, owner):
        if i == len(pairs):
            return True
        u = pairs[i][0]
        for rp in cache.get(pairs[i]):
            if all(owner.get(n, u) == u for n in rp.vertices[1:-1]):
                if extend(i + 1, {**owner,
                                  **{n: u for n in rp.vertices[1:-1]}}):
                    return True
        return False

    return extend(0, {})


def brute_force_mappable(dfg, mrrg):
    """Exhaustive search over total placements and per-connection simple
    paths, with interiors of different drivers kept disjoint. Ground
    truth for tiny instances."""
    pairs = dfg.point_edges()
    path_cache = {}

    def paths_for(u, v):
        if (u, v) not in path_cache:
            path_cache[u, v] = all_simple_paths(mrrg, u, v)
        return path_cache[u, v]

    def routable(placement):
        order = sorted(pairs, key=lambda e: len(paths_for(placement[e[0]],
                                                          placement[e[1]])))
        taken = []

        def rec(i):
            if i == len(order):
                return True
            o, _ = order[i]
            u, v = placement[order[i][0]], placement[order[i][1]]
            for path in paths_for(u, v):
                interior = set(path[1:-1])
                if any(o2 != o and (interior & used) for o2, used in taken):
                    continue
                taken.append((o, interior))
                if rec(i + 1):
                    return True
                taken.pop()
            return False

        return rec(0)

    return any(routable(placement) for placement in placements(dfg, mrrg))
