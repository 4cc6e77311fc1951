"""0/1 model construction for placement and routing.

Four variable classes: f (operation o sits on unit u), e (DFG edge from
o on u to p on v), p (path q between units u and v is switched on), y
(routing vertex n carries the signal of driver unit u). The constraint
families:

  con1  unit exclusivity: each FU hosts at most one operation
  con2  must map: every operation placed exactly once
  con3  fanin required: a placed sink needs an incoming edge assignment
  con4  fanout implies usage: an edge assignment claims its driver unit
  con5  path required: an assigned edge needs a switched-on path
  con6  path exclusivity: a routing vertex carries at most `limit`
        signals; a path switched on claims its driver's y at every
        interior vertex

Four variants are built from these: placement_only (con1-4),
relaxed_placement (con1-5, con6 at 2 signals per vertex), routing_only
(con5-6 with edge assignments fixed by a given placement) and combined
(con1-6 exact, con6 at 1 signal per vertex); a relaxed model can copy
con1-4 from the screen that passed before it. Variables and rows are
named tuples, which are built, hashed and sorted without Python code.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .dfg import Dfg
from .mrrg import Mrrg, NodeKey, compatible_nodes, fu_nodes
from .neighbors import NeighborMap
from .paths import PathCache

VARIANTS = ("placement_only", "relaxed_placement", "routing_only", "combined")
MODEL_KINDS = VARIANTS + ("baseline",)


class InfeasibleModel(Exception):
    """Construction already proves there is no solution."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class VarId(NamedTuple):
    """A model variable: its class letter and the tuple naming it. As a
    tuple it hashes as hash((cls, idx)), orders by (cls, idx) and is
    built, compared and looked up without running Python code."""

    cls: str
    idx: tuple


def fvar(op: str, u: NodeKey) -> VarId:
    return VarId("f", (op, u))


def evar(o: str, u: NodeKey, p: str, v: NodeKey) -> VarId:
    return VarId("e", (o, u, p, v))


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

    def add_var(self, var: VarId) -> VarId:
        if var not in self._declared:
            self._declared[var] = len(self.variables)
            self.variables.append(var)
        return var

    def add_constraint(self, terms, relation: str, rhs: int, tag: str) -> None:
        if relation not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {relation!r}")
        canon = tuple(sorted(terms, key=itemgetter(1)))
        prev = None
        # sorted, a repeated variable sits next to itself
        for _, v in canon:
            if v == prev:
                raise ValueError(f"duplicate variable {v} in constraint")
            if v not in self._declared:
                raise ValueError(f"constraint references undeclared {v}")
            prev = v
        self.constraints.append(LinearConstraint(canon, relation, rhs, tag))

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


def declare_f(model: IlpModel, dfg: Dfg, mrrg: Mrrg) -> None:
    """Each op's compatible units; add_must_map rejects an op with none."""
    for op in dfg.operations:
        for u in compatible_nodes(mrrg, op):
            model.add_var(fvar(op.id, u))


def declare_e(model: IlpModel, dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap) -> None:
    ops = dfg.ops_by_id
    for o, p in dfg.point_edges():
        sinks = compatible_nodes(mrrg, ops[p])
        for u in compatible_nodes(mrrg, ops[o]):
            reach = set(nmap[u])
            for v in sinks:
                if v not in reach:
                    continue
                # a loop edge can only close on the unit hosting the op
                if o == p and v != u:
                    continue
                model.add_var(evar(o, u, p, v))


def used_pairs(model: IlpModel) -> list[tuple[NodeKey, NodeKey]]:
    return sorted({(var.idx[1], var.idx[3]) for var in model.variables
                   if var.cls == "e"})


def declare_p(model: IlpModel, cache: PathCache, pairs) -> None:
    for u, v in sorted(pairs):
        for q in range(len(cache.get((u, v)))):
            model.add_var(pvar(u, v, q))


def _f_index(model: IlpModel, by: int = 0) -> dict:
    """The f variables grouped by operation (by=0) or by unit (by=1)."""
    out: dict = {}
    for var in model.variables:
        if var.cls == "f":
            out.setdefault(var.idx[by], []).append(var)
    return out


def add_fu_exclusivity(model: IlpModel, fus) -> None:
    by_u = _f_index(model, 1)
    for u in sorted(fus):
        terms = by_u.get(u)
        if terms:
            model.add_constraint([(1, v) for v in terms], "<=", 1, "con1")


def add_must_map(model: IlpModel, dfg: Dfg) -> None:
    index = _f_index(model)
    for op in dfg.operations:
        terms = [(1, v) for v in index.get(op.id, ())]
        if not terms:
            raise InfeasibleModel(f"operation {op.id} has no compatible unit")
        model.add_constraint(terms, "=", 1, "con2")


def add_fanin_required(model: IlpModel, dfg: Dfg) -> None:
    e_by_opv: dict[tuple, list[VarId]] = {}
    for var in model.variables:
        if var.cls == "e":
            o, u, p, v = var.idx
            e_by_opv.setdefault((o, p, v), []).append(var)
    index = _f_index(model)
    for o, p in dfg.point_edges():
        for fv in index.get(p, ()):
            v = fv.idx[1]
            terms = [(1, fv)]
            terms += [(-1, ev) for ev in e_by_opv.get((o, p, v), ())]
            model.add_constraint(terms, "<=", 0, "con3")


def add_fanout_implies_usage(model: IlpModel) -> None:
    for var in list(model.variables):
        if var.cls == "e":
            o, u, p, v = var.idx
            model.add_constraint([(1, var), (-1, fvar(o, u))], "<=", 0, "con4")


def add_path_required(model: IlpModel, cache: PathCache) -> None:
    for var in list(model.variables):
        if var.cls != "e":
            continue
        o, u, p, v = var.idx
        terms = [(1, var)] + [(-1, pvar(u, v, q))
                              for q in range(len(cache.get((u, v))))]
        model.add_constraint(terms, "<=", 0, "con5")


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


def add_path_exclusivity(model: IlpModel, cache: PathCache,
                         overuse_limit: int) -> None:
    """At most overuse_limit signals (distinct driver units) per routing
    vertex. For each vertex crossed by paths of more drivers than that:
    one y[n,u] per driver u, p - y[n,u] <= 0 for each such path p, and
    sum_u y[n,u] <= overuse_limit.

    At limit 1 this admits exactly the path sets in which no two paths
    of distinct drivers share an interior vertex. Above 1 it counts
    signals, not paths: paths of one driver stack on a vertex as one
    signal, so two of them plus one foreign path fit under limit 2."""
    if overuse_limit < 1:
        raise ValueError("overuse_limit must be positive")
    buckets = _interior_buckets(model, cache)
    for n in sorted(buckets):
        by_driver = buckets[n]
        if len(by_driver) <= overuse_limit:
            continue
        ys = []
        for u in sorted(by_driver):
            y = model.add_var(yvar(n, u))
            ys.append((1, y))
            for pv in by_driver[u]:
                model.add_constraint([(1, pv), (-1, y)], "<=", 0, "con6")
        model.add_constraint(ys, "<=", overuse_limit, "con6")


def build_variant(variant: str, dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap,
                  cache: PathCache | None = None, *,
                  paths_per_connection: int | None = None,
                  placement: dict[str, NodeKey] | None = None,
                  screen: IlpModel | None = None) -> IlpModel:
    """One model variant over the neighbour map and, past the screen,
    the path cache. Metadata records nn and the cache's k. Every variant
    reads every route the cache holds for a pair, so the caller picks
    the depth; paths_per_connection, if given, must equal the cache's k.
    Given screen, the placement_only model over the same dfg, mrrg and
    nmap, the relaxed model copies its variables and con1-4 rows instead
    of building them again."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if paths_per_connection is not None and (
            cache is None or paths_per_connection != cache.k):
        raise ValueError(f"paths_per_connection={paths_per_connection!r} "
                         f"is not the path cache's k")
    if screen is not None and (
            variant != "relaxed_placement"
            or screen.variant != "placement_only"
            or screen.metadata.get("nn") != nmap.target_nn):
        raise ValueError(f"{variant} at NN {nmap.target_nn} cannot extend a "
                         f"{screen.variant} at NN {screen.metadata.get('nn')}")
    if variant == "routing_only":
        return _build_routing_only(dfg, mrrg, nmap, cache, placement)
    model = IlpModel(variant, nn=nmap.target_nn,
                     k=cache.k if cache else None)
    if screen is None:
        declare_f(model, dfg, mrrg)
        declare_e(model, dfg, mrrg, nmap)
        add_fu_exclusivity(model, fu_nodes(mrrg))
        add_must_map(model, dfg)
        add_fanin_required(model, dfg)
        add_fanout_implies_usage(model)
    else:
        for var in screen.variables:
            model.add_var(var)
        model.constraints = list(screen.constraints)
    if variant == "placement_only":
        return model
    if cache is None:
        raise ValueError(f"{variant} needs a path cache")
    limit = 2 if variant == "relaxed_placement" else 1
    model.metadata["overuse_limit"] = limit
    declare_p(model, cache, used_pairs(model))
    add_path_required(model, cache)
    add_path_exclusivity(model, cache, limit)
    return model


def _build_routing_only(dfg, mrrg, nmap, cache, placement):
    if placement is None:
        raise ValueError("routing_only needs a fixed placement")
    if cache is None:
        raise ValueError("routing_only needs a path cache")
    ops = dfg.ops_by_id
    taken: dict[NodeKey, str] = {}
    for o, u in placement.items():
        if u not in compatible_nodes(mrrg, ops[o]):
            raise InfeasibleModel(f"operation {o} placed on incompatible {u}")
        if u in taken:
            raise InfeasibleModel(f"unit {u} hosts both {taken[u]} and {o}")
        taken[u] = o
    model = IlpModel("routing_only", nn=nmap.target_nn, k=cache.k,
                     overuse_limit=1)
    pairs = []
    for o, p in dfg.point_edges():
        if o not in placement or p not in placement:
            raise ValueError(f"routing_only placement misses edge ({o}, {p})")
        u, v = placement[o], placement[p]
        if v not in nmap[u]:
            raise InfeasibleModel(f"no neighborhood route {u} -> {v}")
        pairs.append((u, v))
    for u, v in sorted(set(pairs)):
        terms = [(1, model.add_var(pvar(u, v, q)))
                 for q in range(len(cache.get((u, v))))]
        if not terms:
            raise InfeasibleModel(f"no cached path {u} -> {v}")
        model.add_constraint(terms, ">=", 1, "con5")
    add_path_exclusivity(model, cache, 1)
    return model


def audit(model: IlpModel, dfg: Dfg, mrrg: Mrrg, nmap: NeighborMap,
          cache: PathCache | None = None) -> list[str]:
    """Re-derive every variable's existence precondition and the model's
    structural invariants; returns found problems."""
    problems = []
    ops = dfg.ops_by_id
    edges = set(dfg.point_edges())
    crossed = set()  # (vertex, driver) of every in-domain path's interior
    ys = []
    for var in model.variables:
        if var.cls == "f":
            o, u = var.idx
            if o not in ops or u not in compatible_nodes(mrrg, ops[o]):
                problems.append(f"f out of domain: {var}")
        elif var.cls == "e":
            o, u, p, v = var.idx
            ok = ((o, p) in edges
                  and o in ops and u in compatible_nodes(mrrg, ops[o])
                  and p in ops and v in compatible_nodes(mrrg, ops[p])
                  and v in nmap[u])
            if not ok:
                problems.append(f"e out of domain: {var}")
        elif var.cls == "p":
            u, v, q = var.idx
            if cache is None or q >= len(cache.get((u, v))):
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
            key = (con.terms, con.relation, con.rhs)
            if key in con6:
                problems.append("duplicate con6 row")
            con6.add(key)
    return problems
