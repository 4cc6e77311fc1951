import gc
import hashlib
import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from cgramap import solver
from cgramap.baseline import build_baseline
from cgramap.dfg import Dfg, Operation, parse_dfg
from cgramap.ilp import (IlpModel, InfeasibleModel, VarId,
                         add_fu_exclusivity, add_implication, add_must_map,
                         add_path_exclusivity, audit, build_variant,
                         declare_f, fvar, must_cross_blocks, placeable,
                         pvar, route_root, route_search, screen_placements,
                         yvar)
from cgramap.mapper import SHALLOW_PATHS
from cgramap.mrrg import ArchSpec, build_mrrg, compatible_nodes, fu_nodes
from cgramap.neighbors import NeighborMap, build_neighbor_map
from cgramap.paths import PathCache, RoutePath, build_path_cache

from helpers import (ACC, DEEP, DIAMOND, FAN3, FIR4, FIR4_HYCUBE_PLACEMENT,
                     SUM4, routable, satisfies, screen_of)

EXPR_TEXT = """\
# a = b * (c + d)
op b input
op c input
op d input
op add0 add
op mul0 mul
op a output
edge c -> add0:0
edge d -> add0:1
edge b -> mul0:0
edge add0 -> mul0:1
edge mul0 -> a:0
"""


def test_varid_hash_repr_order_and_immutability():
    a, b = fvar("add0", ("pe_0_0.alu", 0)), pvar(("x", 0), ("y", 1), 2)
    for var in (a, b):
        assert hash(var) == hash((var.cls, var.idx))
    assert repr(a) == "VarId(cls='f', idx=('add0', ('pe_0_0.alu', 0)))"
    assert a == VarId("f", ("add0", ("pe_0_0.alu", 0))) and a != b
    assert sorted([b, a]) == [a, b] and a < b
    assert fvar("a", ("u", 1)) < fvar("a", ("u", 2)) < fvar("b", ("u", 0))
    with pytest.raises(AttributeError):
        a.cls = "p"
    with pytest.raises(AttributeError):
        a.idx = ()


@pytest.fixture(scope="module")
def inst():
    dfg = parse_dfg(EXPR_TEXT)
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    nmap = build_neighbor_map(m, 4)
    cache = build_path_cache(m, nmap, 20)
    return dfg, m, nmap, cache


@pytest.fixture(scope="module")
def shallow(inst):
    _, m, nmap, _ = inst
    return build_path_cache(m, nmap, SHALLOW_PATHS)


@pytest.fixture(scope="module")
def combined(inst):
    dfg, m, nmap, cache = inst
    return build_variant("combined", dfg, m, nmap, cache)


def edge_domain(dfg, m, nmap):
    ops = dfg.ops_by_id
    dom = []
    for o, p in dfg.point_edges():
        for u in compatible_nodes(m, ops[o]):
            for v in compatible_nodes(m, ops[p]):
                if v in nmap[u] and (o != p or u == v):
                    dom.append((o, u, p, v))
    return dom


def count(model, tag):
    return sum(1 for c in model.constraints if c.tag == tag)


def signal_rows(cons):
    """Split the con6 rows into path -> signals it claims (claim rows
    sum(p) - M*y <= 0: +1 p terms and one y term of minus their count)
    and signal sum rows (rows of +1 y terms <= 1); fails on any other
    shape, since admits() relies on these two."""
    claims, sums = {}, []
    for c in cons:
        if c.tag != "con6":
            continue
        paths = [v for k, v in c.terms if k == 1 and v.cls == "p"]
        if paths:
            *_, (m, y) = c.terms
            assert [v for _, v in c.terms] == paths + [y]
            assert (y.cls, m, c.relation, c.rhs) == ("y", -len(paths), "<=", 0)
            for pv in paths:
                claims.setdefault(pv, set()).add(y)
        else:
            assert c.relation == "<=" and c.rhs == 1
            assert all(k == 1 and v.cls == "y" for k, v in c.terms)
            sums.append(c)
    return claims, sums


def admits(cons, on_paths):
    """Whether the rows hold with the given paths on, all other paths
    off, and some choice of signal variables. A y occurs with a negative
    coefficient only in its claim row and with +1 elsewhere, so the
    claimed signals are the choice to try."""
    claims, _ = signal_rows(cons)
    on = set(on_paths)
    return satisfies(cons, on.union(*(claims.get(p, ()) for p in on)))


def test_variable_domains_and_counts(inst, combined):
    dfg, m, nmap, cache = inst
    model = combined
    by_cls = model.vars_by_class()
    n_f = sum(len(compatible_nodes(m, op)) for op in dfg.operations)
    dom = edge_domain(dfg, m, nmap)
    assert set(by_cls) == {"f", "p", "y"}
    assert len(by_cls["f"]) == n_f == 6 * 9
    assert sorted(model.domain) == sorted(dom)
    pairs = {(u, v) for _, u, _, v in dom}
    assert {v.idx[:2] for v in by_cls["p"]} == pairs
    n_p = sum(min(20, len(cache.get(pr))) for pr in pairs)
    assert len(by_cls["p"]) == n_p
    assert audit(model, dfg, m, nmap, cache) == []


def test_constraint_family_recounts(inst, combined):
    dfg, m, nmap, cache = inst
    model = combined
    hosts = {u for op in dfg.operations for u in compatible_nodes(m, op)}
    assert count(model, "con1") == len(hosts) == 9
    assert count(model, "con2") == len(dfg.operations) == 6
    eqs = [c for c in model.constraints if c.tag == "con2" and c.relation == "="]
    assert len(eqs) == 6  # every operation is placed exactly once
    ops = dfg.ops_by_id
    # one neighbour row per (edge, sink unit); the expression has no loop
    n_con3 = sum(len(compatible_nodes(m, ops[p])) for _, p in dfg.point_edges())
    assert count(model, "con3") == n_con3 == 5 * 9
    assert count(model, "con4") == 0
    # one path row per placement of an edge on a neighbour pair
    assert count(model, "con5") == len(edge_domain(dfg, m, nmap))


def test_exact_con6_admits_exactly_the_pairwise_sets(inst, combined):
    # two paths may both be on, with some signal variables, iff they are
    # not a pairwise conflict: distinct drivers and a shared interior
    # vertex
    dfg, m, nmap, cache = inst
    model = combined
    pvars = model.vars_by_class()["p"]
    claims, sums = signal_rows(model.constraints)
    row_of = {}
    for r, row in enumerate(sums):
        assert row.rhs == 1
        for _, y in row.terms:
            row_of.setdefault(y, []).append(r)
    # per path: its interior, and the signal it claims in each sum row;
    # with rhs 1 two paths fit iff no sum row gets two distinct claims
    interior, seats = {}, {}
    for pv in pvars:
        u, v, q = pv.idx
        interior[pv] = frozenset(cache[(u, v)][q].interior())
        seats[pv] = {}
        for y in claims.get(pv, ()):
            for r in row_of.get(y, ()):
                assert r not in seats[pv]  # one path alone always fits
                seats[pv][r] = y
    conflicts = 0
    for a, b in combinations(pvars, 2):
        conflict = (a.idx[0] != b.idx[0]
                    and not interior[a].isdisjoint(interior[b]))
        conflicts += conflict
        sb = seats[b]
        fits = all(sb.get(r, y) == y for r, y in seats[a].items())
        assert fits != conflict, (a, b)
    assert conflicts > 0
    # one claim row per (vertex, driver), which is one per signal
    # variable, and one sum row per contested vertex
    ys = model.vars_by_class()["y"]
    assert count(model, "con6") == len(ys) + len(sums)


@pytest.mark.parametrize("variant", ["combined"])
@pytest.mark.parametrize("depth", ["shallow", "deep"])
def test_models_read_every_cached_route(inst, shallow, variant, depth):
    # the cache alone sets route depth: each pair a model reads gets one
    # path variable per route the cache holds for it
    dfg, m, nmap, deep = inst
    cache = shallow if depth == "shallow" else deep
    model = build_variant(variant, dfg, m, nmap, cache)
    read = {(u, v) for _, u, _, v in model.domain}
    got = {}
    for var in model.variables:
        if var.cls == "p":
            pair = var.idx[:2]
            got[pair] = got.get(pair, 0) + 1
    assert got == {pair: len(cache[pair]) for pair in read if cache[pair]}
    assert any(len(cache[pair]) > SHALLOW_PATHS for pair in read) == (
        depth == "deep")


# (kernel, fabric, II, neighbour counts), None standing for the full
# neighbour count
PINNED_MODELS = [(SUM4, ArchSpec("adres", 2, 2), 2, (4, 8, None)),
                 (DIAMOND, ArchSpec("adres", 2, 2), 2, (4, 8, None)),
                 (ACC, ArchSpec("adres", 2, 2), 2, (4, 8, None)),
                 (FAN3, ArchSpec("ortho", 2, 3), 1, (None,))]


def test_path_models_are_pinned():
    # a rewrite of the builders must give the same combined models: the
    # same variables in the same order, the same rows with the same
    # terms in the same order, and the same domain. Each is built over
    # SHALLOW_PATHS and DEEP routes
    h = hashlib.sha256()
    built = 0
    for text, spec, ii, nns in PINNED_MODELS:
        dfg, m = parse_dfg(text), build_mrrg(spec, ii)
        for nn in nns:
            nmap = build_neighbor_map(m, nn or len(fu_nodes(m)))
            for k in (SHALLOW_PATHS, DEEP):
                model = build_variant("combined", dfg, m, nmap,
                                      build_path_cache(m, nmap, k))
                h.update(repr((model.variables, model.constraints,
                               model.domain)).encode())
                built += 1
    assert built == 20
    assert h.hexdigest() == (
        "9244562cdb42c95f105e25116a6bf7e6b24c4052a9ba3e384d917d3af58b567c")


def test_paths_per_connection_only_checks(inst, shallow):
    # the keyword may only restate the cache's k, as the benchmark's
    # combined decision passes it
    dfg, m, nmap, cache = inst
    for c in (cache, shallow):
        plain = build_variant("combined", dfg, m, nmap, c)
        named = build_variant("combined", dfg, m, nmap, c,
                              paths_per_connection=c.k)
        assert (named.variables, named.constraints, named.metadata) == (
            plain.variables, plain.constraints, plain.metadata)
    for ppc in (cache.k - 1, cache.k + 1, SHALLOW_PATHS):
        with pytest.raises(ValueError, match="paths_per_connection"):
            build_variant("combined", dfg, m, nmap, cache,
                          paths_per_connection=ppc)


def test_retired_variants_are_rejected(inst):
    # build_variant builds the combined model alone, and IlpModel takes
    # no kind but it and the baseline
    dfg, m, nmap, cache = inst
    with pytest.raises(ValueError, match="unknown variant 'relaxed_placement'"):
        IlpModel("relaxed_placement")
    with pytest.raises(ValueError, match="unknown variant 'placement_only'"):
        build_variant("placement_only", dfg, m, nmap, cache)
    # the baseline is build_baseline's
    with pytest.raises(ValueError, match="unknown variant 'baseline'"):
        build_variant("baseline", dfg, m, nmap, cache)


def shared_vertex_fixture():
    # three drivers funneling through one routing vertex x
    A, B, C = ("A", 0), ("B", 0), ("C", 0)
    Z, W, V = ("Z", 0), ("W", 0), ("V", 0)
    x, y = ("x", 0), ("y", 0)
    pa1 = RoutePath(A, Z, (A, x, Z))
    pa2 = RoutePath(A, Z, (A, y, x, Z))
    pb = RoutePath(B, W, (B, x, W))
    pc = RoutePath(C, V, (C, x, V))
    cache = PathCache(2, {(A, Z): (pa1, pa2), (B, W): (pb,), (C, V): (pc,)})
    model = IlpModel("combined")
    va1 = model.add_var(pvar(A, Z, 0))
    va2 = model.add_var(pvar(A, Z, 1))
    vb = model.add_var(pvar(B, W, 0))
    vc = model.add_var(pvar(C, V, 0))
    return model, cache, va1, va2, vb, vc


def test_exact_exclusivity_rows_and_dedup():
    model, cache, va1, va2, vb, vc = shared_vertex_fixture()
    add_path_exclusivity(model, cache)
    x = ("x", 0)
    ya, yb, yc = (yvar(x, (d, 0)) for d in "ABC")
    got = {(c.terms, c.rhs) for c in model.constraints}
    # only x is contested; y carries A alone and gets no rows
    # A's two paths share one claim row, its y weighted by their count
    assert got == {(((1, va1), (1, va2), (-2, ya)), 0),
                   (((1, vb), (-1, yb)), 0), (((1, vc), (-1, yc)), 0),
                   (((1, ya), (1, yb), (1, yc)), 1)}
    assert len(model.constraints) == len(got)
    assert model.vars_by_class()["y"] == [ya, yb, yc]
    cons = model.constraints
    assert admits(cons, {va1, va2})     # same driver may stack
    assert admits(cons, {va1})
    assert not admits(cons, {va1, vb})  # two signals on x
    assert not admits(cons, {vb, vc})


def test_must_map_variants():
    dfg = parse_dfg(EXPR_TEXT)
    bare = IlpModel("combined")
    with pytest.raises(InfeasibleModel, match="operation a has no"):
        add_must_map(bare, {op.id: {} for op in dfg.operations})
    # declare_f's index: every op, in DFG order, to its units' variables
    m = build_mrrg(ArchSpec("ortho", 3, 3), ii=1)
    model = IlpModel("combined")
    f_of = declare_f(model, dfg, m)
    assert f_of == {op.id: {u: fvar(op.id, u)
                            for u in compatible_nodes(m, op)}
                    for op in dfg.operations}
    assert model.variables == [v for units in f_of.values()
                               for v in units.values()]
    add_must_map(model, f_of)
    assert [(c.relation, c.rhs, {v.idx[0] for _, v in c.terms})
            for c in model.constraints] == [
                ("=", 1, {op.id}) for op in dfg.operations]


def test_add_constraint_keeps_terms_in_the_order_given():
    model = IlpModel("combined")
    a, b = model.add_var(fvar("a", ("u", 0))), model.add_var(pvar("u", "v", 0))
    model.add_constraint([(2, b), (1, a)], "<=", 1, "t")
    model.add_constraint([(1, a), (2, b)], "<=", 1, "t")
    assert [c.terms for c in model.constraints] == [((2, b), (1, a)),
                                                    ((1, a), (2, b))]
    # a bad relation, an undeclared variable or a repeated one is left
    # to the solver, which rejects each
    # (test_solver.py::test_malformed_rejected)
    ghost = fvar("ghost", ("u", 0))
    model.add_constraint([(1, ghost)], "<", 1, "t")
    assert model.constraints[-1] == (((1, ghost),), "<", 1, "t")
    model.add_constraint([(1, a), (1, b), (-1, a)], "<=", 1, "t")
    assert model.constraints[-1].terms == ((1, a), (1, b), (-1, a))


def test_fanin_empty_sum_forbids_unit(inst, combined):
    # a placed sink needs its driver on a unit that reaches the sink's:
    # with every such unit off, the row of edge (mul0, a) at a's unit
    # has an empty sum left and forbids the unit
    dfg, m, nmap, _ = inst
    con3 = [c for c in combined.constraints
            if c.tag == "con3"
            and any(k == 1 and v.idx[0] == "a" for k, v in c.terms)]
    drivers = compatible_nodes(m, dfg.ops_by_id["mul0"])
    for v in compatible_nodes(m, dfg.ops_by_id["a"]):
        sink = fvar("a", v)
        near = [u for u in drivers if v in nmap[u]]
        far = [fvar("mul0", u) for u in drivers if u not in near]
        assert near and far
        assert not satisfies(con3, {sink, *far})
        assert satisfies(con3, {sink, fvar("mul0", near[0])})


def test_loop_edge_closes_on_its_own_unit(inst):
    # one unit is its own neighbour and reaches no other; every other
    # unit reaches all units but itself
    _, m, _, _ = inst
    loop = parse_dfg("op a add\nedge a -> a:0\n")
    units = compatible_nodes(m, loop.ops_by_id["a"])
    own = units[4]
    nmap = NeighborMap(4, {u: (own,) if u == own else
                           tuple(x for x in units if x != u)
                           for u in fu_nodes(m)})
    cache = build_path_cache(m, nmap, SHALLOW_PATHS)
    model = build_variant("combined", loop, m, nmap, cache)
    assert model.domain == (("a", own, "a", own),)
    assert audit(model, loop, m, nmap, cache) == []
    screen = screen_of(model)
    rows = {c.terms: (c.relation, c.rhs) for c in screen.constraints
            if c.tag == "con3"}
    assert rows == {((1, fvar("a", u)),): ("<=", 0)
                    for u in units if u != own}
    res = solver.solve(screen, solver.SolveConfig())
    assert [v for v, x in res.assignment.items() if x] == [fvar("a", own)]


def edge_form(model, dfg, m, nmap, cache=None):
    """The reference: model's variables and rows with an edge variable
    e[o,u,p,v] per domain entry and the rows over it in place of con3
    and con5: con3 f[p,v] - sum_u e[o,u,p,v] <= 0, con4
    sum e[o,u,..] - M*f[o,u] <= 0 and, given cache, con5
    e[o,u,p,v] - sum_q p[u,v,q] <= 0."""
    ref = IlpModel(model.variant)
    for var in model.variables:
        ref.add_var(var)
    ref.constraints = [c for c in model.constraints
                       if c.tag not in ("con3", "con5")]
    dom = edge_domain(dfg, m, nmap)
    e = {d: ref.add_var(VarId("e", d)) for d in dom}
    for o, p in dfg.point_edges():
        for v in compatible_nodes(m, dfg.ops_by_id[p]):
            ref.add_constraint([(1, fvar(p, v))] + [
                (-1, e[d]) for d in dom if d[::2] == (o, p) and d[3] == v],
                "<=", 0, "con3")
    by_driver = {}
    for d in dom:
        by_driver.setdefault(d[:2], []).append(e[d])
    for (o, u), evs in by_driver.items():
        add_implication(ref, evs, fvar(o, u), "con4")
    if cache is not None:
        for d in dom:
            u, v = d[1], d[3]
            ref.add_constraint([(1, e[d])] + [
                (-1, pvar(u, v, q)) for q in range(len(cache.get((u, v))))],
                "<=", 0, "con5")
    return ref


def fixpoint(model, fixes, keep):
    """Fix (variable, value) pairs in order, propagating after each: the
    values of keep at the fixpoint, or "conflict"."""
    search = solver._Search(model)
    if search.propagate() is not None:
        return "conflict"
    for var, value in fixes:
        i = search.index[var]
        if search.val[i] >= 0:
            if search.val[i] != value:
                return "conflict"
            continue
        search.fix(i, value)
        if search.propagate() is not None:
            return "conflict"
    return tuple(search.val[search.index[v]] for v in keep)


def random_case(rng, m):
    """A DFG of 2-3 adds with random edges, loop edges among them, a
    random reach over the four ALUs of m, and 0-2 routes per reached
    pair, each with an empty interior (so no con6 rows)."""
    ops = "abc"[:rng.randint(2, 3)]
    edges = [(o, p) for o in ops for p in ops if rng.random() < 0.4]
    if not edges:
        edges = [(ops[0], ops[1])]
    text = "".join(f"op {o} add\n" for o in ops) + "".join(
        f"edge {o} -> {p}:{i}\n" for i, (o, p) in enumerate(edges))
    units = compatible_nodes(m, parse_dfg(text).ops_by_id[ops[0]])
    nmap = NeighborMap(0, {u: tuple(x for x in units if rng.random() < 0.5)
                           if u in units else () for u in fu_nodes(m)})
    cache = PathCache(2, {(u, v): (RoutePath(u, v, (u, v)),)
                          * rng.randint(0, 2)
                          for u in units for v in nmap[u]})
    return parse_dfg(text), nmap, cache


def test_neighbor_rows_propagate_as_the_edge_form():
    # con3 and con5 over f against the edge-variable rows they project:
    # (a) the screens force the same f from every partial f, (b) the
    # combined models admit the same complete (f, p) points, and (c) once
    # every f is fixed, as the search fixes them, the combined models
    # force the same p. Neither is asserted stronger on other partials.
    rng = random.Random(11)
    m = build_mrrg(ArchSpec("ortho", 1, 2), 2)
    forced = {"a": 0, "c": 0}
    for case in range(40):
        dfg, nmap, cache = random_case(rng, m)
        combined = build_variant("combined", dfg, m, nmap, cache)
        assert audit(combined, dfg, m, nmap, cache) == []
        screen = screen_of(combined)
        screens = screen, edge_form(screen, dfg, m, nmap)
        combineds = combined, edge_form(combined, dfg, m, nmap, cache)
        fs = screen.variables
        ps = [v for v in combined.variables if v.cls == "p"]
        ops = [op.id for op in dfg.operations]
        units = compatible_nodes(m, dfg.operations[0])

        def paths(u, v):
            return [pvar(u, v, q) for q in range(len(cache.get((u, v))))]

        for _ in range(40):
            fixes = [(v, rng.randint(0, 1)) for v in fs
                     if rng.random() < 0.3]
            rng.shuffle(fixes)
            got = [fixpoint(model, fixes, fs) for model in screens]
            assert got[0] == got[1], (case, fixes)
            forced["a"] += got[0] != "conflict" and (
                len(fs) - got[0].count(-1) > len(fixes))
        # each op on one unit, as con2 asks; with f and p given, the
        # largest e that con4 and con5 allow is the witness to try
        for placed in product(units, repeat=len(ops)):
            on_f = {fvar(o, u) for o, u in zip(ops, placed)}
            for _ in range(4):
                on_p = {v for v in ps if rng.random() < 0.5}
                witness = {VarId("e", d) for d in edge_domain(dfg, m, nmap)
                           if fvar(*d[:2]) in on_f
                           and not on_p.isdisjoint(paths(d[1], d[3]))}
                assert satisfies(combineds[0].constraints, on_f | on_p) == (
                    satisfies(combineds[1].constraints,
                              on_f | on_p | witness)), (case, placed)
        for _ in range(40):
            if rng.random() < 0.7:
                # a placement, which con1 and con2 do not reject at once
                placed = dict(zip(ops, rng.sample(units, len(ops))))
                fixes = [(v, int(placed[v.idx[0]] == v.idx[1])) for v in fs]
            else:
                fixes = [(v, int(rng.random() < 0.3)) for v in fs]
            rng.shuffle(fixes)
            later = [(v, rng.randint(0, 1)) for v in ps if rng.random() < 0.3]
            rng.shuffle(later)
            got = [fixpoint(model, fixes + later, fs + ps)
                   for model in combineds]
            assert got[0] == got[1], (case, fixes, later)
            forced["c"] += got[0] != "conflict" and (
                len(ps) - got[0][len(fs):].count(-1) > len(later))
    assert forced["a"] > 100 and forced["c"] > 50, forced


def test_zero_ops_zero_rows():
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    model = IlpModel("combined")
    add_fu_exclusivity(model, {}, fu_nodes(m))
    assert model.constraints == []


@pytest.mark.parametrize("k", [SHALLOW_PATHS, DEEP])
def test_must_cross_refutes_fir4_on_hycube(k):
    # every route of a1 -> a2 and of a2 -> st leaves through PE 0_1's
    # output at context 1, and those are two drivers, so no route of
    # either survives: no product of one cached route per connection
    # routes. The brute force that checks it runs on SHALLOW_PATHS
    # routes only, in milliseconds; at DEEP it ran 150 s unfinished
    dfg, m = parse_dfg(FIR4), build_mrrg(ArchSpec("hycube", 4, 4), 2)
    place = FIR4_HYCUBE_PLACEMENT
    pairs = [(place[o], place[p]) for o, p in dfg.point_edges()]
    nmap = build_neighbor_map(m, 10)
    cache = build_path_cache(m, nmap, k)
    out = ("pe_0_1.out", 1)
    shallow = (out, ("xb_0_1.to_e", 1), ("xb_1_1.to_w", 1))
    assert must_cross_blocks(pairs, cache) == {
        (place["a1"], place["a2"]): (out,),
        (place["a2"], place["st"]): shallow if k == SHALLOW_PATHS else (out,)}
    if k == SHALLOW_PATHS:
        assert not routable(pairs, cache)


def test_must_cross_keeps_a_routable_placement():
    # with a route each that shares nothing, nothing is dropped; with
    # one driver's only route crossing another's only interior vertex,
    # both connections empty, each blocked by that vertex
    a, b, c, d = ("a", 0), ("b", 0), ("c", 0), ("d", 0)
    n, w = ("n", 0), ("w", 0)
    cache = PathCache(k=1, paths={(a, b): (RoutePath(a, b, (a, n, b)),),
                                  (c, d): (RoutePath(c, d, (c, w, d)),)})
    assert must_cross_blocks([(a, b), (c, d)], cache) == {}
    cache = PathCache(k=1, paths={(a, b): (RoutePath(a, b, (a, n, b)),),
                                  (c, d): (RoutePath(c, d, (c, n, d)),),
                                  (a, d): (RoutePath(a, d, (a, n, d)),)})
    assert must_cross_blocks([(a, b), (c, d)], cache) == {
        (a, b): (n,), (c, d): (n,)}
    # routes of one driver may share a vertex
    assert must_cross_blocks([(a, b), (a, d)], cache) == {}


def three_drivers():
    """Three connections of distinct drivers, each with one route through
    vertex n and one through vertex w, and a cache of those routes."""
    n, w = ("n", 0), ("w", 0)
    three = [(("u", i), ("u", i + 1)) for i in (0, 2, 4)]
    return three, PathCache(k=2, paths={
        (x, y): (RoutePath(x, y, (x, n, y)), RoutePath(x, y, (x, w, y)))
        for x, y in three})


def test_route_search_refutes_past_its_root():
    # no vertex is shared by all of a connection's routes, so the root
    # node proves nothing, yet two vertices cannot carry three signals.
    # Each route tried for a -> b leaves c -> d one route, whose claim
    # empties e -> f: 3 nodes. Two of the drivers route, in 2 nodes
    three, cache = three_drivers()
    (a, b), (c, d), (e, f) = three
    paths = cache.paths
    cfg = solver.SolveConfig(time_limit=10)
    assert must_cross_blocks(three, cache) == {}
    assert route_search(route_root(three, cache), cfg) == (
        "infeasible", None, 3)
    assert route_search(route_root(three[:2], cache), cfg) == (
        "feasible", {(a, b): paths[a, b][0], (c, d): paths[c, d][1]}, 2)
    # a connection the cache holds no route for fails the root node
    assert must_cross_blocks([(a, b), (b, a)], cache) == {(b, a): ()}
    assert route_search(route_root([(a, b), (b, a)], cache), cfg) == (
        "infeasible", None, 1)


def test_route_search_reads_the_clock_at_every_node(monkeypatch):
    # a clock that moves one second per read and a 2 s limit: the
    # deadline is read at 1 s, nodes 1 and 2 read 2 s and 3 s, and
    # node 3, which would end the refutation above, reads 4 s and stops
    reads = iter(range(1, 100))
    monkeypatch.setattr("cgramap.ilp.time",
                        SimpleNamespace(monotonic=lambda: next(reads)))
    three, cache = three_drivers()
    assert route_search(route_root(three, cache),
                        solver.SolveConfig(time_limit=2)) == (
        "timeout", None, 3)


def test_screen_search_reads_the_clock_at_every_node(monkeypatch):
    # the clock above, on fir4's NN-4 screen on 4x4 ADRES at II 2, which
    # the search refutes in 7 nodes: node 3 reads 4 s and stops
    dfg, mrrg = parse_dfg(FIR4), build_mrrg(ArchSpec("adres", 4, 4), 2)
    nmap = build_neighbor_map(mrrg, 4)
    reads = iter(range(1, 100))
    monkeypatch.setattr("cgramap.ilp.time",
                        SimpleNamespace(monotonic=lambda: next(reads)))
    stream = screen_placements(dfg, mrrg, nmap,
                               solver.SolveConfig(seed=1, time_limit=2),
                               build_path_cache(mrrg, nmap, SHALLOW_PATHS))
    with pytest.raises(StopIteration) as stop:
        next(stream)
    assert stop.value.value == ("timeout", 3)


def test_audit_flags_out_of_domain(inst, shallow):
    dfg, m, nmap, _ = inst
    model = build_variant("combined", dfg, m, nmap, shallow)
    assert audit(model, dfg, m, nmap, shallow) == []
    # an input op on a const unit, a path variable one past the routes
    # the cache holds for its pair, a variable of a class no builder
    # makes, and a row over a variable the model never declared
    stray = model.add_var(fvar("b", ("pe_0_0.const", 0)))
    u, v, _ = next(var.idx for var in model.variables if var.cls == "p")
    past = model.add_var(pvar(u, v, len(shallow[(u, v)])))
    odd = model.add_var(VarId("e", (u, v)))
    ghost = fvar("ghost", u)
    model.add_constraint([(1, ghost)], "<=", 1, "con1")
    # (b, c) is no edge, and pe_0_0 does not reach pe_2_2 at NN 4
    far = ("b", ("pe_0_0.alu", 0), "mul0", ("pe_2_2.alu", 0))
    model.domain += (far, ("b", far[1], "c", far[3]))
    assert audit(model, dfg, m, nmap, shallow) == [
        f"domain entry out of reach: {far}",
        f"domain entry out of reach: {('b', far[1], 'c', far[3])}",
        f"f out of domain: {stray}", f"p out of domain: {past}",
        f"unknown class: {odd}", f"con1 row references undeclared {ghost}"]


def test_audit_flags_stray_signal_and_duplicate_con6(inst, shallow):
    dfg, m, nmap, _ = inst
    model = build_variant("combined", dfg, m, nmap, shallow)
    assert audit(model, dfg, m, nmap, shallow) == []
    # PE 2_0's output is interior to some path variable's route, but to
    # none driven by PE 0_0's unit, two hops away; and a unit is never a
    # route's interior vertex, so no signal claims one
    out, unit = ("pe_2_0.out", 0), ("pe_0_0.alu", 0)
    crossing = {v.idx[0] for v in model.variables if v.cls == "p"
                and out in shallow[v.idx[:2]][v.idx[2]].interior()}
    assert crossing and unit not in crossing
    strays = [model.add_var(yvar(out, unit)),
              model.add_var(yvar(("pe_1_1.alu", 0), unit))]
    assert audit(model, dfg, m, nmap, shallow) == [
        f"y out of domain: {stray}" for stray in strays]
    # the same row with its terms in another order is a duplicate too
    row = next(c for c in model.constraints if c.tag == "con6")
    model.add_constraint(row.terms[::-1], row.relation, row.rhs, "con6")
    assert "duplicate con6 row" in audit(model, dfg, m, nmap, shallow)


@pytest.mark.parametrize("weight", [0, 1, -1, 2])
def test_audit_flags_misweighted_claim_row(inst, shallow, weight):
    # a claim row's y coefficient must be minus its number of path terms:
    # one less lets a full group on with y still off
    dfg, m, nmap, _ = inst
    model = build_variant("combined", dfg, m, nmap, shallow)
    at, row = next((i, c) for i, c in enumerate(model.constraints)
                   if c.tag == "con6" and c.rhs == 0 and len(c.terms) > 2)
    *paths, (coef, y) = row.terms
    model.constraints[at] = row._replace(
        terms=(*paths, (coef + weight, y)))
    problems = audit(model, dfg, m, nmap, shallow)
    assert ("malformed con6 claim row" in problems) == (weight != 0)


def test_stats_shape(inst):
    dfg, m, nmap, cache = inst
    text = build_variant("combined", dfg, m, nmap, cache).stats()
    lines = text.splitlines()
    assert lines[0] == "variant combined"
    assert any(l.startswith("variables total=") for l in lines)
    assert any(l.startswith("constraints total=") for l in lines)
    assert "con6=" in text


def _collections(run):
    """The generations of the collections the cyclic collector starts
    while run() runs, from empty generations at a threshold of 100
    containers: more than a wrapper allocates before it pauses the
    collector, far fewer than a model build."""
    assert gc.isenabled()
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(record)
    gc.set_threshold(100)
    try:
        run()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    return starts


def test_model_builds_and_solves_start_no_collection(inst, combined):
    dfg, m, nmap, cache = inst
    # the recorder sees the collections plain Python code starts
    assert _collections(lambda: [[] for _ in range(1000)])
    assert _collections(lambda: build_baseline(dfg, m)) == []
    assert _collections(
        lambda: build_variant("combined", dfg, m, nmap, cache)) == []
    cfg = solver.SolveConfig()
    assert _collections(lambda: solver.solve(combined, cfg)) == []


def test_paused_collector_is_restored(inst, combined):
    dfg, m, nmap, cache = inst
    malformed = IlpModel("combined")
    malformed.add_constraint([(1, malformed.add_var(fvar("a", ("u", 0))))],
                             "<", 1, "t")
    unplaceable = Dfg([Operation("a", "frob")], [])
    cfg = solver.SolveConfig()
    for on in (True, False):
        if not on:
            gc.disable()
        try:
            assert solver.solve(combined, cfg).status == "feasible"
            assert gc.isenabled() is on
            assert build_baseline(dfg, m).variables
            assert gc.isenabled() is on
            with pytest.raises(ValueError, match="bad relation"):
                solver.solve(malformed, cfg)
            assert gc.isenabled() is on
            with pytest.raises(InfeasibleModel, match="a has no"):
                build_variant("combined", unplaceable, m, nmap, cache)
            assert gc.isenabled() is on
        finally:
            gc.enable()


def test_matching_leaves_no_reference_cycle(inst, combined):
    # with the collector paused around the solver, a cycle left by
    # placeable's or the root check's matching would outlive the call
    dfg, m, _, _ = inst
    gc.collect()
    gc.disable()
    try:
        assert placeable(dfg, m)
        assert solver.solve(combined, solver.SolveConfig()).nodes
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
