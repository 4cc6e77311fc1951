from itertools import combinations

import pytest

from cgramap.dfg import parse_dfg
from cgramap.ilp import (VARIANTS, IlpModel, InfeasibleModel, VarId,
                         add_fu_exclusivity, add_must_map,
                         add_path_exclusivity, audit, build_variant, evar,
                         fvar, pvar, used_pairs, yvar)
from cgramap.mapper import RELAXED_PATHS
from cgramap.mrrg import ArchSpec, build_mrrg, compatible_nodes, fu_nodes
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import PathCache, RoutePath, build_path_cache

from helpers import satisfies

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
# a placement of EXPR_TEXT on 3x3 ortho whose every edge is in NN 4 reach
EXPR_PLACEMENT = {
    "add0": ("pe_1_1.alu", 0), "c": ("pe_1_0.alu", 0),
    "d": ("pe_0_1.alu", 0), "mul0": ("pe_2_1.alu", 0),
    "b": ("pe_2_0.alu", 0), "a": ("pe_2_2.alu", 0),
}


def test_varid_hash_repr_order_and_immutability():
    a, b = fvar("add0", ("pe_0_0.alu", 0)), pvar(("x", 0), ("y", 1), 2)
    for var in (a, b):
        assert hash(var) == hash((var.cls, var.idx))
    assert repr(a) == "VarId(cls='f', idx=('add0', ('pe_0_0.alu', 0)))"
    assert a == VarId("f", ("add0", ("pe_0_0.alu", 0))) and a != b
    assert sorted([b, a]) == [a, b] and a < b
    assert fvar("a", ("u", 1)) < fvar("a", ("u", 2)) < fvar("b", ("u", 0))
    with pytest.raises(AttributeError):
        a.cls = "e"
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
    return build_path_cache(m, nmap, RELAXED_PATHS)


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
    """Split the con6 rows into path -> signals it claims (rows
    p - y <= 0) and signal sum rows (rows of +1 y terms <= limit); fails
    on any other shape, since admits() relies on these two."""
    claims, sums = {}, []
    for c in cons:
        if c.tag != "con6":
            continue
        cls = [(k, v.cls) for k, v in c.terms]
        if cls == [(1, "p"), (-1, "y")] and (c.relation, c.rhs) == ("<=", 0):
            claims.setdefault(c.terms[0][1], set()).add(c.terms[1][1])
        else:
            assert c.relation == "<=" and c.rhs >= 1
            assert all(k == 1 and v.cls == "y" for k, v in c.terms)
            sums.append(c)
    return claims, sums


def admits(cons, on_paths):
    """Whether the rows hold with the given paths on, all other paths
    off, and some choice of signal variables. A y occurs with -1 only in
    its claim rows and with +1 elsewhere, so the claimed signals are the
    choice to try."""
    claims, _ = signal_rows(cons)
    on = set(on_paths)
    return satisfies(cons, on.union(*(claims.get(p, ()) for p in on)))


def test_variable_domains_and_counts(inst, combined):
    dfg, m, nmap, cache = inst
    model = combined
    by_cls = model.vars_by_class()
    n_f = sum(len(compatible_nodes(m, op)) for op in dfg.operations)
    dom = edge_domain(dfg, m, nmap)
    assert len(by_cls["f"]) == n_f == 6 * 9
    assert len(by_cls["e"]) == len(dom)
    pairs = {(u, v) for _, u, _, v in dom}
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
    n_con3 = sum(len(compatible_nodes(m, ops[p])) for _, p in dfg.point_edges())
    assert count(model, "con3") == n_con3 == 5 * 9
    n_e = len(edge_domain(dfg, m, nmap))
    assert count(model, "con4") == n_e
    assert count(model, "con5") == n_e


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
    # one claim row per (vertex, path) and one sum row per contested vertex
    assert count(model, "con6") == sum(map(len, claims.values())) + len(sums)


def test_relaxed_sits_strictly_between(inst, shallow, combined):
    dfg, m, nmap, _ = inst
    po = build_variant("placement_only", dfg, m, nmap)
    rp = build_variant("relaxed_placement", dfg, m, nmap, shallow)
    cb = combined
    assert "p" not in po.vars_by_class()
    assert len(po.variables) < len(rp.variables) < len(cb.variables)
    assert len(po.constraints) < len(rp.constraints) < len(cb.constraints)
    assert count(po, "con5") == count(po, "con6") == 0
    assert rp.metadata["k"] == RELAXED_PATHS
    assert rp.metadata["overuse_limit"] == 2
    assert audit(po, dfg, m, nmap) == []
    assert audit(rp, dfg, m, nmap, shallow) == []


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("depth", ["shallow", "deep"])
def test_models_read_every_cached_route(inst, shallow, variant, depth):
    # the cache alone sets route depth: each pair a model reads gets one
    # path variable per route the cache holds for it
    dfg, m, nmap, deep = inst
    cache = shallow if depth == "shallow" else deep
    kw = {"placement": EXPR_PLACEMENT} if variant == "routing_only" else {}
    model = build_variant(variant, dfg, m, nmap, cache, **kw)
    if variant == "placement_only":
        read = []
    elif variant == "routing_only":
        read = {(EXPR_PLACEMENT[o], EXPR_PLACEMENT[p])
                for o, p in dfg.point_edges()}
    else:
        read = used_pairs(model)
    got = {}
    for var in model.variables:
        if var.cls == "p":
            pair = var.idx[:2]
            got[pair] = got.get(pair, 0) + 1
    assert got == {pair: len(cache[pair]) for pair in read if cache[pair]}
    assert any(len(cache[pair]) > RELAXED_PATHS for pair in read) == (
        depth == "deep" and variant != "placement_only")


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
    for variant in VARIANTS:
        kw = ({"placement": EXPR_PLACEMENT} if variant == "routing_only"
              else {})
        for ppc in (cache.k - 1, cache.k + 1, RELAXED_PATHS):
            with pytest.raises(ValueError, match="paths_per_connection"):
                build_variant(variant, dfg, m, nmap, cache,
                              paths_per_connection=ppc, **kw)
        with pytest.raises(ValueError, match="paths_per_connection"):
            build_variant(variant, dfg, m, nmap, paths_per_connection=3,
                          **kw)


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
    add_path_exclusivity(model, cache, 1)
    x = ("x", 0)
    ya, yb, yc = (yvar(x, (d, 0)) for d in "ABC")
    got = {(c.terms, c.rhs) for c in model.constraints}
    # only x is contested; y carries A alone and gets no rows
    assert got == {(((1, va1), (-1, ya)), 0), (((1, va2), (-1, ya)), 0),
                   (((1, vb), (-1, yb)), 0), (((1, vc), (-1, yc)), 0),
                   (((1, ya), (1, yb), (1, yc)), 1)}
    assert len(model.constraints) == len(got)
    assert model.vars_by_class()["y"] == [ya, yb, yc]
    cons = model.constraints
    assert admits(cons, {va1, va2})     # same driver may stack
    assert admits(cons, {va1})
    assert not admits(cons, {va1, vb})  # two signals on x
    assert not admits(cons, {vb, vc})


def test_relaxed_exclusivity_allows_one_short():
    model, cache, va1, va2, vb, vc = shared_vertex_fixture()
    add_path_exclusivity(model, cache, 2)
    cons = model.constraints
    assert admits(cons, {va1, vb})       # two signals may share x
    assert admits(cons, {va1, va2})      # same driver never counts
    assert admits(cons, {va1, va2, va1}) is True
    assert not admits(cons, {va1, vb, vc})  # three signals
    assert admits(cons, {va1, va2, vb})  # two stacked paths are one signal


def test_must_map_variants():
    dfg = parse_dfg(EXPR_TEXT)
    bare = IlpModel("combined")
    with pytest.raises(InfeasibleModel):
        add_must_map(bare, dfg)


def test_fanin_empty_sum_forbids_unit(inst, combined):
    dfg, m, nmap, cache = inst
    model = combined
    # a unit with no incoming edge assignment cannot host a sink op
    some_f = next(v for v in model.variables if v.cls == "f"
                  and v.idx[0] == "a")
    con3 = [c for c in model.constraints if c.tag == "con3"]
    e_vars = [v for v in model.variables
              if v.cls == "e" and v.idx[2] == "a" and v.idx[3] == some_f.idx[1]]
    if e_vars:
        assert not satisfies(con3, {some_f})
        assert satisfies(con3, {some_f, e_vars[0]})


def test_zero_ops_zero_rows():
    dfg = parse_dfg("op lone add\n")
    m = build_mrrg(ArchSpec("ortho", 2, 2), ii=1)
    model = IlpModel("combined")
    add_fu_exclusivity(model, fu_nodes(m))
    assert model.constraints == []


def test_routing_only_variant(inst):
    dfg, m, nmap, cache = inst
    model = build_variant("routing_only", dfg, m, nmap, cache,
                          placement=EXPR_PLACEMENT)
    assert set(model.vars_by_class()) == {"p", "y"}
    assert count(model, "con5") == 5
    for c in model.constraints:
        if c.tag == "con5":
            assert c.relation == ">=" and c.rhs == 1
    assert audit(model, dfg, m, nmap, cache) == []


def test_routing_only_errors(inst):
    dfg, m, nmap, cache = inst
    with pytest.raises(ValueError):
        build_variant("routing_only", dfg, m, nmap, cache)
    base = EXPR_PLACEMENT
    with pytest.raises(InfeasibleModel):
        bad = dict(base, c=("pe_1_0.const", 0))  # input op on a const unit
        build_variant("routing_only", dfg, m, nmap, cache, placement=bad)
    with pytest.raises(InfeasibleModel):
        bad = dict(base, c=("pe_1_1.alu", 0))  # shares add0's unit
        build_variant("routing_only", dfg, m, nmap, cache, placement=bad)
    with pytest.raises(InfeasibleModel):
        bad = dict(base, mul0=("pe_0_2.alu", 0))  # outside add0's reach
        build_variant("routing_only", dfg, m, nmap, cache, placement=bad)
    with pytest.raises(ValueError):
        partial = dict(base)
        del partial["a"]
        build_variant("routing_only", dfg, m, nmap, cache, placement=partial)


def test_routing_only_empty_instance(inst):
    _, m, nmap, cache = inst
    lone = parse_dfg("op lone add\n")
    model = build_variant("routing_only", lone, m, nmap, cache, placement={})
    assert model.variables == [] and model.constraints == []


def test_audit_flags_out_of_domain(inst):
    dfg, m, nmap, cache = inst
    model = build_variant("placement_only", dfg, m, nmap)
    model.add_var(fvar("b", ("pe_0_0.const", 0)))  # input op, const unit
    model.add_var(evar("b", ("pe_0_0.alu", 0), "c", ("pe_2_2.alu", 0)))
    problems = audit(model, dfg, m, nmap)
    assert any(p.startswith("f out of domain") for p in problems)
    assert any(p.startswith("e out of domain") for p in problems)


def test_audit_flags_stray_signal_and_duplicate_con6(inst):
    dfg, m, nmap, cache = inst
    model = build_variant("routing_only", dfg, m, nmap, cache,
                          placement=EXPR_PLACEMENT)
    assert audit(model, dfg, m, nmap, cache) == []
    # a's unit drives no path, so no vertex carries its signal
    stray = model.add_var(yvar(("pe_1_1.out", 0), EXPR_PLACEMENT["a"]))
    assert audit(model, dfg, m, nmap, cache) == [
        f"y out of domain: {stray}"]
    row = next(c for c in model.constraints if c.tag == "con6")
    model.add_constraint(row.terms, row.relation, row.rhs, "con6")
    assert "duplicate con6 row" in audit(model, dfg, m, nmap, cache)


def test_stats_shape(inst):
    dfg, m, nmap, cache = inst
    text = build_variant("relaxed_placement", dfg, m, nmap, cache).stats()
    lines = text.splitlines()
    assert lines[0] == "variant relaxed_placement"
    assert any(l.startswith("variables total=") for l in lines)
    assert any(l.startswith("constraints total=") for l in lines)
    assert "con6=" in text
