"""Search, enumeration and independent-MILP checks."""

import random
from itertools import product
from types import SimpleNamespace

import pytest

from cgramap import solver
from cgramap.baseline import build_baseline
from cgramap.dfg import parse_dfg
from cgramap.ilp import IlpModel, LinearConstraint, VarId, build_variant
from cgramap.mapper import RELAXED_PATHS
from cgramap.mrrg import ArchSpec, build_mrrg
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import DEFAULT_K, build_path_cache
from cgramap.solver import (SolveConfig, check_assignment,
                            enumerate_solutions, solve)
from helpers import exhaustive, satisfies


def mk_model(names, rows, cls="f"):
    """cls is one class for every name, or a class per name."""
    model = IlpModel("combined")
    by_name = {n: model.add_var(VarId(cls if isinstance(cls, str) else cls[n],
                                      (n,)))
               for n in names}
    for terms, rel, rhs in rows:
        model.add_constraint([(c, by_name[n]) for c, n in terms],
                             rel, rhs, "row")
    return model, by_name


def drain(gen):
    """Every result a generator yields, and its return value."""
    results = []
    while True:
        try:
            results.append(next(gen))
        except StopIteration as stop:
            return results, stop.value


def random_model(rng, max_vars=10, classes=None):
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]
    rows = []
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, min(4, n))
        chosen = rng.sample(names, size)
        terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), nm) for nm in chosen]
        rows.append((terms, rng.choice(["<=", ">=", "="]),
                     rng.randint(-2, 4)))
    cls = {nm: rng.choice(classes) for nm in names} if classes else "f"
    return mk_model(names, rows, cls)[0]


def test_forced_assignment():
    model, vs = mk_model(["x", "y"],
                         [([(1, "x"), (1, "y")], "<=", 1),
                          ([(1, "x")], "=", 1)])
    res = solve(model, SolveConfig())
    assert res.status == "feasible"
    assert res.assignment[vs["x"]] == 1
    assert res.assignment[vs["y"]] == 0
    assert not check_assignment(model.constraints, res.assignment)
    assert res.wall_time >= 0


def test_contradiction():
    model, _ = mk_model(["x", "y"],
                        [([(1, "x"), (1, "y")], "<=", 1),
                         ([(1, "x")], "=", 1),
                         ([(1, "y")], "=", 1)])
    res = solve(model, SolveConfig())
    assert res.status == "infeasible"
    assert res.assignment is None


def test_empty_model():
    model = IlpModel("combined")
    res = solve(model, SolveConfig())
    assert res.status == "feasible"
    assert res.assignment == {}
    assert res.nodes == 0


def test_malformed_rejected():
    v = VarId("f", ("x",))
    ghost = VarId("f", ("ghost",))

    def model(variables=(v,), rows=()):
        return SimpleNamespace(variables=list(variables),
                               constraints=list(rows))

    cases = [
        (model(rows=[LinearConstraint(((1, ghost),), "<=", 1, "t")]),
         "row references undeclared"),
        (model(rows=[LinearConstraint(((1, v),), "<", 1, "t")]), "relation"),
        (model(rows=[LinearConstraint(((1.5, v),), "<=", 1, "t")]),
         "coefficient"),
        (model(variables=(v, v)), "duplicate"),
    ]
    # enumerate_solutions is a generator: it raises on the first next()
    for run in (solve, lambda m, cfg: next(enumerate_solutions(m, cfg))):
        for bad, words in cases:
            with pytest.raises(ValueError, match=words):
                run(bad, SolveConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(time_limit=0)
    with pytest.raises(ValueError):
        SolveConfig(solution_limit=0)
    # a float limit would reach range() inside enumerate_solutions
    with pytest.raises(ValueError, match="solution limit"):
        SolveConfig(solution_limit=2.5)


def test_random_agreement_with_exhaustive():
    rng = random.Random(20240917)
    for trial in range(150):
        model = random_model(rng)
        res = solve(model, SolveConfig(seed=trial % 5))
        feasible = exhaustive(model)
        assert (res.status == "feasible") == feasible, f"trial {trial}"
        if res.status == "feasible":
            assert not check_assignment(model.constraints, res.assignment)
    # mixed classes change the value tried first; enumeration over the
    # f and p projection must list each feasible projection exactly once
    # and then prove there is no other
    for trial in range(200):
        model = random_model(rng, max_vars=8, classes=("f", "p", "e", "y"))
        proj = [v for v in model.variables if v.cls in ("f", "p")]
        want = set()
        for bits in product((0, 1), repeat=len(model.variables)):
            on = [v for v, b in zip(model.variables, bits) if b]
            if satisfies(model.constraints, on):
                want.add(tuple(v in on for v in proj))
        cfg = SolveConfig(seed=trial % 5, solution_limit=2 ** len(proj) + 1)
        results, final = drain(enumerate_solutions(model, cfg,
                                                   projection=("f", "p")))
        got = [tuple(r.assignment[v] == 1 for v in proj) for r in results]
        assert len(got) == len(set(got)), f"trial {trial}"
        assert set(got) == want, f"trial {trial}"
        assert final.status == "infeasible", f"trial {trial}"


def test_determinism_and_seed_independence():
    rng = random.Random(7)
    model = random_model(rng, max_vars=14)
    first = solve(model, SolveConfig(seed=3))
    second = solve(model, SolveConfig(seed=3))
    assert first.assignment == second.assignment
    assert first.nodes == second.nodes
    statuses = set()
    for trial in range(30):
        m = random_model(rng, max_vars=9)
        statuses = {solve(m, SolveConfig(seed=s)).status for s in range(3)}
        assert len(statuses) == 1, f"trial {trial} split {statuses}"


def _pigeonhole(pigeons, holes):
    model = IlpModel("combined")
    grid = {}
    for p in range(pigeons):
        for h in range(holes):
            grid[p, h] = model.add_var(VarId("f", (f"p{p}", f"h{h}")))
    for p in range(pigeons):
        model.add_constraint([(1, grid[p, h]) for h in range(holes)],
                             "=", 1, "pigeon")
    for h in range(holes):
        model.add_constraint([(1, grid[p, h]) for p in range(pigeons)],
                             "<=", 1, "hole")
    return model


def test_pigeonhole_and_timeout():
    small = _pigeonhole(4, 3)
    assert solve(small, SolveConfig()).status == "infeasible"
    big = _pigeonhole(12, 11)
    res = solve(big, SolveConfig(time_limit=0.15))
    assert res.status == "timeout"
    assert res.assignment is None
    assert res.nodes > 0
    # measured from solve's own start; the slack is for host stalls
    assert res.wall_time <= 0.15 + 0.25


def test_deadline_holds_to_one_node(monkeypatch):
    # a clock that moves one second per read: with a 15 s limit at most
    # 15 search nodes fit before the deadline passes
    reads = iter(range(1, 10**6))
    monkeypatch.setattr(solver, "time",
                        SimpleNamespace(monotonic=lambda: next(reads)))
    res = solve(_pigeonhole(12, 11), SolveConfig(time_limit=15))
    assert res.status == "timeout"
    assert 0 < res.nodes <= 15


FIVE_ADD = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
            "edge a -> b:0, c:0\nedge b -> d:0\nedge c -> d:1\n"
            "edge d -> e:0\n")
TREE5 = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
         "edge a -> b:0\nedge b -> c:0, d:0\nedge c -> e:0\n")
SUM4 = ("op a add\nop b add\nop c add\nop s add\n"
        "edge a -> c:0\nedge b -> c:1\nedge c -> s:0\nedge a -> s:1\n")


def tree5_relaxed(nn):
    mrrg = build_mrrg(ArchSpec("ortho", 1, 4, route_through=False), 2)
    nmap = build_neighbor_map(mrrg, nn)
    return build_variant("relaxed_placement", parse_dfg(TREE5), mrrg, nmap,
                         build_path_cache(mrrg, nmap, RELAXED_PATHS))


def sum4_models():
    """The relaxed model of sum4 on 2x2 ADRES, II 2, NN 16, and the
    routing-only models of the placements its solves at seeds 1 and 2
    find: the first routes, the second does not. The relaxed model reads
    RELAXED_PATHS routes per pair and the routing models DEFAULT_K."""
    mrrg = build_mrrg(ArchSpec("adres", 2, 2), 2)
    nmap = build_neighbor_map(mrrg, 16)
    cache = build_path_cache(mrrg, nmap)
    dfg = parse_dfg(SUM4)
    relaxed = build_variant("relaxed_placement", dfg, mrrg, nmap,
                            build_path_cache(mrrg, nmap, RELAXED_PATHS))
    routings = []
    for placed_by in (1, 2):
        assignment = solve(relaxed, SolveConfig(seed=placed_by)).assignment
        placement = {v.idx[0]: v.idx[1] for v, b in assignment.items()
                     if v.cls == "f" and b}
        routings.append(build_variant("routing_only", dfg, mrrg, nmap, cache,
                                      placement=placement))
    return relaxed, routings


DIAMOND = ("op a add\nop b add\nop c add\nop d add\n"
           "edge a -> b:0, c:0\nedge b -> d:0\nedge c -> d:1\n")
# the first placement map_dfg tries for diamond on 2x2 ADRES, II 2, NN 8,
# seed 3 (test_mapper.py::test_deep_stage_routes_what_shallow_cannot)
DIAMOND_PLACEMENT = {"a": ("pe_0_0.alu", 1), "b": ("pe_1_0.alu", 1),
                     "c": ("pe_1_0.alu", 0), "d": ("pe_0_0.alu", 0)}


def diamond_routings():
    """The routing-only models of DIAMOND_PLACEMENT over RELAXED_PATHS
    and over DEFAULT_K routes: the first does not route, the second
    does."""
    mrrg = build_mrrg(ArchSpec("adres", 2, 2), 2)
    nmap = build_neighbor_map(mrrg, 8)
    return [build_variant("routing_only", parse_dfg(DIAMOND), mrrg, nmap,
                          build_path_cache(mrrg, nmap, k),
                          placement=DIAMOND_PLACEMENT)
            for k in (RELAXED_PATHS, DEFAULT_K)]


def test_pinned_node_counts():
    # any change to the decision order or to what propagation forces
    # shows up here rather than as a silent runtime shift
    five_add = build_baseline(parse_dfg(FIVE_ADD),
                              build_mrrg(ArchSpec("ortho", 2, 2), 1))
    got = [(r.status, r.nodes) for r in
           (solve(five_add, SolveConfig(seed=s)) for s in (2, 3))]
    assert got == [("infeasible", 46), ("infeasible", 46)]
    res = solve(_pigeonhole(6, 5), SolveConfig(seed=2))
    assert (res.status, res.nodes) == ("infeasible", 238)
    got = [(r.status, r.nodes) for r in
           (solve(tree5_relaxed(4), SolveConfig(seed=s)) for s in (2, 3))]
    assert got == [("feasible", 87), ("feasible", 87)]
    sols = enumerate_solutions(tree5_relaxed(2),
                               SolveConfig(seed=3, solution_limit=4))
    # each count covers only the nodes since the previous placement
    assert [r.nodes for r in sols] == [69, 55, 59, 54]
    # routing-only models, where the choice of path per connection (the
    # con5 rows) drives the search
    got = [[(r.status, r.nodes) for r in
            (solve(routing, SolveConfig(seed=s)) for s in (1, 2, 3))]
           for routing in sum4_models()[1]]
    assert got == [[("feasible", 44), ("feasible", 49), ("feasible", 56)],
                   [("infeasible", 38)] * 3]
    # the cut a leaf violates is queued again once the flip that gives it
    # slack is on, so it forces what is left of the projection at once
    model, _ = mk_model(["x0", "x1", "x2", "x3"],
                        [([(3, "x1"), (3, "x3"), (-3, "x2"), (-3, "x0")],
                          ">=", 1)],
                        cls={"x0": "p", "x1": "f", "x2": "e", "x3": "e"})
    results, final = drain(enumerate_solutions(
        model, SolveConfig(seed=3, solution_limit=8), projection=("f", "p")))
    assert ([r.nodes for r in results], final.status, final.nodes) == (
        [2, 1, 1], "infeasible", 0)


@pytest.mark.parametrize("nn", [2, 4])
def test_enumeration_order_matches_fresh_solves(nn):
    # a cut joins the live search at a leaf; the leaves must come in the
    # order that solving from the root, with every earlier cut as an
    # ordinary row, finds them (NN 2 has 8 placements, NN 4 192)
    relaxed = tree5_relaxed(nn)
    results, final = drain(enumerate_solutions(
        relaxed, SolveConfig(seed=3, solution_limit=20)))
    rows = list(relaxed.constraints)

    def fresh_solve():
        fresh = SimpleNamespace(variables=relaxed.variables,
                                constraints=list(rows))
        return solve(fresh, SolveConfig(seed=3))

    for res in results:
        assert fresh_solve().assignment == res.assignment, len(rows)
        terms = tuple((1 if res.assignment[v] else -1, v)
                      for v in relaxed.variables if v.cls == "f")
        rows.append(LinearConstraint(terms, "<=",
                                     sum(c > 0 for c, _ in terms) - 1, "cut"))
    if final is not None:
        assert final.status == fresh_solve().status == "infeasible"
    assert len(results) == {2: 8, 4: 20}[nn]


def test_enumeration_exhausts_placements():
    # restarting from the root for each placement ran out the 10 s limit
    # here; resuming the live search lists all 192 and proves there is
    # no other
    relaxed = tree5_relaxed(4)
    for seed in (2, 3):
        cfg = SolveConfig(seed=seed, time_limit=10, solution_limit=1000)
        results, final = drain(enumerate_solutions(relaxed, cfg))
        placed = {frozenset(v for v, b in r.assignment.items()
                            if v.cls == "f" and b) for r in results}
        assert (len(results), len(placed)) == (192, 192), seed
        assert final.status == "infeasible", seed


LDST = ("op ld load\nop k const const=1\nop inc add\nop st store\n"
        "edge ld -> inc:0\nedge k -> inc:1\nedge inc -> st:0\n")


def test_relaxed_search_steady_across_seeds():
    # with value 1 tried first on edge and path variables, five of these
    # eight seeds ran out a 5 s limit at over 40k nodes: an edge or path
    # switched on that no placed sink needs is undone only after the
    # whole subtree below it fails
    mrrg = build_mrrg(ArchSpec("adres", 4, 4), 2)
    nmap = build_neighbor_map(mrrg, 4)
    relaxed = build_variant("relaxed_placement", parse_dfg(LDST), mrrg, nmap,
                            build_path_cache(mrrg, nmap, RELAXED_PATHS))
    for seed in range(1, 9):
        res = solve(relaxed, SolveConfig(seed=seed, time_limit=5))
        assert (res.status, res.nodes < 2000) == ("feasible", True), seed


FAN3 = ("op a add\nop b add\nop c add\nop d add\n"
        "edge a -> b:0, c:0, d:0\n")


def test_placement_screen_steady_across_seeds():
    # a static shuffled order over all placements took 2,472 and 4,919
    # nodes here at seeds 3 and 4: it placed the three sinks before
    # their driver, then backtracked through sink placements no driver
    # unit reaches; branching on the operation with the fewest
    # candidates left places the driver once one sink is down
    mrrg = build_mrrg(ArchSpec("adres", 4, 4), 3)
    screen = build_variant("placement_only", parse_dfg(FAN3), mrrg,
                           build_neighbor_map(mrrg, 4))
    for seed in range(1, 9):
        res = solve(screen, SolveConfig(seed=seed, time_limit=5))
        assert (res.status, res.nodes <= 200) == ("feasible", True), seed


def test_enumerate_two_placements():
    model, vs = mk_model(["f1", "f2"],
                         [([(1, "f1"), (1, "f2")], "=", 1)])
    free = model.add_var(VarId("p", ("n", 0)))
    rows_before = list(model.constraints)
    sols = list(enumerate_solutions(model, SolveConfig(solution_limit=8)))
    assert len(sols) == 2
    picks = {tuple(sorted(v.idx for v in model.variables
                          if v.cls == "f" and s.assignment[v] == 1))
             for s in sols}
    assert picks == {(("f1",),), (("f2",),)}
    assert model.constraints == rows_before  # cuts never leak into the model
    assert all(s.assignment[free] in (0, 1) for s in sols)


def test_enumerate_limits_and_empty():
    model, _ = mk_model(["f1", "f2"],
                        [([(1, "f1"), (1, "f2")], "=", 1)])
    assert len(list(enumerate_solutions(model, SolveConfig()))) == 1
    dead, _ = mk_model(["x"], [([(1, "x")], "=", 1),
                               ([(1, "x")], "<=", 0)])
    assert list(enumerate_solutions(dead, SolveConfig(solution_limit=5))) == []


def test_enumerate_projection_classes():
    model = IlpModel("combined")
    f1 = model.add_var(VarId("f", ("a",)))
    q = model.add_var(VarId("p", ("n", 0)))
    model.add_constraint([(1, f1)], "=", 1, "row")
    on_f = list(enumerate_solutions(model, SolveConfig(solution_limit=8)))
    assert len(on_f) == 1
    both = list(enumerate_solutions(model, SolveConfig(solution_limit=8),
                                    projection=("f", "p")))
    assert len(both) == 2
    assert {s.assignment[q] for s in both} == {0, 1}


def highs_feasible(model):
    """Decide the model with HiGHS through scipy's milp, which shares no
    code with the built-in search."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint as SciRow, milp
    from scipy.sparse import csr_array

    index = {v: i for i, v in enumerate(model.variables)}
    n = len(model.variables)
    # sparse: a dense matrix of the full-NN relaxed models runs to GiBs
    coefs, row_ids, col_ids = [], [], []
    lo, hi = [], []
    for r, con in enumerate(model.constraints):
        for c, v in con.terms:
            coefs.append(c)
            row_ids.append(r)
            col_ids.append(index[v])
        lo.append(-np.inf if con.relation == "<=" else con.rhs)
        hi.append(np.inf if con.relation == ">=" else con.rhs)
    rows = csr_array((coefs, (row_ids, col_ids)),
                     shape=(len(model.constraints), n))
    res = milp(c=np.zeros(n), constraints=SciRow(rows, lo, hi),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    # 0 is a solution found, 2 a proof of infeasibility; anything else
    # (a limit, a numerical failure) decides nothing
    assert res.status in (0, 2), res.message
    return res.status == 0


def test_scipy_crosscheck():
    pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    for trial in range(40):
        model = random_model(rng, max_vars=9)
        ours = solve(model, SolveConfig())
        assert (ours.status == "feasible") == highs_feasible(model), \
            f"trial {trial}"
    # the shapes the mapper builds: relaxed placement, routing-only with
    # a routable and an unroutable placement, one placement that routes
    # only on the deep cache, and a pigeonhole
    relaxed, routings = sum4_models()
    shallow, deep = diamond_routings()
    shaped = {"tree5 relaxed NN 2": tree5_relaxed(2),
              "tree5 relaxed NN 4": tree5_relaxed(4),
              "sum4 relaxed": relaxed,
              "sum4 routing, seed 1 placement": routings[0],
              "sum4 routing, seed 2 placement": routings[1],
              "diamond routing, RELAXED_PATHS deep": shallow,
              "diamond routing, DEFAULT_K deep": deep,
              "pigeonhole 6 in 5": _pigeonhole(6, 5)}
    theirs = {name: highs_feasible(m) for name, m in shaped.items()}
    assert list(theirs.values()) == [True, True, True, True, False, False,
                                     True, False]
    for name, model in shaped.items():
        ours = solve(model, SolveConfig())
        assert (ours.status == "feasible") == theirs[name], name
