"""Search, enumeration and independent-MILP checks."""

import random
from itertools import combinations, islice, permutations, product
from types import SimpleNamespace

import pytest

from cgramap import solver
from cgramap.baseline import build_baseline
from cgramap.dfg import parse_dfg
from cgramap.ilp import (IlpModel, LinearConstraint, VarId, add_implication,
                         build_variant)
from cgramap.mapper import SHALLOW_PATHS
from cgramap.mrrg import ArchSpec, build_mrrg
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import build_path_cache
from cgramap.solver import (SolveConfig, check_assignment,
                            enumerate_solutions, solve)
from helpers import (ACC, DEEP, DIAMOND, FAN3, JOIN, LDST, SUM4, TREE5,
                     drain, exhaustive, satisfies, screen_of)


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
    v, w = VarId("f", ("x",)), VarId("f", ("w",))
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
        # a bool would pass as 0 or 1
        (model(rows=[LinearConstraint(((True, v),), "<=", 1, "t")]),
         "coefficient"),
        (model(variables=(v, v)), "duplicate"),
        # v in two rows is fine, twice in one row is not
        (model(variables=(v, w), rows=[
            LinearConstraint(((1, v),), "<=", 1, "t"),
            LinearConstraint(((1, v), (1, w), (-1, v)), "<=", 1, "t")]),
         "duplicate variable .* in a row"),
    ]
    # NaN failed the leaf's re-check, a str or None negated into a bare
    # TypeError, and 0.5 was accepted
    cases += [(model(rows=[LinearConstraint(((1, v),), "<=", rhs, "t")]),
               "right-hand side") for rhs in (float("nan"), "1", None, 0.5)]

    # IlpModel.add_constraint takes each of these rows as given: the
    # solver's one read of the rows is what rejects them
    def built(terms, relation):
        ilp = IlpModel("combined")
        ilp.add_var(v)
        ilp.add_constraint(terms, relation, 1, "t")
        return ilp

    cases += [(built([(1, ghost)], "<="), "row references undeclared"),
              (built([(1, v)], "<"), "bad relation '<'"),
              (built([(1, v), (1, v)], "<="),
               "duplicate variable .* in a row")]
    # enumerate_solutions is a generator: it raises on the first next()
    for run in (solve, lambda m, cfg: next(enumerate_solutions(m, cfg))):
        for bad, words in cases:
            with pytest.raises(ValueError, match=words):
                run(bad, SolveConfig())


@pytest.mark.parametrize("terms,relation,words", [
    (((True, "p0h0"),), "<=", "coefficient"),
    (((1, "ghost"),), "<=", "row references undeclared"),
    (((1, "p0h0"),), "<", "bad relation '<'")],
    ids=["bool", "undeclared", "relation"])
def test_malformed_row_is_rejected_before_the_root_check(terms, relation,
                                                         words):
    # the clique pigeonhole the root's matching refutes, with one
    # malformed row after its own: the read rejects it first
    model = _pigeonhole(12, 11)
    by_name = {"ghost": VarId("f", ("ghost",))}
    by_name.update(("".join(v.idx), v) for v in model.variables)
    bad = LinearConstraint(tuple((c, by_name[n]) for c, n in terms),
                           relation, 1, "t")
    model = SimpleNamespace(variables=model.variables,
                            constraints=model.constraints + [bad])
    for run in (solve, lambda m, cfg: next(enumerate_solutions(m, cfg))):
        with pytest.raises(ValueError, match=words):
            run(model, SolveConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(time_limit=0)


def _fixpoint(model, fixes, search_class=solver._Search):
    """Fix (variable index, value) pairs in order, propagating after
    each: the values at the fixpoint, or "conflict"."""
    search = search_class(model)
    if search.propagate() is not None:
        return "conflict"
    for i, value in fixes:
        if search.val[i] >= 0:
            if search.val[i] != value:
                return "conflict"
            continue
        search.fix(i, value)
        if search.propagate() is not None:
            return "conflict"
    return tuple(search.val)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_implication_row_propagates_as_its_pairwise_rows(size):
    # add_implication's sum(x) - M*g <= 0 against the M rows x - g <= 0:
    # every partial assignment, fixed in every order, reaches the same
    # fixpoint or conflict, and both admit the same complete assignments
    def form(aggregated):
        model = IlpModel("combined")
        xs = [model.add_var(VarId("p", (i,))) for i in range(size)]
        g = model.add_var(VarId("y", ()))
        if aggregated:
            add_implication(model, xs, g, "row")
        else:
            for x in xs:
                model.add_constraint([(1, x), (-1, g)], "<=", 0, "row")
        return model

    row, pairwise = form(True), form(False)
    for values in product((-1, 0, 1), repeat=size + 1):
        fixed = [(i, v) for i, v in enumerate(values) if v >= 0]
        for order in permutations(fixed):
            assert _fixpoint(row, order) == _fixpoint(pairwise, order), order
    for values in product((0, 1), repeat=size + 1):
        point = dict(zip(row.variables, values))
        assert (check_assignment(row.constraints, point)
                == []) == (check_assignment(pairwise.constraints, point)
                           == []), values


def test_random_agreement_with_exhaustive():
    rng = random.Random(20240917)
    for trial in range(150):
        model = random_model(rng)
        res = solve(model, SolveConfig(seed=trial % 5))
        feasible = exhaustive(model)
        assert (res.status == "feasible") == feasible, f"trial {trial}"
        if res.status == "feasible":
            assert not check_assignment(model.constraints, res.assignment)
    # mixed classes change the value tried first, and a dominating 0 of
    # a p or y variable is final; enumeration must still list each
    # feasible projection onto the f variables exactly once and then
    # prove there is no other
    for trial in range(200):
        model = random_model(rng, max_vars=8, classes=("f", "p", "y", "z"))
        proj = [v for v in model.variables if v.cls == "f"]
        want = set()
        for bits in product((0, 1), repeat=len(model.variables)):
            on = [v for v, b in zip(model.variables, bits) if b]
            if satisfies(model.constraints, on):
                want.add(tuple(v in on for v in proj))
        cfg = SolveConfig(seed=trial % 5)
        results, final = drain(enumerate_solutions(model, cfg))
        got = [tuple(r.assignment[v] == 1 for v in proj) for r in results]
        assert len(got) == len(set(got)), f"trial {trial}"
        assert set(got) == want, f"trial {trial}"
        assert final.status == "infeasible", f"trial {trial}"


def hall_model(rng):
    """A small model for the root's matching: 2 or 3 units and up to 4
    groups, at least one per unit, each with a variable for each of 2 or
    more of the units; each group's row needs at least one of them, and
    each unit's at-most-one row, in either normalised form, holds all or
    all but one of its variables. Now and then a group member in no unit
    row, a group that overlaps the others, and a mixed row."""
    units = rng.randint(2, 3)
    groups = rng.randint(units, 4)
    names, rows, takers = [], [], {u: [] for u in range(units)}
    for g in range(groups):
        member = []
        for u in rng.sample(range(units), rng.randint(2, units)):
            member.append(f"x{g}_{u}")
            takers[u].append(f"x{g}_{u}")
        if rng.random() < 0.15:
            member.append(f"x{g}_loose")
        names += member
        rows.append(([(1, nm) for nm in member], rng.choice(["=", ">="]),
                     1 if rng.random() < 0.95 else 2))
    for taking in takers.values():
        if not taking:
            continue
        kept = max(1, len(taking) - (rng.random() < 0.2))
        chosen = rng.sample(taking, kept)
        if rng.random() < 0.25:
            rows.append(([(-1, nm) for nm in chosen], ">=", -1))
        else:
            rows.append(([(1, nm) for nm in chosen],
                         "=" if rng.random() < 0.1 else "<=", 1))
    if rng.random() < 0.2:
        rows.append(([(1, nm) for nm in rng.sample(names, min(2, len(names)))],
                     ">=", 1))
    for _ in range(rng.randint(0, 1)):
        chosen = rng.sample(names, rng.randint(2, 3))
        terms = [(rng.choice([-2, -1, 1, 2]), nm) for nm in chosen]
        rows.append((terms, "<=", rng.randint(0, 2)) if rng.random() < 0.5
                    else (terms, ">=", rng.randint(-1, 1)))
    return mk_model(names, rows)[0]


def test_root_matching_refutes_only_infeasible_models():
    # the matching drops rows and groups, so a model it refutes has no
    # solution; stdlib only, so it runs without the optional packages
    rng = random.Random(20261019)
    refuted = 0
    for trial in range(400):
        model = hall_model(rng)
        feasible = exhaustive(model)
        search = solver._Search(model)
        if search.propagate() is None and search.overcommitted():
            refuted += 1
            assert not feasible, f"trial {trial}"
        res = solve(model, SolveConfig(seed=trial % 5))
        assert (res.status == "feasible") == feasible, f"trial {trial}"
    # enough refutations that a rule left out of the check shows here
    assert refuted >= 40, refuted


def _agreement_models():
    """The random models of test_random_agreement_with_exhaustive: 150
    over f variables, then 200 over mixed classes."""
    rng = random.Random(20240917)
    models = [random_model(rng) for _ in range(150)]
    return models + [random_model(rng, max_vars=8,
                                  classes=("f", "p", "y", "z"))
                     for _ in range(200)]


def _read_by_rows(model):
    """A reference for _Search's one-pass read: each row normalised to
    sum(c x) <= rhs and added with add_row to a search over no rows, the
    choice groups picked by their rule (relation >= or =, rhs at least
    1, every coefficient 1), and the normalised rows with rhs 1 and
    every coefficient 1 as the at-most-one rows."""
    search = solver._Search(SimpleNamespace(variables=model.variables,
                                            constraints=[]))
    groups, at_most_one = [], []
    for con in model.constraints:
        terms = [(c, search.index[v]) for c, v in con.terms]
        halves = []
        if con.relation != ">=":
            halves.append((terms, con.rhs))
        if con.relation != "<=":
            halves.append(([(-c, i) for c, i in terms], -con.rhs))
        for half, rhs in halves:
            row = search.add_row(half, rhs)
            if rhs == 1 and half and all(c == 1 for c, _ in half):
                at_most_one.append(row)
        if (con.relation != "<=" and con.rhs >= 1 and terms
                and all(c == 1 for c, _ in terms)):
            groups.append([i for _, i in terms])
    return search, groups, at_most_one


def _read_state(search):
    return (search.coefs, search.rhs, search.slack, search.width,
            search.spends, list(search.queue))


def test_one_pass_read_matches_rows_added_one_by_one():
    five_add = build_baseline(parse_dfg(FIVE_ADD),
                              build_mrrg(ArchSpec("ortho", 2, 2), 1))
    screen, shapes = sum4_screen(), baselines()
    models = _agreement_models() + [tree5_combined(4), diamond_one_route(),
                                    screen, *shapes.values(), five_add]
    for n, model in enumerate(models):
        read = solver._Search(model)
        reference, groups, at_most_one = _read_by_rows(model)
        assert _read_state(read) == _read_state(reference), n
        assert read.groups == groups, n
        assert read.at_most_one == at_most_one, n
    # the groups are the con2 rows, one per operation, of the screen and
    # of a baseline, whose routing rows need no choice of one
    assert len(solver._Search(screen).groups) == 4
    assert len(solver._Search(shapes["fan3 baseline, 2x2 ortho"]).groups) == 4
    # both normalised forms of an at-most-one row count, and an = row
    # with rhs 1 is a group and an at-most-one row at once
    model, _ = mk_model(["x", "y"], [([(-1, "x"), (-1, "y")], ">=", -1),
                                     ([(1, "x"), (1, "y")], "=", 1),
                                     ([(1, "x"), (2, "y")], "<=", 1)])
    read = solver._Search(model)
    assert (read.at_most_one, read.groups) == ([0, 1], [[0, 1]])


class _QueueEverySpend(solver._Search):
    """A search that queues every row at the start and every row a fix
    spends, whatever slack it leaves."""

    def __init__(self, model):
        super().__init__(model)
        self.queue.extend(range(len(self.coefs)))

    def fix(self, i, value):
        self.val[i] = value
        self.trail.append(i)
        spend = iter(self.spends[2 * i + value])
        for row, amount in zip(spend, spend):
            self.slack[row] -= amount
            self.queue.append(row)


def test_queueing_only_tightened_rows_loses_nothing():
    # a row left with at least its width in slack can neither force nor
    # conflict, so leaving it out of the queue changes no fixpoint
    rng = random.Random(20241019)
    for trial in range(300):
        model = random_model(rng, max_vars=8,
                             classes=("f", "p", "y") if trial % 2 else None)
        n = len(model.variables)
        for _ in range(4):
            fixes = [(i, rng.randint(0, 1))
                     for i in rng.sample(range(n), rng.randint(1, n))]
            assert (_fixpoint(model, fixes)
                    == _fixpoint(model, fixes, _QueueEverySpend)), (
                        trial, fixes)


@pytest.mark.parametrize("rows,run,words", [
    ([([(1, "x")], "=", 1), ([(1, "x")], "<=", 0)], solve,
     "row: lhs=1 <= 0"),
    ([([(1, "x"), (1, "y")], "=", 1)],
     lambda m, cfg: next(enumerate_solutions(m, cfg)), "row: lhs=2 = 1")],
    ids=["solve", "enumerate"])
def test_leaf_recheck_names_the_violated_row(monkeypatch, rows, run, words):
    # with propagation switched off a leaf can break a row; the re-check
    # over the normalised rows catches it and names the model's row
    def no_propagation(self):
        self.queue.clear()

    monkeypatch.setattr(solver._Search, "propagate", no_propagation)
    model, _ = mk_model(["x", "y"], rows)
    with pytest.raises(AssertionError,
                       match=f"^solution fails re-check: {words}$"):
        run(model, SolveConfig())


@pytest.mark.parametrize("cls", ["p", "y"])
def test_zero_first_keeps_its_second_branch_unless_it_dominates(cls):
    # x is decided first, at 0; its rows then force a and b to 1, which
    # the third row forbids. With 2 slack against free terms of 3 the 0
    # does not dominate, and only x at 1 gives a leaf
    model, vs = mk_model(["x", "a", "b"],
                         [([(2, "x"), (1, "a")], ">=", 1),
                          ([(2, "x"), (1, "b")], ">=", 1),
                          ([(1, "a"), (1, "b")], "<=", 1)],
                         cls={"x": cls, "a": "z", "b": "z"})
    res = solve(model, SolveConfig())
    assert (res.status, res.assignment[vs["x"]], res.nodes) == (
        "feasible", 1, 3)
    # x in no row, as a path no connection needs: its 0 dominates, so
    # the failed subtree below it is not searched again with x at 1, in
    # an enumeration's solve too
    rows = [([(2, "a"), (2, "b")], ">=", 2), ([(1, "c"), (1, "d")], "<=", 1)]
    rows += [([(1, a), (-1, c)], "<=", 0) for a in "ab" for c in "cd"]
    model, _ = mk_model(["x", "a", "b", "c", "d"], rows,
                        cls={n: cls if n == "x" else "z" for n in "xabcd"})
    res = solve(model, SolveConfig())
    assert (res.status, res.nodes) == ("infeasible", 3)
    results, final = drain(enumerate_solutions(model, SolveConfig()))
    assert (results, final.status, final.nodes) == ([], "infeasible", 3)


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


def _pigeonhole(pigeons, holes, pairwise=False):
    """Each pigeon in exactly one hole, and at most one pigeon per hole:
    one clique row per hole, or with pairwise, a row x[p,h] + x[q,h] <= 1
    per two pigeons, which no at-most-one row over three pigeons sums."""
    model = IlpModel("combined")
    grid = {}
    for p in range(pigeons):
        for h in range(holes):
            grid[p, h] = model.add_var(VarId("f", (f"p{p}", f"h{h}")))
    for p in range(pigeons):
        model.add_constraint([(1, grid[p, h]) for h in range(holes)],
                             "=", 1, "pigeon")
    for h in range(holes):
        if pairwise:
            for p, q in combinations(range(pigeons), 2):
                model.add_constraint([(1, grid[p, h]), (1, grid[q, h])],
                                     "<=", 1, "hole")
        else:
            model.add_constraint([(1, grid[p, h]) for p in range(pigeons)],
                                 "<=", 1, "hole")
    return model


def test_pigeonhole_and_timeout():
    # the root's matching refutes the clique form outright; the pairwise
    # form, whose every pigeon reaches a hole row of its own, it cannot,
    # and the search branches through it
    for pairwise in (False, True):
        small = _pigeonhole(4, 3, pairwise)
        assert solve(small, SolveConfig()).status == "infeasible"
    res = solve(_pigeonhole(12, 11), SolveConfig(time_limit=0.15))
    assert (res.status, res.nodes) == ("infeasible", 0)
    big = _pigeonhole(12, 11, pairwise=True)
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
    res = solve(_pigeonhole(12, 11, pairwise=True), SolveConfig(time_limit=15))
    assert res.status == "timeout"
    assert 0 < res.nodes <= 15


FIVE_ADD = ("op a add\nop b add\nop c add\nop d add\nop e add\n"
            "edge a -> b:0, c:0\nedge b -> d:0\nedge c -> d:1\n"
            "edge d -> e:0\n")


def tree5_combined(nn):
    """The combined model of tree5 on 1x4 ortho without route-through,
    II 2, over SHALLOW_PATHS routes per pair: placements, paths and
    signals in one search. It has 4 placements at NN 2 and 152 at NN 4."""
    mrrg = build_mrrg(ArchSpec("ortho", 1, 4, route_through=False), 2)
    nmap = build_neighbor_map(mrrg, nn)
    return build_variant("combined", parse_dfg(TREE5), mrrg, nmap,
                         build_path_cache(mrrg, nmap, SHALLOW_PATHS))


def screen_model(kernel, spec, ii, nn):
    """The placement screen of a kernel at NN nn: the f variables and
    con1-con3 rows of its combined model, built over one route a pair."""
    mrrg = build_mrrg(spec, ii)
    nmap = build_neighbor_map(mrrg, nn)
    return screen_of(build_variant("combined", parse_dfg(kernel), mrrg, nmap,
                                   build_path_cache(mrrg, nmap, 1)))


def sum4_screen():
    """The placement screen of sum4 on 2x2 ADRES, II 2, NN 16."""
    return screen_model(SUM4, ArchSpec("adres", 2, 2), 2, 16)


def diamond_one_route():
    """The combined model of diamond on 2x2 ADRES, II 2, NN 8, with one
    cached route per pair of units: placements pass its screen rows,
    but no choice of them routes."""
    mrrg = build_mrrg(ArchSpec("adres", 2, 2), 2)
    nmap = build_neighbor_map(mrrg, 8)
    return build_variant("combined", parse_dfg(DIAMOND), mrrg, nmap,
                         build_path_cache(mrrg, nmap, 1))


def baselines():
    """Per-node baseline models at II 1, by name: fan3 and acc on 2x2
    ortho and ldst on 2x2 clustered, as the exact benchmark solves
    them, and fan3 on 1x4 ortho without route-through, where a reaches
    at most two of its three sinks. The first two map; no placement
    meets the third's counting or the fourth's routing."""
    def model(kernel, spec):
        return build_baseline(parse_dfg(kernel), build_mrrg(spec, 1))

    return {"fan3 baseline, 2x2 ortho": model(FAN3, ArchSpec("ortho", 2, 2)),
            "acc baseline, 2x2 ortho": model(ACC, ArchSpec("ortho", 2, 2)),
            "ldst baseline, 2x2 clustered": model(
                LDST, ArchSpec("clustered", 2, 2)),
            "fan3 baseline, 1x4 ortho no route-through": model(
                FAN3, ArchSpec("ortho", 1, 4, route_through=False))}


def test_pinned_node_counts():
    # any change to the decision order or to what propagation forces
    # shows up here rather than as a silent runtime shift
    five_add = build_baseline(parse_dfg(FIVE_ADD),
                              build_mrrg(ArchSpec("ortho", 2, 2), 1))
    got = [(r.status, r.nodes) for r in
           (solve(five_add, SolveConfig(seed=s)) for s in (2, 3))]
    # five adds on four ALUs, and six pigeons in five clique holes: the
    # root's matching refutes both before any decision (46 and 238 nodes
    # without it). The pairwise holes it cannot refute
    assert got == [("infeasible", 0), ("infeasible", 0)]
    res = solve(_pigeonhole(6, 5), SolveConfig(seed=2))
    assert (res.status, res.nodes) == ("infeasible", 0)
    res = solve(_pigeonhole(6, 5, pairwise=True), SolveConfig(seed=2))
    assert (res.status, res.nodes) == ("infeasible", 238)
    got = [(r.status, r.nodes) for r in
           (solve(tree5_combined(4), SolveConfig(seed=s)) for s in (2, 3))]
    assert got == [("feasible", 98), ("feasible", 90)]
    sols = enumerate_solutions(tree5_combined(2), SolveConfig(seed=3))
    # each count is one solve's, over the model and the cuts so far
    assert [r.nodes for r in islice(sols, 4)] == [71, 76, 86, 111]
    # the fan3 baseline of the exact benchmark, where the search places
    # the operations and marks each signal's routing nodes
    fan3 = baselines()["fan3 baseline, 2x2 ortho"]
    got = [(r.status, r.nodes) for r in
           (solve(fan3, SolveConfig(seed=s)) for s in (1, 2, 3))]
    assert got == [("feasible", 73), ("feasible", 69), ("feasible", 70)]
    # a combined model that routing rules out, where the search tries
    # path and signal variables at 0 first
    got = [(r.status, r.nodes) for r in (solve(diamond_one_route(),
                                               SolveConfig(seed=s))
                                         for s in (1, 2, 3))]
    assert got == [("infeasible", 104), ("infeasible", 104),
                   ("infeasible", 98)]


@pytest.mark.parametrize("nn", [2, 4])
def test_enumeration_order_matches_fresh_solves(nn):
    # the stream's placements come in the order that solving the model
    # with every earlier cut as an ordinary row finds them, at the same
    # seed. tree5 has 4 placements at NN 2, all read; at NN 4 the first
    # 20 of its 152 are
    model = tree5_combined(nn)
    stream = enumerate_solutions(model, SolveConfig(seed=3))
    rows = list(model.constraints)

    def fresh_solve():
        fresh = SimpleNamespace(variables=model.variables,
                                constraints=list(rows))
        return solve(fresh, SolveConfig(seed=3))

    for res in islice(stream, {2: 4, 4: 20}[nn]):
        assert fresh_solve().assignment == res.assignment, len(rows)
        terms = tuple((1 if res.assignment[v] else -1, v)
                      for v in model.variables if v.cls == "f")
        rows.append(LinearConstraint(terms, "<=",
                                     sum(c > 0 for c, _ in terms) - 1, "cut"))
    # so does the read after them: the next leaf, or the proof that
    # there is none
    try:
        res = next(stream)
    except StopIteration as stop:
        res = stop.value
    fresh = fresh_solve()
    assert (res.status, res.assignment) == (fresh.status, fresh.assignment)
    assert res.status == {2: "infeasible", 4: "feasible"}[nn]


def test_enumeration_exhausts_placements():
    # the stream of solves lists all 152 placements, each once, and
    # proves there is no other
    model = tree5_combined(4)
    for seed in (2, 3):
        cfg = SolveConfig(seed=seed, time_limit=10)
        results, final = drain(enumerate_solutions(model, cfg))
        placed = {frozenset(v for v, b in r.assignment.items()
                            if v.cls == "f" and b) for r in results}
        assert (len(results), len(placed)) == (152, 152), seed
        assert final.status == "infeasible", seed


# not LDST, which stores the load directly
LDST_INC = ("op ld load\nop k const const=1\nop inc add\nop st store\n"
            "edge ld -> inc:0\nedge k -> inc:1\nedge inc -> st:0\n")


def test_placement_screen_steady_across_seeds():
    # a static shuffled order over all placements took 2,472 and 4,919
    # nodes here at seeds 3 and 4: it placed the three sinks before
    # their driver, then backtracked through sink placements no driver
    # unit reaches; branching on the operation with the fewest
    # candidates left places the driver once one sink is down
    fan3 = screen_model(FAN3, ArchSpec("adres", 4, 4), 3, 4)
    for seed in range(1, 9):
        res = solve(fan3, SolveConfig(seed=seed, time_limit=5))
        assert (res.status, res.nodes <= 200) == ("feasible", True), seed


@pytest.mark.parametrize("kernel,size,nn,k", [
    (ACC, 2, None, DEEP), (JOIN, 2, None, DEEP),
    (LDST_INC, 4, 4, SHALLOW_PATHS)], ids=["acc", "join", "ldst"])
def test_combined_search_steady_across_seeds(kernel, size, nn, k):
    # full neighbourhood on 2x2 ADRES at II 2: under a placement that
    # does not route, deciding each of hundreds of paths no connection
    # needs at both values took 23,928 nodes for acc at seed 4 and ran
    # out 30 s for join at seeds 4 and 7; a dominating 0 takes one node.
    # ldst on 4x4 ADRES at II 2, NN 4, is a larger model (924 variables)
    # over SHALLOW_PATHS routes, decided in under 1,000 nodes at each seed
    mrrg = build_mrrg(ArchSpec("adres", size, size), 2)
    nmap = build_neighbor_map(mrrg, nn or len(mrrg.fus))
    model = build_variant("combined", parse_dfg(kernel), mrrg, nmap,
                          build_path_cache(mrrg, nmap, k))
    for seed in range(1, 11):
        res = solve(model, SolveConfig(seed=seed, time_limit=10))
        assert (res.status, res.nodes <= 5000) == ("feasible", True), (
            seed, res.nodes)


def test_enumerate_two_placements():
    model, vs = mk_model(["f1", "f2"],
                         [([(1, "f1"), (1, "f2")], "=", 1)])
    free = model.add_var(VarId("p", ("n", 0)))
    rows_before = list(model.constraints)
    sols = list(enumerate_solutions(model, SolveConfig()))
    assert len(sols) == 2
    picks = {tuple(sorted(v.idx for v in model.variables
                          if v.cls == "f" and s.assignment[v] == 1))
             for s in sols}
    assert picks == {(("f1",),), (("f2",),)}
    assert model.constraints == rows_before  # cuts never leak into the model
    assert all(s.assignment[free] in (0, 1) for s in sols)


def test_enumerate_limits_and_empty():
    # the stream ends only once exhausted: both placements, then the
    # proof that there is no third; an infeasible model yields nothing
    model, _ = mk_model(["f1", "f2"],
                        [([(1, "f1"), (1, "f2")], "=", 1)])
    results, final = drain(enumerate_solutions(model, SolveConfig()))
    assert (len(results), final.status) == (2, "infeasible")
    dead, _ = mk_model(["x"], [([(1, "x")], "=", 1),
                               ([(1, "x")], "<=", 0)])
    assert list(enumerate_solutions(dead, SolveConfig())) == []


def test_enumerate_oversubscribed_yields_nothing():
    # the root's matching ends the stream before the first leaf
    five_add = build_baseline(parse_dfg(FIVE_ADD),
                              build_mrrg(ArchSpec("ortho", 2, 2), 1))
    for model in (_pigeonhole(12, 11), five_add):
        results, final = drain(enumerate_solutions(model, SolveConfig()))
        assert (results, final.status, final.nodes) == ([], "infeasible", 0)


def test_enumerate_projection_classes():
    # cuts span the f variables: a free p variable gives no second result
    model = IlpModel("combined")
    f1 = model.add_var(VarId("f", ("a",)))
    model.add_var(VarId("p", ("n", 0)))
    model.add_constraint([(1, f1)], "=", 1, "row")
    on_f = list(enumerate_solutions(model, SolveConfig()))
    assert len(on_f) == 1


def highs_feasible(model):
    """Decide the model with HiGHS through scipy's milp, which shares no
    code with the built-in search."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint as SciRow, milp
    from scipy.sparse import csr_array

    index = {v: i for i, v in enumerate(model.variables)}
    n = len(model.variables)
    # sparse: a dense matrix of a full-NN model with paths runs to GiBs
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
    # the shapes the models take: combined, mapping and refuted by
    # routing, the placement screen, the baseline mapping, refuted by
    # counting and refuted by routing, and a pigeonhole
    shaped = {"tree5 combined NN 2": tree5_combined(2),
              "tree5 combined NN 4": tree5_combined(4),
              "diamond combined, one route a pair": diamond_one_route(),
              "sum4 screen": sum4_screen(),
              **baselines(),
              "pigeonhole 6 in 5": _pigeonhole(6, 5)}
    theirs = {name: highs_feasible(m) for name, m in shaped.items()}
    assert list(theirs.values()) == [True, True, False, True, True, True,
                                     False, False, False]
    for name, model in shaped.items():
        ours = solve(model, SolveConfig())
        assert (ours.status == "feasible") == theirs[name], name
    # what the root's matching refutes, HiGHS must prove infeasible: the
    # clique pigeonholes, and the random models of the soundness test
    for n in range(2, 12):
        assert solve(_pigeonhole(n + 1, n), SolveConfig()).nodes == 0, n
        assert not highs_feasible(_pigeonhole(n + 1, n)), n
    rng = random.Random(20261019)
    for trial in range(400):
        model = hall_model(rng)
        search = solver._Search(model)
        if search.propagate() is None and search.overcommitted():
            assert not highs_feasible(model), f"trial {trial}"
