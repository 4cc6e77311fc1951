"""Exact 0/1 search over the model rows.

Depth-first branch and bound with incremental slack propagation: every
row is normalised to sum(c_i x_i) <= b, a row's slack is b minus the
smallest value its fixed and free terms can still take, and a negative
slack is a conflict. Free variables whose coefficient exceeds the slack
are forced. The decision order shuffles within each variable class under
the configured seed, which perturbs runtime but never the verdict; value
1 is tried before 0 for placements, and 0 before 1 for edge, path and
vertex-signal variables (classes e, p and y): the rows that need an edge,
a path or a signal force it once its alternatives are gone, while one
switched on that nothing needs still claims routing, and undoing it deep
in the tree can take exponential time. Optimisation keeps searching past
incumbents with a strictly-better bound on the objective row. The clock
is read at every search node, so a time limit holds to within one node's
propagation.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    time_limit: float = 60.0
    mode: str = "feasibility"
    solution_limit: int = 1

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time limit must be positive")
        if self.solution_limit < 1:
            raise ValueError("solution limit must be at least 1")
        if self.mode not in ("feasibility", "optimize"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SolveResult:
    status: str
    assignment: dict | None
    nodes: int
    wall_time: float
    objective_value: int | None = None


def check_assignment(constraints, assignment) -> list[str]:
    """Violated rows under a complete 0/1 assignment."""
    bad = []
    for con in constraints:
        lhs = sum(c * assignment.get(v, 0) for c, v in con.terms)
        ok = ((con.relation == "<=" and lhs <= con.rhs)
              or (con.relation == ">=" and lhs >= con.rhs)
              or (con.relation == "=" and lhs == con.rhs))
        if not ok:
            bad.append(f"{con.tag}: lhs={lhs} {con.relation} {con.rhs}")
    return bad


def _reject_malformed(model):
    declared = set(model.variables)
    if len(declared) != len(model.variables):
        raise ValueError("duplicate variable declaration")
    for con in model.constraints:
        if con.relation not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {con.relation!r}")
        for c, v in con.terms:
            if not isinstance(c, int):
                raise ValueError(f"non-integer coefficient {c!r}")
            if v not in declared:
                raise ValueError(f"row references undeclared {v}")
    for c, v in model.objective or ():
        if v not in declared:
            raise ValueError(f"objective references undeclared {v}")


class _Search:
    def __init__(self, model, extra_rows=()):
        self.vars = list(model.variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        self.val = [-1] * len(self.vars)
        self.coefs: list[list[tuple[int, int]]] = []
        self.slack: list[int] = []
        # per variable, the rows it occurs in and its coefficient in each
        self.occurs: list[list[int]] = [[] for _ in self.vars]
        self.occ_coef: list[list[int]] = [[] for _ in self.vars]
        for con in list(model.constraints) + list(extra_rows):
            if con.relation in ("<=", "="):
                self._add_row([(c, self.index[v]) for c, v in con.terms],
                              con.rhs)
            if con.relation in (">=", "="):
                self._add_row([(-c, self.index[v]) for c, v in con.terms],
                              -con.rhs)
        self.trail: list[int] = []
        self.queue: deque[int] = deque(range(len(self.coefs)))
        self.nodes = 0
        # objective handled as one more <= row whose bound tightens as
        # incumbents arrive; inactive until the first one
        self.obj = [(c, self.index[v]) for c, v in model.objective or ()]
        self.obj_coef = [0] * len(self.vars)
        for c, i in self.obj:
            self.obj_coef[i] += c
        self.obj_lo = sum(min(c, 0) for c, _ in self.obj)
        self.obj_bound = None

    def _add_row(self, terms, rhs):
        row = len(self.coefs)
        self.coefs.append(terms)
        self.slack.append(rhs - sum(min(c, 0) for c, _ in terms))
        for c, i in terms:
            self.occurs[i].append(row)
            self.occ_coef[i].append(c)

    def fix(self, i, value) -> bool:
        if self.val[i] >= 0:
            return self.val[i] == value
        self.val[i] = value
        self.trail.append(i)
        # fixing to 1 uses up the slack of a positive coefficient, fixing
        # to 0 that of a negative one
        sign = 1 if value else -1
        slack = self.slack
        for row, c in zip(self.occurs[i], self.occ_coef[i]):
            c *= sign
            if c > 0:
                slack[row] -= c
                self.queue.append(row)
        c = self.obj_coef[i] * sign
        if c > 0:
            self.obj_lo += c
        return True

    def undo_to(self, mark):
        slack = self.slack
        while len(self.trail) > mark:
            i = self.trail.pop()
            sign = 1 if self.val[i] else -1
            self.val[i] = -1
            for row, c in zip(self.occurs[i], self.occ_coef[i]):
                c *= sign
                if c > 0:
                    slack[row] += c
            c = self.obj_coef[i] * sign
            if c > 0:
                self.obj_lo -= c
        self.queue.clear()

    def propagate(self) -> bool:
        """Run forcing to fixpoint; False on conflict."""
        while True:
            while self.queue:
                row = self.queue.popleft()
                s = self.slack[row]
                if s < 0:
                    return False
                for c, j in self.coefs[row]:
                    if self.val[j] >= 0:
                        continue
                    if c > s:
                        if not self.fix(j, 0):
                            return False
                    elif -c > s:
                        if not self.fix(j, 1):
                            return False
            if self.obj_bound is None:
                return True
            s = self.obj_bound - self.obj_lo
            if s < 0:
                return False
            forced = False
            for c, j in self.obj:
                if self.val[j] >= 0:
                    continue
                if c > s:
                    if not self.fix(j, 0):
                        return False
                    forced = True
                elif -c > s:
                    if not self.fix(j, 1):
                        return False
                    forced = True
            if not forced:
                return True


def _branch_order(model, seed):
    rng = random.Random(seed)
    groups: dict[str, list[int]] = {}
    for i, v in enumerate(model.variables):
        groups.setdefault(v.cls, []).append(i)
    names = sorted(groups)
    if "f" in groups:
        names.remove("f")
        names.insert(0, "f")
    order = []
    for name in names:
        block = groups[name]
        rng.shuffle(block)
        order.extend(block)
    return order


def solve(model, cfg: SolveConfig, _extra_rows=(), _deadline=None) -> SolveResult:
    """Decide the model exactly; deterministic for a fixed (model, seed)."""
    _reject_malformed(model)
    t0 = time.monotonic()
    deadline = _deadline if _deadline is not None else t0 + cfg.time_limit
    search = _Search(model, _extra_rows)
    order = _branch_order(model, cfg.seed)
    first = [0 if v.cls in ("e", "p", "y") else 1 for v in search.vars]
    optimize = cfg.mode == "optimize" and model.objective
    best = None
    best_value = None

    # (var, 1 once its second value is on, trail mark)
    stack: list[tuple[int, int, int]] = []
    exploring = True
    while True:
        if time.monotonic() > deadline:
            return SolveResult(TIMEOUT, None, search.nodes,
                               time.monotonic() - t0)
        ok = search.propagate() if exploring else False
        if ok:
            free = next((i for i in order if search.val[i] < 0), None)
            if free is None:
                assignment = {v: search.val[i] if search.val[i] >= 0 else 0
                              for i, v in enumerate(search.vars)}
                rows = list(model.constraints) + list(_extra_rows)
                bad = check_assignment(rows, assignment)
                if bad:
                    raise AssertionError(f"solution fails re-check: {bad[0]}")
                if not optimize:
                    return SolveResult(FEASIBLE, assignment, search.nodes,
                                       time.monotonic() - t0)
                value = sum(c * assignment[v] for c, v in model.objective)
                best, best_value = assignment, value
                search.obj_bound = value - 1
                exploring = False  # force a backtrack, keep searching
                continue
            mark = len(search.trail)
            search.nodes += 1
            stack.append((free, 0, mark))
            search.fix(free, first[free])
            continue
        exploring = True
        while stack:
            var, tried, mark = stack.pop()
            search.undo_to(mark)
            if tried == 0:
                stack.append((var, 1, mark))
                search.nodes += 1
                search.fix(var, 1 - first[var])
                break
        else:
            wall = time.monotonic() - t0
            if best is not None:
                return SolveResult(FEASIBLE, best, search.nodes, wall,
                                   best_value)
            return SolveResult(INFEASIBLE, None, search.nodes, wall)


@dataclass(frozen=True)
class _Cut:
    terms: tuple
    relation: str
    rhs: int
    tag: str = "cut"


def enumerate_solutions(model, cfg: SolveConfig, projection=("f",)):
    """Yield feasible results, excluding each one's projection onto the
    given variable classes before continuing. Ends after solution_limit
    yields, on exhaustion, or at the deadline; infeasible models yield
    an empty stream."""
    deadline = time.monotonic() + cfg.time_limit
    extra: list[_Cut] = []
    for _ in range(cfg.solution_limit):
        res = solve(model, cfg, _extra_rows=tuple(extra), _deadline=deadline)
        if res.status != FEASIBLE:
            return res
        yield res
        # sum(ones) - sum(zeros) <= |ones| - 1 excludes exactly this
        # projection; leaving the zeros out would also exclude every
        # projection that switches on more of them
        terms = tuple((1 if res.assignment[v] else -1, v)
                      for v in model.variables if v.cls in projection)
        ones = sum(c > 0 for c, _ in terms)
        extra.append(_Cut(terms, "<=", ones - 1))
    return None
