"""Exact 0/1 search over the model rows.

One depth-first search with incremental slack propagation. It reads the
model in one pass that normalises every row to sum(c_i x_i) <= b over
variable indices and rejects a malformed model (a bad relation, a
non-int coefficient, an undeclared or twice-declared variable) with
ValueError. A row's slack is b minus the smallest value its fixed and
free terms can still take, and a negative slack is a conflict. Free
variables whose coefficient exceeds the slack are forced; a row whose
slack is at least its widest coefficient can do neither and is skipped.

The search branches on choices first. A choice group is a row that
needs at least one of its variables (all coefficients 1), such as an
operation's con2 row over its candidate placements or a connection's
con5 row over its paths in a routing-only model. At each node the
open group (no member at 1, some member free) with the fewest free
members is taken, fail-first, ties going to the group declared first;
its first free member in branch order is tried at 1, then at 0. So a
connection picks its path, and an operation is placed once few of its
units are left, instead of in a fixed order that can place every sink
before its driver. Once no group is open, none is below that node, and
the search falls back to the branch order: a shuffle within each
variable class under the configured seed, which perturbs runtime but
never the verdict. A cursor into it has only fixed variables before
it; each decision records it and a backtrack restores it, so no node
rescans the order from the front. There value 1 is tried before 0 for
placements, and 0 before 1 for edge, path and vertex-signal variables
(classes e, p and y): the rows that need an edge, a path or a signal
force it once its alternatives are gone, while one switched on that
nothing needs still claims routing, and undoing it deep in the tree
can take exponential time.

The search yields each leaf; to go on past it, one row the leaf
violates joins the live search (the no-good cut over the projection
when enumerating) and the search resumes above the deepest decision
that row depends on, so no subtree is explored twice and leaves come in
the order separate searches with all cuts so far would find them. The
clock is read at every search node, so a time limit holds to within one
node's propagation.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from .ilp import LinearConstraint

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    time_limit: float = 60.0
    solution_limit: int = 1

    def __post_init__(self):
        # written so that NaN, which compares false, is rejected too
        if not (isinstance(self.time_limit, (int, float))
                and self.time_limit > 0):
            raise ValueError("time limit must be a positive number")
        if not (isinstance(self.solution_limit, int)
                and self.solution_limit >= 1):
            raise ValueError("solution limit must be an int of at least 1")


@dataclass(frozen=True)
class SolveResult:
    status: str
    assignment: dict | None
    nodes: int
    wall_time: float


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


class _Search:
    def __init__(self, model):
        self.vars = list(model.variables)
        self.index = index = {v: i for i, v in enumerate(self.vars)}
        if len(index) != len(self.vars):
            raise ValueError("duplicate variable declaration")
        self.val = [-1] * len(self.vars)
        self.coefs: list[list[tuple[int, int]]] = []
        self.slack: list[int] = []
        # per row, its widest |coefficient|: a row with at least that much
        # slack can neither force a variable nor conflict
        self.width: list[int] = []
        # at 2 * i + value, the rows where variable i at that value uses
        # up slack, flat as row, amount, row, amount, ...
        self.spends: list[list[int]] = [[] for _ in range(2 * len(self.vars))]
        self.trail: list[int] = []
        self.queue: deque[int] = deque()
        self.nodes = 0
        # every row a leaf is re-checked against: the model's and the cuts
        self.rows = list(model.constraints)
        for con in self.rows:
            relation = con.relation
            if relation not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {relation!r}")
            terms = []
            for c, v in con.terms:
                if not isinstance(c, int):
                    raise ValueError(f"non-integer coefficient {c!r}")
                i = index.get(v)
                if i is None:
                    raise ValueError(f"row references undeclared {v}")
                terms.append((c, i))
            if relation != ">=":
                self.add_row(terms, con.rhs)
            if relation != "<=":
                self.add_row([(-c, i) for c, i in terms], -con.rhs)

    def add_row(self, terms, rhs) -> int:
        """Add sum(c x) <= rhs with its slack under the current fixes and
        queue it; a fixed term counts c*val and a free one min(c, 0), as
        undo_to assumes."""
        row = len(self.coefs)
        self.coefs.append(terms)
        val = self.val
        spends = self.spends
        slack, width = rhs, 0
        # fixing to 1 uses up the slack of a positive coefficient, fixing
        # to 0 that of a negative one
        for c, i in terms:
            if c > 0:
                spends[2 * i + 1] += (row, c)
                if c > width:
                    width = c
                if val[i] == 1:
                    slack -= c
            elif c < 0:
                spends[2 * i] += (row, -c)
                if -c > width:
                    width = -c
                if val[i] != 0:
                    slack -= c
        self.slack.append(slack)
        self.width.append(width)
        self.queue.append(row)
        return row

    def fix(self, i, value):
        self.val[i] = value
        self.trail.append(i)
        slack = self.slack
        queue = self.queue
        spend = iter(self.spends[2 * i + value])
        for row, amount in zip(spend, spend):
            slack[row] -= amount
            queue.append(row)

    def undo_to(self, mark):
        slack = self.slack
        val = self.val
        trail = self.trail
        while len(trail) > mark:
            i = trail.pop()
            spend = iter(self.spends[2 * i + val[i]])
            val[i] = -1
            for row, amount in zip(spend, spend):
                slack[row] += amount
        self.queue.clear()

    def propagate(self) -> int | None:
        """Run forcing to fixpoint; the violated row on conflict."""
        queue = self.queue
        val = self.val
        while queue:
            row = queue.popleft()
            s = self.slack[row]
            if s >= self.width[row]:
                continue
            if s < 0:
                return row
            for c, j in self.coefs[row]:
                if val[j] >= 0:
                    continue
                if c > s:
                    self.fix(j, 0)
                elif -c > s:
                    self.fix(j, 1)
        return None

    def leaves(self, seed, deadline):
        """Yield the assignment at each leaf. The caller sends back a
        row the leaf violates; it joins the search, which resumes at the
        deepest untried decision above which the cut has slack. Returns
        INFEASIBLE once the tree is exhausted, or TIMEOUT."""
        order = _branch_order(self.vars, seed)
        rank = [0] * len(order)
        for at, i in enumerate(order):
            rank[i] = at
        groups = _choice_groups(self.rows, self.index, rank)
        first = [0 if v.cls in ("e", "p", "y") else 1 for v in self.vars]
        val = self.val
        # every variable in order[:pos] is fixed
        pos = 0
        # (decision variable, value tried first, cursor pos, 1 once the
        # other value is on, trail mark, 1 if taken from a choice group)
        stack: list[tuple[int, int, int, int, int, int]] = []
        while True:
            if time.monotonic() > deadline:
                return TIMEOUT
            conflict = self.propagate()
            if conflict is None:
                # a node below a cursor decision has every group settled
                # too: fixing more variables never reopens one
                chosen = _open_choice(groups, val) if (
                    not stack or stack[-1][5]) else None
                if chosen is not None:
                    stack.append((chosen, 1, pos, 0, len(self.trail), 1))
                    self.nodes += 1
                    self.fix(chosen, 1)
                    continue
                while pos < len(order) and val[order[pos]] >= 0:
                    pos += 1
                if pos < len(order):
                    free = order[pos]
                    stack.append((free, first[free], pos, 0,
                                  len(self.trail), 0))
                    self.nodes += 1
                    self.fix(free, first[free])
                    continue
                assignment = dict(zip(self.vars, self.val))
                bad = check_assignment(self.rows, assignment)
                if bad:
                    raise AssertionError(f"solution fails re-check: {bad[0]}")
                cut = yield assignment
                self.rows.append(cut)
                conflict = self.add_row(
                    [(c, self.index[v]) for c, v in cut.terms], cut.rhs)
            # every decision the conflict row stays violated without is
            # popped with both its branches; order[:pos] at a decision was
            # fixed below its trail mark, so undoing to the mark keeps it
            while stack:
                var, value, pos, tried, mark, grouped = stack.pop()
                self.undo_to(mark)
                if tried == 0 and self.slack[conflict] >= 0:
                    stack.append((var, value, pos, 1, mark, grouped))
                    self.nodes += 1
                    self.fix(var, 1 - value)
                    self.queue.append(conflict)
                    break
            else:
                return INFEASIBLE


def _choice_groups(rows, index, rank):
    """The choices the search branches on first: each row that needs at
    least one of its variables (all coefficients 1, relation >= or =,
    right-hand side at least 1). Members come in branch order, groups in
    row order, which breaks ties between them."""
    return [sorted((index[v] for _, v in con.terms), key=rank.__getitem__)
            for con in rows
            if (con.relation != "<=" and con.rhs >= 1 and con.terms
                and all(c == 1 for c, _ in con.terms))]


def _open_choice(groups, val):
    """Fail-first: the first free member of the open group (no member at
    1, some free) with the fewest free members; None once every group is
    settled."""
    best, fewest = None, len(val) + 1
    for members in groups:
        free = 0
        for i in members:
            x = val[i]
            if x == 1:
                break
            if x < 0:
                free += 1
                if free >= fewest:
                    break
        else:
            if free:
                best, fewest = members, free
    if best is None:
        return None
    return next(i for i in best if val[i] < 0)


def _branch_order(variables, seed):
    rng = random.Random(seed)
    groups: dict[str, list[int]] = {}
    for i, v in enumerate(variables):
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


def solve(model, cfg: SolveConfig) -> SolveResult:
    """Decide the model exactly: its first leaf, or the proof that there
    is none; deterministic for a fixed (model, seed)."""
    t0 = time.monotonic()
    search = _Search(model)
    leaves = search.leaves(cfg.seed, t0 + cfg.time_limit)
    try:
        status, assignment = FEASIBLE, next(leaves)
    except StopIteration as stop:
        status, assignment = stop.value, None
    return SolveResult(status, assignment, search.nodes,
                       time.monotonic() - t0)


def enumerate_solutions(model, cfg: SolveConfig, projection=("f",)):
    """Yield feasible results, excluding each one's projection onto the
    given variable classes before continuing; each result counts the
    nodes and seconds since the previous one. Ends after solution_limit
    yields (returning None), on exhaustion, or at the deadline;
    infeasible models yield an empty stream."""
    since = time.monotonic()
    search = _Search(model)
    leaves = search.leaves(cfg.seed, since + cfg.time_limit)
    projected = [v for v in model.variables if v.cls in projection]
    counted, cut = 0, None
    for _ in range(cfg.solution_limit):
        try:
            assignment = leaves.send(cut)
        except StopIteration as stop:
            return SolveResult(stop.value, None, search.nodes - counted,
                               time.monotonic() - since)
        now = time.monotonic()
        yield SolveResult(FEASIBLE, assignment, search.nodes - counted,
                          now - since)
        counted, since = search.nodes, now
        # sum(ones) - sum(zeros) <= |ones| - 1 excludes exactly this
        # projection; leaving the zeros out would also exclude every
        # projection that switches on more of them
        terms = tuple((1 if assignment[v] else -1, v) for v in projected)
        cut = LinearConstraint(terms, "<=", sum(c > 0 for c, _ in terms) - 1,
                               "cut")
    return None
