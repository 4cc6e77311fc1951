"""Exact 0/1 search over the model rows.

One depth-first search with incremental slack propagation. It reads each
model row once: one pass rejects a malformed row (a bad relation, a
non-int coefficient or right-hand side, an undeclared variable, a
variable repeated within the row; a twice-declared variable is rejected
before) with ValueError, normalises it to sum(c_i x_i) <= b over
variable indices (an = row to two) and records whether it is a choice
group or an at-most-one row. The model builder leaves these checks to
this pass, which takes any object with variables and constraints. Every
normalised row enters through add_row as the model is read, before the
first fix; add_row sets its slack and width and the variables that
spend it. A row's slack is b minus the smallest value its fixed and
free terms can still take, and a negative slack is a conflict. Free
variables whose coefficient exceeds the slack are forced; a row whose
slack is at least its width, its widest coefficient, can do neither, so
a fix queues only the rows it leaves below their width (the watch rule
of Chai & Kuehlmann, DAC 2003).

The search branches on choices first. A choice group is a row that
needs at least one of its variables (all coefficients 1), such as an
operation's con2 row over its candidate placements. At each node the
open group (no member at 1, some member free) with the fewest free
members is taken, fail-first, ties going to the group declared first;
its first free member in branch order is tried at 1, then at 0. So an
operation is placed once few of its units are left, instead of in a
fixed order that can place every sink before its driver. Once no group
is open, none is below that node, and the search falls back to the
branch order: a shuffle within each variable class under the configured
seed, which perturbs runtime but never the verdict. A cursor into it
has only fixed variables before it; each decision records it and a
backtrack restores it, so no node rescans the order from the front.
There value 1 is tried before 0 for placements, and 0 before 1 for path
and vertex-signal variables (classes p and y): the rows that need a
path or a signal force it once its alternatives are gone, while one
switched on that nothing needs still claims routing, and undoing it
deep in the tree can take exponential time. Such a 0 gets no second
branch when it dominates, each row where it uses up slack holding
whatever its free terms take: any leaf with the variable at 1 is then a
leaf at 0.

Before the first decision, on the root's fixpoint, the search tests
Hall's condition, as an LP bound would refute an over-subscribed model
(five operations on four units, n + 1 pigeons in n holes) where
branching takes exponential time (Haken, TCS 1985). An at-most-one row
is a normalised row with rhs 1 and every coefficient 1, such as a
unit's con1 row over the operations it fits. Each open choice group
that shares no variable with another group must match onto its own
at-most-one row of one of its free members, by augmenting paths; only
rows that hold a variable outside the group count, and a group with a
free member in no such row is left out. A leaf sets some member of each
such group to 1, a distinct variable per group, and no row holds two of
them, so the leaf gives the matching: when a group stays unmatched
there is no leaf, and the search ends infeasible at 0 nodes. The check
drops rows and groups, so it is a relaxation of the model and its
refutation a proof. It runs at the root only: below the root it refuted
no node of the benchmark's exact models, so each further check would be
spent.

On conflict the search backtracks chronologically: it undoes to the
deepest decision with a value left and flips it. The search ends at its
first leaf, re-checked against the normalised rows, or once the tree is
exhausted. Enumeration is a loop of such searches, each over the
model's rows and a no-good cut per placement found before.

The clock is read at every search node, so a time limit holds to within
one node's propagation.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

from .dfg import is_int
from .ilp import LinearConstraint, _matched, gc_paused

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveConfig:
    """A search's seed and time limit. A solve stops at its first leaf;
    an enumeration runs solves until its caller stops reading, the
    time limit covering them all."""

    seed: int = 0
    time_limit: float = 60.0

    def __post_init__(self):
        # random.Random(None) would seed from the OS
        if not is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        # written so that NaN, which compares false, is rejected too
        if not ((is_int(self.time_limit)
                 or isinstance(self.time_limit, float))
                and self.time_limit > 0):
            raise ValueError("time limit must be a positive number")


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
        # per normalised row sum(c x) <= rhs: its (c, variable index)
        # terms, its rhs and its slack under the current fixes
        self.coefs: list[list[tuple[int, int]]] = []
        self.rhs: list[int] = []
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
        # the choices the search branches on first, in row order: the
        # variable indices of each row that needs at least one of its
        # variables (relation >= or =, rhs at least 1, every coefficient 1)
        self.groups: list[list[int]] = []
        # the rows that allow at most one of their variables (normalised
        # rhs 1, every coefficient 1), which the root's matching reads
        self.at_most_one: list[int] = []
        # the rows a leaf's failed re-check is worded from
        self.constraints = model.constraints
        # at each variable index, the last row whose terms held it
        last = [-1] * len(self.vars)
        # a row's <= half, and the >= half of a >= or = row negated,
        # enter through add_row
        for r, con in enumerate(self.constraints):
            relation = con.relation
            if relation not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {relation!r}")
            terms = []
            # an exact int passes on the type test alone, which is much
            # cheaper than a call per term
            for c, v in con.terms:
                if type(c) is not int and not is_int(c):
                    raise ValueError(f"non-integer coefficient {c!r}")
                i = index.get(v)
                if i is None:
                    raise ValueError(f"row references undeclared {v}")
                if last[i] == r:
                    raise ValueError(f"duplicate variable {v} in a row")
                last[i] = r
                terms.append((c, i))
            rhs = con.rhs
            if type(rhs) is not int and not is_int(rhs):
                raise ValueError(f"non-integer right-hand side {rhs!r}")
            if relation != ">=":
                row = self.add_row(terms, rhs)
                if rhs == 1 and terms and all(c == 1 for c, _ in terms):
                    self.at_most_one.append(row)
            if relation != "<=":
                row = self.add_row([(-c, i) for c, i in terms], -rhs)
                if rhs >= 1 and terms and all(c == 1 for c, _ in terms):
                    self.groups.append([i for _, i in terms])
                elif rhs == -1 and terms and all(c == -1 for c, _ in terms):
                    self.at_most_one.append(row)

    def add_row(self, terms, rhs) -> int:
        """Add sum(c x) <= rhs before any fix, queued if its slack is
        below its width; each term is free and counts min(c, 0), as
        undo_to assumes."""
        row = len(self.coefs)
        self.coefs.append(terms)
        self.rhs.append(rhs)
        spends = self.spends
        slack, width = rhs, 0
        # fixing to 1 uses up the slack of a positive coefficient, fixing
        # to 0 that of a negative one
        for c, i in terms:
            if c > 0:
                spends[2 * i + 1] += (row, c)
                if c > width:
                    width = c
            elif c < 0:
                spends[2 * i] += (row, -c)
                if -c > width:
                    width = -c
                slack -= c
        self.slack.append(slack)
        self.width.append(width)
        if slack < width:
            self.queue.append(row)
        return row

    def fix(self, i, value):
        self.val[i] = value
        self.trail.append(i)
        slack = self.slack
        queue = self.queue
        width = self.width
        spend = iter(self.spends[2 * i + value])
        # a row left with at least its width in slack can do nothing yet
        for row, amount in zip(spend, spend):
            s = slack[row] = slack[row] - amount
            if s < width[row]:
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

    def zero_dominates(self, i) -> bool:
        """Whether every row where variable i at 0 uses up slack holds
        whatever its free terms, i among them, take."""
        val = self.val
        spend = iter(self.spends[2 * i])
        return all(self.slack[row] >= sum(abs(c) for c, j in self.coefs[row]
                                          if val[j] < 0)
                   for row, _ in zip(spend, spend))

    def overcommitted(self) -> bool:
        """Hall's condition on the current fixpoint: whether some choice
        groups need more shared at-most-one rows than they can reach.
        Each open group that counts (it shares no variable with another
        group, and every free member lies in some shared row) must match
        onto its own shared at-most-one row of one of its free members;
        a shared row holds a variable outside the group. True when a
        group is left unmatched, which proves the model has no leaf."""
        val = self.val
        coefs = self.coefs
        spends = self.spends
        amo = set(self.at_most_one)
        held = [0] * len(val)
        for members in self.groups:
            for i in set(members):
                held[i] += 1
        # per counted group, the shared rows of its free members
        choices = {}
        for g, members in enumerate(self.groups):
            distinct = set(members)
            if any(held[i] > 1 or val[i] == 1 for i in distinct):
                continue
            # how many terms of each at-most-one row the group holds
            inside: dict[int, int] = {}
            free_rows = []
            for i in distinct:
                spend = spends[2 * i + 1]
                rows = [r for r in spend[::2] if r in amo]
                for r in rows:
                    inside[r] = inside.get(r, 0) + 1
                if val[i] < 0:
                    free_rows.append(rows)
            shared: set[int] = set()
            for rows in free_rows:
                mine = [r for r in rows if inside[r] < len(coefs[r])]
                if not mine:
                    break
                shared.update(mine)
            else:
                choices[g] = shared
        # the all-different test the placement screen runs, over groups
        # and rows in place of operations and units
        return not _matched(choices)

    def run(self, seed, deadline) -> tuple[str, dict | None]:
        """Search for one leaf: (FEASIBLE, its assignment), or
        (INFEASIBLE, None) once the tree is exhausted, or (TIMEOUT,
        None)."""
        order = _branch_order(self.vars, seed)
        rank = [0] * len(order)
        for at, i in enumerate(order):
            rank[i] = at
        # members in branch order; ties between groups go to row order
        groups = [sorted(members, key=rank.__getitem__)
                  for members in self.groups]
        first = [0 if v.cls in ("p", "y") else 1 for v in self.vars]
        val = self.val
        # every variable in order[:pos] is fixed
        pos = 0
        # (decision variable, value tried first, cursor pos, 1 once the
        # other value is on, trail mark, 1 if taken from a choice group)
        stack: list[tuple[int, int, int, int, int, int]] = []
        root = True
        while True:
            if time.monotonic() > deadline:
                return TIMEOUT, None
            conflict = self.propagate()
            # Hall's check runs once, on the root's fixpoint, before the
            # first decision
            if root:
                root = False
                if conflict is None and self.overcommitted():
                    return INFEASIBLE, None
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
                    # a dominating 0 is recorded with its other value
                    # tried: it is final
                    done = int(not first[free]
                               and self.zero_dominates(free))
                    stack.append((free, first[free], pos, done,
                                  len(self.trail), 0))
                    self.nodes += 1
                    self.fix(free, first[free])
                    continue
                assignment = dict(zip(self.vars, val))
                rhs = self.rhs
                for row, terms in enumerate(self.coefs):
                    if sum(c * val[j] for c, j in terms) > rhs[row]:
                        bad = check_assignment(self.constraints, assignment)
                        raise AssertionError(
                            f"solution fails re-check: {bad[0]}")
                return FEASIBLE, assignment
            # back to the deepest decision with a value left, whose other
            # value is tried; order[:pos] at a decision was fixed below
            # its trail mark, so undoing to the mark keeps it
            while stack:
                var, value, pos, tried, mark, grouped = stack.pop()
                if not tried:
                    break
            else:
                return INFEASIBLE, None
            self.undo_to(mark)
            stack.append((var, value, pos, 1, mark, grouped))
            self.nodes += 1
            self.fix(var, 1 - value)


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


@gc_paused
def solve(model, cfg: SolveConfig) -> SolveResult:
    """Decide the model exactly: its first leaf, or infeasible or
    timeout with no assignment; deterministic for a fixed (model,
    seed)."""
    start = time.monotonic()
    search = _Search(model)
    status, assignment = search.run(cfg.seed, start + cfg.time_limit)
    return SolveResult(status, assignment, search.nodes,
                       time.monotonic() - start)


def enumerate_solutions(model, cfg: SolveConfig):
    """Yield a feasible result per distinct placement (the f variables
    at 1), each one solve of the model's rows and a no-good cut per
    placement yielded before, with that solve's nodes and seconds. Each
    solve's time limit is what is left of cfg's, floored at 1 ms. Ends
    only on exhaustion or at the deadline, returning the last solve's
    infeasible or timeout result; a caller that needs fewer placements
    stops reading."""
    deadline = time.monotonic() + cfg.time_limit
    rows = list(model.constraints)
    while True:
        left = max(deadline - time.monotonic(), 0.001)
        res = solve(SimpleNamespace(variables=model.variables,
                                    constraints=rows),
                    SolveConfig(cfg.seed, left))
        if res.status != FEASIBLE:
            return res
        yield res
        # sum(ones) - sum(zeros) <= |ones| - 1 excludes exactly this
        # placement; leaving the zeros out would also exclude every
        # placement that switches on more of them
        terms = tuple((1 if x else -1, v)
                      for v, x in res.assignment.items() if v.cls == "f")
        rows.append(LinearConstraint(
            terms, "<=", sum(c > 0 for c, _ in terms) - 1, "cut"))
