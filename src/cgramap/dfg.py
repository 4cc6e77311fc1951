"""Dataflow graphs for CGRA mapping.

A DFG is a directed hypergraph: vertices are operations, each hyperedge is
one driver operation fanning out to a list of (sink, operand index) pairs.
Cycles and self-loops are permitted (loop-carried dependences). Each
(sink, operand) slot is driven at most once. An operation produces a single
value, so all edge lines with the same driver denote one net and are merged.
A mapping places every operation exactly once; none is optional.

The text format, one directive per line, '#' starts a comment:

    op <id> <opcode> [const=<int>]
    edge <driver> -> <sink>:<operand>[, <sink>:<operand> ...]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

ALU_OPCODES = frozenset(
    {"add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr", "cmp"}
)
MEM_OPCODES = frozenset({"load", "store"})
IO_OPCODES = frozenset({"input", "output"})
CONST_OPCODE = "const"
OPCODES = ALU_OPCODES | MEM_OPCODES | IO_OPCODES | {CONST_OPCODE}

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def is_int(x) -> bool:
    """An int proper: a bool would pass as 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool)


class DfgError(ValueError):
    """Raised on malformed DFG text or an ill-formed graph.

    kind: one of 'syntax', 'duplicate-op', 'unknown-opcode', 'dangling',
    'duplicate-driver', 'bad-id'. line is 1-based, 0 when not tied to a line.
    """

    def __init__(self, kind: str, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.kind = kind
        self.line = line


@dataclass(frozen=True, order=True)
class Operation:
    id: str
    opcode: str
    const_value: Optional[int] = None


@dataclass(frozen=True)
class Edge:
    """One net: driver op id and its (sink op id, operand index) fanout."""

    driver: str
    sinks: tuple[tuple[str, int], ...]


class Dfg:
    """Immutable-by-convention operation/edge container with lookups."""

    def __init__(self, operations: Iterable[Operation], edges: Iterable[Edge],
                 lines: Sequence[int] = ()):
        """lines, when given, is the source line of each operation and then
        of each edge, in order; an error names the line at fault."""
        operations, edges = tuple(operations), tuple(edges)

        def line(item):
            return lines[item] if lines else 0

        self.ops_by_id: dict[str, Operation] = {}
        for item, op in enumerate(operations):
            if op.id in self.ops_by_id:
                raise DfgError("duplicate-op", f"operation '{op.id}' defined twice", line(item))
            self.ops_by_id[op.id] = op
        self.operations: tuple[Operation, ...] = tuple(
            sorted(operations, key=lambda o: o.id)
        )
        merged: dict[str, list[tuple[str, int]]] = {}
        slot_owner: dict[tuple[str, int], str] = {}
        for item, e in enumerate(edges, start=len(operations)):
            if e.driver not in self.ops_by_id:
                raise DfgError("dangling", f"edge driver '{e.driver}' is not an op", line(item))
            for sink, idx in e.sinks:
                if sink not in self.ops_by_id:
                    raise DfgError("dangling", f"edge sink '{sink}' is not an op", line(item))
                owner = slot_owner.setdefault((sink, idx), e.driver)
                if owner != e.driver:
                    raise DfgError(
                        "duplicate-driver",
                        f"operand {sink}:{idx} driven by both '{owner}' and '{e.driver}'",
                        line(item),
                    )
            merged.setdefault(e.driver, []).extend(e.sinks)
        self.edges: tuple[Edge, ...] = tuple(
            Edge(d, tuple(sorted(set(sk)))) for d, sk in sorted(merged.items())
        )

    def point_edges(self) -> tuple[tuple[str, str], ...]:
        """Deduplicated (driver, sink) pairs, hyperedges flattened."""
        pairs = set()
        for e in self.edges:
            for sink, _idx in e.sinks:
                pairs.add((e.driver, sink))
        return tuple(sorted(pairs))

    def __eq__(self, other):
        return (
            isinstance(other, Dfg)
            and self.operations == other.operations
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.operations, self.edges))

    def __repr__(self):
        return f"Dfg({len(self.operations)} ops, {len(self.edges)} edges)"


def parse_dfg(text: str) -> Dfg:
    """Parse the text format. Raises DfgError with a 1-based line number."""
    ops: list[Operation] = []
    op_lines: list[int] = []
    edges: list[Edge] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if fields[0] == "op":
            rest = fields[1].split() if len(fields) > 1 else []
            if len(rest) < 2:
                raise DfgError("syntax", "expected: op <id> <opcode>", lineno)
            op_id, opcode = rest[0], rest[1]
            if not _ID_RE.match(op_id):
                raise DfgError("bad-id", f"bad op id '{op_id}'", lineno)
            if opcode not in OPCODES:
                raise DfgError("unknown-opcode", f"unknown opcode '{opcode}'", lineno)
            const_value = None
            for extra in rest[2:]:
                if extra.startswith("const="):
                    try:
                        const_value = int(extra[len("const=") :])
                    except ValueError:
                        raise DfgError("syntax", f"bad const payload '{extra}'", lineno)
                else:
                    raise DfgError("syntax", f"unexpected token '{extra}'", lineno)
            ops.append(Operation(op_id, opcode, const_value))
            op_lines.append(lineno)
        elif fields[0] == "edge":
            m = re.match(r"^(\S+)\s*->\s*(.+)$", fields[1] if len(fields) > 1 else "")
            if not m:
                raise DfgError("syntax", "expected: edge <driver> -> <sink>:<idx>,...", lineno)
            driver = m.group(1)
            sinks = []
            for part in m.group(2).split(","):
                part = part.strip()
                sm = re.match(r"^(\S+):(\d+)$", part)
                if not sm:
                    raise DfgError("syntax", f"bad sink '{part}', expected <sink>:<idx>", lineno)
                sinks.append((sm.group(1), int(sm.group(2))))
            edges.append(Edge(driver, tuple(sinks)))
            edge_lines.append(lineno)
        else:
            raise DfgError("syntax", f"unknown directive '{fields[0]}'", lineno)
    return Dfg(ops, edges, op_lines + edge_lines)


def serialize_dfg(dfg: Dfg) -> str:
    """Canonical text form: ops sorted by id, one merged edge per driver."""
    out = []
    for op in dfg.operations:
        line = f"op {op.id} {op.opcode}"
        if op.const_value is not None:
            line += f" const={op.const_value}"
        out.append(line)
    for e in dfg.edges:
        sinks = ", ".join(f"{s}:{i}" for s, i in e.sinks)
        out.append(f"edge {e.driver} -> {sinks}")
    return "\n".join(out) + "\n"


def validate_dfg(dfg: Dfg) -> list[str]:
    """Return a list of violation strings, empty when well-formed.

    Construction already rejects hard errors; this reports semantic lint,
    one string per finding:
      - an op whose opcode is unknown;
      - a const payload on an op that is not a const;
      - a const op without a payload;
      - an output op that drives an edge;
      - a source op (input or const) that has fanin.
    Nothing else is checked: not ops whose value reaches no sink, and not
    undriven operand slots, as the format declares no arity.
    """
    issues = []
    for op in dfg.operations:
        if op.opcode not in OPCODES:
            issues.append(f"op {op.id}: unknown opcode '{op.opcode}'")
        if op.const_value is not None and op.opcode != CONST_OPCODE:
            issues.append(f"op {op.id}: const payload on opcode '{op.opcode}'")
        if op.opcode == CONST_OPCODE and op.const_value is None:
            issues.append(f"op {op.id}: const op without const= payload")
    drives = {e.driver for e in dfg.edges}
    has_fanin = {s for e in dfg.edges for s, _ in e.sinks}
    for op in dfg.operations:
        if op.opcode == "output" and op.id in drives:
            issues.append(f"op {op.id}: output op drives an edge")
        if op.opcode in ("input", CONST_OPCODE) and op.id in has_fanin:
            issues.append(f"op {op.id}: source op has fanin")
    return issues

