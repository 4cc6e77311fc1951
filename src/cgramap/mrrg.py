"""Modulo routing resource graphs and the architecture family generators.

An MRRG vertex is a (physical id, context) pair with 0 <= context < II.
Function-unit vertices execute opcodes and carry a latency; routing vertices
(wires, muxes, registers) forward values. Every edge from a vertex at
context t lands at context (t + latency(source)) mod II, so a path's end
context is fixed by its start context and the latencies along it: paths that
exist are schedulable by construction. The graph is context-uniform: the
same physical structure is instantiated per context and relabelling
t -> (t + 1) mod II is an automorphism.

Processing element internals (all families): a latency-one two-input ALU fed
by two input muxes that select from every PE input port, a latency-zero
const-generator FU feeding the same muxes, an output wire, an output-side
register whose out -> reg -> out loop lets a value gain one context per
turn, and (when route_through is enabled) a bypass wire from the input ports
to the output that routes a value through the PE without using the ALU.

Families:
  ortho      -- grid of PEs, orthogonal neighbour links; homogeneous ALUs
                that also accept input/output/load/store (no dedicated IO).
  adres      -- ortho links plus distance-two links, a row of IO-capable
                register-file FUs fully connected to the top PE row, and one
                memory port per row connected to every PE in its row.
  clustered  -- 2x2 PE clusters around a full crossbar per cluster, one link
                per direction between adjacent clusters, one memory and one
                IO port per cluster.
  hycube     -- one full crossbar per PE connected in a grid, memory ports
                down the west column, IO on the east/north/south edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .dfg import (ALU_OPCODES, IO_OPCODES, MEM_OPCODES, CONST_OPCODE,
                  Operation, is_int)

FU = "fu"
ROUTE = "route"

NodeKey = tuple[str, int]

_ORTHO_ALU_OPCODES = ALU_OPCODES | IO_OPCODES | MEM_OPCODES
_FAMILIES = ("ortho", "adres", "clustered", "hycube")


class ArchError(ValueError):
    """Malformed architecture description."""


@dataclass(frozen=True)
class MrrgNode:
    s: str
    t: int
    kind: str
    latency: int
    opcodes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ArchSpec:
    family: str
    rows: int
    cols: int
    route_through: bool = True
    skip_distance: int = 2
    cluster_rows: int = 2
    cluster_cols: int = 2

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise ArchError(f"unknown family '{self.family}'")
        for key in ("rows", "cols", "skip_distance", "cluster_rows",
                    "cluster_cols"):
            value = getattr(self, key)
            if not is_int(value):
                raise ArchError(f"{key} must be an int, got {value!r}")
        if self.rows < 1 or self.cols < 1:
            raise ArchError("rows and cols must be >= 1")
        if self.skip_distance < 2:
            raise ArchError("skip_distance must be >= 2")
        if self.cluster_rows < 1 or self.cluster_cols < 1:
            raise ArchError("cluster dims must be >= 1")
        if self.family == "clustered" and (self.rows % self.cluster_rows
                                           or self.cols % self.cluster_cols):
            raise ArchError(
                f"{self.rows}x{self.cols} grid not divisible into "
                f"{self.cluster_rows}x{self.cluster_cols} clusters"
            )


def parse_arch(text: str) -> ArchSpec:
    """key=value lines, '#' comments. Required: family, rows, cols."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArchError(f"line {lineno}: expected key=value, got '{line}'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val or any(c.isspace() for c in val):
            raise ArchError(f"line {lineno}: expected key=value, got '{line}'")
        if key in values:
            raise ArchError(f"line {lineno}: duplicate key '{key}'")
        values[key] = val
    for req in ("family", "rows", "cols"):
        if req not in values:
            raise ArchError(f"missing required key '{req}'")
    kwargs = {"family": values.pop("family")}
    bools = {"route_through"}
    ints = {"rows", "cols", "skip_distance", "cluster_rows", "cluster_cols"}
    for key, val in values.items():
        if key in bools:
            if val not in ("true", "false"):
                raise ArchError(f"key '{key}' wants true/false, got '{val}'")
            kwargs[key] = val == "true"
        elif key in ints:
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ArchError(f"key '{key}' wants an integer, got '{val}'")
        else:
            raise ArchError(f"unknown key '{key}'")
    spec = ArchSpec(**kwargs)
    spec.validate()
    return spec


def serialize_arch(spec: ArchSpec) -> str:
    """Every field as a key=value line, so parse_arch gives spec back."""
    return (f"family={spec.family}\n"
            f"rows={spec.rows}\n"
            f"cols={spec.cols}\n"
            f"route_through={'true' if spec.route_through else 'false'}\n"
            f"skip_distance={spec.skip_distance}\n"
            f"cluster_rows={spec.cluster_rows}\n"
            f"cluster_cols={spec.cluster_cols}\n")


class Mrrg:
    """Frozen graph: nodes keyed by (s, t), sorted adjacency."""

    def __init__(self, ii: int, nodes: dict[NodeKey, MrrgNode],
                 edges: Iterable[tuple[NodeKey, NodeKey]]):
        self.ii = ii
        self.nodes = nodes
        self.fus = frozenset(k for k, n in nodes.items() if n.kind == FU)
        self._fanout: dict[NodeKey, tuple[NodeKey, ...]] = {k: () for k in nodes}
        self._fanin: dict[NodeKey, tuple[NodeKey, ...]] = {k: () for k in nodes}
        fo: dict[NodeKey, list[NodeKey]] = {}
        fi: dict[NodeKey, list[NodeKey]] = {}
        for a, b in edges:
            fo.setdefault(a, []).append(b)
            fi.setdefault(b, []).append(a)
        for k, lst in fo.items():
            self._fanout[k] = tuple(sorted(set(lst)))
        for k, lst in fi.items():
            self._fanin[k] = tuple(sorted(set(lst)))
        self.edge_count = sum(map(len, self._fanout.values()))

    @cached_property
    def sorted_fus(self) -> tuple[NodeKey, ...]:
        return tuple(sorted(self.fus))

    @cached_property
    def fus_by_opcode(self) -> dict[str, tuple[NodeKey, ...]]:
        """Sorted units per opcode they support, built on first use so
        that building the graph does not pay for it."""
        by_opcode: dict[str, list[NodeKey]] = {}
        for k in self.sorted_fus:
            for opcode in self.nodes[k].opcodes:
                by_opcode.setdefault(opcode, []).append(k)
        return {opcode: tuple(ks) for opcode, ks in by_opcode.items()}

    def fanout(self, key: NodeKey) -> tuple[NodeKey, ...]:
        return self._fanout[key]

    def fanin(self, key: NodeKey) -> tuple[NodeKey, ...]:
        return self._fanin[key]

    def is_fu(self, key: NodeKey) -> bool:
        return self.nodes[key].kind == FU

    def edges(self):
        for a, outs in sorted(self._fanout.items()):
            for b in outs:
                yield a, b

    def __repr__(self):
        return f"Mrrg(ii={self.ii}, {len(self.nodes)} nodes, {self.edge_count} edges)"


class _Builder:
    """Instantiates one physical structure across all II contexts.

    add_edge wires source context t to target context (t + latency) mod II
    for every t, which both enforces the wrap rule and makes the graph
    context-uniform by construction.
    """

    def __init__(self, ii: int):
        self.ii = ii
        self.lat: dict[str, int] = {}
        self.nodes: dict[NodeKey, MrrgNode] = {}
        self.edge_list: list[tuple[NodeKey, NodeKey]] = []

    def add_node(self, s: str, kind: str, latency: int,
                 opcodes: frozenset[str] = frozenset()) -> str:
        if s in self.lat:
            raise ArchError(f"duplicate physical id '{s}'")
        self.lat[s] = latency
        for t in range(self.ii):
            self.nodes[(s, t)] = MrrgNode(s, t, kind, latency, opcodes)
        return s

    def add_edge(self, a: str, b: str) -> None:
        lat = self.lat[a]
        for t in range(self.ii):
            self.edge_list.append(((a, t), (b, (t + lat) % self.ii)))

    def freeze(self) -> Mrrg:
        return Mrrg(self.ii, self.nodes, self.edge_list)


def _add_pe(b: _Builder, pid: str, in_ports: list[str],
            alu_opcodes: frozenset[str], route_through: bool) -> dict[str, str]:
    """Shared PE fragment. Returns {'out': ..., 'in_<p>': ...} wiring points."""
    names = {}
    ins = []
    for p in in_ports:
        ins.append(b.add_node(f"{pid}.in_{p}", ROUTE, 0))
        names[f"in_{p}"] = f"{pid}.in_{p}"
    mux_a = b.add_node(f"{pid}.a", ROUTE, 0)
    mux_b = b.add_node(f"{pid}.b", ROUTE, 0)
    alu = b.add_node(f"{pid}.alu", FU, 1, alu_opcodes)
    const = b.add_node(f"{pid}.const", FU, 0, frozenset({CONST_OPCODE}))
    out = b.add_node(f"{pid}.out", ROUTE, 0)
    reg = b.add_node(f"{pid}.reg", ROUTE, 1)
    for n in ins:
        b.add_edge(n, mux_a)
        b.add_edge(n, mux_b)
    b.add_edge(const, mux_a)
    b.add_edge(const, mux_b)
    b.add_edge(mux_a, alu)
    b.add_edge(mux_b, alu)
    b.add_edge(alu, out)
    b.add_edge(out, reg)
    b.add_edge(reg, out)
    if route_through and ins:
        byp = b.add_node(f"{pid}.bypass", ROUTE, 0)
        for n in ins:
            b.add_edge(n, byp)
        b.add_edge(byp, out)
    names["out"] = out
    names["alu"] = alu
    return names


def _grid_dirs(x: int, y: int, cols: int, rows: int,
               dist: int = 1) -> list[tuple[str, int, int]]:
    cand = [("n", x, y + dist), ("e", x + dist, y), ("s", x, y - dist), ("w", x - dist, y)]
    return [(d, nx, ny) for d, nx, ny in cand if 0 <= nx < cols and 0 <= ny < rows]


def _gen_ortho(spec: ArchSpec, ii: int) -> Mrrg:
    b = _Builder(ii)
    pes: dict[tuple[int, int], dict[str, str]] = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            ports = [d for d, _, _ in _grid_dirs(x, y, spec.cols, spec.rows)]
            pes[(x, y)] = _add_pe(b, f"pe_{x}_{y}", ports,
                                  _ORTHO_ALU_OPCODES, spec.route_through)
    for (x, y), pe in pes.items():
        for d, nx, ny in _grid_dirs(x, y, spec.cols, spec.rows):
            # in_<d> receives from the neighbour in direction d
            b.add_edge(pes[(nx, ny)]["out"], pe[f"in_{d}"])
    return b.freeze()


def _gen_adres(spec: ArchSpec, ii: int) -> Mrrg:
    b = _Builder(ii)
    top = spec.rows - 1
    sd = spec.skip_distance
    pes: dict[tuple[int, int], dict[str, str]] = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            ports = [d for d, _, _ in _grid_dirs(x, y, spec.cols, spec.rows)]
            ports += [d * 2 for d, _, _ in _grid_dirs(x, y, spec.cols, spec.rows, sd)]
            ports.append("mem")
            if y == top:
                ports.append("rf")
            pes[(x, y)] = _add_pe(b, f"pe_{x}_{y}", ports,
                                  ALU_OPCODES, spec.route_through)
    for (x, y), pe in pes.items():
        for d, nx, ny in _grid_dirs(x, y, spec.cols, spec.rows):
            b.add_edge(pes[(nx, ny)]["out"], pe[f"in_{d}"])
        for d, nx, ny in _grid_dirs(x, y, spec.cols, spec.rows, sd):
            b.add_edge(pes[(nx, ny)]["out"], pe[f"in_{d * 2}"])
    # one memory port per row, reachable by every PE in that row
    for y in range(spec.rows):
        mem = b.add_node(f"mem_{y}", FU, 1, MEM_OPCODES)
        for x in range(spec.cols):
            b.add_edge(mem, pes[(x, y)]["in_mem"])
            b.add_edge(pes[(x, y)]["out"], mem)
    # register-file row does IO, fully connected to the top PE row
    for j in range(spec.cols):
        io = b.add_node(f"rf_{j}", FU, 0, IO_OPCODES)
        for x in range(spec.cols):
            b.add_edge(io, pes[(x, top)]["in_rf"])
            b.add_edge(pes[(x, top)]["out"], io)
    return b.freeze()


def _gen_clustered(spec: ArchSpec, ii: int) -> Mrrg:
    b = _Builder(ii)
    cw, ch = spec.cluster_cols, spec.cluster_rows
    gx, gy = spec.cols // cw, spec.rows // ch
    pes: dict[tuple[int, int], dict[str, str]] = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            pes[(x, y)] = _add_pe(b, f"pe_{x}_{y}", ["xa", "xb"],
                                  ALU_OPCODES, spec.route_through)

    def members(cx, cy):
        return [(x, y) for y in range(cy * ch, (cy + 1) * ch)
                for x in range(cx * cw, (cx + 1) * cw)]

    mux_names: dict[tuple[int, int], list[str]] = {}
    inputs: dict[tuple[int, int], list[str]] = {}
    for cy in range(gy):
        for cx in range(gx):
            xb = f"xb_{cx}_{cy}"
            muxes = []
            for (x, y) in members(cx, cy):
                for port in ("xa", "xb"):
                    m = b.add_node(f"{xb}.to_pe_{x}_{y}_{port}", ROUTE, 0)
                    b.add_edge(m, pes[(x, y)][f"in_{port}"])
                    muxes.append(m)
            for d, _, _ in _grid_dirs(cx, cy, gx, gy):
                muxes.append(b.add_node(f"{xb}.to_{d}", ROUTE, 0))
            io = b.add_node(f"io_{cx}_{cy}", FU, 0, IO_OPCODES)
            mem = b.add_node(f"mem_{cx}_{cy}", FU, 1, MEM_OPCODES)
            m_io = b.add_node(f"{xb}.to_io", ROUTE, 0)
            m_mem = b.add_node(f"{xb}.to_mem", ROUTE, 0)
            b.add_edge(m_io, io)
            b.add_edge(m_mem, mem)
            muxes += [m_io, m_mem]
            mux_names[(cx, cy)] = muxes
            inputs[(cx, cy)] = [pes[m]["out"] for m in members(cx, cy)] + [io, mem]
    # one inbound link per side: the neighbour's outbound mux feeds this
    # crossbar directly
    for cy in range(gy):
        for cx in range(gx):
            for d, nx, ny in _grid_dirs(cx, cy, gx, gy):
                opposite = {"n": "s", "s": "n", "e": "w", "w": "e"}[d]
                inputs[(cx, cy)].append(f"xb_{nx}_{ny}.to_{opposite}")
    for key, muxes in mux_names.items():
        for src in inputs[key]:
            for m in muxes:
                b.add_edge(src, m)
    return b.freeze()


def _gen_hycube(spec: ArchSpec, ii: int) -> Mrrg:
    b = _Builder(ii)
    right, top = spec.cols - 1, spec.rows - 1
    pes: dict[tuple[int, int], dict[str, str]] = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            pes[(x, y)] = _add_pe(b, f"pe_{x}_{y}", ["xa", "xb"],
                                  ALU_OPCODES, spec.route_through)
    muxes: dict[tuple[int, int], list[str]] = {}
    inputs: dict[tuple[int, int], list[str]] = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            xb = f"xb_{x}_{y}"
            ms = []
            for port in ("xa", "xb"):
                m = b.add_node(f"{xb}.to_p{port}", ROUTE, 0)
                b.add_edge(m, pes[(x, y)][f"in_{port}"])
                ms.append(m)
            for d, _, _ in _grid_dirs(x, y, spec.cols, spec.rows):
                ms.append(b.add_node(f"{xb}.to_{d}", ROUTE, 0))
            ins = [pes[(x, y)]["out"]]
            if x == 0:
                mem = b.add_node(f"mem_{y}", FU, 1, MEM_OPCODES)
                m_mem = b.add_node(f"{xb}.to_mem", ROUTE, 0)
                b.add_edge(m_mem, mem)
                ms.append(m_mem)
                ins.append(mem)
            for io_id, here in ((f"io_e_{y}", x == right),
                                (f"io_s_{x}", y == 0),
                                (f"io_n_{x}", y == top)):
                if here:
                    io = b.add_node(io_id, FU, 0, IO_OPCODES)
                    m_io = b.add_node(f"{xb}.to_{io_id}", ROUTE, 0)
                    b.add_edge(m_io, io)
                    ms.append(m_io)
                    ins.append(io)
            muxes[(x, y)] = ms
            inputs[(x, y)] = ins
    for y in range(spec.rows):
        for x in range(spec.cols):
            for d, nx, ny in _grid_dirs(x, y, spec.cols, spec.rows):
                opposite = {"n": "s", "s": "n", "e": "w", "w": "e"}[d]
                inputs[(x, y)].append(f"xb_{nx}_{ny}.to_{opposite}")
    for key, ms in muxes.items():
        for src in inputs[key]:
            for m in ms:
                b.add_edge(src, m)
    return b.freeze()


_GENERATORS = {
    "ortho": _gen_ortho,
    "adres": _gen_adres,
    "clustered": _gen_clustered,
    "hycube": _gen_hycube,
}


def build_mrrg(spec: ArchSpec, ii: int) -> Mrrg:
    spec.validate()
    if not is_int(ii) or ii < 1:
        raise ArchError(f"II must be an int of at least 1, got {ii!r}")
    return _GENERATORS[spec.family](spec, ii)


def fu_nodes(mrrg: Mrrg) -> tuple[NodeKey, ...]:
    return mrrg.sorted_fus


def hop_dists(mrrg: Mrrg, ends, step) -> dict[NodeKey, int]:
    """Breadth-first hop counts from any of the end units, one step
    (mrrg.fanout forwards, mrrg.fanin backwards) per hop. Records every
    vertex reached, the ends at 0, but passes through no FU except the
    ends, as a route may only leave or enter a unit, never cross one."""
    fus = mrrg.fus
    dist = {u: 0 for u in ends}
    frontier = deque(dist)
    while frontier:
        n = frontier.popleft()
        if dist[n] and n in fus:
            continue
        for m in step(n):
            if m not in dist:
                dist[m] = dist[n] + 1
                frontier.append(m)
    return dist


def compatible_nodes(mrrg: Mrrg, op: Operation) -> tuple[NodeKey, ...]:
    return mrrg.fus_by_opcode.get(op.opcode, ())


def mrrg_to_dot(mrrg: Mrrg) -> str:
    """Debug dump, DOT-compatible, deterministic order."""
    lines = ["digraph mrrg {"]
    for key in sorted(mrrg.nodes):
        n = mrrg.nodes[key]
        shape = "box" if n.kind == FU else "ellipse"
        label = f"{n.s}@{n.t}\\nlat={n.latency}"
        if n.opcodes:
            label += "\\n" + ",".join(sorted(n.opcodes))
        lines.append(f'  "{n.s}@{n.t}" [shape={shape} label="{label}"];')
    for a, b_ in mrrg.edges():
        lines.append(f'  "{a[0]}@{a[1]}" -> "{b_[0]}@{b_[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
