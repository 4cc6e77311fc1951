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

Families, each built by one of two shared builders:
  ortho      -- _mesh: grid of PEs, orthogonal neighbour links; homogeneous
                ALUs that also accept input/output/load/store (no dedicated
                IO).
  adres      -- _mesh: ortho links plus distance-two skip links, a row of
                IO-capable register-file FUs fully connected to the top PE
                row, and one memory port per row connected to every PE in
                its row.
  clustered  -- _crossbars: 2x2 PE clusters around a full crossbar per
                cluster, one link per direction between adjacent clusters,
                one memory and one IO port per cluster.
  hycube     -- _crossbars: one full crossbar per PE connected in a grid,
                memory ports down the west column, IO on the east/north/south
                edges.
The skip distance and the cluster shape are fixed: an ArchSpec sets only
the family, rows, cols and route_through.

Graph walks run on an IdView, built on first use and kept as long as the
graph lives. Ids follow sorted-key order, so id tuples compare as the key
tuples they stand for, and no set or dict order reaches a walk.
"""

from __future__ import annotations

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
_OPPOSITE = {"n": "s", "s": "n", "e": "w", "w": "e"}
# fixed shape parameters: ADRES skip links span two PEs, clusters are 2x2
_SKIP = 2
_CLUSTER = 2


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

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise ArchError(f"unknown family '{self.family}'")
        for key in ("rows", "cols"):
            value = getattr(self, key)
            if not is_int(value):
                raise ArchError(f"{key} must be an int, got {value!r}")
        if not isinstance(self.route_through, bool):
            raise ArchError(
                f"route_through must be a bool, got {self.route_through!r}")
        if self.rows < 1 or self.cols < 1:
            raise ArchError("rows and cols must be >= 1")
        if self.family == "clustered" and (self.rows % _CLUSTER
                                           or self.cols % _CLUSTER):
            raise ArchError(
                f"{self.rows}x{self.cols} grid not divisible into "
                f"{_CLUSTER}x{_CLUSTER} clusters"
            )


def parse_arch(text: str) -> ArchSpec:
    """key=value lines, '#' comments. Required: family, rows, cols;
    route_through (true/false) is optional, and any other key is an
    error."""
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
    for key, val in values.items():
        if key == "route_through":
            if val not in ("true", "false"):
                raise ArchError(f"key '{key}' wants true/false, got '{val}'")
            kwargs[key] = val == "true"
        elif key in ("rows", "cols"):
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
            f"route_through={'true' if spec.route_through else 'false'}\n")


class Mrrg:
    """Frozen graph: nodes keyed by (s, t), sorted adjacency."""

    def __init__(self, ii: int, nodes: dict[NodeKey, MrrgNode],
                 edges: Iterable[tuple[NodeKey, NodeKey]]):
        self.ii = ii
        self.nodes = nodes
        self.fus = frozenset(k for k, n in nodes.items() if n.kind == FU)
        self._fanout: dict[NodeKey, tuple[NodeKey, ...]] = {k: () for k in nodes}
        fo: dict[NodeKey, list[NodeKey]] = {}
        for a, b in edges:
            fo.setdefault(a, []).append(b)
        for k, lst in fo.items():
            self._fanout[k] = tuple(sorted(set(lst)))
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

    @cached_property
    def neighbor_maps(self) -> dict:
        """NeighborMap per target NN, filled by build_neighbor_map; it
        lives and dies with the graph it describes."""
        return {}

    @cached_property
    def route_table(self) -> dict:
        """(driver, sink) -> (k, routes): the deepest k routes asked for
        so far, filled by the paths module (see paths._routes_for)."""
        return {}

    @cached_property
    def ids(self) -> IdView:
        return IdView(self)

    @cached_property
    def _fanin(self) -> dict[NodeKey, tuple[NodeKey, ...]]:
        """Sorted predecessors per key, from the id view, on first use."""
        key = self.ids.keys.__getitem__
        return {key(i): tuple(map(key, ins))
                for i, ins in enumerate(self.ids.fanin)}

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


class IdView:
    """The graph over ids: keys[i] is vertex i in sorted-key order, index
    its inverse, fanout[i] and fanin[i] (built on first use) sorted id
    tuples, and fu[i] 1 for a function unit. searches holds each unit's
    resumable neighbour search (see the neighbors module)."""

    def __init__(self, mrrg: Mrrg):
        self.keys = keys = tuple(sorted(mrrg.nodes))
        self.index = index = dict(zip(keys, range(len(keys))))
        get = index.__getitem__
        self.fanout = [tuple(map(get, mrrg.fanout(k))) for k in keys]
        self.fu = bytes(map(mrrg.fus.__contains__, keys))
        self.searches: dict[int, list] = {}

    @cached_property
    def fanin(self) -> list[tuple[int, ...]]:
        fanin = [[] for _ in self.keys]
        for a, outs in enumerate(self.fanout):
            for b in outs:
                fanin[b].append(a)
        return list(map(tuple, fanin))

    def unit(self, key: NodeKey) -> int:
        """The id of unit key; KeyError or ValueError if it is none."""
        i = self.index.get(key)
        if i is None:
            raise KeyError(f"unknown node {key}")
        if not self.fu[i]:
            raise ValueError(f"{key} is not an FU node")
        return i

    def hop_dists(self, ends, adj) -> dict[int, int]:
        """Breadth-first hop counts from the end ids along adj (fanout
        or fanin), crossing no FU but the ends, as routes never do."""
        fu = self.fu
        dist = dict.fromkeys(ends, 0)
        order = list(dist)  # grows as the loop reads it: a FIFO queue
        for n in order:
            if dist[n] and fu[n]:
                continue
            for m in adj[n]:
                if m not in dist:
                    dist[m] = dist[n] + 1
                    order.append(m)
        return dist


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
            alu_opcodes: frozenset[str], route_through: bool) -> None:
    """Shared PE fragment, wired through <pid>.in_<p> and <pid>.out."""
    ins = [b.add_node(f"{pid}.in_{p}", ROUTE, 0) for p in in_ports]
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


def _grid_dirs(x: int, y: int, cols: int, rows: int,
               dist: int = 1) -> list[tuple[str, int, int]]:
    cand = [("n", x, y + dist), ("e", x + dist, y), ("s", x, y - dist), ("w", x - dist, y)]
    return [(d, nx, ny) for d, nx, ny in cand if 0 <= nx < cols and 0 <= ny < rows]


def _mesh(b: _Builder, spec: ArchSpec, hops: tuple[int, ...],
          alu_opcodes: frozenset[str], extra_ports=lambda y: []) -> None:
    """PE grid with a link from each PE h hops away in direction d, for
    each h in hops, into input port in_<d*h> (in_n, in_ee).
    extra_ports(y) lists further input ports of the PEs in row y."""
    links = {}
    for y in range(spec.rows):
        for x in range(spec.cols):
            links[(x, y)] = [(d * h, nx, ny) for h in hops for d, nx, ny
                             in _grid_dirs(x, y, spec.cols, spec.rows, h)]
            ports = [p for p, _, _ in links[(x, y)]] + extra_ports(y)
            _add_pe(b, f"pe_{x}_{y}", ports, alu_opcodes, spec.route_through)
    # add_edge reads the source's latency, so every PE exists first
    for (x, y), ports in links.items():
        for p, nx, ny in ports:
            b.add_edge(f"pe_{nx}_{ny}.out", f"pe_{x}_{y}.in_{p}")


def _crossbars(b: _Builder, spec: ArchSpec, s: int, attached) -> None:
    """Grid of full crossbars xb_<cx>_<cy>, each serving an s x s block of
    PEs. A crossbar has a mux per member PE input port, one outbound mux
    per side with a neighbour, and a mux per unit that attached(cx, cy)
    lists as (id, latency, opcodes, mux suffix). Each of its muxes selects
    from every member PE output, every attached unit and the outbound mux
    of each neighbour that faces it."""
    gx, gy = spec.cols // s, spec.rows // s
    for y in range(spec.rows):
        for x in range(spec.cols):
            _add_pe(b, f"pe_{x}_{y}", ["xa", "xb"], ALU_OPCODES,
                    spec.route_through)
    wiring = []
    for cy in range(gy):
        for cx in range(gx):
            xb = f"xb_{cx}_{cy}"
            inputs, muxes = [], []
            for y in range(cy * s, (cy + 1) * s):
                for x in range(cx * s, (cx + 1) * s):
                    inputs.append(f"pe_{x}_{y}.out")
                    for port in ("xa", "xb"):
                        # a one-PE crossbar names the mux by its port alone
                        to = f"p{port}" if s == 1 else f"pe_{x}_{y}_{port}"
                        muxes.append(b.add_node(f"{xb}.to_{to}", ROUTE, 0))
                        b.add_edge(muxes[-1], f"pe_{x}_{y}.in_{port}")
            for d, nx, ny in _grid_dirs(cx, cy, gx, gy):
                muxes.append(b.add_node(f"{xb}.to_{d}", ROUTE, 0))
                inputs.append(f"xb_{nx}_{ny}.to_{_OPPOSITE[d]}")
            for unit, latency, opcodes, to in attached(cx, cy):
                inputs.append(b.add_node(unit, FU, latency, opcodes))
                muxes.append(b.add_node(f"{xb}.to_{to}", ROUTE, 0))
                b.add_edge(muxes[-1], unit)
            wiring.append((inputs, muxes))
    # add_edge reads the source's latency, and a neighbour's outbound mux
    # exists only once its crossbar is built
    for inputs, muxes in wiring:
        for src in inputs:
            for m in muxes:
                b.add_edge(src, m)


def _gen_ortho(b: _Builder, spec: ArchSpec) -> None:
    _mesh(b, spec, (1,), _ORTHO_ALU_OPCODES)


def _gen_adres(b: _Builder, spec: ArchSpec) -> None:
    top = spec.rows - 1
    _mesh(b, spec, (1, _SKIP), ALU_OPCODES,
          lambda y: ["mem", "rf"] if y == top else ["mem"])
    # one memory port per row, reachable by every PE in that row
    for y in range(spec.rows):
        mem = b.add_node(f"mem_{y}", FU, 1, MEM_OPCODES)
        for x in range(spec.cols):
            b.add_edge(mem, f"pe_{x}_{y}.in_mem")
            b.add_edge(f"pe_{x}_{y}.out", mem)
    # register-file row does IO, fully connected to the top PE row
    for j in range(spec.cols):
        io = b.add_node(f"rf_{j}", FU, 0, IO_OPCODES)
        for x in range(spec.cols):
            b.add_edge(io, f"pe_{x}_{top}.in_rf")
            b.add_edge(f"pe_{x}_{top}.out", io)


def _gen_clustered(b: _Builder, spec: ArchSpec) -> None:
    _crossbars(b, spec, _CLUSTER, lambda cx, cy: [
        (f"io_{cx}_{cy}", 0, IO_OPCODES, "io"),
        (f"mem_{cx}_{cy}", 1, MEM_OPCODES, "mem")])


def _gen_hycube(b: _Builder, spec: ArchSpec) -> None:
    right, top = spec.cols - 1, spec.rows - 1

    def attached(x, y):
        units = [(f"mem_{y}", 1, MEM_OPCODES, "mem")] if x == 0 else []
        for io, here in ((f"io_e_{y}", x == right), (f"io_s_{x}", y == 0),
                         (f"io_n_{x}", y == top)):
            if here:
                units.append((io, 0, IO_OPCODES, io))
        return units

    _crossbars(b, spec, 1, attached)


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
    b = _Builder(ii)
    _GENERATORS[spec.family](b, spec)
    return b.freeze()


def fu_nodes(mrrg: Mrrg) -> tuple[NodeKey, ...]:
    return mrrg.sorted_fus


def hop_dists(mrrg: Mrrg, ends, backward: bool = False) -> dict[NodeKey, int]:
    """IdView.hop_dists over keys; backward walks fanin."""
    view = mrrg.ids
    dist = view.hop_dists(map(view.index.__getitem__, ends),
                          view.fanin if backward else view.fanout)
    return {view.keys[i]: d for i, d in dist.items()}


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
