import hashlib

import pytest

from cgramap.dfg import Operation
from cgramap.mrrg import (
    ArchError,
    FU,
    ROUTE,
    ArchSpec,
    Mrrg,
    MrrgNode,
    build_mrrg,
    compatible_nodes,
    fu_nodes,
    mrrg_to_dot,
    parse_arch,
    serialize_arch,
)


def ortho(rows, cols, rt=True):
    return ArchSpec("ortho", rows, cols, route_through=rt)


def test_ortho_3x3_counts_match_hand_enumeration():
    # derived from the documented wiring rules, counted independently:
    # per PE with p neighbour ports: nodes p+7, edges 3p+8 (route-through on);
    # fabric adds one out->in edge per directed adjacency.
    m = build_mrrg(ortho(3, 3), ii=1)
    ports_total = sum(
        len([d for d in range(4)
             if [(0, 1), (1, 0), (0, -1), (-1, 0)][d][0] + x in range(3)
             and [(0, 1), (1, 0), (0, -1), (-1, 0)][d][1] + y in range(3)])
        for x in range(3) for y in range(3)
    )
    assert ports_total == 24
    assert len(m.nodes) == ports_total + 7 * 9
    assert m.edge_count == 3 * ports_total + 8 * 9 + ports_total
    assert len(fu_nodes(m)) == 2 * 9  # one ALU and one const per PE


def test_ortho_3x3_no_route_through_counts():
    m = build_mrrg(ortho(3, 3, rt=False), ii=1)
    assert len(m.nodes) == 24 + 6 * 9
    assert m.edge_count == 2 * 24 + 7 * 9 + 24
    assert not any(s.endswith(".bypass") for s, _ in m.nodes)


def test_contexts_scale_linearly():
    m1 = build_mrrg(ortho(3, 3), ii=1)
    m2 = build_mrrg(ortho(3, 3), ii=2)
    assert len(m2.nodes) == 2 * len(m1.nodes)
    assert m2.edge_count == 2 * m1.edge_count


def test_repeated_edge_counts_once():
    a, b = ("a", 0), ("b", 0)
    nodes = {a: MrrgNode("a", 0, FU, 1), b: MrrgNode("b", 0, ROUTE, 0)}
    m = Mrrg(1, nodes, [(a, b), (a, b)])
    assert list(m.edges()) == [(a, b)]
    assert m.edge_count == 1


def test_ii1_edges_stay_in_context_zero():
    m = build_mrrg(ortho(2, 2), ii=1)
    for (_, ta), (_, tb) in m.edges():
        assert ta == 0 and tb == 0


def test_register_wrap_edge():
    # latency-one register written in the last context feeds context 0
    m = build_mrrg(ortho(1, 1), ii=3)
    assert (("pe_0_0.reg", 2), ("pe_0_0.out", 0)) in set(m.edges())
    assert (("pe_0_0.alu", 2), ("pe_0_0.out", 0)) in set(m.edges())


def test_wrap_rule_holds_everywhere():
    for fam, rows, cols in (("ortho", 2, 2), ("adres", 2, 2),
                            ("clustered", 2, 2), ("hycube", 2, 2)):
        spec = ArchSpec(fam, rows, cols)
        for ii in (1, 2, 3):
            m = build_mrrg(spec, ii)
            for (sa, ta), (_, tb) in m.edges():
                assert tb == (ta + m.nodes[(sa, ta)].latency) % ii


def test_context_shift_is_automorphism():
    m = build_mrrg(ortho(2, 2), ii=3)
    edges = set(m.edges())
    shifted = {((a, (ta + 1) % 3), (b, (tb + 1) % 3)) for (a, ta), (b, tb) in edges}
    assert shifted == edges
    for (s, t), node in m.nodes.items():
        other = m.nodes[(s, (t + 1) % 3)]
        assert (node.kind, node.latency, node.opcodes) == (
            other.kind, other.latency, other.opcodes)


def test_fu_nodes_single_pe():
    m = build_mrrg(ortho(1, 1), ii=2)
    assert fu_nodes(m) == (
        ("pe_0_0.alu", 0), ("pe_0_0.alu", 1),
        ("pe_0_0.const", 0), ("pe_0_0.const", 1),
    )


@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_fus_is_the_fu_key_set(fam):
    for ii in (1, 2):
        m = build_mrrg(ArchSpec(fam, 4, 4), ii)
        assert isinstance(m.fus, frozenset)
        assert m.fus == {k for k in m.nodes if m.is_fu(k)}
    with pytest.raises(KeyError):
        m.is_fu(("nowhere", 0))


@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_unit_index_matches_a_full_scan(fam):
    # the per-opcode index is built once per graph and must return what
    # a scan of every node does, in the same sorted order
    m = build_mrrg(ArchSpec(fam, 4, 4), 2)
    opcodes = {c for n in m.nodes.values() for c in n.opcodes} | {"quux"}
    for opcode in sorted(opcodes):
        scan = tuple(sorted(k for k, n in m.nodes.items()
                            if n.kind == FU and opcode in n.opcodes))
        op = Operation("x", opcode)
        assert compatible_nodes(m, op) == scan
        assert compatible_nodes(m, op) is compatible_nodes(m, op)
    assert fu_nodes(m) == tuple(sorted(m.fus)) and fu_nodes(m) is fu_nodes(m)


def test_compatible_nodes_homogeneous_ortho():
    m = build_mrrg(ortho(3, 3), ii=1)
    adds = compatible_nodes(m, Operation("x", "add"))
    assert len(adds) == 9 and all(s.endswith(".alu") for s, _ in adds)
    # the toy family is homogeneous: ALUs take io and memory opcodes too
    assert len(compatible_nodes(m, Operation("x", "input"))) == 9
    assert len(compatible_nodes(m, Operation("x", "load"))) == 9
    consts = compatible_nodes(m, Operation("x", "const", 7))
    assert len(consts) == 9 and all(s.endswith(".const") for s, _ in consts)


def test_adres_structure():
    m = build_mrrg(ArchSpec("adres", 4, 4), ii=1)
    names = {s for s, _ in m.nodes}
    assert {f"mem_{y}" for y in range(4)} <= names
    assert {f"rf_{j}" for j in range(4)} <= names
    # ALUs are not io/memory capable here
    assert len(compatible_nodes(m, Operation("x", "add"))) == 16
    assert len(compatible_nodes(m, Operation("x", "input"))) == 4
    assert len(compatible_nodes(m, Operation("x", "load"))) == 4
    edges = set(m.edges())
    # distance-two link: pe(2,0) output reaches pe(0,0)'s east-skip port
    assert (("pe_2_0.out", 0), ("pe_0_0.in_ee", 0)) in edges
    # register file row is fully connected to the top PE row
    for j in range(4):
        for x in range(4):
            assert ((f"rf_{j}", 0), (f"pe_{x}_3.in_rf", 0)) in edges
            assert ((f"pe_{x}_3.out", 0), (f"rf_{j}", 0)) in edges
    # memory port of row 1 serves every PE of row 1
    for x in range(4):
        assert ((f"mem_1", 0), (f"pe_{x}_1.in_mem", 0)) in edges


def test_clustered_structure():
    m = build_mrrg(ArchSpec("clustered", 4, 4), ii=1)
    names = {s for s, _ in m.nodes}
    ios = {s for s in names if s.startswith("io_")}
    mems = {s for s in names if s.startswith("mem_")}
    assert len(ios) == 4 and len(mems) == 4  # one each per cluster
    edges = set(m.edges())
    # single eastward link: cluster (0,0) crossbar output feeds every mux of
    # cluster (1,0)
    assert (("xb_0_0.to_e", 0), ("xb_1_0.to_pe_2_0_xa", 0)) in edges
    assert (("xb_0_0.to_e", 0), ("xb_1_0.to_w", 0)) in edges
    # intra-cluster full connectivity: member PE output reaches both input
    # muxes of every member PE
    for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert (("pe_0_0.out", 0), (f"xb_0_0.to_pe_{x}_{y}_xb", 0)) in edges


def test_hycube_structure():
    m = build_mrrg(ArchSpec("hycube", 4, 4), ii=1)
    names = {s for s, _ in m.nodes}
    assert {f"mem_{y}" for y in range(4)} <= names
    assert len({s for s in names if s.startswith("io_")}) == 12
    edges = set(m.edges())
    # neighbouring crossbars chain: xb(0,0) east mux feeds xb(1,0)'s muxes
    assert (("xb_0_0.to_e", 0), ("xb_1_0.to_pxa", 0)) in edges
    # corner crossbar hosts two io blocks
    assert "io_e_0" in names and "io_s_3" in names
    assert (("xb_3_0.to_io_e_0", 0), ("io_e_0", 0)) in edges
    assert (("xb_3_0.to_io_s_3", 0), ("io_s_3", 0)) in edges


@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_id_view_mirrors_the_graph(fam):
    # walks run on ids that follow key order, so each id-level fact must
    # be the key-level one renamed; the view is built on first use only,
    # and fanin, by id or by key, on the first backward walk
    for rt, ii in ((True, 1), (False, 2), (True, 3)):
        m = build_mrrg(ArchSpec(fam, 4, 4, route_through=rt), ii)
        assert "ids" not in vars(m) and "_fanin" not in vars(m)
        view = m.ids
        assert view is m.ids and "fanin" not in vars(view)
        assert list(view.keys) == sorted(m.nodes)
        assert all(view.index[k] == i for i, k in enumerate(view.keys))
        assert len(view.index) == len(view.keys)
        fanin = {k: [] for k in m.nodes}
        for a, b in m.edges():
            fanin[b].append(a)
        for i, k in enumerate(view.keys):
            assert [view.keys[j] for j in view.fanout[i]] == list(m.fanout(k))
            assert [view.keys[j] for j in view.fanin[i]] == sorted(fanin[k])
            assert list(m.fanin(k)) == sorted(fanin[k])
            assert view.fu[i] == (k in m.fus)


FAMILIES = ("ortho", "adres", "clustered", "hycube")


def _identity_fabrics():
    for fam in FAMILIES:
        step = 2 if fam == "clustered" else 1
        for rows in range(step, 5, step):
            for cols in range(step, 5, step):
                for rt in (True, False):
                    yield ArchSpec(fam, rows, cols, route_through=rt), 1
    for fam in FAMILIES:
        for ii in (2, 3):
            yield ArchSpec(fam, 4, 4), ii


def test_mrrg_identity_is_pinned():
    # vertex names feed every sorted unit order and the routes' tie-break,
    # so a generator change must leave each graph exactly as it was: same
    # names, kinds, latencies, opcodes and edges
    h = hashlib.sha256()
    for spec, ii in _identity_fabrics():
        m = build_mrrg(spec, ii)
        for k in sorted(m.nodes):
            n = m.nodes[k]
            h.update(repr((k, n.kind, n.latency, sorted(n.opcodes))).encode())
        h.update(repr(list(m.edges())).encode())
    assert h.hexdigest() == (
        "401d4600a679269241c6122cbbf0e6d8896b9db073bab9bc1781fffed19a6fbc")


def test_parse_arch_round_trip():
    for spec in (ortho(3, 3), ArchSpec("adres", 4, 4),
                 ArchSpec("clustered", 4, 4), ArchSpec("hycube", 4, 4, False),
                 ArchSpec("ortho", 2, 2, False)):
        assert parse_arch(serialize_arch(spec)) == spec


@pytest.mark.parametrize(
    "text,frag",
    [
        ("rows=2\ncols=2\n", "missing required key 'family'"),
        ("family=quux\nrows=2\ncols=2\n", "unknown family"),
        ("family=ortho\nrows=x\ncols=2\n", "wants an integer"),
        ("family=ortho\nrows=2\ncols=2\nroute_through=maybe\n", "true/false"),
        ("family=ortho\nrows=2\ncols=2\nwat=1\n", "unknown key"),
        ("family=ortho\nrows=2\nrows=3\ncols=2\n", "duplicate key"),
        ("family=ortho rows=2\n", "expected key=value"),
        ("family=ortho\nrows\ncols=2\n", "expected key=value"),
        ("family=ortho\nrows=0\ncols=2\n", ">= 1"),
        ("family=clustered\nrows=3\ncols=4\n", "not divisible"),
        # the skip distance and the cluster shape are fixed
        ("family=adres\nrows=2\ncols=2\nskip_distance=2\n", "unknown key"),
    ],
)
def test_parse_arch_errors(text, frag):
    with pytest.raises(ArchError) as ei:
        parse_arch(text)
    assert frag in str(ei.value)


def test_parse_arch_skips_blank_and_comment_lines():
    text = "# a 2x2 mesh\n\nfamily=ortho  # the family\n   \nrows=2\ncols=2\n"
    assert parse_arch(text) == ortho(2, 2)


def test_bad_ii_rejected():
    with pytest.raises(ArchError):
        build_mrrg(ortho(2, 2), ii=0)
    # unless rejected up front, a float size reaches range() as a bare
    # TypeError; a bool would pass as 1
    for ii in (1.5, True):
        with pytest.raises(ArchError, match="II must be an int"):
            build_mrrg(ortho(2, 2), ii=ii)
    bad = [ArchSpec("ortho", 2.5, 2), ArchSpec("ortho", 2, 2.0),
           ArchSpec("ortho", True, True), ArchSpec("clustered", 4.0, 4)]
    for spec in bad:
        with pytest.raises(ArchError, match="must be an int"):
            build_mrrg(spec, 1)
    # a non-bool would be read for its truth: "no" built the
    # route-through fabric and serialised as route_through=true
    for flag in ("no", 1, None):
        with pytest.raises(ArchError, match="route_through must be a bool"):
            build_mrrg(ortho(2, 2, rt=flag), 1)


def test_dot_dump():
    dot = mrrg_to_dot(build_mrrg(ortho(1, 1), ii=1))
    assert dot.startswith("digraph")
    assert '"pe_0_0.alu@0"' in dot
    assert '"pe_0_0.alu@0" -> "pe_0_0.out@0";' in dot
