import pytest

from cgramap.dfg import (
    Dfg,
    DfgError,
    Edge,
    Operation,
    parse_dfg,
    serialize_dfg,
    validate_dfg,
)

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

ARRAY_SUM_TEXT = """\
# running sum over an array: two loop-carried self edges
op addr input
op four const const=4
op cnt add
op off add
op ld load
op sum add
op out output
edge addr -> off:0
edge four -> cnt:0
edge cnt -> cnt:1, off:1
edge off -> ld:0
edge ld -> sum:0
edge sum -> sum:1, out:0
"""


def test_parse_expr_counts():
    d = parse_dfg(EXPR_TEXT)
    assert len(d.operations) == 6
    assert len(d.edges) == 5
    assert d.ops_by_id["add0"].opcode == "add"
    assert d.ops_by_id["b"].const_value is None


def test_parse_array_sum_self_loops():
    d = parse_dfg(ARRAY_SUM_TEXT)
    assert len(d.operations) == 7
    self_loops = [e for e in d.edges if any(s == e.driver for s, _ in e.sinks)]
    assert len(self_loops) == 2
    assert d.ops_by_id["four"].const_value == 4
    # the two-sink nets survive as single hyperedges
    cnt_edge = [e for e in d.edges if e.driver == "cnt"][0]
    assert set(cnt_edge.sinks) == {("cnt", 1), ("off", 1)}


def test_round_trip_is_identity_on_value():
    for text in (EXPR_TEXT, ARRAY_SUM_TEXT):
        d = parse_dfg(text)
        assert parse_dfg(serialize_dfg(d)) == d


def test_round_trip_is_byte_stable():
    for text in (EXPR_TEXT, ARRAY_SUM_TEXT):
        canon = serialize_dfg(parse_dfg(text))
        assert serialize_dfg(parse_dfg(canon)) == canon


def test_same_driver_edge_lines_merge():
    a = parse_dfg("op x input\nop y add\nop z add\nedge x -> y:0, z:0\n")
    b = parse_dfg("op x input\nop y add\nop z add\nedge x -> y:0\nedge x -> z:0\n")
    assert a == b
    assert len(a.edges) == 1


def test_point_edges_flatten():
    d = parse_dfg(ARRAY_SUM_TEXT)
    assert ("cnt", "cnt") in d.point_edges()
    assert ("cnt", "off") in d.point_edges()
    assert len(d.point_edges()) == 8


@pytest.mark.parametrize(
    "text,kind,line",
    [
        ("op a add\nop a add\n", "duplicate-op", 2),
        ("op a add\nedge a -> b:0\n", "dangling", 2),
        ("edge a -> b:0\n", "dangling", 1),
        ("op a quux\n", "unknown-opcode", 1),
        ("op a\n", "syntax", 1),
        ("op 9a add\n", "bad-id", 1),
        ("wat a b\n", "syntax", 1),
        ("op a add\nedge a => a:0\n", "syntax", 2),
        ("op k const const=x\n", "syntax", 1),
        ("op a add extra\n", "syntax", 1),
        ("op a add\nop b add\nedge a -> b\n", "syntax", 3),
        ("op i input\nop j input\nop s add\nedge i -> s:0\nedge j -> s:0\n",
         "duplicate-driver", 5),
    ],
)
def test_parse_errors(text, kind, line):
    with pytest.raises(DfgError) as ei:
        parse_dfg(text)
    assert ei.value.kind == kind
    assert ei.value.line == line


def test_validate_lint():
    d = Dfg(
        [Operation("k", "const"), Operation("o", "output"), Operation("i", "input")],
        [Edge("o", (("i", 0),)), Edge("k", (("i", 1),))],
    )
    issues = validate_dfg(d)
    assert any("const op without const=" in s for s in issues)
    assert any("output op drives" in s for s in issues)
    assert any("source op has fanin" in s for s in issues)
    assert validate_dfg(parse_dfg(EXPR_TEXT)) == []
    # parse_dfg rejects both; a Dfg built directly does not
    d = Dfg([Operation("q", "frob"), Operation("s", "add", 3)], [])
    assert validate_dfg(d) == ["op q: unknown opcode 'frob'",
                               "op s: const payload on opcode 'add'"]
