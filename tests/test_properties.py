"""Property tests: the DFG and architecture text formats read back what
they write, and neighbour maps commute with the context rotation.
Derandomized with few examples, so they run in a couple of seconds and
give the same cases on every run."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cgramap.dfg import (OPCODES, Dfg, Edge, Operation,  # noqa: E402
                         parse_dfg, serialize_dfg)
from cgramap.mrrg import (ArchError, ArchSpec, build_mrrg,  # noqa: E402
                          parse_arch, serialize_arch)
from cgramap.neighbors import build_neighbor_map  # noqa: E402

PROFILE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=150)

HEAD = "abcxyzAZ_"
IDS = st.builds(str.__add__, st.sampled_from(HEAD),
                st.text(HEAD + "09", max_size=3))


@st.composite
def dfgs(draw):
    """1-6 ops of any opcode, some with a const payload, and edges from
    any op to distinct (sink, operand) slots: fan-out, cycles and
    self-edges included."""
    ids = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    ops = [Operation(i, draw(st.sampled_from(sorted(OPCODES))),
                     draw(st.none() | st.integers(-99, 99)))
           for i in ids]
    slots = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 3)),
                          max_size=10, unique=True))
    return Dfg(ops, [Edge(draw(st.sampled_from(ids)), (slot,))
                     for slot in slots])


def _valid(spec):
    try:
        spec.validate()
    except ArchError:
        return False
    return True


SPECS = st.builds(
    ArchSpec,
    family=st.sampled_from(("ortho", "adres", "clustered", "hycube")),
    rows=st.integers(1, 6), cols=st.integers(1, 6),
    route_through=st.booleans(),
).filter(_valid)


@PROFILE
@given(dfgs())
def test_dfg_text_round_trip(dfg):
    assert parse_dfg(serialize_dfg(dfg)) == dfg


@PROFILE
@given(SPECS)
def test_arch_text_round_trip(spec):
    assert parse_arch(serialize_arch(spec)) == spec


@pytest.mark.parametrize("ii", [2, 3])
@pytest.mark.parametrize("fam", ["ortho", "adres", "clustered", "hycube"])
def test_neighbor_map_commutes_with_context_rotation(fam, ii):
    # _Builder.add_edge wires every context alike, so t -> (t + 1) mod II
    # is an automorphism of the MRRG and must carry each unit's
    # neighbours onto its rotated twin's
    m = build_mrrg(ArchSpec(fam, 4, 4), ii)

    def rotate(key):
        return key[0], (key[1] + 1) % ii

    for nn in (4, 8, 16):
        nmap = build_neighbor_map(m, nn)
        for u, found in nmap.neighbors.items():
            assert nmap[rotate(u)] == tuple(sorted(map(rotate, found)))
