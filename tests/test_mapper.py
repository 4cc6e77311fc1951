"""Staged driver checks: routes built on demand give the same models as
the full neighbourhood cache, verdicts agree with brute force, reports
are stable, and the survey entry points run."""

import json

import pytest

from cgramap import mapper
from cgramap.dfg import parse_dfg
from cgramap.mapper import (MAPPED, NOT_MAPPABLE, MapLimits, characterize,
                            map_dfg, map_min_ii, outcome_to_dict,
                            validate_mapping)
from cgramap.mrrg import ArchSpec, build_mrrg
from cgramap.neighbors import build_neighbor_map
from cgramap.paths import build_path_cache
from helpers import brute_force_mappable

KERNELS = {
    "chain2": "op a add\nop b add\nedge a -> b:0\n",
    "chain3": "op a add\nop b add\nop c add\nedge a -> b:0\nedge b -> c:0\n",
    "chain5": "op a add\nop b add\nop c add\nop d add\nop e add\n"
              "edge a -> b:0\nedge b -> c:0\nedge c -> d:0\nedge d -> e:0\n",
    "fan2": "op a add\nop b add\nop c add\nedge a -> b:0, c:0\n",
    "join": "op a add\nop b add\nop c add\nedge a -> c:0\nedge b -> c:1\n",
    "loop": "op a add\nedge a -> a:0\n",
    "acc": "op ld load\nop acc add\nedge ld -> acc:1\nedge acc -> acc:0\n",
    "ldst": "op ld load\nop st store\nedge ld -> st:0\n",
    "stores3": "op a add\nop s0 store\nop s1 store\nop s2 store\n"
               "edge a -> s0:0, s1:0, s2:0\n",
    # a tree whose first feasible neighbourhood does not route
    "tree5": "op a add\nop b add\nop c add\nop d add\nop e add\n"
             "edge a -> b:0\nedge b -> c:0, d:0\nedge c -> e:0\n",
}

LIMITS = MapLimits(placement_limit=20, solve_time=5, total_time=10)
SCHEDULE = (2, 4, 8, 16)


def fabric(family, ii):
    return build_mrrg(ArchSpec(family, 2, 2), ii)


# (kernel, fabric, II, schedule, placement limit, expected attempts):
# tree5 passes two screens and routes only at the second, so models are
# built at two targets of one call; join on ADRES has up to k routes per
# pair
SAME_MODELS = [
    ("tree5", ArchSpec("ortho", 1, 4, route_through=False), 2, (1, 2, 4, 8),
     1, [(1, "infeasible", False), (2, "feasible", False),
         (4, "feasible", True)]),
    ("join", ArchSpec("adres", 2, 2), 2, SCHEDULE, 20,
     [(2, "infeasible", False), (4, "feasible", True)]),
]


@pytest.mark.parametrize("kernel,spec,ii,schedule,placements,attempts",
                         SAME_MODELS)
def test_models_match_full_neighbourhood_cache(monkeypatch, kernel, spec, ii,
                                               schedule, placements,
                                               attempts):
    real_variant = mapper.build_variant
    built = []

    def recording_variant(variant, dfg, mrrg, nmap, cache=None, **kw):
        model = real_variant(variant, dfg, mrrg, nmap, cache, **kw)
        built.append((variant, nmap, kw, model))
        return model

    monkeypatch.setattr(mapper, "build_variant", recording_variant)
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = build_mrrg(spec, ii)
    out = map_dfg(dfg, mrrg, schedule,
                  MapLimits(placement_limit=placements), seed=1)
    assert out.status == MAPPED
    assert [(a.nn, a.screen, a.routed) for a in out.attempts] == attempts

    full = {}
    checked = []
    for variant, nmap, kw, model in built:
        if variant == "placement_only":
            continue
        nn = nmap.target_nn
        if nn not in full:
            full[nn] = build_path_cache(mrrg, build_neighbor_map(mrrg, nn))
        ref = real_variant(variant, dfg, mrrg, nmap, full[nn], **kw)
        assert model.variables == ref.variables, (variant, nn)
        assert model.constraints == ref.constraints, (variant, nn)
        checked.append((variant, nn))
    routed = [nn for nn, screen, _ in attempts if screen == "feasible"]
    assert checked == [(v, nn) for nn in routed
                       for v in ("relaxed_placement", "routing_only")]


# (family, II, kernel, brute-force verdict). Brute force takes seconds or
# more on 2x2 HyCUBE at II 2, so HyCUBE is covered at II 1 only.
AGREEMENT = [
    ("ortho", 1, "loop", True), ("ortho", 1, "join", True),
    ("ortho", 1, "chain5", False),
    ("ortho", 2, "fan2", True), ("ortho", 2, "loop", True),
    ("adres", 1, "chain2", True), ("adres", 1, "stores3", False),
    ("adres", 2, "join", True), ("adres", 2, "acc", True),
    ("clustered", 1, "acc", True), ("clustered", 1, "ldst", False),
    ("clustered", 2, "chain2", True), ("clustered", 2, "loop", True),
    ("hycube", 1, "ldst", True), ("hycube", 1, "acc", True),
    ("hycube", 1, "chain2", True), ("hycube", 1, "stores3", False),
]


@pytest.mark.parametrize("family,ii,kernel,mappable", AGREEMENT)
def test_agreement_with_brute_force(family, ii, kernel, mappable):
    dfg = parse_dfg(KERNELS[kernel])
    mrrg = fabric(family, ii)
    assert brute_force_mappable(dfg, mrrg) == mappable
    out = map_dfg(dfg, mrrg, SCHEDULE, LIMITS, seed=1)
    if out.status == MAPPED:
        assert mappable
        assert validate_mapping(dfg, mrrg, out.solution) == []
    if not mappable:
        assert out.status == NOT_MAPPABLE


def test_report_is_byte_stable():
    dfg = parse_dfg(KERNELS["join"])
    mrrg = fabric("adres", 2)
    reports = [json.dumps(outcome_to_dict(map_dfg(dfg, mrrg, SCHEDULE,
                                                  LIMITS, seed=4),
                                          include_times=False),
                          sort_keys=True)
               for _ in range(2)]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["status"] == MAPPED


def test_characterize_smoke():
    suite = [("chain3", parse_dfg(KERNELS["chain3"])),
             ("chain5", parse_dfg(KERNELS["chain5"]))]
    rows = characterize(ArchSpec("ortho", 2, 2), [1], suite,
                        schedule=(2, 4), limits=LIMITS, seed=1)
    assert rows == [(1, 2, 1, 2, 0.5), (1, 4, 1, 2, 0.5)]
    with pytest.raises(ValueError):
        characterize(ArchSpec("ortho", 2, 2), [1], [])


def test_map_min_ii_smoke():
    dfg = parse_dfg(KERNELS["loop"])
    ii, out = map_min_ii(dfg, ArchSpec("ortho", 2, 2), 2, SCHEDULE, LIMITS,
                         seed=1)
    assert (ii, out.status) == (1, MAPPED)
    ii, out = map_min_ii(parse_dfg(KERNELS["stores3"]),
                         ArchSpec("adres", 2, 2), 1, SCHEDULE, LIMITS, seed=1)
    assert (ii, out.status) == (1, NOT_MAPPABLE)
    with pytest.raises(ValueError):
        map_min_ii(dfg, ArchSpec("ortho", 2, 2), 0)
