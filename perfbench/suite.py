"""Workload definitions: kernels, fabrics and the instance lists.

Kernels are hand-written in the DFG text format, since the paper's
CGRA-ME benchmark DFGs are not in the repository. Each instance names a
kernel, a fabric, an II and the time limit L that caps its charged time.
Instances were picked so that, on the tree that defined the benchmark
and on a copy with the mapper's path-cache slicing repaired, each one
either decides well inside L or runs well past it: wall times near L
would flip between verdict and timeout from run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "oracle.json"

KERNELS = {
    # three-op chain
    "chain3": """
op a add
op b add
op c add
edge a -> b:0
edge b -> c:0
""",
    # one driver fanning out to three sinks
    "fan3": """
op a add
op b add
op c add
op d add
edge a -> b:0, c:0, d:0
""",
    "diamond": """
op a add
op b add
op c add
op d add
edge a -> b:0, c:0
edge b -> d:0
edge c -> d:1
""",
    # loop-carried accumulator between a load and a store
    "acc": """
op ld load
op acc add
op st store
edge ld -> acc:1
edge acc -> acc:0, st:0
""",
    "ldst": """
op ld load
op k const const=1
op inc add
op st store
edge ld -> inc:0
edge k -> inc:1
edge inc -> st:0
""",
    # multiply-accumulate with a constant weight
    "mac": """
op x load
op w const const=3
op m mul
op acc add
edge x -> m:0
edge w -> m:1
edge m -> acc:1
edge acc -> acc:0
""",
    # four adds, every one an operand of the final sum's cone
    "sum4": """
op a add
op b add
op c add
op s add
edge a -> c:0
edge b -> c:1
edge c -> s:0
edge a -> s:1
""",
    "five_add": """
op a add
op b add
op c add
op d add
op e add
edge a -> b:0, c:0
edge b -> d:0
edge c -> d:1
edge d -> e:0
""",
    # one value stored five times: more stores than memory ports at II=1
    "store5": """
op a add
op s0 store
op s1 store
op s2 store
op s3 store
op s4 store
edge a -> s0:0, s1:0, s2:0, s3:0, s4:0
""",
}

FABRICS = {
    "ortho2x2": "family=ortho\nrows=2\ncols=2\n",
    "ortho2x3": "family=ortho\nrows=2\ncols=3\n",
    "adres2x2": "family=adres\nrows=2\ncols=2\n",
    "clustered2x2": "family=clustered\nrows=2\ncols=2\n",
    "clustered2x4": "family=clustered\nrows=2\ncols=4\n",
    "hycube2x2": "family=hycube\nrows=2\ncols=2\n",
    "adres4x4": "family=adres\nrows=4\ncols=4\n",
    "hycube4x4": "family=hycube\nrows=4\ncols=4\n",
}


@dataclass(frozen=True)
class Instance:
    kernel: str
    fabric: str
    ii: int
    limit: float  # L, seconds

    @property
    def id(self) -> str:
        return f"{self.kernel}@{self.fabric}/ii{self.ii}"


@dataclass(frozen=True)
class Workload:
    kind: str  # "staged": map_dfg; "exact": baseline and combined model
    instances: tuple[Instance, ...]
    schedule: tuple[int, ...] = ()
    placement_limit: int = 100
    k_paths: int = 16


def _grid(limit, fabric, ii, kernels):
    return tuple(Instance(k, fabric, ii, limit) for k in kernels.split())


# On small fabrics the staged search spends its time in relaxed-placement
# enumeration and routing solves, while the path cache costs a few ms.
# sum4 on 2x2 ortho at II=1 ran for 41.5 s with the cache slicing
# repaired: it times out here until the solver gets faster.
KERNELS_L = 2.0
_KERNELS = (
    _grid(KERNELS_L, "ortho2x2", 1, "chain3 fan3 acc sum4 mac five_add")
    + _grid(KERNELS_L, "ortho2x2", 2, "chain3 fan3")
    + _grid(KERNELS_L, "adres2x2", 1, "diamond ldst acc five_add")
    + _grid(KERNELS_L, "adres2x2", 2, "chain3 fan3 mac sum4")
    + _grid(KERNELS_L, "clustered2x2", 1, "diamond sum4 mac ldst acc")
    + _grid(KERNELS_L, "clustered2x2", 2, "ldst five_add diamond acc")
    + _grid(KERNELS_L, "clustered2x4", 1, "mac sum4 fan3 five_add")
    + _grid(KERNELS_L, "clustered2x4", 2, "diamond chain3 fan3 ldst")
    + _grid(KERNELS_L, "hycube2x2", 1, "chain3 acc ldst mac five_add")
    + _grid(KERNELS_L, "hycube2x2", 2, "fan3 ldst diamond sum4")
)

# On 4x4 fabrics build_path_cache and build_neighbor_map take over 90% of
# map_dfg time; each fabric repeats across kernels so that reuse of path
# and neighbour work across calls shows. Kernels are ones that map at the
# first feasible neighbour count or that the screen rejects (store5 has
# more stores than memory ports at II=1); chain-like kernels on 4x4 ADRES
# spend tens of seconds in enumeration and are left out.
FABRIC_L = 12.0
_FABRIC = (
    _grid(FABRIC_L, "adres4x4", 2, "fan3 ldst")
    + _grid(FABRIC_L, "hycube4x4", 2, "fan3 ldst acc")
    + _grid(FABRIC_L, "adres4x4", 3, "fan3")
    + _grid(FABRIC_L, "adres4x4", 1, "store5")
    + _grid(FABRIC_L, "hycube4x4", 1, "store5")
)

# Tiny instances decided by the per-node baseline and by the combined
# model at full neighbour count: one solve on a pairwise-con6 model
# instead of enumeration on the relaxed one. Both solvers' search time
# depends on the seed's branch order; on 2x2 HyCUBE and clustered fabrics
# some seeds take 20-100x longer (or time out) on feasible kernels, so
# only their infeasible kernels are used, whose search is exhaustive.
# fan3 on 2x3 ortho has an 81k-row combined model, mostly con6, that
# takes about 1 s to build and 1-2 s to solve: the largest share of the
# pass. The 402k-row model of 2x2 ortho at II=2 is left out: its 2-6 s
# seed-dependent solve left too few passes per run for steady medians.
EXACT_L = 5.0
_EXACT = (
    _grid(EXACT_L, "ortho2x2", 1, "acc chain3 fan3 five_add")
    + _grid(EXACT_L, "adres2x2", 1, "fan3")
    + _grid(EXACT_L, "hycube2x2", 1, "five_add")
    + _grid(EXACT_L, "clustered2x2", 1, "acc ldst")
    + _grid(10.0, "ortho2x3", 1, "fan3")
)

WORKLOADS = {
    "kernels": Workload("staged", _KERNELS, schedule=(4, 8)),
    "fabric": Workload("staged", _FABRIC, schedule=(4, 8, 16)),
    "exact": Workload("exact", _EXACT),
}


def all_instances() -> dict[str, Instance]:
    return {i.id: i for w in WORKLOADS.values() for i in w.instances}


def load_oracle() -> dict:
    """Stored verdicts, keyed by instance id; see make_oracle.py."""
    return json.loads(ORACLE_FILE.read_text())["verdicts"]


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}
