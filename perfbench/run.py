"""Mapping benchmark for cgramap.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src. One run sets up (import, parse, build_mrrg) three times before
every pass and reports the median as setup_s. It makes one untimed pass
with the seed, which warms up and records verdicts, then repeats timed
passes with seed + 1, seed + 2, ... until --seconds have elapsed and
reports the median of each end-to-end metric over the passes, scaled
for host speed. With --trace 1 untraced and traced passes alternate and
the per-layer metrics are reported. The last line of stdout is the
result object; the line before it holds per-op rows, error counts and
an environment stamp. See NOTES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import metrics
import suite
import tracing
from metrics import OpOutcome

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 3


@dataclasses.dataclass(frozen=True)
class Api:
    """The cgramap entry points a pass calls; the traced run swaps in
    wrapped versions of the callables."""

    map_dfg: object
    build_neighbor_map: object
    build_path_cache: object
    build_variant: object
    build_baseline: object
    solve: object
    enumerate_solutions: object
    validate_mapping: object
    InfeasibleModel: type
    MapLimits: type
    SolveConfig: type
    MappingSolution: type
    extract_mapping: object
    fu_nodes: object
    mapper: object


def _import_cgramap() -> Api:
    for name in [n for n in sys.modules
                 if n == "cgramap" or n.startswith("cgramap.")]:
        del sys.modules[name]
    mapper = importlib.import_module("cgramap.mapper")
    baseline = importlib.import_module("cgramap.baseline")
    ilp = importlib.import_module("cgramap.ilp")
    mrrg = importlib.import_module("cgramap.mrrg")
    neighbors = importlib.import_module("cgramap.neighbors")
    paths = importlib.import_module("cgramap.paths")
    solver = importlib.import_module("cgramap.solver")
    return Api(map_dfg=mapper.map_dfg,
               build_neighbor_map=neighbors.build_neighbor_map,
               build_path_cache=paths.build_path_cache,
               build_variant=ilp.build_variant,
               build_baseline=baseline.build_baseline,
               solve=solver.solve,
               enumerate_solutions=solver.enumerate_solutions,
               validate_mapping=mapper.validate_mapping,
               InfeasibleModel=ilp.InfeasibleModel,
               MapLimits=mapper.MapLimits,
               SolveConfig=solver.SolveConfig,
               MappingSolution=mapper.MappingSolution,
               extract_mapping=baseline.extract_mapping,
               fu_nodes=mrrg.fu_nodes,
               mapper=mapper)


@dataclasses.dataclass
class Setup:
    api: Api
    dfgs: dict
    mrrgs: dict
    seconds: float
    parse_s: float
    mrrg_s: float


def set_up(workload: suite.Workload) -> Setup:
    """Import cgramap afresh, parse the workload's texts and build its
    fabrics: the cost a user pays before the first mapping call."""
    t0 = time.perf_counter()
    api = _import_cgramap()
    from cgramap.dfg import parse_dfg
    from cgramap.mrrg import build_mrrg, parse_arch
    t1 = time.perf_counter()
    dfgs = {k: parse_dfg(suite.KERNELS[k])
            for k in sorted({i.kernel for i in workload.instances})}
    t2 = time.perf_counter()
    mrrgs = {}
    for fabric, ii in sorted({(i.fabric, i.ii) for i in workload.instances}):
        mrrgs[fabric, ii] = build_mrrg(parse_arch(suite.FABRICS[fabric]), ii)
    t3 = time.perf_counter()
    return Setup(api, dfgs, mrrgs, t3 - t0, t2 - t1, t3 - t2)


# -- operations -------------------------------------------------------------

def _staged_op(inst, workload, setup, api, seed, oracle):
    dfg, mrrg = setup.dfgs[inst.kernel], setup.mrrgs[inst.fabric, inst.ii]
    limits = api.MapLimits(placement_limit=workload.placement_limit,
                           solve_time=inst.limit, total_time=inst.limit)
    nn = None
    t0 = time.perf_counter()
    try:
        out = api.map_dfg(dfg, mrrg, workload.schedule, limits, seed)
    except Exception as exc:  # recorded, never retried or worked around
        wall = time.perf_counter() - t0
        return OpOutcome(inst.id, f"error:{type(exc).__name__}", wall,
                         inst.limit)
    wall = time.perf_counter() - t0
    status = out.status
    if out.attempts:
        nn = out.attempts[-1].nn
    if status == "mapped":
        if setup.api.validate_mapping(dfg, mrrg, out.solution):
            status = "invalid"
        elif oracle[inst.id]["mappable"] is False:
            status = "contradicts"
    return OpOutcome(inst.id, status, wall, inst.limit, nn=nn)


def _combined_routing(assignment, cache, placement, dfg):
    """Routes out of a combined-model assignment: for each DFG edge, the
    lowest-index switched-on path between its units."""
    on = {v.idx for v, x in assignment.items() if v.cls == "p" and x == 1}
    routing = {}
    for o, p in dfg.point_edges():
        u, v = placement.get(o), placement.get(p)
        q = min((q for (a, b, q) in on if (a, b) == (u, v)), default=None)
        if q is not None:
            routing.setdefault(o, []).append(cache[u, v][q])
    return {o: tuple(ps) for o, ps in routing.items()}


def _baseline_decide(dfg, mrrg, api, cfg):
    model = api.build_baseline(dfg, mrrg)
    res = api.solve(model, cfg)
    if res.status != "feasible":
        return res, None
    placement, routes = api.extract_mapping(model, dfg, mrrg, res.assignment)
    routing = {}
    for (o, _), rp in sorted(routes.items()):
        routing.setdefault(o, []).append(rp)
    return res, api.MappingSolution(
        placement, {o: tuple(ps) for o, ps in routing.items()}, 0)


def _combined_decide(dfg, mrrg, api, cfg, nn, k):
    nmap = api.build_neighbor_map(mrrg, nn)
    cache = api.build_path_cache(mrrg, nmap, k)
    try:
        model = api.build_variant("combined", dfg, mrrg, nmap, cache,
                                  paths_per_connection=k)
    except api.InfeasibleModel:
        return None, None
    res = api.solve(model, cfg)
    if res.status != "feasible":
        return res, None
    placement = {v.idx[0]: v.idx[1] for v, x in res.assignment.items()
                 if v.cls == "f" and x == 1}
    routing = _combined_routing(res.assignment, cache, placement, dfg)
    return res, api.MappingSolution(placement, routing, nn)


def _exact_ops(inst, workload, setup, api, seed, oracle):
    """The per-node baseline and the combined model at full neighbour
    count, each one operation checked against the stored oracle."""
    dfg, mrrg = setup.dfgs[inst.kernel], setup.mrrgs[inst.fabric, inst.ii]
    cfg = api.SolveConfig(seed=seed, time_limit=inst.limit)
    nn = len(api.fu_nodes(mrrg))
    outcomes = []
    for form in ("baseline", "combined"):
        res = None
        t0 = time.perf_counter()
        try:
            if form == "baseline":
                res, sol = _baseline_decide(dfg, mrrg, api, cfg)
            else:
                res, sol = _combined_decide(dfg, mrrg, api, cfg, nn,
                                            workload.k_paths)
        except Exception as exc:  # recorded, never retried
            status = f"error:{type(exc).__name__}"
        else:
            # a model construction rejects is an infeasible verdict
            status = "infeasible" if res is None else res.status
            status = {"timeout": "timed_out"}.get(status, status)
        wall = time.perf_counter() - t0
        if status == "feasible" \
                and setup.api.validate_mapping(dfg, mrrg, sol):
            status = "invalid"
        elif status in ("feasible", "infeasible") \
                and (status == "feasible") != oracle[inst.id]["mappable"]:
            status = "contradicts"
        outcomes.append(OpOutcome(
            f"{inst.id}#{form}", status, wall, inst.limit,
            nodes=None if res is None else res.nodes,
            nn=nn if form == "combined" else None))
    return outcomes


def run_pass(workload, setup, api, seed, oracle, refs, tracer=None):
    """One closed-loop pass over the instances; returns outcomes and the
    pass's wall time. A reference timing goes into refs before each
    instance."""
    outcomes = []
    t0 = time.perf_counter()
    for inst in workload.instances:
        refs.append(metrics.reference_seconds())
        before = _node_total(tracer)
        if workload.kind == "exact":
            got = _exact_ops(inst, workload, setup, api, seed, oracle)
        else:
            got = [_staged_op(inst, workload, setup, api, seed, oracle)]
            if tracer is not None:
                got = [dataclasses.replace(
                    got[0], nodes=_node_total(tracer) - before)]
        outcomes.extend(got)
    return outcomes, time.perf_counter() - t0


def _node_total(tracer):
    if tracer is None:
        return 0
    return sum(n for k, n in tracer.counts.items() if k.endswith(".nodes"))


def traced_pass(workload, setup, seed, oracle, refs):
    tracer = tracing.Tracer()
    api = tracer.wrap(setup.api)
    with tracer.patched(setup.api.mapper, api):
        outcomes, wall = run_pass(workload, setup, api, seed, oracle, refs,
                                  tracer)
    return outcomes, wall, tracer


# -- one run ----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; plain
    source trees have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "commit": _git_commit(), "seed": seed}


def _rows(outcomes, scale):
    return [{"id": o.instance, "status": o.status,
             "time_s": round(o.charged(scale), 6), "wall_s": round(o.wall, 6),
             "nodes": o.nodes, "nn": o.nn} for o in outcomes]


def _seed_mismatches(reference, outcomes):
    """Ops whose verdict differs from the reference pass, which ran with
    another seed; timeouts and errors are left out, since only verdicts
    must not depend on the seed."""
    ref = {o.instance: o.status for o in reference}
    return sorted(o.instance for o in outcomes
                  if o.status in metrics.VERDICTS
                  and ref.get(o.instance) in metrics.VERDICTS
                  and ref[o.instance] != o.status)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        instances=None) -> tuple[dict, dict]:
    """Returns (result, details). `instances` narrows the workload, for
    the self-tests."""
    workload = suite.WORKLOADS[workload_name]
    if instances is not None:
        workload = dataclasses.replace(workload, instances=instances)
    oracle = suite.load_oracle()
    # staged ops tolerate an undecided oracle (validate_mapping still
    # checks them); exact ops are compared with it, so need a verdict
    missing = [i.id for i in workload.instances if i.id not in oracle
               or (workload.kind == "exact"
                   and oracle[i.id]["mappable"] is None)]
    if missing:
        raise RuntimeError(f"no oracle verdict for {missing}")

    # set-up is repeated before every pass, so that its median spans the
    # run rather than one moment of it; each pass uses the newest one
    setups = []  # (seconds, parse_s, mrrg_s) of every set-up

    def fresh_setup():
        for _ in range(SETUPS_PER_PASS):
            made = set_up(workload)
            setups.append((made.seconds, made.parse_s, made.mrrg_s))
        return made

    # pass k runs with seed + k, so a run's medians span several solver
    # seeds; pass 0 only warms up and anchors the verdict comparison
    setup = fresh_setup()
    refs: list[float] = []
    warm, _ = run_pass(workload, setup, setup.api, seed, oracle, refs)
    seeds = itertools.count(seed + 1)
    passes, traced, untraced_walls, traced_walls = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup = fresh_setup()
        outcomes, wall = run_pass(workload, setup, setup.api, next(seeds),
                                  oracle, refs)
        passes.append(outcomes)
        untraced_walls.append(wall)
        if trace:
            outcomes, wall, tracer = traced_pass(workload, setup,
                                                 next(seeds), oracle, refs)
            traced.append((outcomes, tracer))
            traced_walls.append(wall)

    speed = metrics.REFERENCE_NOMINAL_S / statistics.median(refs)
    every = [o for p in passes for o in p] + \
        [o for p, _ in traced for o in p]
    mismatched = _seed_mismatches(warm, every)
    wrong = sorted({o.instance for o in every
                    if o.status in ("invalid", "contradicts")})
    errors: dict[str, int] = {}
    for o in passes[0]:
        if o.status.startswith("error:"):
            errors[o.status[6:]] = errors.get(o.status[6:], 0) + 1

    if trace:
        layer = metrics.summarize(t.layer_metrics() for _, t in traced)
        layer["mrrg.build_s"] = statistics.median(s[2] for s in setups)
        layer["dfg.parse_s"] = statistics.median(s[1] for s in setups)
        layer["mrrg.nodes"] = sum(len(m.nodes) for m in setup.mrrgs.values())
        layer["mrrg.edges"] = sum(m.edge_count
                                  for m in setup.mrrgs.values())
        untraced = statistics.median(untraced_walls)
        layer["trace.overhead_frac"] = \
            statistics.median(traced_walls) / untraced - 1
        values, rows_from = layer, traced[0][0]
    else:
        values = metrics.summarize(metrics.pass_metrics(p, speed)
                                   for p in passes)
        values["setup_s"] = statistics.median(s[0] for s in setups) * speed
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows_from = passes[-1]

    declared = suite.declared_metrics("per_layer" if trace else "end_to_end")
    if set(values) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    result = {
        "correct": not mismatched and not wrong,
        "attempted": len(every),
        "failed": sum(o.failed for o in every),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    details = {"workload": workload_name, "env": env_stamp(seed),
               "passes": len(passes), "traced_passes": len(traced),
               "speed_factor": speed, "errors": errors,
               "seed_mismatches": mismatched, "wrong": wrong,
               "rows": _rows(rows_from, speed)}
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result, details = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _use_checkout_source():
    src = ROOT / "src"
    if not (src / "cgramap" / "__init__.py").is_file():
        sys.exit(f"cgramap source not found under {src}; run from a "
                 "source checkout")
    sys.path.insert(0, str(src))


if __name__ == "__main__":
    _use_checkout_source()
    sys.exit(main())
