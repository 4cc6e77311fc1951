"""Compute the stored oracle verdicts in oracle.json.

    python3 perfbench/make_oracle.py            # fill in missing entries
    python3 perfbench/make_oracle.py --force    # recompute all

Not run by the benchmark: brute force takes minutes on some instances.
Each instance is decided two independent ways, each in a child process
with a time limit:

  brute_force  `brute_force_mappable` from tests/helpers.py, exhaustive
               over placements and simple paths. Skipped on 4x4 fabrics,
               where path enumeration explodes, unless counting already
               shows more operations of one kind than compatible units.
  baseline     the per-node baseline model. A feasible solution whose
               extracted mapping passes validate_mapping proves the
               instance mappable; `infeasible` only means no mapping
               within the baseline's hop budget.

The verdict is brute force's where it finished, else the baseline's
validated mapping, else none: such instances are checked only by
validate_mapping. A disagreement between the two is recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import suite

ROOT = Path(__file__).resolve().parent.parent
BRUTE_FORCE_LIMIT = 120.0
BASELINE_LIMIT = 60.0


def _load(iid):
    sys.path.insert(0, str(ROOT / "src"))
    from cgramap.dfg import parse_dfg
    from cgramap.mrrg import build_mrrg, parse_arch
    inst = suite.all_instances()[iid]
    return (parse_dfg(suite.KERNELS[inst.kernel]),
            build_mrrg(parse_arch(suite.FABRICS[inst.fabric]), inst.ii))


def counting_infeasible(dfg, mrrg) -> str | None:
    """A reason when more operations need one unit set than it has."""
    from cgramap.mrrg import compatible_nodes
    groups = Counter(compatible_nodes(mrrg, op) for op in dfg.operations)
    for units, n in sorted(groups.items(), key=lambda t: -t[1]):
        if n > len(units):
            return f"{n} operations share {len(units)} compatible units"
    return None


def brute_force(iid) -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import brute_force_mappable
    dfg, mrrg = _load(iid)
    return {"brute_force": brute_force_mappable(dfg, mrrg)}


def baseline(iid) -> dict:
    import time

    from cgramap.baseline import build_baseline, extract_mapping
    from cgramap.mapper import MappingSolution, validate_mapping
    from cgramap.solver import SolveConfig, solve
    dfg, mrrg = _load(iid)
    t0 = time.perf_counter()
    model = build_baseline(dfg, mrrg)
    res = solve(model, SolveConfig(seed=0, time_limit=BASELINE_LIMIT))
    entry = {"baseline": res.status,
             "baseline_s": round(time.perf_counter() - t0, 3)}
    if res.status == "feasible":
        placement, routes = extract_mapping(model, dfg, mrrg, res.assignment)
        routing = {}
        for (o, _), rp in sorted(routes.items()):
            routing.setdefault(o, []).append(rp)
        sol = MappingSolution(placement,
                              {o: tuple(r) for o, r in routing.items()}, 0)
        entry["baseline_mapping_valid"] = not validate_mapping(dfg, mrrg, sol)
    return entry


def _child(kind, iid):
    return subprocess.Popen([sys.executable, __file__, f"--{kind}", iid],
                            stdout=subprocess.PIPE, text=True)


def _collect(proc, timeout) -> dict | None:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"oracle child failed with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def derive(inst) -> dict:
    counting = counting_infeasible(*_load(inst.id))
    base_proc = _child("baseline", inst.id)
    bf_proc = None
    if counting or not inst.fabric.endswith("4x4"):
        bf_proc = _child("brute-force", inst.id)
    entry = _collect(base_proc, BASELINE_LIMIT * 3) \
        or {"baseline": "no result"}
    bf = None
    if counting:
        entry["counting"] = counting
    if bf_proc is not None:
        bf = _collect(bf_proc, BRUTE_FORCE_LIMIT)
        entry["brute_force"] = None if bf is None else bf["brute_force"]
    witness = entry.get("baseline_mapping_valid", False)
    if bf is not None:
        entry["mappable"] = bf["brute_force"]
        entry["derived_by"] = "brute_force"
        if entry["baseline"] in ("feasible", "infeasible") \
                and (entry["baseline"] == "feasible") != bf["brute_force"]:
            entry["disagreement"] = "baseline differs from brute force"
    elif witness:
        entry["mappable"] = True
        entry["derived_by"] = "baseline mapping passing validate_mapping"
    else:
        entry["mappable"] = None
        entry["derived_by"] = "undecided within the time limits"
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--force", action="store_true")
    ap.add_argument("--brute-force", metavar="ID", help=argparse.SUPPRESS)
    ap.add_argument("--baseline", metavar="ID", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.brute_force or args.baseline:
        sys.path.insert(0, str(ROOT / "src"))
        got = brute_force(args.brute_force) if args.brute_force \
            else baseline(args.baseline)
        print(json.dumps(got))
        return 0

    doc = {"about": __doc__.split("\n\n", 2)[2].strip(), "verdicts": {}}
    if suite.ORACLE_FILE.exists() and not args.force:
        doc["verdicts"] = suite.load_oracle()
    for iid, inst in sorted(suite.all_instances().items()):
        if iid in doc["verdicts"]:
            continue
        doc["verdicts"][iid] = derive(inst)
        print(iid, doc["verdicts"][iid], flush=True)
        suite.ORACLE_FILE.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
