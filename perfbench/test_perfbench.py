"""Self-tests for the benchmark: metric arithmetic on synthetic outcomes,
tracer bookkeeping, the oracle table, and a one-instance smoke run per
workload.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import types

import pytest

import metrics
import run
import suite
import tracing
from metrics import OpOutcome

run._use_checkout_source()


def op(status, wall, limit=2.0):
    return OpOutcome("x", status, wall, limit)


def test_time_is_capped_at_the_limit():
    assert op("mapped", 0.5).charged() == 0.5
    assert op("mapped", 0.5).charged(2.0) == 1.0
    assert op("mapped", 1.5).charged(2.0) == 2.0
    late = op("not_mappable", 3.0)
    assert late.charged() == 2.0
    assert not late.decided


def test_failures_and_timeouts_are_charged_the_limit():
    for status in ("error:TypeError", "invalid", "contradicts", "timed_out"):
        o = op(status, 0.01)
        assert o.charged() == 2.0
        assert o.charged(0.5) == 2.0
        assert not o.decided
    assert all(op(s, 0).failed for s in ("error:X", "invalid", "contradicts"))
    assert not op("timed_out", 0).failed


def test_geomean():
    assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert metrics.geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        metrics.geomean([])
    with pytest.raises(ValueError):
        metrics.geomean([1.0, 0.0])


def test_pass_metrics_fractions():
    outcomes = [op("mapped", 0.5), op("not_mappable", 1.0),
                op("error:TypeError", 0.01), op("timed_out", 2.5),
                op("feasible", 0.25, limit=5.0), op("invalid", 0.1)]
    m = metrics.pass_metrics(outcomes)
    assert m["verdict_s_sum"] == pytest.approx(0.5 + 1 + 2 + 2 + 0.25 + 2)
    assert m["verdict_s_geomean"] == pytest.approx(
        math.exp(sum(map(math.log, [0.5, 1, 2, 2, 0.25, 2])) / 6))
    assert m["decided_frac"] == pytest.approx(3 / 6)
    assert m["unmapped_frac"] == pytest.approx(4 / 6)
    assert m["ok_frac"] == pytest.approx(4 / 6)
    scaled = metrics.pass_metrics(outcomes, 0.5)
    assert scaled["verdict_s_sum"] == pytest.approx(
        0.25 + 0.5 + 2 + 2 + 0.125 + 2)
    with pytest.raises(ValueError):
        metrics.pass_metrics([])


def test_summarize_takes_counts_from_the_first_pass():
    got = metrics.summarize([{"n": 4, "t": 1.0}, {"n": 3, "t": 2.0},
                             {"n": 3, "t": 9.0}])
    assert got == {"n": 4, "t": 2.0}


def test_seed_mismatches_ignore_timeouts_and_errors():
    a = [OpOutcome("i", "mapped", 0, 1), OpOutcome("j", "timed_out", 0, 1),
         OpOutcome("k", "feasible", 0, 1)]
    b = [OpOutcome("i", "mapped", 0, 1), OpOutcome("j", "not_mappable", 0, 1),
         OpOutcome("k", "infeasible", 0, 1)]
    assert run._seed_mismatches(a, b) == ["k"]


def test_patched_restores_and_fails_loudly():
    fake = types.SimpleNamespace(**{n: object() for n in
                                    tracing.MAPPER_NAMES})
    before = {n: getattr(fake, n) for n in tracing.MAPPER_NAMES}
    wrapped = types.SimpleNamespace(**{n: object() for n in
                                       tracing.MAPPER_NAMES})
    tr = tracing.Tracer()
    with pytest.raises(KeyError):
        with tr.patched(fake, wrapped):
            assert fake.solve is wrapped.solve
            raise KeyError("boom")
    assert {n: getattr(fake, n) for n in tracing.MAPPER_NAMES} == before
    del fake.build_path_cache
    with pytest.raises(RuntimeError, match="build_path_cache"):
        with tr.patched(fake, wrapped):
            pass


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.span("map_dfg"):
        with tr.span("paths"):
            pass
        with tr.span("neighbors"):
            pass
    kids = tr.child_seconds("map_dfg")
    assert set(kids) == {"paths", "neighbors"}
    layer = tr.layer_metrics()
    assert layer["mapper.self_s"] == pytest.approx(
        tr.seconds("map_dfg") - sum(kids.values()))
    assert layer["mapper.route_hit_frac"] == 0.0


def test_oracle_covers_every_instance():
    oracle = suite.load_oracle()
    for iid, inst in suite.all_instances().items():
        assert iid in oracle, iid
        assert "derived_by" in oracle[iid]
    for inst in suite.WORKLOADS["exact"].instances:
        assert oracle[inst.id]["mappable"] is not None


def test_declared_metrics_match_benchmark_json():
    e2e = suite.declared_metrics("end_to_end")
    assert "setup_s" in e2e and e2e["setup_s"] == "s"
    assert set(tracing.Tracer().layer_metrics()) < set(
        suite.declared_metrics("per_layer"))


SMOKE = {"kernels": "five_add@ortho2x2/ii1",
         "fabric": "store5@adres4x4/ii1",
         "exact": "acc@ortho2x2/ii1"}


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_one_instance(workload, trace):
    inst = suite.all_instances()[SMOKE[workload]]
    result, details = run.run(workload, 3, 0.01, trace, instances=(inst,))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(suite.declared_metrics(section))
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert details["env"]["seed"] == 3
    assert details["rows"] and all(r["id"].startswith(inst.id)
                                   for r in details["rows"])
    json.dumps(result)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
