"""Spans and counters around calls into cgramap's public functions.

Nothing inside the package is instrumented. The traced run wraps the
names `cgramap.mapper` imports, so the spans nest inside `map_dfg`, and
hands the same wrappers to the benchmark's own direct calls. Spans stay
in memory; `layer_metrics` folds them into the per-layer numbers after
the pass.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# names map_dfg resolves from its module globals at call time
MAPPER_NAMES = ("build_neighbor_map", "build_path_cache", "build_variant",
                "solve", "enumerate_solutions", "validate_mapping")

ILP_VARIANTS = ("placement_only", "relaxed_placement", "routing_only",
                "combined")

# solve() spans are named by the variant of the model they decide
_SOLVE_SPAN = {"placement_only": "solver.screen",
               "routing_only": "solver.route",
               "relaxed_placement": "solver.enum",
               "combined": "solver.exact",
               "baseline": "baseline.solve"}

ERROR_TYPES = ("TypeError", "AssertionError")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one pass: spans with their parent, and named counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._open: list[int] = []
        self._paths_built: set = set()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def wrap(self, api):
        """An Api whose functions record spans and counts here."""
        return dataclasses.replace(
            api,
            map_dfg=self._map_dfg(api.map_dfg),
            build_neighbor_map=self._neighbors(api.build_neighbor_map),
            build_path_cache=self._paths(api.build_path_cache),
            build_variant=self._variant(api.build_variant,
                                        api.InfeasibleModel),
            build_baseline=self._baseline(api.build_baseline),
            solve=self._solve(api.solve),
            enumerate_solutions=self._enumerate(api.enumerate_solutions),
            validate_mapping=self._validate(api.validate_mapping))

    @contextmanager
    def patched(self, mapper_module, wrapped_api):
        """Swap the wrapped functions into the mapper module's namespace
        and restore every original afterwards. A name the mapper no
        longer imports is an error, not a silent zero."""
        missing = [n for n in MAPPER_NAMES if not hasattr(mapper_module, n)]
        if missing:
            raise RuntimeError(f"cgramap.mapper no longer has {missing}; "
                               "update the benchmark's tracing")
        saved = {n: getattr(mapper_module, n) for n in MAPPER_NAMES}
        try:
            for n in MAPPER_NAMES:
                setattr(mapper_module, n, getattr(wrapped_api, n))
            yield
        finally:
            for n, fn in saved.items():
                setattr(mapper_module, n, fn)

    # -- wrappers ---------------------------------------------------------

    def _map_dfg(self, fn):
        def map_dfg(dfg, mrrg, schedule, limits, seed):
            with self.span("map_dfg") as sp:
                try:
                    out = fn(dfg, mrrg, schedule, limits, seed)
                except Exception as exc:
                    self.errors[type(exc).__name__] += 1
                    raise
            over = sp.seconds - limits.total_time
            self.counts["mapper.overshoot_s"] = max(
                self.counts["mapper.overshoot_s"], over, 0.0)
            return out
        return map_dfg

    def _neighbors(self, fn):
        def build_neighbor_map(*args, **kwargs):
            with self.span("neighbors"):
                nmap = fn(*args, **kwargs)
            self.counts["neighbors.calls"] += 1
            self.counts["neighbors.entries"] += sum(
                len(v) for v in nmap.neighbors.values())
            return nmap
        return build_neighbor_map

    def _paths(self, fn):
        def build_path_cache(mrrg, nmap, *args, **kwargs):
            with self.span("paths"):
                cache = fn(mrrg, nmap, *args, **kwargs)
            key = (id(mrrg), nmap.target_nn, cache.k)
            self.counts["paths.calls"] += 1
            self.counts["paths.repeats"] += key in self._paths_built
            self._paths_built.add(key)
            self.counts["paths.pairs"] += len(cache.paths)
            self.counts["paths.routes"] += sum(
                len(ps) for ps in cache.paths.values())
            return cache
        return build_path_cache

    def _variant(self, fn, infeasible):
        def build_variant(variant, *args, **kwargs):
            try:
                with self.span(f"ilp.{variant}"):
                    model = fn(variant, *args, **kwargs)
            except infeasible:
                self.counts["ilp.infeasible_builds"] += 1
                raise
            self._model_size(f"ilp.{{}}.{variant}", model)
            return model
        return build_variant

    def _baseline(self, fn):
        def build_baseline(*args, **kwargs):
            with self.span("baseline.build"):
                model = fn(*args, **kwargs)
            self._model_size("baseline.{}", model)
            return model
        return build_baseline

    def _model_size(self, pattern, model):
        self.counts[pattern.format("vars")] += len(model.variables)
        self.counts[pattern.format("rows")] += len(model.constraints)
        self.counts["ilp.rows.con6"] += sum(
            1 for c in model.constraints if c.tag == "con6")

    def _solve(self, fn):
        def solve(model, cfg, *args, **kwargs):
            name = _SOLVE_SPAN[model.variant]
            with self.span(name) as sp:
                res = fn(model, cfg, *args, **kwargs)
            self.counts[f"{name}.nodes"] += res.nodes
            self._deadline(res, sp.seconds - cfg.time_limit)
            if model.variant == "routing_only" and res.status == "feasible":
                self.counts["mapper.routed"] += 1
            return res
        return solve

    def _enumerate(self, fn):
        def enumerate_solutions(model, cfg, *args, **kwargs):
            gen = fn(model, cfg, *args, **kwargs)
            started = time.perf_counter()
            while True:
                try:
                    with self.span("solver.enum"):
                        res = next(gen)
                except StopIteration as stop:
                    final = stop.value
                    if final is not None:
                        self.counts["solver.enum.nodes"] += final.nodes
                        self._deadline(final, time.perf_counter() - started
                                       - cfg.time_limit)
                    return final
                self.counts["solver.enum.nodes"] += res.nodes
                self.counts["solver.enum.yields"] += 1
                yield res
        return enumerate_solutions

    def _deadline(self, res, over):
        if res.status == "timeout":
            self.counts["solver.timeouts"] += 1
            self.counts["solver.overshoot_s"] = max(
                self.counts["solver.overshoot_s"], over, 0.0)

    def _validate(self, fn):
        def validate_mapping(*args, **kwargs):
            with self.span("mapper.validate"):
                return fn(*args, **kwargs)
        return validate_mapping

    # -- folding ----------------------------------------------------------

    def seconds(self, name: str) -> float:
        return float(sum(s.seconds for s in self.spans if s.name == name))

    def child_seconds(self, parent_name: str) -> dict[str, float]:
        """Seconds of each direct child kind under spans of one name."""
        parents = {i for i, s in enumerate(self.spans)
                   if s.name == parent_name}
        out: Counter = Counter()
        for s in self.spans:
            if s.parent in parents:
                out[s.name] += s.seconds
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        sec = self.seconds
        solver_kinds = ("solver.screen", "solver.enum", "solver.route",
                        "solver.exact", "baseline.solve")
        solver_s = sum(sec(k) for k in solver_kinds)
        solver_nodes = sum(c[f"{k}.nodes"] for k in solver_kinds)
        in_mapper = sum(self.child_seconds("map_dfg").values())
        tried = c["solver.enum.yields"]
        m = {
            "solver.enum_s": sec("solver.enum"),
            "solver.enum_nodes": c["solver.enum.nodes"],
            "solver.enum_yields": tried,
            "solver.route_s": sec("solver.route"),
            "solver.route_nodes": c["solver.route.nodes"],
            "solver.screen_s": sec("solver.screen"),
            "solver.screen_nodes": c["solver.screen.nodes"],
            "solver.nodes_per_s": solver_nodes / solver_s if solver_s else 0.0,
            "solver.exact_s": sec("solver.exact"),
            "solver.exact_nodes": c["solver.exact.nodes"],
            "solver.timeouts": c["solver.timeouts"],
            "solver.overshoot_s": float(c["solver.overshoot_s"]),
            "mapper.overshoot_s": float(c["mapper.overshoot_s"]),
            "paths.build_s": sec("paths"),
            "paths.pairs": c["paths.pairs"],
            "paths.routes": c["paths.routes"],
            "paths.repeat_frac": (c["paths.repeats"] / c["paths.calls"]
                                  if c["paths.calls"] else 0.0),
            "neighbors.build_s": sec("neighbors"),
            "neighbors.calls": c["neighbors.calls"],
            "neighbors.entries": c["neighbors.entries"],
        }
        for v in ILP_VARIANTS:
            m[f"ilp.build_s.{v}"] = sec(f"ilp.{v}")
            m[f"ilp.vars.{v}"] = c[f"ilp.vars.{v}"]
            m[f"ilp.rows.{v}"] = c[f"ilp.rows.{v}"]
        m.update({
            "ilp.rows.con6": c["ilp.rows.con6"],
            "ilp.infeasible_builds": c["ilp.infeasible_builds"],
            "baseline.build_s": sec("baseline.build"),
            "baseline.solve_s": sec("baseline.solve"),
            "baseline.vars": c["baseline.vars"],
            "baseline.rows": c["baseline.rows"],
            "baseline.nodes": c["baseline.solve.nodes"],
            "mapper.self_s": sec("map_dfg") - in_mapper,
            "mapper.validate_s": sec("mapper.validate"),
            # one placement-only screen per neighbour-count target tried
            "mapper.nn_attempts": sum(1 for s in self.spans
                                      if s.name == "ilp.placement_only"),
            "mapper.placements_tried": tried,
            "mapper.route_hit_frac": (c["mapper.routed"] / tried
                                      if tried else 0.0),
            "mapper.errors": sum(self.errors.values()),
        })
        for t in ERROR_TYPES:
            m[f"mapper.errors.{t}"] = self.errors[t]
        m["mapper.errors.other"] = sum(
            n for t, n in self.errors.items() if t not in ERROR_TYPES)
        return m
