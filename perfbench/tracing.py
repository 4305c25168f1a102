"""Outside-in layer tracing of birthdeath, for the benchmark's traced runs.

`instrument` replaces, inside the benchmark process only, the public names
that `cli` and the library modules call across module boundaries with
wrappers that record a span (name, start, end, parent) per call, plus
counts read from the arguments and results at the same boundary.  Spans
stay in memory; the benchmark aggregates them into per-layer metrics and
writes them out when it ends.  The program's source is not changed.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the self times of one run add up to the root span.
"""
from __future__ import annotations

import dataclasses
import inspect
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span recorder.  Spans are (id, parent id or -1, name, start, end, self)."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []     # open spans: [id, time covered by children]
        self._next_id = 0

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, hook=None):
        """fn recording a span per call; hook(tracer, bound_args, result) adds counts."""
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((frame[0], parent, name, start, end, end - start - frame[1]))
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def by_name(self):
        """name -> (calls, self seconds)."""
        out = {}
        for _sid, _parent, name, _start, _end, self_s in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            t0 = min((s[3] for s in self.spans), default=0.0)
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(f"{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f},{self_s:.9f}\n")


# counts read at the boundaries


def _evolve_hook(tracer, a, result):
    if a["T"] > 0:
        tracer.count("hierarchy.rk4_steps", round(a["T"] / result.dt))
    k0 = a["k0"]
    tracer.peak("hierarchy.state_bytes", k0.k1.nbytes + (0 if k0.k2 is None else k0.k2.nbytes))


def _integrate_hook(tracer, a, result):
    if a["T"] > 0:
        tracer.count("vlasov.rk4_steps", round(a["T"] / result.dt))


def _ensemble_hook(tracer, a, result):
    for ev in result.events["per_replica"]:
        for key in ("proposals", "births", "deaths", "rejections"):
            tracer.count(f"simulate.{key}", ev[key])


def _tables_hook(tracer, a, result):
    values = (getattr(result, f.name) for f in dataclasses.fields(result))
    nbytes = sum(v.nbytes for v in values if isinstance(v, np.ndarray))
    tracer.peak("models.table_bytes", nbytes)


def _csv_hook(tracer, a, result):
    tracer.count("cli.write_csv_rows", len(a["rows"]))
    tracer.count("cli.write_csv_bytes", os.path.getsize(a["path"]))


@contextmanager
def instrument(tracer: Tracer):
    """Route the boundary calls of the imported birthdeath package through
    `tracer` for the duration of the block."""
    from birthdeath import cli, hierarchy, models, vlasov

    patches = []

    def patch(owner, attr, name, hook=None):
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, hook))

    for attr, name, hook in [
            ("load_config", "cli.load_config", None),
            ("build_space", "cli.build_space", None),
            ("build_model", "cli.build_model", None),
            ("write_csv", "cli.write_csv", _csv_hook),
            ("write_manifest", "cli.write_manifest", None),
            ("check_conditions", "conditions.check_conditions", None),
            ("evolve", "hierarchy.evolve", _evolve_hook),
            ("run_ensemble", "simulate.run_ensemble", _ensemble_hook),
            ("integrate_vlasov", "vlasov.integrate", _integrate_hook),
            ("scaling_compare", "vlasov.scaling_compare", None)]:
        patch(cli, attr, name, hook)
    patch(hierarchy, "check_conditions", "conditions.check_conditions")
    patch(vlasov, "evolve", "hierarchy.evolve", _evolve_hook)
    patch(vlasov, "integrate", "vlasov.integrate", _integrate_hook)
    patch(models, "circular_convolve", "space.circular_convolve")
    for cls in (models.GlauberModel, models.BDLPModel):
        patch(cls, "death_rates", "models.death_rates")
        patch(cls, "propose_birth", "models.propose_birth")
        patch(cls, "hierarchy_tables", "models.hierarchy_tables", _tables_hook)
        patch(cls, "mean_field_rhs", "models.mean_field_rhs")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced CLI run, except the proc.* and trace.*
    entries, which the caller measures.  A layer the run does not reach
    reports 0; the names are those of BENCHMARK.json's `per_layer` list."""
    spans = tracer.by_name()
    c = tracer.counters

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    dr_calls = calls("models.death_rates")
    births, rejections = c.get("simulate.births", 0), c.get("simulate.rejections", 0)
    return {
        "cli.load_config_s": self_s("cli.load_config"),
        "cli.build_s": self_s("cli.build_space", "cli.build_model"),
        "cli.self_s": self_s("cli.main"),
        "cli.write_csv_s": self_s("cli.write_csv"),
        "cli.write_csv_rows": c.get("cli.write_csv_rows", 0),
        "cli.write_csv_bytes": c.get("cli.write_csv_bytes", 0),
        "cli.write_manifest_s": self_s("cli.write_manifest"),
        "hierarchy.evolve_s": self_s("hierarchy.evolve"),
        "hierarchy.rk4_steps": c.get("hierarchy.rk4_steps", 0),
        "hierarchy.state_bytes": c.get("hierarchy.state_bytes", 0),
        "models.death_rates_calls": dr_calls,
        "models.death_rates_s": self_s("models.death_rates"),
        "models.death_rates_us_per_call":
            1e6 * self_s("models.death_rates") / dr_calls if dr_calls else 0.0,
        "models.propose_birth_calls": calls("models.propose_birth"),
        "models.propose_birth_s": self_s("models.propose_birth"),
        "models.hierarchy_tables_calls": calls("models.hierarchy_tables"),
        "models.hierarchy_tables_s": self_s("models.hierarchy_tables"),
        "models.table_bytes": c.get("models.table_bytes", 0),
        "models.mean_field_rhs_calls": calls("models.mean_field_rhs"),
        "models.mean_field_rhs_s": self_s("models.mean_field_rhs"),
        "simulate.run_ensemble_self_s": self_s("simulate.run_ensemble"),
        "simulate.proposals": c.get("simulate.proposals", 0),
        "simulate.births": births,
        "simulate.deaths": c.get("simulate.deaths", 0),
        "simulate.rejections": rejections,
        "simulate.acceptance_ratio":
            births / (births + rejections) if births + rejections else 0.0,
        "vlasov.integrate_s": self_s("vlasov.integrate"),
        "vlasov.rk4_steps": c.get("vlasov.rk4_steps", 0),
        "vlasov.scaling_compare_self_s": self_s("vlasov.scaling_compare"),
        "space.circular_convolve_calls": calls("space.circular_convolve"),
        "space.circular_convolve_s": self_s("space.circular_convolve"),
        "conditions.check_conditions_calls": calls("conditions.check_conditions"),
        "conditions.check_conditions_s": self_s("conditions.check_conditions"),
    }
