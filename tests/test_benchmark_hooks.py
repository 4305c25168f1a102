"""The names the benchmark's tracer and set-up reach into the package by.

`perfbench/tracing.instrument` patches functions through module and class
`__dict__`s, and `perfbench/run.py` times a set-up that calls
`model.hierarchy_tables(grid)`.  If a traced name moves (say `death_rates`
off a concrete model class into `RateModel`), the benchmark raises
`KeyError` before it measures anything.  These tests load the benchmark's
modules by path, unchanged, and run each gated workload through them.
"""
import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from birthdeath import cli, models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
#: per-layer metrics that run.py measures itself beside tracing.layer_metrics
MEASURED_BY_RUNNER = {"proc.cpu_s", "proc.sys_s", "trace.wall_s", "trace.overhead_frac"}
TRACED_METHODS = ("death_rates", "propose_birth", "hierarchy_tables", "mean_field_rhs")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")
GATED = [w["name"] for w in SPEC["workloads"]]


def setup_code():
    """run.py's SETUP_CODE string, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no SETUP_CODE")


def write_config(tmp_path, workload):
    cfg = workloads.make_config(workload, 7)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cfg, path


def test_gated_workloads_are_known():
    assert {"evolve-dense", "scale-homog", "sim-crowded"} <= set(GATED)
    assert set(GATED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("cls", [models.GlauberModel, models.BDLPModel])
def test_traced_methods_live_on_each_model_class(cls):
    for attr in TRACED_METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


@pytest.mark.parametrize("name", GATED)
def test_traced_cli_run_passes_the_workload_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    cfg, cfg_path = write_config(tmp_path, workload)
    out = tmp_path / "out"
    argv = ["--config", str(cfg_path), "--out", str(out), "--threads", "1"]
    if workload.argv == ("simulate",):
        argv += ["--seed", str(next(workloads.cli_seeds(7)))]
    argv += list(workload.argv)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        rc = tracer.wrap("cli.main", cli.main)(argv)
    assert rc == 0
    workloads.check_outputs(workload, out, cfg, 7)

    layers = tracing.layer_metrics(tracer)
    assert set(layers) | MEASURED_BY_RUNNER == {m["name"] for m in SPEC["per_layer"]}
    assert not set(layers) & MEASURED_BY_RUNNER
    assert layers["cli.write_csv_rows"] > 0
    if workload.hierarchy:
        assert layers["models.hierarchy_tables_calls"] > 0
    else:
        assert layers["models.propose_birth_calls"] > 0
    # instrument restores every patched name
    for cls in (models.GlauberModel, models.BDLPModel):
        assert not hasattr(cls.__dict__["death_rates"], "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_config_validates(tmp_path, name):
    cfg, cfg_path = write_config(tmp_path, workloads.WORKLOADS[name])
    assert cli.load_config(str(cfg_path)) == cfg


@pytest.mark.parametrize("name", GATED)
def test_benchmark_setup_sequence_runs(tmp_path, monkeypatch, name):
    """The set-up that run.py times, as it runs it: load the config, build
    space and model, and on hierarchy workloads `model.hierarchy_tables(grid)`."""
    workload = workloads.WORKLOADS[name]
    _, cfg_path = write_config(tmp_path, workload)
    code = setup_code()
    assert "model.hierarchy_tables(grid)" in code
    monkeypatch.setattr(sys, "argv", ["-c", str(cfg_path), "1" if workload.hierarchy else "0"])
    exec(compile(code, "perfbench-setup", "exec"), {})
