"""Self-tests of the benchmark: record consistency, a tiny smoke run of each
workload in both modes, the output checks, and the refusal to run without
sources.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def _record():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_record_meets_contract():
    rec = _record()
    assert set(rec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert rec["command"][1] == "perfbench/run.py" and rec["paths"] == ["perfbench"]
    assert isinstance(rec["run_seconds"], int) and 1 <= rec["run_seconds"] <= 60
    assert {w["name"] for w in rec["workloads"]} <= set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in rec["end_to_end"])
    setup_bound = next(m["bound"] for m in rec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in rec["end_to_end"])
    for entry in rec["workloads"] + rec["end_to_end"] + rec["per_layer"]:
        assert len(entry["name"]) <= 64 and set(entry["name"]) <= NAME_CHARS
    # a regression run makes 4 + 22 invocations per workload within 3420 s;
    # each takes the window plus start-up and the last run's overrun
    assert (4 + 22 * len(rec["workloads"])) * (rec["run_seconds"] + 8) < 3420


def _run_tiny(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_result_schema(monkeypatch, capsys, workload, trace):
    result = _run_tiny(monkeypatch, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    saved = json.loads((run.WORK / "results" / f"{workload}-seed5-trace{trace}.json").read_text())
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "git_commit", "seed"} \
        <= set(saved["provenance"])


def test_trace_names_dominant_layer(monkeypatch, capsys):
    m = _run_tiny(monkeypatch, capsys, "sim-crowded", 1)["metrics"]
    assert m["models.death_rates_s"]["value"] > 0.5 * m["trace.wall_s"]["value"]


def test_trace_fails_on_unattributed_time(monkeypatch, capsys):
    monkeypatch.setattr(run, "UNATTRIBUTED_MAX", 0.0)
    result = _run_tiny(monkeypatch, capsys, "sim-sparse", 1)
    assert result["correct"] is False and result["failed"] >= 1


def test_probes_quick_subset(capsys):
    import probes
    assert probes.main(["--quick"]) == 0
    rows = json.loads((run.WORK / "results" / "probes.json").read_text())["probes"]
    assert {r["probe"] for r in rows} == {"apply_dual_generator", "ks_operator", "death_rates",
                                          "thinning", "vlasov_rhs", "circular_convolve",
                                          "lp_integral", "write_csv"}
    assert all(r["seconds"] > 0 for r in rows)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-sparse",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scale_check_rejects_error_growing_as_eps_shrinks(tmp_path):
    cfg = workloads.make_config(workloads.WORKLOADS["scale-homog"], 0)
    eps_list, times = cfg["run"]["eps_list"], cfg["run"]["snapshot_times"]
    rows = [f"{e!r},{t!r},{0.01 * e if e != eps_list[-1] else 0.5}"
            for e in eps_list for t in times]
    (tmp_path / "errors.csv").write_text("eps,time,error\n" + "\n".join(rows) + "\n")
    with pytest.raises(workloads.CheckFailed, match="increases"):
        workloads.check_scale_homog(tmp_path, cfg, 0)


def test_crowded_check_rejects_population_outside_band(tmp_path):
    cfg = workloads.make_config(workloads.WORKLOADS["sim-crowded"], 0)
    events = {"proposals": 68, "births": 34, "deaths": 34, "rejections": 0}
    (tmp_path / "manifest.json").write_text(json.dumps({"events": {"per_replica": [events]}}))
    (tmp_path / "population.csv").write_text("time,mean,std_error\n0,400,0\n0.02,600,0\n")
    with pytest.raises(workloads.CheckFailed, match="outside"):
        workloads.check_sim_crowded(tmp_path, cfg, 0)


def test_crowded_expected_events_match_model():
    sys.path.insert(0, str(run.SRC))
    from birthdeath import cli

    cfg = workloads.make_config(workloads.WORKLOADS["sim-crowded"], 0)
    torus, grid = cli.build_space(cfg)
    model = cli.build_model(cfg, torus, grid)
    expected = workloads.expected_crowded_events(cfg)
    z = model.kappa / model.m
    assert expected["deaths"] == pytest.approx(
        z * model.m + model.kappa_minus * z * z * model.a_minus.integral(2), rel=1e-12)
    assert expected["births"] == pytest.approx(expected["deaths"], rel=1e-12)


@pytest.mark.parametrize("workload, model_class, match", [
    ("sim-crowded", "BDLPModel", "deaths"),
    ("sim-sparse", "GlauberModel", "reference"),
])
def test_simulation_check_rejects_doubled_death_rates(monkeypatch, tmp_path, workload,
                                                      model_class, match):
    """A death kernel off by a factor 2 keeps every bookkeeping identity
    (births - deaths = population change) but fails the output checks of
    a benchmark run with the fewest runs it makes (`run.MIN_RUNS`): one
    run's own check, or the check pooled over the runs."""
    sys.path.insert(0, str(run.SRC))
    from birthdeath import cli, models

    wl = workloads.WORKLOADS[workload]
    cfg = workloads.make_config(wl, 0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    cls = getattr(models, model_class)
    original = cls.death_rates
    monkeypatch.setattr(cls, "death_rates",
                        lambda self, points, eps=1.0: 2.0 * original(self, points, eps))
    with pytest.raises(workloads.CheckFailed, match=match):
        works = []
        for seed in range(3, 3 + run.MIN_RUNS):
            out = tmp_path / f"out{seed}"
            assert cli.main(["--config", str(cfg_path), "--out", str(out), "--threads", "1",
                             "--seed", str(seed), "simulate"]) == 0
            works.append(workloads.CHECKS[workload](out, cfg, 0))
        workloads.check_pooled(wl, cfg, works)
