import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import birthdeath
from birthdeath import cli
from birthdeath.cli import load_config, main
from birthdeath.errors import ConfigError


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def bdlp_example_config(out_dir, C=2.0):
    # reference chain: 4 kminus C = m/2, 4 kplus a+ = (C/2) kminus a-
    m = 1.0
    kminus = m / (8.0 * C)
    kplus = C * kminus / 8.0
    return {
        "model": {"name": "bdlp", "m": m, "kappa_minus": kminus, "kappa_plus": kplus,
                  "a_minus": {"shape": "box", "radius": 0.1},
                  "a_plus": {"shape": "box", "radius": 0.1}},
        "space": {"d": 1, "L": 1.0, "M": 64},
        "weights": {"C": C},
        "output": {"directory": str(out_dir)},
    }


def db_config(out_dir, z=0.5, M=32):
    return {
        "model": {"name": "bdlp_modified", "m": 1.0, "kappa_minus": 0.15,
                  "kappa_plus": 0.15 * z, "kappa": z,
                  "a_minus": {"shape": "box", "radius": 0.1},
                  "a_plus": {"shape": "box", "radius": 0.1}},
        "space": {"d": 1, "L": 1.0, "M": M},
        "weights": {"C": 2.5},
        "output": {"directory": str(out_dir)},
    }


def glauber_config(out_dir, z=0.3, s=0.5, M=32):
    return {
        "model": {"name": "glauber", "s": s, "z": z,
                  "phi": {"shape": "box", "height": 0.4, "radius": 0.1}},
        "space": {"d": 1, "L": 1.0, "M": M},
        "weights": {"C": 1.5},
        "output": {"directory": str(out_dir)},
    }


def assert_reports_write_time(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["timings"]["write_s"] >= 0


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    return header, rows


class TestCheck:
    def test_reference_parameters_pass(self, tmp_path, capsys):
        cfg = bdlp_example_config(tmp_path / "out")
        cfg["run"] = {"verify_samples": 6, "verify_seed": 1}
        code = main(["--config", write_config(tmp_path / "c.json", cfg), "check"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["bound_3_2"] is True
        assert report["a1_plus_a2_over_C"] == pytest.approx(1.375, rel=1e-9)
        assert report["verified"]["holds"] is True
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_huge_activity_fails_with_named_inequality(self, tmp_path, capsys):
        cfg = glauber_config(tmp_path / "out", z=50.0, s=0.0)
        code = main(["--config", write_config(tmp_path / "c.json", cfg), "check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "s0smallz" in out or "sn0smallz" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["bound_3_2"] is False
        assert report["inequalities"]["s0smallz"]["holds"] is False

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "check"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = bdlp_example_config(tmp_path / "out")
        cfg["space"]["unknown_knob"] = 3
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "check"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "check"]) == 2

    def test_failed_verification_is_named(self, tmp_path, capsys):
        # at M = 256 the measured a1 exceeds the declared one on a sample
        cfg = glauber_config(tmp_path / "out", M=256)
        cfg["run"] = {"verify_samples": 20}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "check"]) == 1
        verified = json.loads((tmp_path / "out" / "report.json").read_text())["verified"]
        assert verified["holds"] is False
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("conditions FAIL: ")
        assert line.endswith(f"; verification failed: {verified['reason']}")


class TestSimulate:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = db_config(tmp_path / "out1", M=16)
        cfg["space"]["L"] = 5.0
        cfg["run"] = {"T": 1.0, "replicas": 4, "seed": 9,
                      "initial": {"type": "poisson", "intensity": 0.5},
                      "snapshot_times": [0.5, 1.0]}
        code = main(["--config", write_config(tmp_path / "c1.json", cfg), "simulate"])
        assert code == 0
        for name in ("k1.csv", "k2.csv", "population.csv", "manifest.json"):
            assert (tmp_path / "out1" / name).exists()

        cfg2 = dict(cfg, output={"directory": str(tmp_path / "out2")})
        code = main(["--config", write_config(tmp_path / "c2.json", cfg2), "simulate"])
        assert code == 0
        for name in ("k1.csv", "k2.csv", "population.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == \
                (tmp_path / "out2" / name).read_bytes()

    def test_manifest_reports_throughput_and_seeding(self, tmp_path):
        cfg = glauber_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": 2.0, "replicas": 2, "seed": 4,
                      "initial": {"type": "poisson", "intensity": 5.0}}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "simulate"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        events = manifest["events"]["per_replica"]
        births = sum(ev["births"] for ev in events)
        offered = births + sum(ev["rejections"] for ev in events)
        assert offered > 0
        assert manifest["acceptance_ratio"] == births / offered
        assert manifest["timings"]["compute_s"] > 0
        assert manifest["proposals_per_s"] == pytest.approx(
            sum(ev["proposals"] for ev in events) / manifest["timings"]["compute_s"])
        assert "SeedSequence" in manifest["replica_seeding"]
        assert_reports_write_time(tmp_path / "out")

    def test_zero_replicas_is_config_error(self, tmp_path):
        cfg = db_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": 1.0, "replicas": 0}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "simulate"]) == 2

    def test_eps_out_of_range_is_config_error(self, tmp_path, capsys):
        for i, run in enumerate(({"eps": 0.0, "scaled": True}, {"eps": -0.5}, {"eps": 2.0})):
            cfg = db_config(tmp_path / f"out{i}", M=16)
            cfg["run"] = dict(run, T=0.5, replicas=1,
                              initial={"type": "poisson", "intensity": 0.5})
            path = write_config(tmp_path / f"c{i}.json", cfg)
            assert main(["--config", path, "simulate"]) == 2
            assert "eps" in capsys.readouterr().err
            assert not (tmp_path / f"out{i}").exists()

    def test_missing_initial_is_config_error(self, tmp_path):
        cfg = db_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": 1.0, "replicas": 2}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "simulate"]) == 2

    def test_negative_time_is_config_error(self, tmp_path):
        cfg = glauber_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": -1.0, "dt": 0.01, "initial_density": 0.2}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "vlasov"]) == 2

    def test_rate_overflow_aborts(self, tmp_path, capsys):
        # exp(s * sum of phi) overflows once two points are within the box
        cfg = glauber_config(tmp_path / "out", z=5.0, s=1.0)
        cfg["model"]["phi"]["height"] = 800.0
        cfg["run"] = {"T": 1.0, "replicas": 1, "seed": 3,
                      "initial": {"type": "poisson", "intensity": 5.0}}
        with np.errstate(over="ignore"):
            code = main(["--config", write_config(tmp_path / "c.json", cfg), "simulate"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("aborted: total event rate inf is not finite")

    def test_seed_flag_overrides(self, tmp_path):
        cfg = db_config(tmp_path / "outA", M=16)
        cfg["space"]["L"] = 5.0
        cfg["run"] = {"T": 0.5, "replicas": 2, "seed": 1,
                      "initial": {"type": "poisson", "intensity": 0.5}}
        p = write_config(tmp_path / "c.json", cfg)
        main(["--config", p, "simulate"])
        cfg_b = dict(cfg, output={"directory": str(tmp_path / "outB")})
        pb = write_config(tmp_path / "cb.json", cfg_b)
        main(["--config", pb, "--seed", "1", "simulate"])
        assert (tmp_path / "outA" / "k1.csv").read_bytes() == \
            (tmp_path / "outB" / "k1.csv").read_bytes()


class TestHierarchy:
    def test_stationary_detailed_balance_emits_constant_density(self, tmp_path):
        z = 0.5
        cfg = db_config(tmp_path / "out", z=z, M=32)
        cfg["run"] = {"tol": 1e-10}
        code = main(["--config", write_config(tmp_path / "c.json", cfg),
                     "hierarchy", "stationary"])
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "k1.csv")
        vals = np.array([r[-1] for r in rows])
        assert np.max(np.abs(vals - z)) < 1e-8
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["fixed_point_residual"] < 1e-9
        assert 0 <= manifest["contraction_q"] < 1

    def test_stationary_refusal_exit_code(self, tmp_path):
        cfg = db_config(tmp_path / "out", M=16)
        cfg["model"]["kappa_minus"] = 3.0   # far outside the window
        cfg["model"]["kappa_plus"] = 1.5
        code = main(["--config", write_config(tmp_path / "c.json", cfg),
                     "hierarchy", "stationary"])
        assert code == 1

    def test_evolve_emits_snapshots(self, tmp_path):
        cfg = glauber_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": 0.5, "dt": 0.05, "initial_density": 0.2,
                      "snapshot_times": [0.25, 0.5]}
        code = main(["--config", write_config(tmp_path / "c.json", cfg),
                     "hierarchy", "evolve"])
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "k1.csv")
        times = sorted({r[0] for r in rows})
        assert times == pytest.approx([0.25, 0.5])
        assert (tmp_path / "out" / "k2.csv").exists()
        assert_reports_write_time(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["timings"]["compute_s"] >= 0

    def test_homogeneous_flag_with_varying_density_is_config_error(self, tmp_path, capsys):
        cfg = glauber_config(tmp_path / "out", M=16)
        rho = (0.26 + 0.04 * np.cos(2 * np.pi * np.arange(16) / 16)).tolist()
        cfg["run"] = {"T": 0.1, "dt": 0.05, "initial_density": rho, "homogeneous": True}
        code = main(["--config", write_config(tmp_path / "c.json", cfg),
                     "hierarchy", "evolve"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_non_finite_tables_are_named(self, tmp_path, capsys):
        cfg = glauber_config(tmp_path / "out", z=5.0, s=1.0)
        cfg["model"]["phi"]["height"] = 800.0
        cfg["run"] = {"T": 1.0, "dt": 0.05, "initial_density": 0.2}
        with np.errstate(over="ignore"):
            code = main(["--config", write_config(tmp_path / "c.json", cfg),
                         "hierarchy", "evolve"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("aborted: hierarchy table D2 holds a non-finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTimeValues:
    """A bad T, dt or snapshot time exits 2 before any output exists, and
    before numpy computes anything from it."""

    @pytest.mark.parametrize("command,run,named", [
        (["scale-compare"], {"T": 0.3, "dt": 0.05, "eps_list": [1.0, 0.1],
                             "snapshot_times": [0.1, 0.11, 0.5]}, "snapshot time 0.5"),
        (["hierarchy", "evolve"], {"T": 1.0, "dt": -0.1}, "dt = -0.1"),
        (["vlasov"], {"T": 0.3, "dt": 0.05, "snapshot_times": [0.12, 0.5]},
         "snapshot time 0.5"),
        (["vlasov"], {"T": math.inf, "dt": 0.05}, "T = inf"),
        (["hierarchy", "evolve"], {"T": math.inf}, "T = inf"),
    ])
    def test_rejected(self, tmp_path, capsys, command, run, named):
        cfg = glauber_config(tmp_path / "out")
        cfg["run"] = dict(run, initial_density=0.2)
        assert main(["--config", write_config(tmp_path / "c.json", cfg), *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_times_sharing_a_step(self, tmp_path):
        cfg = glauber_config(tmp_path / "out")
        cfg["run"] = {"T": 0.3, "dt": 0.05, "initial_density": 0.2, "eps_list": [1.0, 0.1],
                      "snapshot_times": [0.1, 0.11]}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "scale-compare"]) == 0
        _, rows = read_csv(tmp_path / "out" / "errors.csv")
        assert [r[:2] for r in rows] == [[1.0, 0.1], [1.0, 0.11], [0.1, 0.1], [0.1, 0.11]]
        for first, second in (rows[:2], rows[2:]):
            assert first[2] == second[2] > 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["times"] == [0.1, 0.11]
        assert manifest["step_times"] == [2 * 0.3 / 6] * 2


def valid_config(out_dir):
    """One configuration that every subcommand accepts: each block has one
    key set, whichever subcommand reads it."""
    cfg = glauber_config(out_dir, M=16)
    cfg["run"] = {"T": 0.2, "dt": 0.05, "replicas": 1, "initial_density": 0.2,
                  "initial": {"type": "poisson", "intensity": 5.0}, "tol": 1e-10,
                  "max_iter": 1000, "eps_list": [1.0, 0.5]}
    return cfg


def put(cfg, path, value):
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value


COMMANDS = [["check"], ["simulate"], ["hierarchy", "evolve"], ["hierarchy", "stationary"],
            ["vlasov"], ["scale-compare"]]


class TestKeyTable:
    """A bad value exits 2 before any work: one stderr line that names the
    block and the key, no traceback and no output directory."""

    @pytest.mark.parametrize("command,path,value", [
        (["hierarchy", "evolve"], ("space", "M"), 16.7),
        (["simulate"], ("run", "replicas"), 1.5),
        (["simulate"], ("model", "phi", "radius"), math.nan),
        (["hierarchy", "stationary"], ("run", "tol"), -1),
        (["hierarchy", "stationary"], ("run", "max_iter"), 0),
        (["hierarchy", "evolve"], ("weights", "C"), math.nan),
        (["check"], ("weights", "C"), math.nan),
        (["check"], ("weights", "C"), 1.0),
        (["hierarchy", "evolve"], ("space", "M"), True),
        (["hierarchy", "evolve"], ("weights", "N_max"), 3),
        (["hierarchy", "evolve"], ("weights", "closure"), "none"),
        (["simulate"], ("model", "z"), math.nan),
        (["simulate"], ("model", "s"), 1.5),
        (["simulate"], ("run", "initial", "intensity"), -math.inf),
        (["simulate"], ("run", "population_cap"), 0),
        (["simulate"], ("run", "scaled"), "yes"),
        (["vlasov"], ("run", "dt"), math.inf),
        (["vlasov"], ("run", "initial_density"), [0.2] * 15 + [math.nan]),
        (["vlasov"], ("run", "initial_density"), -0.1),
        (["scale-compare"], ("run", "eps_list"), [1.0, 1.5]),
        (["scale-compare"], ("run", "snapshot_times"), [0.1, -0.1]),
        (["hierarchy", "evolve"], ("run", "homogeneous"), None),
        (["check"], ("model", "phi", "shape"), "disc"),
        (["check"], ("model", "phi", "sigma"), 0.1),
    ])
    def test_rejected(self, tmp_path, capsys, command, path, value):
        cfg = valid_config(tmp_path / "out")
        put(cfg, path, value)
        assert main(["--config", write_config(tmp_path / "c.json", cfg), *command]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), captured.err
        assert ".".join(path[:-1]) in lines[0] and path[-1] in lines[0], lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out").exists()

    def test_nan_horizon_is_rejected_by_the_validator(self, tmp_path):
        # through the validator only: were the check lost, `simulate` would hang
        cfg = valid_config(tmp_path / "out")
        cfg["run"]["T"] = math.nan
        with pytest.raises(ConfigError, match=r"^run\.T = nan "):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_overflowing_literal_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(valid_config(tmp_path / "out")).replace('"T": 0.2', '"T": 1e999'))
        assert main(["--config", str(path), "vlasov"]) == 2
        assert "run.T = inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_config_validates_for_every_subcommand(self, tmp_path, command):
        cfg = valid_config(tmp_path / "out")
        args = cli._PARSER.parse_args(["--config", write_config(tmp_path / "c.json", cfg),
                                       *command])
        _, needs, defaults, _ = cli._COMMANDS[" ".join(command)]
        loaded, settings, out_dir = cli._validate(args, needs, defaults)
        assert loaded == cfg and out_dir == tmp_path / "out"
        assert settings["weights"] == {"C": 1.5, "zeta_max": 2, "N_max": 2, "closure": "poisson"}
        assert settings["run"]["snapshots"] == (1 if command == ["simulate"] else 5)

    @pytest.mark.parametrize("run,named", [
        ({"T": 1.0}, "run.replicas"),
        ({"T": 1.0, "replicas": 1, "initial": {"type": "fixed", "points": [[0.1, 0.2]]}},
         "run.initial.points"),
        ({"T": 1.0, "replicas": 1, "initial": {"type": "poisson", "intensity": 1.0},
          "snapshot_times": [0.5, 1.5]}, "snapshot time 1.5"),
        ({"T": 1.0, "replicas": 1, "initial": {"type": "poisson", "intensity": 1.0},
          "initial_density": [0.2, 0.3]}, "run.initial_density"),
    ])
    def test_rules_across_keys(self, tmp_path, capsys, run, named):
        cfg = glauber_config(tmp_path / "out", M=16)
        cfg["run"] = run
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "simulate"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", valid_config(tmp_path / "out"))
        assert main(["--config", path, "--seed", "-1", "simulate"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_error_escaping_compute_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken engine")
        monkeypatch.setattr(cli, "evolve", broken)
        path = write_config(tmp_path / "c.json", valid_config(tmp_path / "out"))
        assert main(["--config", path, "hierarchy", "evolve"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: broken engine"]
        assert not (tmp_path / "out").exists()


class TestTimings:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_manifest_times_the_same_phases(self, tmp_path, command):
        cfg = valid_config(tmp_path / "out")
        assert main(["--config", write_config(tmp_path / "c.json", cfg), *command]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        timings = manifest["timings"]
        assert sorted(timings) == ["build_s", "compute_s", "write_s"]
        assert min(timings.values()) >= 0
        assert sum(timings.values()) <= manifest["wall_time_s"]
        assert not {"evolve_s", "run_ensemble_s", "write_csv_s"} & set(manifest)


class TestInProcessRepeats:
    """`cli.main` called again and again in one process writes the same
    bytes each time: no run leaves state behind that changes the next."""

    def test_repeated_runs_write_identical_csvs(self, tmp_path):
        scale = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
                            / "scale-homog.json").read_text())
        dense = glauber_config(None, M=32)
        dense["run"] = {"T": 0.2, "snapshots": 3, "homogeneous": False,
                        "initial_density": [0.25 + 0.05 * math.cos(2 * math.pi * i / 32)
                                            for i in range(32)]}
        runs = {"scale-homog": (scale, ["scale-compare"]),
                "dense": (dense, ["hierarchy", "evolve"])}
        outputs = {name: [] for name in runs}
        for rep in range(3):
            for name, (cfg, command) in runs.items():
                out = tmp_path / f"{name}-{rep}"
                cfg = dict(cfg, output={"directory": str(out)})
                assert main(["--config", write_config(tmp_path / "c.json", cfg),
                             "--threads", "1", *command]) == 0
                outputs[name].append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert sorted(outputs["scale-homog"][0]) == ["errors.csv"]
        assert sorted(outputs["dense"][0]) == ["k1.csv", "k2.csv"]
        for name, files in outputs.items():
            assert files[1] == files[0] and files[2] == files[0], name


class TestVlasovCli:
    def test_rho_snapshots(self, tmp_path):
        cfg = glauber_config(tmp_path / "out", M=16)
        cfg["run"] = {"T": 1.0, "dt": 0.02, "initial_density": 0.25,
                      "snapshot_times": [1.0]}
        code = main(["--config", write_config(tmp_path / "c.json", cfg), "vlasov"])
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "rho.csv")
        assert header == ["time", "x0", "rho"]
        assert all(r[-1] >= 0 for r in rows)


class TestScaleCompare:
    def test_monotone_error_column(self, tmp_path):
        cfg = glauber_config(tmp_path / "out", M=32)
        cfg["run"] = {"T": 0.5, "dt": 0.02, "initial_density": 0.25,
                      "eps_list": [1.0, 0.3, 0.1]}
        code = main(["--config", write_config(tmp_path / "c.json", cfg),
                     "scale-compare"])
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "errors.csv")
        assert header == ["eps", "time", "error"]
        errs = [r[2] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert_reports_write_time(tmp_path / "out")


class TestUsage:
    def test_missing_subcommand(self):
        assert main(["--config", "x.json"]) == 2

    def test_unknown_model_name(self, tmp_path):
        cfg = {"model": {"name": "ising"}, "space": {"d": 1, "L": 1.0, "M": 8},
               "output": {"directory": str(tmp_path / "o")}}
        assert main(["--config", write_config(tmp_path / "c.json", cfg), "check"]) == 2


def test_cli_import_loads_numpy_only():
    # a fresh interpreter, so that modules loaded by other tests do not count
    code = ("import json, sys; before = set(sys.modules); import birthdeath.cli; "
            "print(json.dumps([sorted(sys.modules), sorted(set(sys.modules) - before)]))")
    src = str(Path(birthdeath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded, added = json.loads(done.stdout)
    assert not [m for m in loaded if m.startswith(("concurrent.futures", "multiprocessing"))]
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    packages = {m.partition(".")[0] for m in added}
    assert packages - set(sys.stdlib_module_names) == {"birthdeath", "numpy"}
