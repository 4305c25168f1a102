#!/usr/bin/env python3
"""Regenerate the reference values the output checks compare with.

    python3 perfbench/make_reference.py

reference/evolve-dense.json: the evolve-dense configuration at grid shift
0, run once through the CLI; the snapshot times, k1 and the diagonal of
k2 at every snapshot.  A benchmark run with shift j must reproduce these
values translated by j nodes.

reference/sim-sparse.json: the mean and standard deviation, over
SPARSE_RUNS CLI runs with distinct seeds, of the stationary mean
population (replica mean averaged over the snapshots after burn-in).

Only regenerate after a deliberate change of the numerics or the model.
"""
from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import (REFERENCE, SPARSE_REFERENCE, WORKLOADS, _evolve_tables,  # noqa: E402
                       _simulation_outputs, set_evolve_density, stationary_population)

SPARSE_RUNS = 40


def run_cli(workload, cfg: dict, tmp: Path, *extra) -> Path:
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "out"
    subprocess.run([sys.executable, "-m", "birthdeath.cli", "--config", str(cfg_path),
                    "--out", str(out), *extra, *workload.argv], check=True,
                   stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    return out


def evolve_dense_reference(tmp: Path) -> None:
    workload = WORKLOADS["evolve-dense"]
    cfg = workload.template()
    set_evolve_density(cfg, 0)
    m = cfg["space"]["M"]
    k1, k2 = _evolve_tables(run_cli(workload, cfg, tmp), m)
    times = sorted(k1)
    ref = {"workload": workload.name, "shift": 0, "times": times,
           "k1": [k1[t] for t in times],
           "k2_diagonal": [[k2[t][i * m + i] for i in range(m)] for t in times]}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def sim_sparse_reference(tmp: Path) -> None:
    workload = WORKLOADS["sim-sparse"]
    cfg = workload.template()
    rng = random.Random("sim-sparse reference")
    means = []
    for _ in range(SPARSE_RUNS):
        out = run_cli(workload, cfg, tmp, "--threads", "1", "--seed", str(rng.getrandbits(31)))
        means.append(stationary_population(_simulation_outputs(out)[1], cfg))
    ref = {"workload": workload.name, "runs": SPARSE_RUNS,
           "mean_population": statistics.mean(means), "run_sd": statistics.stdev(means)}
    SPARSE_REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {SPARSE_REFERENCE}: {ref}")


def main() -> int:
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for make in (evolve_dense_reference, sim_sparse_reference):
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            make(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
