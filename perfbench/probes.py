#!/usr/bin/env python3
"""Layer probes: timed direct calls to the public birthdeath kernels.

    python3 perfbench/probes.py [--quick]

Times one application of the dual generator and of the Kirkwood-Salzburg
operator against node count N (d = 1 and 2, full and homogeneous k2), the
simulator's death_rates and thinning throughput against population size,
the mean-field right-hand side, circular convolution, Lebesgue-Poisson
quadrature and CSV writing.  Reports operation counts and table bytes
computed from the array shapes (not measured traffic), compares with the
baselines listed in ROADMAP.md, and writes `.perfbench/results/probes.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from birthdeath import (BDLPModel, BoxKernel, CorrelationVector, GlauberModel,  # noqa: E402
                        Grid, HierarchyConfig, PoissonInitial, Torus,
                        apply_dual_generator, circular_convolve, ks_operator,
                        run_ensemble, vlasov_rhs)
from birthdeath.cli import write_csv  # noqa: E402
from birthdeath.configurations import QuadratureScheme, SetFunction, lp_integral  # noqa: E402
from birthdeath.kernels import normalize_on_grid  # noqa: E402
from run import provenance  # noqa: E402

# Baselines from ROADMAP.md open item 1 (single runs, indicative).
DUAL_GENERATOR_BASELINE_S = {64: 0.5e-3, 256: 55e-3, 1024: 1.45}
THINNING_BASELINE_PER_S = {100: 10_000, 400: 409, 1600: 33}
AGREE_FACTOR = 1.5   # within this factor of a baseline counts as reproduced


def timed(fn, min_total: float, max_reps: int = 1000):
    """Median seconds per call over repeats totalling at least min_total."""
    times = []
    while len(times) < max_reps and (not times or sum(times) < min_total):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def glauber(torus):
    return GlauberModel(torus, 0.5, 0.3, BoxKernel(0.4, 0.1))


def table_bytes(tables) -> int:
    return sum(getattr(tables, f).nbytes for f in ("D1", "D2", "B1", "B2", "Gd", "Gb", "Ad", "Ab")
               if getattr(tables, f) is not None)


def compare(measured: float, baseline: float) -> str:
    ratio = measured / baseline
    verdict = "agrees" if 1 / AGREE_FACTOR <= ratio <= AGREE_FACTOR else "DIFFERS"
    return f"{verdict} (x{ratio:.2f} of baseline {baseline:g})"


def hierarchy_probes(sizes, min_total):
    rows = []
    for d, m in sizes:
        grid = Grid(Torus(d, 1.0), m)
        n = grid.node_count
        model = glauber(grid.torus)
        nbytes = table_bytes(model.hierarchy_tables(grid))
        for homogeneous in (False, True):
            k = CorrelationVector.coherent(grid, 1.5, 0.25, order=2, homogeneous=homogeneous)
            for name, op in (("apply_dual_generator", apply_dual_generator),
                             ("ks_operator", ks_operator)):
                sec, reps = timed(lambda: op(model, k, HierarchyConfig()), min_total)
                row = {"probe": name, "d": d, "N": n, "homogeneous": homogeneous,
                       "seconds": sec, "reps": reps,
                       # two dense (N,N)x(N,N) products per application
                       "flops_computed": 4 * n ** 3, "table_bytes_computed": nbytes,
                       "gflop_per_s": 4 * n ** 3 / sec / 1e9}
                if name == "apply_dual_generator" and n in DUAL_GENERATOR_BASELINE_S:
                    row["baseline"] = compare(sec, DUAL_GENERATOR_BASELINE_S[n])
                rows.append(row)
    return rows


def simulator_probes(populations, min_total):
    rows = []
    torus = Torus(1, 1.0)
    grid = Grid(torus, 32)
    kernel = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
    rng = np.random.default_rng(0)
    for n in populations:
        # detailed balance at density n (Poisson(n) invariant), competition as in sim-crowded
        model = BDLPModel(torus, 1.0, 0.8 / n, 0.8, kernel, kernel, float(n))
        pts = rng.uniform(0.0, 1.0, size=(n, 1))
        sec, reps = timed(lambda: model.death_rates(pts), min_total)
        rows.append({"probe": "death_rates", "n": n, "seconds": sec, "reps": reps,
                     "pairs_computed": n * n, "bytes_computed": n * n * 8})
        T = 150.0 / (3.6 * n)     # about 150 proposals per run
        proposals, wall, seed = 0, 0.0, 0
        while seed == 0 or wall < min_total:
            seed += 1
            start = time.perf_counter()
            result = run_ensemble(model, PoissonInitial(float(n)), T, 1, seed, grid)
            wall += time.perf_counter() - start
            proposals += sum(ev["proposals"] for ev in result.events["per_replica"])
        row = {"probe": "thinning", "n": n, "runs": seed, "proposals": proposals, "seconds": wall,
               "proposals_per_s": proposals / wall}
        if n in THINNING_BASELINE_PER_S:
            row["baseline"] = compare(proposals / wall, THINNING_BASELINE_PER_S[n])
        rows.append(row)
    return rows


def misc_probes(min_total, workdir: Path):
    rows = []
    for d, m in ((1, 256), (2, 64)):
        grid = Grid(Torus(d, 1.0), m)
        model = glauber(grid.torus)
        rho = np.full(grid.node_count, 0.25)
        profile = model.phi.profile(grid)
        sec, reps = timed(lambda: vlasov_rhs(model, grid, rho), min_total)
        rows.append({"probe": "vlasov_rhs", "d": d, "N": grid.node_count,
                     "seconds": sec, "reps": reps})
        sec, reps = timed(lambda: circular_convolve(grid, rho, profile), min_total)
        rows.append({"probe": "circular_convolve", "d": d, "N": grid.node_count,
                     "seconds": sec, "reps": reps})
    for m in (16, 32):
        scheme = QuadratureScheme(Grid(Torus(1, 1.0), m), n_max=2)
        H = SetFunction(lambda eta: float(len(eta) + 1), support_bound=2)
        sec, reps = timed(lambda: lp_integral(H, 1.5, scheme), min_total)
        rows.append({"probe": "lp_integral", "N": m, "n_max": 2, "seconds": sec, "reps": reps,
                     "tuples_computed": 1 + m + m * m})
    table = [[0.1 * i, i, i + 1, 1.0 / (i + 1)] for i in range(100_000)]
    path = workdir / "probe.csv"
    sec, reps = timed(lambda: write_csv(path, ["time", "i", "j", "k2"], table), min_total)
    rows.append({"probe": "write_csv", "rows": len(table), "bytes": path.stat().st_size,
                 "seconds": sec, "reps": reps, "rows_per_s": len(table) / sec})
    path.unlink()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (N <= 256, n <= 400), a few seconds")
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench" / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    min_total = 0.05 if args.quick else 0.5
    sizes = [(1, 64), (1, 256), (2, 8), (2, 16)]
    populations = [100, 400]
    if not args.quick:
        sizes += [(1, 1024), (2, 32)]
        populations += [1600]
    rows = (hierarchy_probes(sizes, min_total) + simulator_probes(populations, min_total)
            + misc_probes(min_total, workdir))
    for row in rows:
        print("  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in row.items()))
    (workdir / "probes.json").write_text(json.dumps({"provenance": provenance(0), "probes": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
