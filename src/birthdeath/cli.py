"""Command-line interface: one executable, JSON config in, CSV + manifest out.

Subcommands: check, simulate, hierarchy (evolve | stationary), vlasov,
scale-compare.  Every run reads a single JSON configuration document,
validates it strictly (unknown keys are rejected), writes CSV data files
plus a JSON manifest echoing the configuration, and exits with 0 on
success (for `check`: conditions hold), 1 when conditions fail or a
computation aborts, 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import check_conditions, verify_kernel_bounds
from .configurations import FiniteConfiguration
from .errors import (BirthDeathError, BlowUpError, ConditionError, ConfigError,
                     KernelBoundError, SimulationAbort, StabilityError)
from .hierarchy import CorrelationVector, HierarchyConfig, evolve, stationary_solve
from .kernels import BoxKernel, GaussianKernel, normalize_on_grid
from .models import BDLPModel, GlauberModel
from .simulate import REPLICA_SEEDING, FixedInitial, PoissonInitial, run_ensemble
from .space import Grid, Torus
from .vlasov import integrate as integrate_vlasov
from .vlasov import scaling_compare

_KERNEL_KEYS = {"box": {"shape", "height", "radius"},
                "gaussian": {"shape", "height", "sigma", "cutoff"}}
_MODEL_KEYS = {"glauber": {"name", "s", "z", "phi"},
               "bdlp": {"name", "m", "kappa_minus", "kappa_plus", "a_minus", "a_plus"},
               "bdlp_modified": {"name", "m", "kappa_minus", "kappa_plus",
                                 "kappa", "a_minus", "a_plus"}}
_SPACE_KEYS = {"d", "L", "M"}
_WEIGHTS_KEYS = {"C", "n_max", "zeta_max", "N_max", "closure"}
_RUN_KEYS = {"T", "dt", "replicas", "seed", "snapshots", "snapshot_times", "burn_in",
             "initial", "initial_density", "eps", "eps_list", "scaled", "tol",
             "max_iter", "population_cap", "verify_samples", "verify_seed",
             "homogeneous"}
_TOP_KEYS = {"model", "space", "weights", "run", "output"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return block[key]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config root")
    for key in ("model", "space"):
        _need(cfg, key, "config root")
    return cfg


def build_space(cfg: dict):
    block = cfg["space"]
    _check_keys(block, _SPACE_KEYS, "space block")
    torus = Torus(int(_need(block, "d", "space")), float(_need(block, "L", "space")))
    grid = Grid(torus, int(_need(block, "M", "space")))
    return torus, grid


def build_kernel(spec: dict, where: str):
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ConfigError(f"{where} must be an object with a 'shape' key")
    shape = spec["shape"]
    if shape not in _KERNEL_KEYS:
        raise ConfigError(f"unknown kernel shape '{shape}' in {where}")
    _check_keys(spec, _KERNEL_KEYS[shape], where)
    try:
        if shape == "box":
            return BoxKernel(float(spec.get("height", 1.0)), float(_need(spec, "radius", where)))
        return GaussianKernel(float(spec.get("height", 1.0)),
                              float(_need(spec, "sigma", where)),
                              float(_need(spec, "cutoff", where)))
    except ValueError as exc:
        raise ConfigError(f"bad kernel in {where}: {exc}")


def build_model(cfg: dict, torus: Torus, grid: Grid):
    block = cfg["model"]
    name = _need(block, "name", "model block")
    if name not in _MODEL_KEYS:
        raise ConfigError(f"unknown model '{name}'")
    _check_keys(block, _MODEL_KEYS[name], "model block")
    try:
        if name == "glauber":
            return GlauberModel(torus, float(_need(block, "s", "model")),
                                float(_need(block, "z", "model")),
                                build_kernel(_need(block, "phi", "model"), "model.phi"))
        a_minus = normalize_on_grid(build_kernel(_need(block, "a_minus", "model"),
                                                 "model.a_minus"), grid)
        a_plus = normalize_on_grid(build_kernel(_need(block, "a_plus", "model"),
                                                "model.a_plus"), grid)
        kappa = float(_need(block, "kappa", "model")) if name == "bdlp_modified" else 0.0
        if name == "bdlp_modified" and kappa <= 0:
            raise ConfigError("bdlp_modified requires kappa > 0")
        return BDLPModel(torus, float(_need(block, "m", "model")),
                         float(_need(block, "kappa_minus", "model")),
                         float(_need(block, "kappa_plus", "model")),
                         a_minus, a_plus, kappa)
    except (ValueError, BirthDeathError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid model parameters: {exc}")


def _weights(cfg: dict) -> dict:
    block = dict(cfg.get("weights", {}))
    _check_keys(block, _WEIGHTS_KEYS, "weights block")
    out = {"C": float(block.get("C", 1.5)), "n_max": int(block.get("n_max", 12)),
           "zeta_max": int(block.get("zeta_max", 2)),
           "N_max": int(block.get("N_max", 2)),
           "closure": str(block.get("closure", "poisson"))}
    if out["C"] <= 1.0:
        raise ConfigError("weights.C must exceed 1")
    if out["N_max"] not in (1, 2):
        raise ConfigError("weights.N_max must be 1 or 2")
    if out["closure"] not in ("zero", "poisson"):
        raise ConfigError("weights.closure must be 'zero' or 'poisson'")
    return out


def _run_block(cfg: dict) -> dict:
    block = dict(cfg.get("run", {}))
    _check_keys(block, _RUN_KEYS, "run block")
    return block


def _initial_density(run: dict, grid: Grid) -> np.ndarray:
    rho = run.get("initial_density", 0.0)
    if isinstance(rho, (int, float)):
        return np.full(grid.node_count, float(rho))
    arr = np.asarray(rho, dtype=float)
    if arr.size != grid.node_count:
        raise ConfigError(f"initial_density must be scalar or have M^d = {grid.node_count} entries")
    return arr.reshape(grid.node_count)


# Rows formatted per pass of write_csv: bounds the format string and the
# cell tuple that one `%` builds.
_CSV_BLOCK_ROWS = 4096
# A column's values are formatted once per distinct float64 bit pattern
# while the distinct patterns are at most this share of its rows: reuse
# costs a sort and a text per distinct value, and saves the `%.17g` of
# every repeat.  In 196,608 x 4 tables, reuse of one column won up to a
# share of 0.5 beside reused columns, broke even from 0.3 to 0.5 beside
# columns formatted cell by cell, and lost from 0.6 on.
_CSV_REUSE_MAX_SHARE = 0.4


def _patterns(bits: np.ndarray, limit: int):
    """`np.unique(bits, return_inverse=True)`, or None when there are more
    than `limit` distinct values.  The inverse takes the smallest index type,
    and the memory at the peak is about half that of `np.unique`."""
    # a prefix of limit + 1 distinct values settles it without sorting the
    # whole column, which keeps the check cheap on all-distinct columns
    head = np.sort(bits[:limit + 1])
    if np.all(head[1:] != head[:-1]):
        return None
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    patterns = ordered[first]
    if len(patterns) > limit:
        return None
    ids = np.zeros(len(bits), dtype=np.min_scalar_type(len(patterns) - 1))
    np.cumsum(first[1:], dtype=ids.dtype, out=ids[1:])
    inverse = np.empty_like(ids)
    inverse[order] = ids
    return patterns, inverse


def _distinct_texts(column: np.ndarray, end: str):
    """(texts, inverse) with `texts[inverse[r]]` the `%.17g` text of
    `column[r]` followed by `end`, one text per distinct bit pattern (so 0.0
    and -0.0 stay apart); None when the patterns are too many for reuse to
    pay."""
    found = _patterns(column.view(np.int64), int(_CSV_REUSE_MAX_SHARE * len(column)))
    if found is None:
        return None
    patterns, inverse = found
    cell = "%.17g" + end
    texts = np.fromiter((cell % v for v in patterns.view(float)), dtype=object,
                        count=len(patterns))
    return texts, inverse


def write_csv(path: Path, header, rows) -> None:
    """Write a header line, then each row of `rows` (a 2-D numeric table) as
    `%.17g` of every cell, comma-separated, with `\\r\\n` line ends.

    A column with few distinct values has each formatted once (see
    `_distinct_texts`) and its cells written as those texts; the other
    columns are formatted cell by cell.  The bytes are the same either way.
    """
    table = np.asarray(rows, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if not table.size:
            fh.write("\r\n" * len(table))
            return
        ends = [","] * (table.shape[1] - 1) + ["\r\n"]
        columns = [_distinct_texts(table[:, c], end) for c, end in enumerate(ends)]
        line = "".join(["%.17g" + end if col is None else "%s"
                        for col, end in zip(columns, ends)])
        reused = [col is not None for col in columns]
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            if any(reused):
                cells = np.empty(block.shape, dtype=object)
                for c, col in enumerate(columns):
                    cells[:, c] = block[:, c] if col is None else \
                        col[0][col[1][start:start + _CSV_BLOCK_ROWS]]
                block = cells
            if all(reused):
                # every cell is a finished text: joining them is `line % cells`
                # at a third of the cost
                fh.write("".join(block.ravel().tolist()))
            else:
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_csvs(out_dir: Path, tables: dict) -> float:
    """Write each `name: (header, rows)` table; return the seconds it took."""
    started = time.perf_counter()
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
    return time.perf_counter() - started


def write_manifest(out_dir: Path, cfg: dict, command: str, started: float,
                   extra: dict) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "command": command,
        "version": f"birthdeath {__version__}+cfg.{hashlib.sha1(blob).hexdigest()[:8]}",
        "wall_time_s": time.time() - started,
        "config": cfg,
    }
    manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: dict, args) -> Path:
    block = dict(cfg.get("output", {}))
    _check_keys(block, {"directory"}, "output block")
    directory = args.out or block.get("directory")
    if not directory:
        raise ConfigError("no output directory: set output.directory or pass --out")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_check(cfg: dict, args) -> int:
    started = time.time()
    torus, grid = build_space(cfg)
    model = build_model(cfg, torus, grid)
    weights = _weights(cfg)
    run = _run_block(cfg)
    report = check_conditions(model, weights["C"], grid)
    payload = report.as_dict()

    n_verify = int(run.get("verify_samples", 0))
    if n_verify > 0:
        rng = np.random.Generator(np.random.PCG64(int(run.get("verify_seed", 0))))
        samples = [FiniteConfiguration(rng.uniform(0, torus.length, (rng.integers(1, 4), torus.dim)),
                                       torus) for _ in range(n_verify)]
        try:
            a1_hat, a2_hat = verify_kernel_bounds(model, weights["C"], grid, samples,
                                                  declared=(report.a1, report.a2))
            payload["verified"] = {"a1_hat": a1_hat, "a2_hat": a2_hat, "holds": True}
        except KernelBoundError as exc:
            payload["verified"] = {"holds": False, "reason": str(exc)}

    out_dir = _out_dir(cfg, args)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out_dir, cfg, "check", started, {"report": payload})
    if report.bound_3_2 and payload.get("verified", {}).get("holds", True):
        print("conditions hold: a1 + a2/C = "
              f"{report.sum_a:.6f} < 1.5")
        return 0
    failed = report.failed_inequalities()
    print(f"conditions FAIL: a1 + a2/C = {report.sum_a:.6f}; failed: {failed}")
    return 1


def cmd_simulate(cfg: dict, args) -> int:
    started = time.time()
    torus, grid = build_space(cfg)
    model = build_model(cfg, torus, grid)
    run = _run_block(cfg)
    replicas = int(run.get("replicas", 0))
    if replicas < 1:
        raise ConfigError("run.replicas must be >= 1")
    T = float(_need(run, "T", "run"))
    seed = int(args.seed if args.seed is not None else run.get("seed", 0))

    init_spec = _need(run, "initial", "run block (simulate)")
    _check_keys(init_spec, {"type", "intensity", "points"}, "run.initial")
    if init_spec.get("type") == "poisson":
        initial = PoissonInitial(float(_need(init_spec, "intensity", "run.initial")))
    elif init_spec.get("type") == "fixed":
        initial = FixedInitial(np.asarray(_need(init_spec, "points", "run.initial"), dtype=float))
    else:
        raise ConfigError("run.initial.type must be 'poisson' or 'fixed'")

    snaps = run.get("snapshot_times")
    if snaps is None:
        n_snap = int(run.get("snapshots", 1))
        burn = float(run.get("burn_in", 0.0))
        snaps = list(np.linspace(burn, T, n_snap)) if n_snap > 1 else [T]
    ensemble_started = time.perf_counter()
    result = run_ensemble(model, initial, T, replicas, seed, grid,
                          snapshot_times=snaps,
                          burn_in=float(run.get("burn_in", 0.0)),
                          eps=float(run.get("eps", 1.0)),
                          scaled=bool(run.get("scaled", False)),
                          population_cap=int(run.get("population_cap", 100_000)),
                          threads=args.threads)
    ensemble_s = time.perf_counter() - ensemble_started
    totals = {key: sum(ev[key] for ev in result.events["per_replica"])
              for key in ("proposals", "births", "rejections")}
    offered = totals["births"] + totals["rejections"]

    out_dir = _out_dir(cfg, args)
    corr = result.correlations
    write_s = _write_csvs(out_dir, {
        "k1.csv": ([f"bin_center_{i}" for i in range(torus.dim)] + ["estimate", "std_error"],
                   np.column_stack([grid.nodes + grid.spacing / 2.0, corr.k1, corr.k1_se])),
        "k2.csv": (["bin_center", "estimate", "std_error"],
                   np.column_stack([corr.k2_centers, corr.k2, corr.k2_se])),
        "population.csv": (["time", "mean", "std_error"],
                           np.column_stack([result.snapshot_times, result.population_mean,
                                            result.population_se])),
    })
    write_manifest(out_dir, cfg, "simulate", started, {
        "seed": seed, "replicas": replicas, "replica_seeding": REPLICA_SEEDING,
        "events": result.events,
        "run_ensemble_s": ensemble_s,
        "proposals_per_s": totals["proposals"] / ensemble_s,
        # births over accepted plus rejected birth proposals; null without any
        "acceptance_ratio": totals["births"] / offered if offered else None,
        "write_csv_s": write_s,
    })
    return 0


def _hierarchy_setup(cfg: dict):
    torus, grid = build_space(cfg)
    model = build_model(cfg, torus, grid)
    weights = _weights(cfg)
    run = _run_block(cfg)
    return torus, grid, model, weights, run


def cmd_hierarchy_evolve(cfg: dict, args) -> int:
    started = time.time()
    torus, grid, model, weights, run = _hierarchy_setup(cfg)
    rho0 = _initial_density(run, grid)
    homogeneous = bool(run.get("homogeneous", bool(np.all(rho0 == rho0[0]))))
    k0 = CorrelationVector.coherent(grid, weights["C"], rho0,
                                    order=weights["N_max"], homogeneous=homogeneous)
    hcfg = HierarchyConfig(zeta_max=weights["zeta_max"], closure=weights["closure"],
                           eps=float(run.get("eps", 1.0)))
    T = float(_need(run, "T", "run"))
    snaps = run.get("snapshot_times") or list(np.linspace(0.0, T, int(run.get("snapshots", 5))))
    evolve_started = time.perf_counter()
    result = evolve(model, k0, T, dt=run.get("dt"), cfg=hcfg, snapshot_times=snaps)
    evolve_s = time.perf_counter() - evolve_started

    out_dir = _out_dir(cfg, args)
    write_s = _write_csvs(out_dir, _correlation_tables(grid, result.times, result.snapshots))
    write_manifest(out_dir, cfg, "hierarchy evolve", started,
                   {"dt": result.dt, "norms": result.norms, "times": result.times,
                    "evolve_s": evolve_s, "write_csv_s": write_s})
    return 0


def _node_table(grid: Grid, times, values) -> np.ndarray:
    """Rows (time, node coordinates..., value) for every node at every time."""
    n = grid.node_count
    return np.vstack([np.column_stack([np.full(n, t), grid.nodes, v])
                      for t, v in zip(times, values)])


def _correlation_tables(grid: Grid, times, snapshots) -> dict:
    dim = grid.torus.dim
    n = grid.node_count
    tables = {"k1.csv": (["time"] + [f"x{i}" for i in range(dim)] + ["k1"],
                         _node_table(grid, times, [snap.k1 for snap in snapshots]))}
    if snapshots[0].k2 is None:
        return tables
    if snapshots[0].homogeneous:
        header = ["time", "offset", "separation", "k2"]
        pairs = np.column_stack([np.arange(n),
                                 grid.torus.distance(grid.nodes, grid.nodes[0])])
    else:
        header = ["time", "i", "j", "k2"]
        pairs = np.column_stack(np.divmod(np.arange(n * n), n))
    tables["k2.csv"] = (header, np.vstack([
        np.column_stack([np.full(len(pairs), t), pairs, snap.k2.ravel()])
        for t, snap in zip(times, snapshots)]))
    return tables


def cmd_hierarchy_stationary(cfg: dict, args) -> int:
    started = time.time()
    torus, grid, model, weights, run = _hierarchy_setup(cfg)
    hcfg = HierarchyConfig(zeta_max=weights["zeta_max"], closure=weights["closure"], eps=1.0)
    result = stationary_solve(model, grid, weights["C"], cfg=hcfg,
                              tol=float(run.get("tol", 1e-10)),
                              max_iter=int(run.get("max_iter", 1000)))
    out_dir = _out_dir(cfg, args)
    write_s = _write_csvs(out_dir, _correlation_tables(grid, [0.0], [result.k_inv]))
    write_manifest(out_dir, cfg, "hierarchy stationary", started, {
        "iterations": result.iterations,
        "contraction_q": result.q,
        "certificate": result.certificate,
        "fixed_point_residual": result.residual,
        "write_csv_s": write_s,
    })
    return 0


def cmd_vlasov(cfg: dict, args) -> int:
    started = time.time()
    torus, grid = build_space(cfg)
    model = build_model(cfg, torus, grid)
    run = _run_block(cfg)
    rho0 = _initial_density(run, grid)
    T = float(_need(run, "T", "run"))
    dt = float(_need(run, "dt", "run"))
    snaps = run.get("snapshot_times") or list(np.linspace(0.0, T, int(run.get("snapshots", 5))))
    result = integrate_vlasov(model, grid, rho0, T, dt, snapshot_times=snaps)

    out_dir = _out_dir(cfg, args)
    write_s = _write_csvs(out_dir, {
        "rho.csv": (["time"] + [f"x{i}" for i in range(torus.dim)] + ["rho"],
                    _node_table(grid, result.times, [f.rho for f in result.fields]))})
    write_manifest(out_dir, cfg, "vlasov", started,
                   {"dt": result.dt, "clipped_mass": result.clipped_mass,
                    "times": result.times, "write_csv_s": write_s})
    return 0


def cmd_scale_compare(cfg: dict, args) -> int:
    started = time.time()
    torus, grid = build_space(cfg)
    model = build_model(cfg, torus, grid)
    weights = _weights(cfg)
    run = _run_block(cfg)
    rho0 = _initial_density(run, grid)
    T = float(_need(run, "T", "run"))
    dt = float(_need(run, "dt", "run"))
    eps_list = run.get("eps_list", [1.0, 0.3, 0.1, 0.03])
    snaps = run.get("snapshot_times") or [T]
    table = scaling_compare(model, grid, eps_list, rho0, T, dt, weights["C"],
                            snapshot_times=snaps, zeta_max=weights["zeta_max"],
                            closure=weights["closure"])
    out_dir = _out_dir(cfg, args)
    n_eps, n_times = table.errors.shape
    write_s = _write_csvs(out_dir, {
        "errors.csv": (["eps", "time", "error"],
                       np.column_stack([np.repeat(table.eps_list, n_times),
                                        np.tile(table.times, n_eps),
                                        table.errors.ravel()]))})
    write_manifest(out_dir, cfg, "scale-compare", started,
                   {"eps_list": list(map(float, eps_list)), "times": table.times,
                    "step_times": table.step_times, "write_csv_s": write_s})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birthdeath",
        description="spatial birth-and-death dynamics: conditions, simulation, "
                    "hierarchies, stationary states, mean-field scaling")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override for simulate")
    parser.add_argument("--threads", type=int, default=1, help="worker cap for replica runs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", help="evaluate the sufficient conditions")
    sub.add_parser("simulate", help="run the event simulator ensemble")
    hier = sub.add_parser("hierarchy", help="correlation-hierarchy computations")
    hsub = hier.add_subparsers(dest="subcommand", required=True)
    hsub.add_parser("evolve", help="integrate the hierarchy in time")
    hsub.add_parser("stationary", help="solve the stationary equation")
    sub.add_parser("vlasov", help="integrate the mean-field density equation")
    sub.add_parser("scale-compare", help="scaled hierarchy vs mean-field error table")
    return parser


_DISPATCH = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    ("hierarchy", "evolve"): cmd_hierarchy_evolve,
    ("hierarchy", "stationary"): cmd_hierarchy_stationary,
    "vlasov": cmd_vlasov,
    "scale-compare": cmd_scale_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        key = args.command if args.command != "hierarchy" else ("hierarchy", args.subcommand)
        return _DISPATCH[key](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConditionError, BlowUpError, SimulationAbort, StabilityError,
            KernelBoundError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
