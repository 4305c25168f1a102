"""Command-line interface: one executable, JSON config in, CSV + manifest out.

Subcommands: check, simulate, hierarchy (evolve | stationary), vlasov,
scale-compare.  Every run takes four phases: validate (each key against its
block's table, then the subcommand's needs and the rules across keys), build
(space and model), compute and write (CSVs and a manifest that echoes the
config and times the phases).  Exit codes: 0 on success (for `check`:
conditions hold), 1 when conditions fail or a computation aborts, 2 on a
usage error or a bad configuration, caught before any output exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import check_conditions, verify_kernel_bounds
from .configurations import FiniteConfiguration
from .errors import BirthDeathError, ConfigError, KernelBoundError
from .hierarchy import CorrelationVector, HierarchyConfig, evolve, stationary_solve
from .kernels import BoxKernel, GaussianKernel, normalize_on_grid
from .models import BDLPModel, GlauberModel
from .simulate import (DEFAULT_POPULATION_CAP, REPLICA_SEEDING, FixedInitial, PoissonInitial,
                       run_ensemble)
from .space import Grid, Torus
from .vlasov import integrate as integrate_vlasov, scaling_compare

# One table per config block maps each key to (kind, default, range).  A
# kind is int, float (finite), bool, str, [kind] (a list of such values),
# (float, [float]) (either), or the table of a block.  A default of
# _REQUIRED makes the key always needed; None leaves it absent unless the
# subcommand needs it.  A range is (test, words), or None.
_REQUIRED = "required"
_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
_Variants = namedtuple("_Variants", "key tables")   # a block's tables, by the value of `key`
_NAME = (str, _REQUIRED, None)
_SIZE = (float, _REQUIRED, _POSITIVE)
_RATE = (float, _REQUIRED, _NONNEGATIVE)
_HEIGHT = (float, 1.0, _NONNEGATIVE)
_KERNEL = (_Variants("shape", {
    "box": {"shape": _NAME, "height": _HEIGHT, "radius": _SIZE},
    "gaussian": {"shape": _NAME, "height": _HEIGHT, "sigma": _SIZE, "cutoff": _SIZE},
}), _REQUIRED, None)
_BDLP = {"name": _NAME, "m": _SIZE, "kappa_minus": _RATE, "kappa_plus": _RATE,
         "a_minus": _KERNEL, "a_plus": _KERNEL}
_MODEL = _Variants("name", {
    "glauber": {"name": _NAME, "s": (float, _REQUIRED, _UNIT), "z": _RATE, "phi": _KERNEL},
    "bdlp": _BDLP, "bdlp_modified": dict(_BDLP, kappa=_SIZE)})
_SPACE = {"d": (int, _REQUIRED, (lambda v: v in (1, 2), "1 or 2")), "L": _SIZE,
          "M": (int, _REQUIRED, (lambda v: v >= 2, ">= 2"))}
_WEIGHTS = {"C": (float, 1.5, (lambda v: v > 1, "> 1")), "zeta_max": (int, 2, _NONNEGATIVE),
            "N_max": (int, 2, (lambda v: v in (1, 2), "1 or 2")),
            "closure": (str, "poisson", (lambda v: v in ("zero", "poisson"), "zero or poisson"))}
_INITIAL = _Variants("type", {"poisson": {"type": _NAME, "intensity": _RATE},
                              "fixed": {"type": _NAME, "points": ([[float]], _REQUIRED, None)}})
# `dt` of hierarchy evolve defaults to half the stability guard, and
# `homogeneous` to whether initial_density is constant
_RUN = {
    "T": (float, None, _NONNEGATIVE), "dt": (float, None, _POSITIVE),
    "snapshot_times": ([float], None, _NONNEGATIVE), "snapshots": (int, 5, _POSITIVE),
    "initial_density": ((float, [float]), 0.0, _NONNEGATIVE), "homogeneous": (bool, None, None),
    "eps": (float, 1.0, _UNIT), "eps_list": ([float], (1.0, 0.3, 0.1, 0.03), _UNIT),
    "scaled": (bool, False, None), "replicas": (int, None, _POSITIVE),
    "seed": (int, 0, _NONNEGATIVE), "initial": (_INITIAL, None, None),
    "burn_in": (float, 0.0, _NONNEGATIVE), "population_cap": (int, DEFAULT_POPULATION_CAP, _POSITIVE),
    "tol": (float, 1e-10, _POSITIVE), "max_iter": (int, 1000, _POSITIVE),
    "verify_samples": (int, 0, _NONNEGATIVE), "verify_seed": (int, 0, _NONNEGATIVE),
}
_CONFIG = {"model": (_MODEL, _REQUIRED, None), "space": (_SPACE, _REQUIRED, None),
           "weights": (_WEIGHTS, {}, None), "run": (_RUN, {}, None),
           "output": ({"directory": (str, None, None)}, {}, None)}
_KIND_WORDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


class _NotJSON(float):
    """NaN or (-)Infinity in a config file: not JSON, and no key takes one, for
    a number must have type int or float and a finite value."""


def _read(block, table, where: str) -> dict:
    """A block's settings: each key of its table at its value or default,
    floats as float; a ConfigError names the first key that is bad."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    if isinstance(table, _Variants):
        name = block.get(table.key)
        if not isinstance(name, str) or name not in table.tables:
            raise ConfigError(f"{where}.{table.key} = {name!r} is not in {sorted(table.tables)}")
        table = table.tables[name]
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config root'}: {unknown}")
    settings = {}
    for key, (kind, default, within) in table.items():
        path = f"{where}.{key}" if where else key
        if key in block:
            settings[key] = _value(block[key], kind, within, path)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {path}")
        else:   # an absent block takes the defaults of its table
            settings[key] = _read({}, kind, path) if isinstance(kind, dict) else default
    return settings


def _value(value, kind, within, where: str):
    if isinstance(kind, (dict, _Variants)):
        return _read(value, kind, where)
    if isinstance(kind, tuple):
        kind = kind[isinstance(value, list)]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return [_value(item, kind[0], within, f"{where}[{i}]") for i, item in enumerate(value)]
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max
            if kind is float else type(value) is kind):
        raise ConfigError(f"{where} = {value!r} is not {_KIND_WORDS[kind]}")
    if within and not within[0](value):
        raise ConfigError(f"{where} = {value!r} must be {within[1]}")
    return float(value) if kind is float else value


def load_config(path: str) -> dict:
    """The configuration at `path` as written, once every key has passed its table."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_NotJSON)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _read(cfg, _CONFIG, "")
    return cfg


def build_space(cfg: dict):
    space = _read(cfg["space"], _SPACE, "space")
    torus = Torus(space["d"], space["L"])
    return torus, Grid(torus, space["M"])


def _kernel(k: dict):
    return BoxKernel(k["height"], k["radius"]) if k["shape"] == "box" \
        else GaussianKernel(k["height"], k["sigma"], k["cutoff"])


def build_model(cfg: dict, torus: Torus, grid: Grid):
    m = _read(cfg["model"], _MODEL, "model")
    try:
        if m["name"] == "glauber":
            return GlauberModel(torus, m["s"], m["z"], _kernel(m["phi"]))
        return BDLPModel(torus, m["m"], m["kappa_minus"], m["kappa_plus"],
                         normalize_on_grid(_kernel(m["a_minus"]), grid),
                         normalize_on_grid(_kernel(m["a_plus"]), grid), m.get("kappa", 0.0))
    except (ValueError, BirthDeathError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}")


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


def _write_json(path: Path, document: dict) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: Path, cfg: dict, command: str, started: float, extra: dict) -> None:
    """manifest.json: command, version, seconds since `started` (a perf_counter), config, extra."""
    digest = hashlib.sha1(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:8]
    _write_json(out_dir / "manifest.json", dict(
        command=command, version=f"birthdeath {__version__}+cfg.{digest}",
        wall_time_s=time.perf_counter() - started, config=cfg, **extra))


def _check(model, grid, run, weights, args):
    report = check_conditions(model, weights["C"], grid)
    payload = report.as_dict()
    if run["verify_samples"]:
        rng, torus = np.random.Generator(np.random.PCG64(run["verify_seed"])), grid.torus
        samples = [FiniteConfiguration(rng.uniform(0, torus.length, (rng.integers(1, 4), torus.dim)),
                                       torus) for _ in range(run["verify_samples"])]
        try:
            a1_hat, a2_hat = verify_kernel_bounds(model, weights["C"], grid, samples,
                                                  declared=(report.a1, report.a2))
            payload["verified"] = {"a1_hat": a1_hat, "a2_hat": a2_hat, "holds": True}
        except KernelBoundError as exc:
            payload["verified"] = {"holds": False, "reason": str(exc)}
    reason = payload.get("verified", {}).get("reason")
    holds = report.bound_3_2 and reason is None
    unverified = f"; verification failed: {reason}" if reason else ""
    print(f"conditions hold: a1 + a2/C = {report.sum_a:.6f} < 1.5" if holds else
          f"conditions FAIL: a1 + a2/C = {report.sum_a:.6f}; failed: "
          f"{report.failed_inequalities()}{unverified}")
    return {"report.json": payload}, {"report": payload}, 0 if holds else 1


def _simulate(model, grid, run, weights, args):
    T, init, seed = run["T"], run["initial"], run["seed"]
    initial = PoissonInitial(init["intensity"]) if init["type"] == "poisson" \
        else FixedInitial(np.asarray(init["points"], dtype=float))
    snaps = run["snapshot_times"] or (
        list(np.linspace(run["burn_in"], T, run["snapshots"])) if run["snapshots"] > 1 else [T])
    result = run_ensemble(model, initial, T, run["replicas"], seed, grid, snapshot_times=snaps,
                          burn_in=run["burn_in"], eps=run["eps"], scaled=run["scaled"],
                          population_cap=run["population_cap"], threads=args.threads)
    totals = {key: sum(ev[key] for ev in result.events["per_replica"])
              for key in ("proposals", "births", "rejections")}
    offered = totals["births"] + totals["rejections"]
    corr = result.correlations
    return {
        "k1.csv": ([f"bin_center_{i}" for i in range(grid.torus.dim)] + ["estimate", "std_error"],
                   np.column_stack([grid.nodes + grid.spacing / 2.0, corr.k1, corr.k1_se])),
        "k2.csv": (["bin_center", "estimate", "std_error"],
                   np.column_stack([corr.k2_centers, corr.k2, corr.k2_se])),
        "population.csv": (["time", "mean", "std_error"],
                           np.column_stack([result.snapshot_times, result.population_mean,
                                            result.population_se])),
    }, {
        "seed": seed, "replicas": run["replicas"], "replica_seeding": REPLICA_SEEDING,
        "events": result.events,
        "proposals_per_s": lambda timings: totals["proposals"] / timings["compute_s"],
        # births over accepted plus rejected birth proposals; null without any
        "acceptance_ratio": totals["births"] / offered if offered else None,
    }, 0


def _hierarchy_evolve(model, grid, run, weights, args):
    k0 = CorrelationVector.coherent(grid, weights["C"], run["initial_density"],
                                    order=weights["N_max"], homogeneous=run["homogeneous"])
    hcfg = HierarchyConfig(zeta_max=weights["zeta_max"], closure=weights["closure"], eps=run["eps"])
    result = evolve(model, k0, run["T"], dt=run["dt"], cfg=hcfg,
                    snapshot_times=run["snapshot_times"]
                    or list(np.linspace(0.0, run["T"], run["snapshots"])))
    return (_correlation_tables(grid, result.times, result.snapshots),
            {"dt": result.dt, "norms": result.norms, "times": result.times}, 0)


def _timed_rows(times, index, values) -> np.ndarray:
    """Rows (time, index columns..., value) for each row of `index` at each time."""
    return np.vstack([np.column_stack([np.full(len(index), t), index, v])
                      for t, v in zip(times, values)])


def _correlation_tables(grid: Grid, times, snapshots) -> dict:
    tables = {"k1.csv": (["time"] + [f"x{i}" for i in range(grid.torus.dim)] + ["k1"],
                         _timed_rows(times, grid.nodes, [snap.k1 for snap in snapshots]))}
    if snapshots[0].k2 is None:
        return tables
    n = grid.node_count
    if snapshots[0].homogeneous:   # k2 by node offset u, at separation |x_u - x_0|
        header, pairs = ["offset", "separation"], np.column_stack(
            [np.arange(n), grid.torus.distance(grid.nodes, grid.nodes[0])])
    else:
        header, pairs = ["i", "j"], np.column_stack(np.divmod(np.arange(n * n), n))
    tables["k2.csv"] = (["time", *header, "k2"],
                        _timed_rows(times, pairs, [snap.k2.ravel() for snap in snapshots]))
    return tables


def _hierarchy_stationary(model, grid, run, weights, args):
    hcfg = HierarchyConfig(zeta_max=weights["zeta_max"], closure=weights["closure"], eps=1.0)
    result = stationary_solve(model, grid, weights["C"], cfg=hcfg, tol=run["tol"],
                              max_iter=run["max_iter"])
    return _correlation_tables(grid, [0.0], [result.k_inv]), {
        "iterations": result.iterations, "contraction_q": result.q,
        "certificate": result.certificate, "fixed_point_residual": result.residual}, 0


def _vlasov(model, grid, run, weights, args):
    result = integrate_vlasov(model, grid, run["initial_density"], run["T"], run["dt"],
                              snapshot_times=run["snapshot_times"]
                              or list(np.linspace(0.0, run["T"], run["snapshots"])))
    return {"rho.csv": (["time"] + [f"x{i}" for i in range(grid.torus.dim)] + ["rho"],
                        _timed_rows(result.times, grid.nodes, [f.rho for f in result.fields]))}, \
        {"dt": result.dt, "clipped_mass": result.clipped_mass, "times": result.times}, 0


def _scale_compare(model, grid, run, weights, args):
    table = scaling_compare(model, grid, run["eps_list"], run["initial_density"], run["T"],
                            run["dt"], weights["C"], snapshot_times=run["snapshot_times"] or None,
                            zeta_max=weights["zeta_max"], closure=weights["closure"])
    n_eps, n_times = table.errors.shape
    return {"errors.csv": (["eps", "time", "error"], np.column_stack([
        np.repeat(table.eps_list, n_times), np.tile(table.times, n_eps), table.errors.ravel()]))}, \
        {"eps_list": table.eps_list, "times": table.times, "step_times": table.step_times}, 0


# name: (function, the run keys it needs, its own defaults of run keys, help).  The
# function maps the validated run (model, grid, run and weights settings, arguments)
# to its tables, manifest extras and exit code.  A table is (header, rows) for a CSV
# file or a dict for a JSON file; an extra may be a function of the phase timings.
_COMMANDS = {
    "check": (_check, (), {}, "evaluate the sufficient conditions"),
    "simulate": (_simulate, ("T", "replicas", "initial"), {"snapshots": 1},
                 "run the event simulator ensemble"),
    "hierarchy evolve": (_hierarchy_evolve, ("T",), {}, "integrate the hierarchy in time"),
    "hierarchy stationary": (_hierarchy_stationary, (), {}, "solve the stationary equation"),
    "vlasov": (_vlasov, ("T", "dt"), {}, "integrate the mean-field density equation"),
    "scale-compare": (_scale_compare, ("T", "dt"), {},
                      "scaled hierarchy vs mean-field error table"),
}


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
    hier = sub.add_parser("hierarchy", help="correlation-hierarchy computations")
    hsub = hier.add_subparsers(dest="subcommand", required=True)
    for name, (*_, text) in _COMMANDS.items():
        (hsub if name.startswith("hierarchy ") else sub).add_parser(name.split()[-1], help=text)
    return parser


# Built once per process: parsing only reads the parser, and `main` may
# run many times in one process (building it costs about 1 ms per call).
_PARSER = build_parser()


def _validate(args, needs, defaults) -> tuple:
    """The config as read, its settings and the output directory, all keys checked."""
    cfg = load_config(args.config)
    settings = _read(cfg, _CONFIG, "")
    run, space = settings["run"], settings["space"]
    run.update((key, value) for key, value in defaults.items() if key not in cfg.get("run", {}))
    missing = [key for key in needs if run[key] is None]
    if missing:
        raise ConfigError(f"missing required key run.{missing[0]}")
    T = run["T"]
    for t in run["snapshot_times"] or ():
        if T is not None and not t <= T + 1e-12:
            raise ConfigError(f"run.snapshot_times: snapshot time {t} lies outside [0, T = {T}]")
    if run["scaled"] and not run["eps"] > 0:
        raise ConfigError(f"run.eps = {run['eps']} must be > 0 when run.scaled is true")
    rho, nodes = run["initial_density"], space["M"] ** space["d"]
    if isinstance(rho, list) and len(rho) != nodes:
        raise ConfigError(f"run.initial_density has {len(rho)} entries, not 1 or M^d = {nodes}")
    if run["homogeneous"] is None:
        run["homogeneous"] = bool(np.ptp(rho) == 0)
    elif run["homogeneous"] and np.ptp(rho) != 0:
        raise ConfigError("run.homogeneous is true, but run.initial_density is not constant")
    if run["initial"] and any(len(x) != space["d"] for x in run["initial"].get("points", ())):
        raise ConfigError(f"run.initial.points: each point needs d = {space['d']} coordinates")
    if args.seed is not None:
        run["seed"] = _value(args.seed, int, _NONNEGATIVE, "--seed")
    if not (args.out or settings["output"]["directory"]):
        raise ConfigError("no output directory: set output.directory or pass --out")
    return cfg, settings, Path(args.out or settings["output"]["directory"])


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    name = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    compute, needs, defaults, _ = _COMMANDS[name]
    try:   # only validate and build raise ConfigError
        cfg, settings, out_dir = _validate(args, needs, defaults)
        started = time.perf_counter()
        torus, grid = build_space(cfg)
        model = build_model(cfg, torus, grid)
        built = time.perf_counter()
        tables, extras, code = compute(model, grid, settings["run"], settings["weights"], args)
        computed = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)
        for file_name, table in tables.items():
            if isinstance(table, dict):
                _write_json(out_dir / file_name, table)
            else:
                write_csv(out_dir / file_name, *table)
        timings = {"build_s": built - started, "compute_s": computed - built,
                   "write_s": time.perf_counter() - computed}
        write_manifest(out_dir, cfg, name, started, dict(timings=timings, **{
            key: value(timings) if callable(value) else value for key, value in extras.items()}))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BirthDeathError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:   # not expected of a validated run
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
