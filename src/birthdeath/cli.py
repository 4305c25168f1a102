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
import itertools
import json
import math
import random
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
# `homogeneous` to whether initial_density is constant where a subcommand
# reads initial_density (hierarchy stationary reads only `homogeneous`)
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


# Values formatted per `%`, and lines written per `write`: bounds the
# format string, the tuple and the texts that one pass builds.
_CSV_BLOCK_ROWS = 4096
# A value column's values are formatted once per distinct float64 bit
# pattern while these are at most this share of its rows: reuse costs a sort
# and a text per distinct value and saves the `%.17g` of each repeat.  On
# 3 x 256 x 256 rows it took 0.4-0.7 of the cell-by-cell time up to a share
# of 0.6 and lost from 0.9 on; the bound is lower as reused texts are all held.
_CSV_REUSE_MAX_SHARE = 0.4


def _patterns(bits: np.ndarray, limit: int):
    """`np.unique(bits, return_inverse=True)`, or None when there are more
    than `limit` distinct values.  The inverse takes the smallest index type,
    and the memory at the peak is about half that of `np.unique`."""
    n = len(bits)
    if limit < 1:
        return None
    # Reuse needs a mean repeat count c of at least n / limit.  Of s random
    # draws, about c s^2 / (2 n) pairs hold equal values; where that puts c
    # lower, a sort counts the distinct values before any argsort, at a
    # quarter of its cost (2^21 values: 24 ms and 98 ms).  The sample picks
    # only which count runs first, never the outcome.  A strided sample would
    # hold almost none of the (i, j), (j, i) repeats of a symmetric table;
    # the draws come from `random`, as importing numpy.random takes 9 ms.
    s = min(n, 16 * math.isqrt(n))
    draws = np.frombuffer(random.Random(0).randbytes(8 * s), dtype=np.uint64) % np.uint64(n)
    sample = np.sort(bits[draws])
    runs = np.diff(np.flatnonzero(np.append(sample[1:] != sample[:-1], True)), prepend=-1)
    pairs = int(np.sum(runs * (runs - 1))) // 2
    if 2 * pairs * limit < s * s:
        ordered = np.sort(bits)
        if np.count_nonzero(ordered[1:] != ordered[:-1]) >= limit:
            return None
        del ordered
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    patterns = ordered[first]
    if len(patterns) > limit:
        return None
    ids = np.zeros(n, dtype=np.min_scalar_type(len(patterns) - 1))
    np.cumsum(first[1:], dtype=ids.dtype, out=ids[1:])
    inverse = np.empty_like(ids)
    inverse[order] = ids
    return patterns, inverse


def _texts(values: np.ndarray, end: str) -> list:
    """The `%.17g` text of each value, followed by `end`; one `%` formats a
    chunk of values, faster than one `%` per value (no text holds a space)."""
    texts = []
    for start in range(0, len(values), _CSV_BLOCK_ROWS):
        chunk = values[start:start + _CSV_BLOCK_ROWS].tolist()
        texts += (f"%.17g{end} " * len(chunk) % tuple(chunk)).split(" ")[:-1]
    return texts


def _value_texts(column: np.ndarray, end: str):
    """A function of (start, stop) giving the texts of `column[start:stop]`.
    While reuse pays, each distinct bit pattern (so 0.0 and -0.0 stay apart)
    is formatted once, here; otherwise each call formats its cells."""
    found = _patterns(column.view(np.int64), int(_CSV_REUSE_MAX_SHARE * len(column)))
    if found is None:
        return lambda start, stop: _texts(column[start:stop], end)
    texts = np.array(_texts(found[0].view(float), end), dtype=object)
    return lambda start, stop: texts[found[1][start:stop]].tolist()


def _columns(values) -> np.ndarray:
    """`values` as a float table of one row per entry; a 1-D array is one column."""
    table = np.asarray(values, dtype=float)
    return table[:, None] if table.ndim == 1 else table


def write_csv(path: Path, header, rows, axes=()) -> None:
    """Write a header line, then one line per entry of the Cartesian product
    of `axes` (C order) and its values: `%.17g` of every cell,
    comma-separated, with `\\r\\n` line ends.

    An axis is 1-D, or 2-D with one row per entry; `rows` holds the value
    columns (1-D: one column), a row per entry, and with no axes it is the
    whole table.  Each axis is formatted once, every axis but the last gives
    a block of lines their prefix, and only value columns may reuse texts
    (see `_value_texts`); the bytes are the same either way.
    """
    table = _columns(rows)
    axes = [_columns(axis) for axis in axes] or [np.empty((len(table), 0))]
    if len(table) != np.prod([len(axis) for axis in axes]):
        raise ValueError(f"{len(table)} rows for axes of {[len(axis) for axis in axes]} entries")
    # every cell of a line but its last ends in a comma
    ends = iter([","] * (sum(axis.shape[1] for axis in axes) + table.shape[1] - 1) + [""])
    texts = [[_texts(column, next(ends)) for column in axis.T] for axis in axes]
    values = [_value_texts(column, next(ends)) for column in table.T]
    last, n, start = texts.pop(), len(axes[-1]), 0
    heads = itertools.product(*[map("".join, zip(*axis)) for axis in texts])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for head in map("".join, heads):
            for lo in range(0, n, _CSV_BLOCK_ROWS):
                hi = min(lo + _CSV_BLOCK_ROWS, n)
                block = [column[lo:hi] for column in last] + \
                    [value(start, start + hi - lo) for value in values]
                # each line's cells, then the line break and the next line's head
                cells = [f"\r\n{head}"] * ((len(block) + 1) * (hi - lo))
                for c, column in enumerate(block):
                    cells[c::len(block) + 1] = column
                cells[-1] = "\r\n"
                fh.write(head + "".join(cells))
                start += hi - lo


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
        # 1 to 3 distinct grid nodes per sample: the declared constants are grid
        # sums of kernel profiles at node offsets, which off-grid points miss
        rng, n = np.random.Generator(np.random.PCG64(run["verify_seed"])), grid.node_count
        samples = [FiniteConfiguration(grid.nodes[rng.choice(n, rng.integers(1, 4), replace=False)],
                                       grid.torus) for _ in range(run["verify_samples"])]
        try:
            a1_hat, a2_hat = verify_kernel_bounds(model, weights["C"], grid, samples,
                                                  declared=(report.a1, report.a2))
            payload["verified"] = {"a1_hat": a1_hat, "a2_hat": a2_hat, "holds": True}
        except KernelBoundError as exc:
            payload["verified"] = {"holds": False, "reason": str(exc)}
    # every inequality counts, a1 + a2/C < 3/2 among them, and so does a
    # failed verification
    failed, reason = report.failed_inequalities(), payload.get("verified", {}).get("reason")
    reasons = ([f"failed: {', '.join(failed)}"] if failed else []) + \
        ([f"verification failed: {reason}"] if reason else [])
    print(f"conditions FAIL: a1 + a2/C = {report.sum_a:.6f}; {'; '.join(reasons)}" if reasons
          else f"conditions hold: a1 + a2/C = {report.sum_a:.6f} < 1.5")
    return {"report.json": payload}, {"report": payload}, 1 if reasons else 0


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
                   np.column_stack([corr.k1, corr.k1_se]), [grid.nodes + grid.spacing / 2.0]),
        "k2.csv": (["bin_center", "estimate", "std_error"],
                   np.column_stack([corr.k2, corr.k2_se]), [corr.k2_centers]),
        "population.csv": (["time", "mean", "std_error"], np.column_stack(
            [result.population_mean, result.population_se]), [result.snapshot_times]),
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


def _correlation_tables(grid: Grid, times, snapshots) -> dict:
    tables = {"k1.csv": (["time"] + [f"x{i}" for i in range(grid.torus.dim)] + ["k1"],
                         np.concatenate([snap.k1 for snap in snapshots]), [times, grid.nodes])}
    if snapshots[0].k2 is None:
        return tables
    n = grid.node_count
    if snapshots[0].homogeneous:   # k2 by node offset u, at separation |x_u - x_0|
        header, pairs = ["offset", "separation"], [np.column_stack(
            [np.arange(n), grid.torus.distance(grid.nodes, grid.nodes[0])])]
    else:
        header, pairs = ["i", "j"], [np.arange(n), np.arange(n)]
    tables["k2.csv"] = (["time", *header, "k2"],
                        np.concatenate([snap.k2.ravel() for snap in snapshots]), [times, *pairs])
    return tables


def _hierarchy_stationary(model, grid, run, weights, args):
    hcfg = HierarchyConfig(zeta_max=weights["zeta_max"], closure=weights["closure"], eps=1.0)
    result = stationary_solve(model, grid, weights["C"], cfg=hcfg, tol=run["tol"],
                              max_iter=run["max_iter"], homogeneous=run["homogeneous"])
    return _correlation_tables(grid, [0.0], [result.k_inv]), {
        "iterations": result.iterations, "contraction_q": result.q,
        "certificate": result.certificate, "a_posteriori_bound": result.a_posteriori_bound,
        "increments": result.increments, "fixed_point_residual": result.residual}, 0


def _vlasov(model, grid, run, weights, args):
    result = integrate_vlasov(model, grid, run["initial_density"], run["T"], run["dt"],
                              snapshot_times=run["snapshot_times"]
                              or list(np.linspace(0.0, run["T"], run["snapshots"])))
    return {"rho.csv": (["time"] + [f"x{i}" for i in range(grid.torus.dim)] + ["rho"],
                        np.concatenate([f.rho for f in result.fields]),
                        [result.times, grid.nodes])}, \
        {"dt": result.dt, "clipped_mass": result.clipped_mass, "times": result.times}, 0


def _scale_compare(model, grid, run, weights, args):
    table = scaling_compare(model, grid, run["eps_list"], run["initial_density"], run["T"],
                            run["dt"], weights["C"], snapshot_times=run["snapshot_times"] or None,
                            zeta_max=weights["zeta_max"], closure=weights["closure"])
    return {"errors.csv": (["eps", "time", "error"], table.errors.ravel(),
                           [table.eps_list, table.times])}, \
        {"eps_list": table.eps_list, "times": table.times, "step_times": table.step_times}, 0


# name: (function, the run keys it needs, its own defaults of run keys, help); a
# subcommand reads initial_density only where it needs it.  The
# function maps the validated run (model, grid, run and weights settings, arguments)
# to its tables, manifest extras and exit code.  A table is write_csv's (header, rows,
# axes) for a CSV file or a dict for a JSON file; an extra may be a function of the timings.
_COMMANDS = {
    "check": (_check, (), {}, "evaluate the sufficient conditions"),
    "simulate": (_simulate, ("T", "replicas", "initial"), {"snapshots": 1},
                 "run the event simulator ensemble"),
    "hierarchy evolve": (_hierarchy_evolve, ("T", "initial_density"), {},
                         "integrate the hierarchy in time"),
    "hierarchy stationary": (_hierarchy_stationary, (), {"homogeneous": True},
                             "solve the stationary equation"),
    "vlasov": (_vlasov, ("T", "dt", "initial_density"), {},
               "integrate the mean-field density equation"),
    "scale-compare": (_scale_compare, ("T", "dt", "initial_density"), {},
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
    parser.add_argument("--threads", type=int, default=1, help="worker cap for replica runs (>= 1)")
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
    if T is not None and run["burn_in"] > T:
        raise ConfigError(f"run.burn_in = {run['burn_in']} must be <= T = {T}")
    if run["scaled"] and not run["eps"] > 0:
        raise ConfigError(f"run.eps = {run['eps']} must be > 0 when run.scaled is true")
    rho, nodes = run["initial_density"], space["M"] ** space["d"]
    if isinstance(rho, list) and len(rho) != nodes:
        raise ConfigError(f"run.initial_density has {len(rho)} entries, not 1 or M^d = {nodes}")
    if "initial_density" in needs:
        if run["homogeneous"] is None:
            run["homogeneous"] = bool(np.ptp(rho) == 0)
        elif run["homogeneous"] and np.ptp(rho) != 0:
            raise ConfigError("run.homogeneous is true, but run.initial_density is not constant")
    if run["initial"] and any(len(x) != space["d"] for x in run["initial"].get("points", ())):
        raise ConfigError(f"run.initial.points: each point needs d = {space['d']} coordinates")
    if args.seed is not None:
        run["seed"] = _value(args.seed, int, _NONNEGATIVE, "--seed")
    _value(args.threads, int, _POSITIVE, "--threads")
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
