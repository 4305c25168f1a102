"""The four benchmark workloads: generated CLI inputs and output checks.

Each workload is a checked-in configuration template under `workloads/`
plus the part of its input drawn from the benchmark seed.  The program
only ever sees the generated configuration file and command-line
arguments.  Each check tests properties that any correct implementation
satisfies, so a faster program that changes results fails the benchmark.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "evolve-dense.json"
SPARSE_REFERENCE = HERE / "reference" / "sim-sparse.json"

# Relative tolerances of the output checks.
SYMMETRY_RTOL = 1e-12      # k2 of the dense hierarchy is symmetric by construction
REFERENCE_RTOL = 1e-9      # translated reference values of evolve-dense
NORM_GUARD = 10.0          # hierarchy.evolve's default blow-up guard
POPULATION_SIGMAS = 6.0    # band around z L^d for the detailed-balance simulation
EVENT_SIGMAS = 6.0         # band around the stationary birth and death counts
SPARSE_SIGMAS = 6.0        # band around sim-sparse's reference mean population


class CheckFailed(Exception):
    """An output of the program violates a property the workload checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # CLI subcommand words
    hierarchy: bool      # set-up also builds the hierarchy kernel tables
    work_unit: str       # what work_per_s counts
    # Median set-up time of the frozen reference implementation, measured
    # once (see README); setup_s is a set-up's ratio to the frozen one
    # times this, so the ratio reads in seconds.
    reference_setup_s: float

    def template(self) -> dict:
        with open(HERE / "workloads" / f"{self.name}.json") as fh:
            return json.load(fh)


WORKLOADS = {w.name: w for w in [
    Workload("evolve-dense", ("hierarchy", "evolve"), True, "rk4_steps", 0.184),
    Workload("scale-homog", ("scale-compare",), True, "rk4_steps", 0.204),
    Workload("sim-crowded", ("simulate",), False, "proposals", 0.174),
    Workload("sim-sparse", ("simulate",), False, "proposals", 0.179),
]}


def evolve_shift(seed: int, m: int) -> int:
    """Grid shift of the evolve-dense initial density drawn from the seed."""
    return random.Random(seed).randrange(m)


def make_config(workload: Workload, seed: int) -> dict:
    """The CLI configuration of a workload for a benchmark seed.

    evolve-dense takes the initial density 0.25 + 0.05 cos(2 pi x + phase)
    with phase = 2 pi j / M for a seed-drawn j, so every seed's solution is
    the seed-0 solution translated by j nodes.  The simulation workloads
    take their seed on the command line (see `cli_seeds`), and
    scale-homog's constant density has no random part.
    """
    cfg = workload.template()
    if workload.name == "evolve-dense":
        set_evolve_density(cfg, evolve_shift(seed, cfg["space"]["M"]))
    return cfg


def set_evolve_density(cfg: dict, shift: int) -> None:
    m = cfg["space"]["M"]
    cfg["run"]["initial_density"] = [
        0.25 + 0.05 * math.cos(2.0 * math.pi * (i + shift) / m) for i in range(m)]


def cli_seeds(seed: int):
    """Endless stream of `--seed` values for successive CLI runs.

    Successive simulation runs use distinct random seeds so that a run's
    median averages over initial states instead of repeating one of them.
    Random 31-bit values keep replica seeds (seed XOR replica index) of
    different runs apart.
    """
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


# ---------------------------------------------------------------------------
# output parsing


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    return header, rows


def _finite(values, what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what} has non-finite values")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def output_digest(out_dir: Path) -> str:
    """Hash of every output except the manifest's wall time: runs with equal
    digests produced the same results."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest.pop("wall_time_s", None)
    h.update(json.dumps(manifest, sort_keys=True).encode())
    return h.hexdigest()


def _evolve_tables(out_dir: Path, m: int):
    """k1 as {time: list} and k2 as {time: flat row-major list} from the CSVs."""
    _, rows1 = _read_csv(out_dir / "k1.csv")
    header2, rows2 = _read_csv(out_dir / "k2.csv")
    if header2 != ["time", "i", "j", "k2"]:
        raise CheckFailed(f"k2.csv is not a full (N,N) table: header {header2}")
    k1, k2 = {}, {}
    for t, _x, v in rows1:
        k1.setdefault(t, []).append(v)
    for t, i, j, v in rows2:
        k2.setdefault(t, []).append(v)
    for t in k1:
        if len(k1[t]) != m or len(k2.get(t, ())) != m * m:
            raise CheckFailed(f"snapshot t={t} has the wrong number of rows")
    return k1, k2


def check_evolve_dense(out_dir: Path, cfg: dict, seed: int) -> dict:
    m = cfg["space"]["M"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    norms = manifest["norms"]
    _finite(norms, "manifest norms")
    if max(norms) >= NORM_GUARD * norms[0]:
        raise CheckFailed(f"norm {max(norms)} reached the guard {NORM_GUARD} x {norms[0]}")
    k1, k2 = _evolve_tables(out_dir, m)
    if len(k1) != cfg["run"]["snapshots"]:
        raise CheckFailed(f"expected {cfg['run']['snapshots']} snapshots, got {len(k1)}")
    for t, flat in k2.items():
        _finite(flat, f"k2 at t={t}")
        scale = max(abs(v) for v in flat)
        for i in range(m):
            for j in range(i):
                if abs(flat[i * m + j] - flat[j * m + i]) > SYMMETRY_RTOL * scale:
                    raise CheckFailed(f"k2 at t={t} is not symmetric at ({i}, {j})")

    # every seed's run is the reference run translated by `shift` nodes
    ref = json.loads(REFERENCE.read_text())
    shift = evolve_shift(seed, m)
    times = sorted(k1)
    if len(times) != len(ref["times"]) or not all(
            _close(a, b, REFERENCE_RTOL) for a, b in zip(times, ref["times"])):
        raise CheckFailed(f"snapshot times {times} differ from the reference {ref['times']}")
    for t, ref_k1, ref_diag in zip(times, ref["k1"], ref["k2_diagonal"]):
        for i in range(m):
            src = (i + shift) % m
            if not _close(k1[t][i], ref_k1[src], REFERENCE_RTOL):
                raise CheckFailed(f"k1[{i}] at t={t} is {k1[t][i]}, reference {ref_k1[src]}")
            if not _close(k2[t][i * m + i], ref_diag[src], REFERENCE_RTOL):
                raise CheckFailed(f"k2[{i},{i}] at t={t} differs from the reference")
    steps = round(cfg["run"]["T"] / manifest["dt"])
    return {"rk4_steps": steps}


def check_scale_homog(out_dir: Path, cfg: dict, seed: int) -> dict:
    _, rows = _read_csv(out_dir / "errors.csv")
    _finite([r[2] for r in rows], "errors.csv")
    eps_list = cfg["run"]["eps_list"]
    times = cfg["run"]["snapshot_times"]
    if len(rows) != len(eps_list) * len(times):
        raise CheckFailed(f"errors.csv has {len(rows)} rows")
    err = {(eps, t): e for eps, t, e in rows}
    # acceptance criterion 8: the error shrinks monotonically with eps
    for t in times:
        col = [err[(float(e), float(t))] for e in sorted(eps_list, reverse=True)]
        if any(b > a for a, b in zip(col, col[1:])):
            raise CheckFailed(f"error at t={t} increases as eps shrinks: {col}")
    steps = len(eps_list) * round(cfg["run"]["T"] / cfg["run"]["dt"])
    return {"rk4_steps": steps}


def _simulation_outputs(out_dir: Path):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    events = manifest["events"]["per_replica"]
    _, pop_rows = _read_csv(out_dir / "population.csv")
    _finite([v for row in pop_rows for v in row], "population.csv")
    totals = {k: sum(ev[k] for ev in events) for k in ("proposals", "births", "deaths", "rejections")}
    totals["replicas"] = len(events)
    return events, pop_rows, totals


def _grid_normalized_box_integral(kernel: dict, space: dict) -> float:
    """Continuum integral of a box kernel after the CLI rescales it to unit
    mass on the grid: pi r^2 (d = 2) or 2 r (d = 1) over the grid mass,
    the node count within the radius (minimum image) times the cell volume."""
    d, length, m, radius = space["d"], space["L"], space["M"], kernel["radius"]
    h = length / m
    offsets = [min(i * h, length - i * h) for i in range(m)]
    if d == 1:
        inside = sum(1 for u in offsets if u <= radius)
        return 2.0 * radius / (inside * h)
    inside = sum(1 for u in offsets for v in offsets if math.hypot(u, v) <= radius)
    return math.pi * radius ** 2 / (inside * h * h)


def expected_crowded_events(cfg: dict) -> dict:
    """Expected births and deaths per replica per unit time in the
    stationary state of the sim-crowded model.

    The model is in detailed balance with Poisson(z), z = kappa / m, and
    the run starts from Poisson(z), so the process is stationary.  By the
    Mecke formula the mean total death rate is m z V + kappa_minus z^2 V
    int a_minus, and the mean total birth rate kappa V + kappa_plus z V
    int a_plus; both counts are these rates times T and the replica count.
    """
    model, space = cfg["model"], cfg["space"]
    if (model["a_minus"] != model["a_plus"] or model["a_minus"]["shape"] != "box"
            or not _close(model["kappa_plus"], model["kappa"] / model["m"] * model["kappa_minus"],
                          1e-12)):
        raise ValueError("sim-crowded needs equal box kernels in detailed balance")
    z = model["kappa"] / model["m"]
    volume = space["L"] ** space["d"]
    a_int = _grid_normalized_box_integral(model["a_minus"], space)
    return {"deaths": model["m"] * z * volume + model["kappa_minus"] * z * z * volume * a_int,
            "births": model["kappa"] * volume + model["kappa_plus"] * z * volume * a_int}


def check_crowded_events(cfg: dict, totals: dict) -> None:
    """Births and deaths summed over `totals["replicas"]` replicas of length T
    lie within EVENT_SIGMAS Poisson deviations of their stationary means.
    The counts of a stationary run are over-dispersed only by the slow
    fluctuation of the total rate, a few per cent at these run lengths."""
    per_unit = expected_crowded_events(cfg)
    for key in ("births", "deaths"):
        mean = per_unit[key] * cfg["run"]["T"] * totals["replicas"]
        band = EVENT_SIGMAS * math.sqrt(mean)
        if abs(totals[key] - mean) > band:
            raise CheckFailed(f"{totals[key]} {key} over {totals['replicas']} replicas; "
                              f"the stationary mean is {mean:.1f} +- {band:.1f}")


def check_sim_crowded(out_dir: Path, cfg: dict, seed: int) -> dict:
    events, pop_rows, totals = _simulation_outputs(out_dir)
    check_crowded_events(cfg, totals)
    model = cfg["model"]
    volume = cfg["space"]["L"] ** cfg["space"]["d"]
    # detailed balance: Poisson(z) with z = kappa / m is invariant
    mean = model["kappa"] / model["m"] * volume
    band = POPULATION_SIGMAS * math.sqrt(mean)
    for t, pop, _se in pop_rows:
        if abs(pop - mean) > band:
            raise CheckFailed(f"population {pop} at t={t} is outside {mean} +- {band}")
    if pop_rows[0][0] != 0.0:
        raise CheckFailed("the first population snapshot must be at t = 0")
    change = (totals["births"] - totals["deaths"]) / len(events)
    if not _close(change, pop_rows[-1][1] - pop_rows[0][1], 1e-9):
        raise CheckFailed(f"births - deaths = {change} per replica but the population "
                          f"changed by {pop_rows[-1][1] - pop_rows[0][1]}")
    return totals


def stationary_population(pop_rows, cfg: dict) -> float:
    """Replica-mean population averaged over the snapshots after burn-in."""
    kept = [pop for t, pop, _se in pop_rows if t >= cfg["run"]["burn_in"]]
    return sum(kept) / len(kept)


def check_sim_sparse(out_dir: Path, cfg: dict, seed: int) -> dict:
    events, pop_rows, totals = _simulation_outputs(out_dir)
    z_vol = cfg["model"]["z"] * cfg["space"]["L"] ** cfg["space"]["d"]
    mean_pop = stationary_population(pop_rows, cfg)
    if not 0.0 < mean_pop < z_vol:
        raise CheckFailed(f"mean population {mean_pop} is outside (0, {z_vol})")
    # The Gibbs state of the Glauber model has no closed-form density, so a
    # run is compared with the spread of many reference runs instead.
    ref = json.loads(SPARSE_REFERENCE.read_text())
    band = SPARSE_SIGMAS * ref["run_sd"]
    if abs(mean_pop - ref["mean_population"]) > band:
        raise CheckFailed(f"stationary mean population {mean_pop} is outside the reference "
                          f"{ref['mean_population']:.3f} +- {band:.3f}")
    ratio = totals["births"] / max(totals["births"] + totals["rejections"], 1)
    if not 0.0 < ratio < 1.0:
        raise CheckFailed(f"acceptance ratio {ratio} is outside (0, 1)")
    return totals


CHECKS = {
    "evolve-dense": check_evolve_dense,
    "scale-homog": check_scale_homog,
    "sim-crowded": check_sim_crowded,
    "sim-sparse": check_sim_sparse,
}


def check_pooled(workload: Workload, cfg: dict, works: list) -> None:
    """Checks over the counted work of every passing run of one benchmark
    run; on sim-crowded, the pooled birth and death counts (a tighter band
    than one run's)."""
    if workload.name == "sim-crowded" and works:
        check_crowded_events(cfg, {k: sum(w[k] for w in works)
                                   for k in ("births", "deaths", "replicas")})


def check_outputs(workload: Workload, out_dir: Path, cfg: dict, seed: int) -> dict:
    """Run the workload's output checks; returns the work it counted.

    Raises CheckFailed on a violated property, a missing file or a
    malformed one.
    """
    try:
        return CHECKS[workload.name](out_dir, cfg, seed)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
