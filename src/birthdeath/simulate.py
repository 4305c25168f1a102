"""Exact-in-law continuous-time simulation of the birth-and-death process.

Events are generated by thinning: the waiting time is exponential with
rate equal to the total death rate plus a closed-form upper bound on the
total birth rate; deaths remove a point proportionally to its rate, and
birth proposals are drawn from the dominating mixture and accepted with
probability birth-rate over dominating intensity.  Rejected proposals
advance time only, so the accepted process has exactly the law of the
generator's jump dynamics on the torus.

One event kernel (`_Chain`) runs both :func:`step` and the replicas of
:func:`run_ensemble`.  It keeps each point's death pair sum
S_i = sum_{j != i} k(|x_i - x_j|) beside the points, so a proposal costs
O(n) vectorised work: one kernel evaluation against the population on a
birth or a death, plus the rate map, the cumulative sum and the copy of
the point array.  Only the initial pair sums and each snapshot's pair
histogram cost O(n^2) time; both walk the pair table in row blocks of at
most `space.PAIR_BLOCK_ENTRIES` entries, so their memory is O(n) at any
population.

Both entry points evaluate the rates at the scaling parameter eps in
[0, 1]; the scaled dynamics, ``step(..., scaled=True)`` or
``run_ensemble(..., scaled=True)`` with eps > 0, also multiplies the
birth rates by 1/eps.

Replicas are independent: replica r is driven by PCG64 seeded with the
r-th child of ``numpy.random.SeedSequence(seed).spawn(replicas)``, so
ensembles are reproducible bit-for-bit, may run in parallel, and
ensembles with different seeds share no chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .configurations import FiniteConfiguration
from .errors import SimulationAbort
from .models import RateModel, _check_eps
from .space import Grid, Torus, row_blocks

__all__ = [
    "SimulationState", "step", "run_ensemble",
    "PoissonInitial", "FixedInitial", "EmpiricalCorrelations", "EnsembleResult",
]

DEFAULT_POPULATION_CAP = 100_000
#: how run_ensemble derives the generator of each replica from its seed
REPLICA_SEEDING = "PCG64(SeedSequence(seed).spawn(replicas)[r])"


@dataclass(frozen=True)
class SimulationState:
    """Configuration, clock, generator state, and event counter of one chain."""

    configuration: FiniteConfiguration
    time: float
    rng_state: dict
    event_count: int = 0

    @classmethod
    def initial(cls, configuration: FiniteConfiguration, seed: int) -> "SimulationState":
        rng = np.random.Generator(np.random.PCG64(seed))
        return cls(configuration, 0.0, rng.bit_generator.state, 0)

    def generator(self) -> np.random.Generator:
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.rng_state
        return rng


class _Chain:
    """One chain's points, in event order, with their death pair sums.

    `sums[i]` is sum_{j != i} k(|x_i - x_j|) for the model's death kernel
    k, and the death rates are the model's map of `sums`.  A death deletes
    row i and subtracts k(|x_i - x_j|) from the rest; a birth at x adds
    k(|x - x_j|) and appends its sum.  A proposal is drawn in two steps,
    `next_time` then `fire`, so that a caller can stop at a time horizon
    between them with the generator exactly where the full loop leaves it.
    """

    def __init__(self, model: RateModel, points: np.ndarray, time: float, eps: float,
                 birth_scale: float, population_cap: int):
        self.model = model
        self.points = points
        self.sums = model.death_sums(points)
        self.time = time
        self.eps = eps
        self.birth_scale = birth_scale
        self.population_cap = population_cap

    def _kernel_at(self, x: np.ndarray) -> np.ndarray:
        torus = self.model.torus
        return self.model.death_kernel.radial(torus.distance(x, self.points))

    def rates(self) -> np.ndarray:
        return self.model.death_rate_of_sum(self.sums, self.eps)

    def next_time(self, rng: np.random.Generator) -> float:
        """Time of the next proposal; inf, with no draw, on an absorbing
        configuration (zero total rate)."""
        self._rates = self.rates()
        self._d_tot = float(self._rates.sum())
        b_bar = self.birth_scale * self.model.birth_total_bound(len(self.points), self.eps)
        self._total = self._d_tot + b_bar
        if not math.isfinite(self._total):
            raise SimulationAbort(f"total event rate {self._total} is not finite at "
                                  f"t = {self.time:.4f} with {len(self.points)} points")
        if self._total <= 0.0:
            return math.inf
        return self.time + rng.exponential(1.0 / self._total)

    def fire(self, rng: np.random.Generator, t: float) -> str:
        """Move the clock to `t` from :meth:`next_time` and carry out that
        proposal.  Returns "birth", "death" or "rejected"."""
        self.time = t
        if rng.uniform(0.0, self._total) < self._d_tot:
            v = rng.uniform(0.0, self._d_tot)
            idx = int(np.searchsorted(np.cumsum(self._rates), v, side="right"))
            idx = min(idx, len(self.points) - 1)
            x = self.points[idx]
            self.points = np.delete(self.points, idx, axis=0)
            self.sums = np.delete(self.sums, idx) - self._kernel_at(x)
            return "death"
        x, accept, k_x = self.model.propose_birth(rng, self.points, self.eps)
        if rng.uniform() < accept:
            if len(self.points) + 1 > self.population_cap:
                raise SimulationAbort(
                    f"population cap {self.population_cap} exceeded at t = {t:.4f}; "
                    "the parameters likely violate the non-explosion conditions")
            x = self.model.torus.wrap(x).reshape(1, -1)
            if k_x is None:
                k_x = self._kernel_at(x)
            self.sums = np.append(self.sums + k_x, k_x.sum())
            self.points = np.vstack([self.points, x])
            return "birth"
        return "rejected"


def _birth_scale(eps: float, scaled: bool) -> float:
    """Factor on the birth rates, 1/eps when scaled, else 1; ValueError
    unless 0 <= eps <= 1, with eps > 0 when scaled."""
    _check_eps(eps, allow_zero=not scaled)
    return 1.0 / eps if scaled else 1.0


def step(state: SimulationState, model: RateModel, eps: float = 1.0,
         scaled: bool = False,
         population_cap: int = DEFAULT_POPULATION_CAP) -> SimulationState:
    """Advance the chain by one proposal (accepted or rejected).

    `eps` and `scaled` act as in :func:`run_ensemble`.  On an absorbing
    configuration (zero total rate) the returned state has infinite time
    and the configuration unchanged.
    """
    birth_scale = _birth_scale(eps, scaled)
    rng = state.generator()
    chain = _Chain(model, state.configuration.points, state.time, eps, birth_scale,
                   population_cap)
    t = chain.next_time(rng)
    kind = "absorbed" if math.isinf(t) else chain.fire(rng, t)
    cfg = state.configuration if kind in ("rejected", "absorbed") \
        else FiniteConfiguration(chain.points, model.torus)
    return SimulationState(cfg, t, rng.bit_generator.state, state.event_count + 1)


@dataclass(frozen=True)
class PoissonInitial:
    """Poisson field with the given intensity: N ~ Poisson(z L^d), uniform points."""

    intensity: float

    def sample(self, rng: np.random.Generator, torus: Torus) -> np.ndarray:
        n = rng.poisson(self.intensity * torus.volume)
        return rng.uniform(0.0, torus.length, size=(n, torus.dim))


@dataclass(frozen=True)
class FixedInitial:
    """Deterministic initial configuration."""

    points: np.ndarray

    def sample(self, rng: np.random.Generator, torus: Torus) -> np.ndarray:
        return torus.wrap(np.asarray(self.points, dtype=float).reshape(-1, torus.dim))


@dataclass(frozen=True)
class EmpiricalCorrelations:
    """Binned density and radial pair-correlation estimates with standard errors."""

    k1: np.ndarray        # density per grid cell, points / volume
    k1_se: np.ndarray
    k2_centers: np.ndarray
    k2: np.ndarray        # radial pair correlation, normalized by unit-Poisson pairs
    k2_se: np.ndarray
    sample_count: int


@dataclass(frozen=True)
class EnsembleResult:
    correlations: EmpiricalCorrelations
    snapshot_times: np.ndarray
    population_mean: np.ndarray
    population_se: np.ndarray
    events: dict                      # per-replica proposal/birth/death/rejection counts
    seed: int
    replicas: int


def _shell_measure(torus: Torus, r1: float, r2: float) -> float:
    """Volume of the annulus {r1 <= minimum-image distance < r2}; exact for r2 <= L/2."""
    if torus.dim == 1:
        return 2.0 * (r2 - r1)
    return math.pi * (r2 * r2 - r1 * r1)


def _pair_histogram(torus: Torus, points: np.ndarray, pair_edges: np.ndarray) -> np.ndarray:
    """Counts of the unordered pairs i < j by minimum-image distance of
    x_i - x_j, from row blocks of the pair table (O(n) memory)."""
    n = len(points)
    hist = np.zeros(len(pair_edges) - 1, dtype=np.int64)
    for rows in row_blocks(n, n):
        # row i of the block against columns j = rows.start + 1 + c; keep j > i
        r = torus.distance(points[rows, None, :], points[None, rows.start + 1:, :])
        upper = np.arange(r.shape[1]) >= np.arange(r.shape[0])[:, None]
        hist += np.histogram(r[upper], bins=pair_edges)[0]
    return hist


_EVENT_COUNTER = {"birth": "births", "death": "deaths", "rejected": "rejections"}


def _run_replica(args):
    (model, initial, snap_times, seed_seq, eps, birth_scale, population_cap,
     est_grid, pair_edges, burn_in) = args
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    torus = model.torus
    pts = initial.sample(rng, torus)

    n_cells = est_grid.node_count
    n_bins = len(pair_edges) - 1
    k1_counts = np.zeros(n_cells)
    pair_counts = np.zeros(n_bins)
    population = np.zeros(len(snap_times))
    events = {"proposals": 0, "births": 0, "deaths": 0, "rejections": 0}
    used_snaps = 0

    def record(i_snap, points):
        nonlocal used_snaps
        population[i_snap] = len(points)
        if snap_times[i_snap] + 1e-15 < burn_in:
            return
        if len(points):
            np.add.at(k1_counts, est_grid.cell_index(points), 1.0)
            if len(points) > 1:
                pair_counts[:] += 2.0 * _pair_histogram(torus, points, pair_edges)  # ordered pairs
        used_snaps += 1

    chain = _Chain(model, pts, 0.0, eps, birth_scale, population_cap)
    i_snap = 0
    while i_snap < len(snap_times):
        t_next = chain.next_time(rng)
        while i_snap < len(snap_times) and snap_times[i_snap] <= t_next:
            record(i_snap, chain.points)
            i_snap += 1
        if i_snap >= len(snap_times):
            break
        events["proposals"] += 1
        events[_EVENT_COUNTER[chain.fire(rng, t_next)]] += 1

    return k1_counts, pair_counts, population, events, used_snaps


def run_ensemble(model: RateModel, initial, T: float, replicas: int, seed: int,
                 estimator_grid: Grid,
                 snapshot_times: Optional[Sequence[float]] = None,
                 burn_in: float = 0.0,
                 eps: float = 1.0,
                 scaled: bool = False,
                 population_cap: int = DEFAULT_POPULATION_CAP,
                 threads: int = 1) -> EnsembleResult:
    """Simulate independent replicas and estimate correlation functions.

    Density is estimated by binned point counts per grid cell; the pair
    function by a periodic-distance histogram over ordered pairs,
    normalized by the expected pair count of a unit-intensity Poisson
    field (so a Poisson(z) state gives k1 ~ z and k2 ~ z^2).  Snapshots
    before `burn_in` contribute to population statistics only.

    Rates are evaluated at the scaling parameter `eps` in [0, 1];
    `scaled` (which needs eps > 0) also multiplies the birth rates by 1/eps.
    """
    birth_scale = _birth_scale(eps, scaled)
    if replicas < 1:
        raise ValueError("need at least one replica")
    if snapshot_times is None:
        snapshot_times = [T]
    snap_times = np.sort(np.asarray(list(snapshot_times), dtype=float))
    # NaN sorts last and would never be reached: the chain would not stop
    if len(snap_times) == 0 or not (snap_times[0] >= 0 and np.isfinite(snap_times[-1])):
        raise ValueError("snapshot times must be finite, nonnegative and nonempty")

    torus = model.torus
    width = torus.length / (2.0 * estimator_grid.m)
    pair_edges = np.arange(0.0, torus.length / 2.0 + 0.5 * width, width)
    args = [(model, initial, snap_times, child, eps, birth_scale,
             population_cap, estimator_grid, pair_edges, burn_in)
            for child in np.random.SeedSequence(seed).spawn(replicas)]

    if threads > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_replica, args))
    else:
        results = [_run_replica(a) for a in args]

    w_cell = estimator_grid.weight
    vol = torus.volume
    shells = np.array([_shell_measure(torus, pair_edges[i], pair_edges[i + 1])
                       for i in range(len(pair_edges) - 1)])

    k1_reps = np.empty((replicas, estimator_grid.node_count))
    k2_reps = np.empty((replicas, len(shells)))
    pops = np.empty((replicas, len(snap_times)))
    events: List[dict] = []
    for r, (k1_counts, pair_counts, population, ev, used) in enumerate(results):
        denom = max(used, 1)
        k1_reps[r] = k1_counts / (denom * w_cell)
        k2_reps[r] = pair_counts / (denom * vol * shells)
        pops[r] = population
        events.append(ev)

    def mean_se(arr):
        mean = arr.mean(axis=0)
        if replicas > 1:
            se = arr.std(axis=0, ddof=1) / math.sqrt(replicas)
        else:
            se = np.zeros_like(mean)
        return mean, se

    k1_mean, k1_se = mean_se(k1_reps)
    k2_mean, k2_se = mean_se(k2_reps)
    pop_mean, pop_se = mean_se(pops)
    centers = 0.5 * (pair_edges[:-1] + pair_edges[1:])

    corr = EmpiricalCorrelations(k1=k1_mean, k1_se=k1_se, k2_centers=centers,
                                 k2=k2_mean, k2_se=k2_se,
                                 sample_count=replicas * len(snap_times))
    return EnsembleResult(correlations=corr, snapshot_times=snap_times,
                          population_mean=pop_mean, population_se=pop_se,
                          events={"per_replica": events}, seed=seed, replicas=replicas)
