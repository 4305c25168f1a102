"""Mean-field density dynamics and scaling-convergence diagnostics.

The mean-field limit of the birth-and-death dynamics is a nonlocal
density equation on the torus: the density loses mass at a rate set by
the exponential moment of the death symbols and gains mass through the
birth symbols.  For the implemented models the moments collapse to
closed forms with periodic convolutions, evaluated spectrally; a slow
generic path cross-validates the closed forms through truncated
configuration-space integrals of the limit symbols.

`scaling_compare` quantifies how the renormalized scaled hierarchy
approaches the mean-field trajectory as the scaling parameter shrinks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import BlowUpError
from .hierarchy import (CorrelationVector, HierarchyConfig, _exp_series, _TimeSteps, evolve,
                        _weighted_sup)
from .models import RateModel
from .space import Grid, circular_convolve

__all__ = ["VlasovField", "vlasov_rhs", "vlasov_rhs_reference", "integrate",
           "scaling_compare", "VlasovResult", "ScalingTable"]


@dataclass(frozen=True)
class VlasovField:
    """Nonnegative density on the grid at a point in time."""

    grid: Grid
    rho: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho",
                           np.asarray(self.rho, dtype=float).reshape(self.grid.node_count))


def vlasov_rhs(model: RateModel, grid: Grid, rho: np.ndarray) -> np.ndarray:
    """Closed-form right-hand side of the mean-field equation (production path)."""
    return model.mean_field_rhs(grid, np.asarray(rho, dtype=float).reshape(grid.node_count))


def vlasov_rhs_reference(model: RateModel, grid: Grid, rho: np.ndarray,
                         n_max: int = 8) -> np.ndarray:
    """Generic right-hand side through truncated configuration-space sums.

    Evaluates -rho(x) * integral of the coherent state of rho against the
    death limit symbols plus the same integral against the birth symbols,
    truncating the configuration order at n_max.  Slow reference path used
    to cross-validate the closed forms.
    """
    rho = np.asarray(rho, dtype=float).reshape(grid.node_count)
    t = model.hierarchy_tables(grid, eps=0.0).map_pairs(lambda p: p[grid.offset_index])
    w = grid.weight
    if t.structure == "support_one":
        death_int = t.D1 + w * (t.Ad @ rho)
        birth_int = t.B1 + w * (t.Ab @ rho)
    else:
        cd = w * (t.Gd @ rho)
        cb = w * (t.Gb @ rho)
        death_int = t.D1 * _exp_series(cd, 0, n_max)
        birth_int = t.B1 * _exp_series(cb, 0, n_max)
    return -rho * death_int + birth_int


@dataclass(frozen=True)
class VlasovResult:
    times: List[float]
    fields: List[VlasovField]
    clipped_mass: float
    dt: float
    served: List[int]        # index in times of the field serving each requested time

    def final(self) -> VlasovField:
        return self.fields[-1]


def integrate(model: RateModel, grid: Grid, rho0, T: float, dt: float,
              snapshot_times: Optional[Sequence[float]] = None,
              blowup_sup: float = 1e9) -> VlasovResult:
    """Integrate the mean-field equation with RK4 and spectral convolutions.

    Steps and snapshots follow `hierarchy.evolve`: ceil(T / dt) equal
    steps, each requested time (default: T) served by its nearest step,
    the density at T always kept, times labelled step * dt, and a
    ValueError for a dt, T or snapshot time out of range.  A dt above
    1 / (2 sup L) raises StabilityError, where L is the mean-field loss
    rate d(S) at the initial density, S the death kernel's convolution with
    it (the hierarchy's guard applied to the mean-field equation).
    Negative undershoots are clipped to zero (with an accumulated-mass
    warning beyond 1e-12); densities above `blowup_sup` or a non-finite
    state abort the run.
    """
    rho = np.broadcast_to(np.asarray(rho0, dtype=float), (grid.node_count,)).astype(float)
    if np.any(rho < 0):
        raise ValueError("initial density must be nonnegative")
    with np.errstate(over="ignore"):   # an infinite loss rate leaves no step: bound 0
        sup_loss = float(np.max(model.death_rate_of_sum(
            circular_convolve(grid, rho, model.death_kernel.profile(grid)))))
    steps = _TimeSteps(T, dt, snapshot_times, 1.0 / (2.0 * sup_loss) if sup_loss > 0 else math.inf)
    clipped = 0.0

    def clip(rho: np.ndarray, t: float) -> np.ndarray:
        nonlocal clipped
        under = -float(np.sum(np.minimum(rho, 0.0))) * grid.weight
        if under > 0.0:
            clipped += under
            rho = np.maximum(rho, 0.0)
        if not np.all(np.isfinite(rho)) or float(np.max(rho)) > blowup_sup:
            raise BlowUpError(f"density blow-up at t = {t:.4f}")
        return rho

    times, states, served = steps.run(rho, lambda r: vlasov_rhs(model, grid, r),
                                      lambda y, c, f: y + c * f, clip)
    if clipped > 1e-12:
        warnings.warn(f"clipped {clipped:.3e} units of negative mass during integration",
                      RuntimeWarning)
    fields = [VlasovField(grid, rho, t) for t, rho in zip(times, states)]
    return VlasovResult(times, fields, clipped, steps.dt, served)


@dataclass(frozen=True)
class ScalingTable:
    """Distance between the scaled hierarchy and the mean-field trajectory.

    errors[i][j] is the truncated weighted sup distance between the
    hierarchy state evolved with scaling parameter eps_list[i] and the
    Poisson-factorized vector of the mean-field density, at times[j]
    (the step at step_times[j]), restricted to orders one and two.
    """

    eps_list: List[float]
    times: List[float]
    errors: np.ndarray
    step_times: List[float]

    def rows(self):
        for i, eps in enumerate(self.eps_list):
            for j, t in enumerate(self.times):
                yield eps, t, float(self.errors[i, j])


def coherent_distance(k: CorrelationVector, rho: np.ndarray) -> float:
    """Weighted sup distance between k and the Poisson-factorized vector of rho."""
    k2 = k.k2
    if k2 is not None:   # a homogeneous k2 is the profile, rho[0]^2 for a coherent vector
        k2 = k2 - (np.full_like(k2, float(rho[0]) ** 2) if k.homogeneous else np.outer(rho, rho))
    return _weighted_sup(k.C, None, k.k1 - rho, k2)


def scaling_compare(model: RateModel, grid: Grid, eps_list: Sequence[float],
                    rho0, T: float, dt: float, C: float,
                    snapshot_times: Optional[Sequence[float]] = None,
                    zeta_max: int = 2, closure: str = "poisson",
                    homogeneous: Optional[bool] = None) -> ScalingTable:
    """Evolve the renormalized hierarchy for each eps and tabulate its
    distance from the mean-field trajectory.

    eps = 0 selects the formal limit symbols, whose truncated hierarchy
    with the Poisson closure reproduces the mean-field flow up to the
    kernel-order truncation.  Each requested time (default: T) is compared
    at its nearest step, as in `hierarchy.evolve`; the table keeps the
    requested times and their steps' times as `step_times`.
    """
    rho0 = np.broadcast_to(np.asarray(rho0, dtype=float), (grid.node_count,)).astype(float)
    if homogeneous is None:
        homogeneous = bool(np.all(rho0 == rho0[0]))
    snapshot_times = [T] if snapshot_times is None else list(snapshot_times)

    field = integrate(model, grid, rho0, T, dt, snapshot_times=snapshot_times)
    rho_at = [field.fields[j].rho for j in field.served]

    k0 = CorrelationVector.coherent(grid, C, rho0, order=2, homogeneous=homogeneous)
    errors = np.empty((len(eps_list), len(snapshot_times)))
    for i, eps in enumerate(eps_list):
        cfg = HierarchyConfig(zeta_max=zeta_max, closure=closure, eps=float(eps))
        run = evolve(model, k0, T, dt=dt, cfg=cfg,
                     snapshot_times=snapshot_times, check=False)
        errors[i] = [coherent_distance(run.snapshots[j], rho)
                     for j, rho in zip(run.served, rho_at)]
    return ScalingTable(list(map(float, eps_list)), snapshot_times, errors,
                        [field.times[j] for j in field.served])
