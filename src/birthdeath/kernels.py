"""Radial interaction kernels with closed forms, exact integrals, and samplers.

Pair potentials and dispersal kernels are radial functions of the
minimum-image distance, supported within a ball of radius at most L/2 so
the periodic wrap never overlaps itself.  Each kernel knows its exact
continuum integral (used by the event simulator's dominating measures)
and can draw displacement samples from its normalized profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Grid, Torus


class RadialKernel:
    """Base class: nonnegative radial profile of compact support."""

    #: largest r with possibly nonzero profile
    support_radius: float

    def radial(self, r):
        raise NotImplementedError

    def integral(self, dim: int) -> float:
        """Exact continuum integral over R^dim (equals the torus integral
        while support_radius <= L/2)."""
        raise NotImplementedError

    @property
    def max_value(self) -> float:
        raise NotImplementedError

    def profile(self, grid: Grid) -> np.ndarray:
        """Kernel sampled at node offsets from the origin, shape (N,)."""
        return np.asarray(self.radial(grid.torus.distance(grid.nodes, 0.0 * grid.nodes[0])),
                          dtype=float)

    def pair_table(self, grid: Grid) -> np.ndarray:
        """Kernel at all pairwise node offsets, shape (N, N): a circulant table."""
        return self.profile(grid)[grid.offset_index]

    def grid_mass(self, grid: Grid) -> float:
        return float(grid.weight * self.profile(grid).sum())

    def sample_displacement(self, rng: np.random.Generator, dim: int) -> np.ndarray:
        """Draw one displacement from the normalized profile by rejection
        against the uniform envelope on the support box."""
        R = self.support_radius
        top = self.max_value
        while True:
            u = rng.uniform(-R, R, size=dim)
            r = math.sqrt(float(np.sum(u * u)))
            if rng.uniform(0.0, top) < float(self.radial(np.asarray(r))):
                return u


@dataclass(frozen=True)
class BoxKernel(RadialKernel):
    """Constant `height` on the ball of radius `radius`, zero outside."""

    height: float
    radius: float

    def __post_init__(self):
        if self.height < 0 or self.radius <= 0:
            raise ValueError("height must be >= 0 and radius positive")

    @property
    def support_radius(self) -> float:
        return self.radius

    @property
    def max_value(self) -> float:
        return self.height

    def radial(self, r):
        return np.where(np.asarray(r) <= self.radius, self.height, 0.0)

    def integral(self, dim: int) -> float:
        if dim == 1:
            return self.height * 2.0 * self.radius
        return self.height * math.pi * self.radius ** 2


@dataclass(frozen=True)
class GaussianKernel(RadialKernel):
    """Truncated Gaussian bump: height * exp(-r^2 / (2 sigma^2)) for r <= cutoff."""

    height: float
    sigma: float
    cutoff: float

    def __post_init__(self):
        if self.height < 0 or self.sigma <= 0 or self.cutoff <= 0:
            raise ValueError("height >= 0 and sigma, cutoff positive required")

    @property
    def support_radius(self) -> float:
        return self.cutoff

    @property
    def max_value(self) -> float:
        return self.height

    def radial(self, r):
        r = np.asarray(r)
        bump = self.height * np.exp(-r * r / (2.0 * self.sigma ** 2))
        return np.where(r <= self.cutoff, bump, 0.0)

    def integral(self, dim: int) -> float:
        s = self.sigma
        if dim == 1:
            return self.height * s * math.sqrt(2.0 * math.pi) * math.erf(self.cutoff / (s * math.sqrt(2.0)))
        return self.height * 2.0 * math.pi * s * s * (1.0 - math.exp(-self.cutoff ** 2 / (2.0 * s * s)))


@dataclass(frozen=True)
class ScaledKernel(RadialKernel):
    """A radial kernel multiplied by a positive constant."""

    base: RadialKernel
    factor: float

    @property
    def support_radius(self) -> float:
        return self.base.support_radius

    @property
    def max_value(self) -> float:
        return self.factor * self.base.max_value

    def radial(self, r):
        return self.factor * self.base.radial(r)

    def integral(self, dim: int) -> float:
        return self.factor * self.base.integral(dim)

    def sample_displacement(self, rng, dim):
        # scaling does not change the normalized profile
        return self.base.sample_displacement(rng, dim)


def normalize_on_grid(kernel: RadialKernel, grid: Grid) -> ScaledKernel:
    """Rescale a kernel so that its grid quadrature mass is exactly one.

    Dispersal kernels enter the theory with unit integral; dividing by the
    quadrature mass makes the discrete normalization exact, which the
    hierarchy and condition modules rely on.
    """
    mass = kernel.grid_mass(grid)
    if mass <= 0:
        raise ValueError("kernel has zero mass on this grid")
    return ScaledKernel(kernel, 1.0 / mass)


def validate_kernel_fits(kernel: RadialKernel, torus: Torus) -> None:
    """Reject kernels whose support wraps around the torus."""
    if kernel.support_radius > torus.length / 2.0:
        raise ValueError(
            f"kernel support radius {kernel.support_radius} exceeds L/2 = {torus.length / 2.0}")
