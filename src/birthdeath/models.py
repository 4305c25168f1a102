"""Concrete birth-and-death rate models.

Two families are implemented: Glauber-type heat-bath dynamics driven by a
nonnegative pair potential, and the plant-ecology competition model
(constant-plus-competition death, dispersal birth) with an optional
immigration term.  Each model carries closed forms for

* the death and birth intensities d(x, xi), b(x, xi); the death
  intensity is a map of one pair sum over xi, which the event simulator
  keeps current per point,
* the inverse-transform kernels of the rates, renormalized by the
  mean-field scaling parameter eps (eps = 1 is the unscaled dynamics,
  eps = 0 the formal mean-field limit symbols),
* the kernel tables of the hierarchy operators, as offset profiles,
* dominating proposal measures for exact thinning in the event simulator,
* the growth constants of the death intensity.

Scaled rates follow the mean-field convention: the Glauber exponents and
the competition/dispersal strengths are multiplied by eps while the
constant mortality and immigration terms stay fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .configurations import CoherentState, FiniteConfiguration, SetFunction
from .errors import ConstantOverflowError, ModelValidationError
from .kernels import RadialKernel, validate_kernel_fits
from .space import Grid, Torus, circular_convolve, row_blocks


def constant_exp(name: str, exponent: float, C: float) -> float:
    """math.exp(exponent), the condition constant `name` at Ruelle weight C;
    a ConstantOverflowError that names both where it is not finite."""
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ConstantOverflowError(
            f"{name} overflows at C = {C:g}: exp({exponent:.6g}) exceeds the float range")
    return value


def _as_points(obj, dim: int) -> np.ndarray:
    if isinstance(obj, FiniteConfiguration):
        return obj.points
    return np.asarray(obj, dtype=float).reshape(-1, dim)


@dataclass(frozen=True)
class KernelTables:
    """Kernel data on a grid, the input of the hierarchy operators.

    `D1[i]`, `B1[i]` are the rates at node i given the empty configuration.
    Every other table is a radial function of the node offset and is held
    as its length-N offset profile: `D2[o]`, `B2[o]` are the rates at a
    node given the single other point at offset o from it, so the pair
    table is `D2[grid.offset_index]`.  For `separable` structure the
    renormalized kernels factor as base * prod g(x - y) with per-point
    profiles `Gd`, `Gb`; for `support_one` the kernels vanish beyond
    singletons and `Ad`, `Ab` hold the singleton entries.

    The hierarchy layouts keep the same fields in their own form (pair
    tables gathered to (N, N), or (1, N) rows).  Every array is held
    read-only, so a table shared between operator applications cannot be
    written in place.
    """

    structure: str  # "separable" | "support_one"
    eps: float
    D1: np.ndarray
    D2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    Gd: Optional[np.ndarray] = None
    Gb: Optional[np.ndarray] = None
    Ad: Optional[np.ndarray] = None
    Ab: Optional[np.ndarray] = None

    #: the fields that hold pair kernels (offset profiles as built)
    PAIR_FIELDS = ("D2", "B2", "Gd", "Gb", "Ad", "Ab")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                view = value.view()
                view.setflags(write=False)
                object.__setattr__(self, f.name, view)

    def map_pairs(self, fn) -> "KernelTables":
        """The tables with fn applied to every pair-kernel array."""
        return replace(self, **{name: fn(getattr(self, name)) for name in self.PAIR_FIELDS
                                if getattr(self, name) is not None})


class RateModel:
    """Shared interface of the concrete models (documentation carrier)."""

    torus: Torus
    #: max kernel order with nonzero inverse-transform entries (None = unbounded)
    kernel_support_bound: Optional[int] = None

    def pair_sum(self, kernel: RadialKernel, x, pts: np.ndarray) -> float:
        """sum_{y in pts} k(|x - y|) at minimum-image distance."""
        if len(pts) == 0:
            return 0.0
        return float(np.sum(kernel.radial(self.torus.distance(x, pts))))

    def death(self, x, xi, eps: float = 1.0) -> float:
        pts = _as_points(xi, self.torus.dim)
        self._reject_member(x, pts)
        return float(self.death_rate_of_sum(self.pair_sum(self.death_kernel, x, pts), eps))

    def birth(self, x, xi, eps: float = 1.0) -> float:
        raise NotImplementedError

    @property
    def death_kernel(self) -> RadialKernel:
        """The pair kernel k of the death rate: d(x, xi) depends on xi only
        through the pair sum S = sum_{y in xi} k(|x - y|)."""
        raise NotImplementedError

    def death_rate_of_sum(self, sums, eps: float = 1.0):
        """Death rate as a function of the pair sum S (elementwise)."""
        raise NotImplementedError

    def death_sums(self, points: np.ndarray) -> np.ndarray:
        """S_i = sum_{j != i} k(|x_i - x_j|) for every row, from all pairs.

        O(n^2) time, O(n) memory: the (n, n) kernel matrix is formed in row
        blocks (`space.row_blocks`), and each row is summed whole, so the
        sums equal those of the full matrix bit for bit.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.torus.dim)
        sums = np.empty(len(pts))
        for rows in row_blocks(len(pts), len(pts)):
            k_b = self.death_kernel.radial(self.torus.distance(pts[rows, None, :],
                                                               pts[None, :, :]))
            np.fill_diagonal(k_b[:, rows.start:], 0.0)
            sums[rows] = k_b.sum(axis=1)
        return sums

    def death_rates(self, points: np.ndarray, eps: float = 1.0) -> np.ndarray:
        """d(x_i, points minus x_i) for every row, vectorized."""
        raise NotImplementedError

    def _k0inv(self, x, xi, eta, eps: float, kind: str) -> float:
        """Renormalized death (kind "death") or birth kernel at eta."""
        raise NotImplementedError

    def k0inv_death(self, x, xi, eta, eps: float = 1.0) -> float:
        return self._k0inv(x, xi, eta, eps, "death")

    def k0inv_birth(self, x, xi, eta, eps: float = 1.0) -> float:
        return self._k0inv(x, xi, eta, eps, "birth")

    def vlasov_symbols(self, x, eta):
        """Formal eps -> 0 limits of the renormalized kernels (death, birth)."""
        empty = FiniteConfiguration.empty(self.torus)
        return (self.k0inv_death(x, empty, eta, eps=0.0),
                self.k0inv_birth(x, empty, eta, eps=0.0))

    def growth_constants(self, C: float):
        """(A, N, nu) with d(x, xi) <= A (1 + |xi|)^N nu^|xi|."""
        raise NotImplementedError

    def hierarchy_tables(self, grid: Grid, eps: float = 1.0) -> KernelTables:
        raise NotImplementedError

    def birth_total_bound(self, n_points: int, eps: float = 1.0) -> float:
        """Upper bound for the integral of b_eps(x, gamma) dx (thinning envelope)."""
        raise NotImplementedError

    def propose_birth(self, rng: np.random.Generator, points: np.ndarray, eps: float = 1.0):
        """Draw a birth location from the dominating mixture.

        Returns (x, accept_prob, row) where accept_prob = b_eps(x, gamma)
        over the dominating intensity at x.  `row` holds the death kernel
        k(|x - y|) for every y in `points` when the acceptance already
        evaluated it, else None, so an accepted birth need not evaluate it
        again.
        """
        raise NotImplementedError

    def mean_field_rhs(self, grid: Grid, rho: np.ndarray) -> np.ndarray:
        """Closed-form right-hand side of the mean-field density equation."""
        raise NotImplementedError

    def _reject_member(self, x, pts: np.ndarray) -> None:
        x = np.asarray(x, dtype=float).reshape(self.torus.dim)
        if len(pts) and np.any(np.all(pts == x, axis=1)):
            raise ValueError("x must not belong to xi: rates are defined for x outside the configuration")


def _check_eps(eps: float, allow_zero: bool = True) -> None:
    lo_ok = eps > 0 or (allow_zero and eps == 0)
    if not (lo_ok and eps <= 1.0):
        raise ValueError(f"eps must lie in {'[0' if allow_zero else '(0'}, 1], got {eps}")


@dataclass(frozen=True)
class GlauberModel(RateModel):
    """Heat-bath dynamics: death exp(s * sum phi), birth z * exp((s-1) * sum phi).

    phi is a nonnegative symmetric pair potential, z >= 0 the activity, and
    s in [0, 1] interpolates between pure birth-side (s = 0) and pure
    death-side (s = 1) interaction.
    """

    torus: Torus
    s: float
    z: float
    phi: RadialKernel
    kernel_support_bound: Optional[int] = field(default=None, init=False)

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ModelValidationError(f"s must lie in [0, 1], got {self.s}")
        if self.z < 0:
            raise ModelValidationError("activity z must be nonnegative")
        validate_kernel_fits(self.phi, self.torus)

    @property
    def name(self) -> str:
        return "glauber"

    @property
    def phi_bar(self) -> float:
        return self.phi.max_value

    @property
    def death_kernel(self) -> RadialKernel:
        return self.phi

    def death_rate_of_sum(self, sums, eps: float = 1.0):
        return np.exp(eps * self.s * sums)

    def birth(self, x, xi, eps: float = 1.0) -> float:
        pts = _as_points(xi, self.torus.dim)
        self._reject_member(x, pts)
        return self.z * math.exp(eps * (self.s - 1.0) * self.pair_sum(self.phi, x, pts))

    def death_rates(self, points: np.ndarray, eps: float = 1.0) -> np.ndarray:
        return self.death_rate_of_sum(self.death_sums(points), eps)

    def _g_death(self, phi_vals: np.ndarray, eps: float) -> np.ndarray:
        if eps == 0.0:
            return self.s * phi_vals
        return np.expm1(eps * self.s * phi_vals) / eps

    def _g_birth(self, phi_vals: np.ndarray, eps: float) -> np.ndarray:
        if eps == 0.0:
            return (self.s - 1.0) * phi_vals
        return np.expm1(eps * (self.s - 1.0) * phi_vals) / eps

    def _k0inv(self, x, xi, eta, eps: float, kind: str) -> float:
        _check_eps(eps)
        xi_pts = _as_points(xi, self.torus.dim)
        eta_pts = _as_points(eta, self.torus.dim)
        self._reject_member(x, xi_pts)
        base = self.death(x, xi_pts, eps) if kind == "death" else self.birth(x, xi_pts, eps)
        if len(eta_pts) == 0:
            return base
        phi_vals = self.phi.radial(self.torus.distance(x, eta_pts))
        g = self._g_death(phi_vals, eps) if kind == "death" else self._g_birth(phi_vals, eps)
        return base * float(np.prod(g))

    def k0inv_abs_setfunction(self, x, xi, kind: str) -> SetFunction:
        """|renormalized kernel| as a product-form set function of eta (eps = 1)."""
        xi_pts = _as_points(xi, self.torus.dim)
        base = self.death(x, xi_pts) if kind == "death" else self.birth(x, xi_pts)
        x = np.asarray(x, dtype=float)

        def f(points):
            phi_vals = self.phi.radial(self.torus.distance(x, points))
            g = self._g_death(phi_vals, 1.0) if kind == "death" else self._g_birth(phi_vals, 1.0)
            return np.abs(g)

        return CoherentState(f, prefactor=abs(base))

    def growth_constants(self, C: float):
        nu = 1.0 if self.s == 0.0 else constant_exp("nu = exp(s phi_bar)",
                                                    self.s * self.phi_bar, C)
        return (1.0, 0, nu)

    def hierarchy_tables(self, grid: Grid, eps: float = 1.0) -> KernelTables:
        _check_eps(eps)
        phi_p = self.phi.profile(grid)
        n = grid.node_count
        with np.errstate(over="ignore"):   # an overflow is inf, named by the callers
            return KernelTables(
                structure="separable",
                eps=eps,
                D1=np.ones(n),
                D2=np.exp(eps * self.s * phi_p),
                B1=np.full(n, self.z),
                B2=self.z * np.exp(eps * (self.s - 1.0) * phi_p),
                Gd=self._g_death(phi_p, eps),
                Gb=self._g_birth(phi_p, eps),
            )

    def birth_total_bound(self, n_points: int, eps: float = 1.0) -> float:
        # b_eps <= z uniformly since phi >= 0 and s <= 1
        return self.z * self.torus.volume

    def propose_birth(self, rng: np.random.Generator, points: np.ndarray, eps: float = 1.0):
        x = rng.uniform(0.0, self.torus.length, size=self.torus.dim)
        row = self.phi.radial(self.torus.distance(x, points))
        accept = math.exp(eps * (self.s - 1.0) * float(row.sum()))
        return x, accept, row

    def mean_field_rhs(self, grid: Grid, rho: np.ndarray) -> np.ndarray:
        conv = circular_convolve(grid, rho, self.phi.profile(grid))
        return -rho * np.exp(self.s * conv) + self.z * np.exp((self.s - 1.0) * conv)


@dataclass(frozen=True)
class BDLPModel(RateModel):
    """Plant-ecology dynamics: mortality plus pairwise competition for death,
    dispersal from existing plants plus optional immigration for birth.

    Dispersal and competition kernels should be normalized to unit grid
    mass (see :func:`birthdeath.kernels.normalize_on_grid`).  kappa = 0 is
    the plain model; kappa > 0 adds spontaneous immigration, which is the
    variant with a nontrivial stationary state.
    """

    torus: Torus
    m: float
    kappa_minus: float
    kappa_plus: float
    a_minus: RadialKernel
    a_plus: RadialKernel
    kappa: float = 0.0
    kernel_support_bound: Optional[int] = field(default=1, init=False)

    def __post_init__(self):
        if self.m <= 0:
            raise ModelValidationError("mortality m must be positive")
        if self.kappa_minus < 0 or self.kappa_plus < 0 or self.kappa < 0:
            raise ModelValidationError("rate constants must be nonnegative")
        validate_kernel_fits(self.a_minus, self.torus)
        validate_kernel_fits(self.a_plus, self.torus)

    @property
    def name(self) -> str:
        return "bdlp_modified" if self.kappa > 0 else "bdlp"

    @property
    def death_kernel(self) -> RadialKernel:
        return self.a_minus

    def death_rate_of_sum(self, sums, eps: float = 1.0):
        return self.m + eps * self.kappa_minus * sums

    def birth(self, x, xi, eps: float = 1.0) -> float:
        pts = _as_points(xi, self.torus.dim)
        self._reject_member(x, pts)
        return self.kappa + eps * self.kappa_plus * self.pair_sum(self.a_plus, x, pts)

    def death_rates(self, points: np.ndarray, eps: float = 1.0) -> np.ndarray:
        return self.death_rate_of_sum(self.death_sums(points), eps)

    def _k0inv(self, x, xi, eta, eps: float, kind: str) -> float:
        _check_eps(eps)
        xi_pts = _as_points(xi, self.torus.dim)
        eta_pts = _as_points(eta, self.torus.dim)
        self._reject_member(x, xi_pts)
        if len(eta_pts) == 0:
            return (self.death(x, xi_pts, eps) if kind == "death"
                    else self.birth(x, xi_pts, eps))
        if len(eta_pts) == 1:
            # renormalization cancels the eps on the singleton entry exactly
            if kind == "death":
                return self.kappa_minus * self.pair_sum(self.a_minus, x, eta_pts)
            return self.kappa_plus * self.pair_sum(self.a_plus, x, eta_pts)
        return 0.0

    def k0inv_abs_setfunction(self, x, xi, kind: str) -> SetFunction:
        x = np.asarray(x, dtype=float)
        xi_pts = _as_points(xi, self.torus.dim)

        def evaluator(eta: FiniteConfiguration) -> float:
            return abs(self._k0inv(x, xi_pts, eta, 1.0, kind))

        return SetFunction(evaluator, support_bound=1)

    def growth_constants(self, C: float):
        a_bar = self.a_minus.max_value
        return (self.m * (1.0 + a_bar / (4.0 * C)), 1, 1.0)

    def hierarchy_tables(self, grid: Grid, eps: float = 1.0) -> KernelTables:
        _check_eps(eps)
        a_m = self.a_minus.profile(grid)
        a_p = self.a_plus.profile(grid)
        n = grid.node_count
        return KernelTables(
            structure="support_one",
            eps=eps,
            D1=np.full(n, self.m),
            D2=self.m + eps * self.kappa_minus * a_m,
            B1=np.full(n, self.kappa),
            B2=self.kappa + eps * self.kappa_plus * a_p,
            Ad=self.kappa_minus * a_m,
            Ab=self.kappa_plus * a_p,
        )

    def birth_total_bound(self, n_points: int, eps: float = 1.0) -> float:
        disp = eps * self.kappa_plus * n_points * self.a_plus.integral(self.torus.dim)
        return self.kappa * self.torus.volume + disp

    def propose_birth(self, rng: np.random.Generator, points: np.ndarray, eps: float = 1.0):
        n = len(points)
        mass_imm = self.kappa * self.torus.volume
        if rng.uniform(0.0, self.birth_total_bound(n, eps)) < mass_imm:
            x = rng.uniform(0.0, self.torus.length, size=self.torus.dim)
        else:
            parent = points[rng.integers(n)]
            x = self.torus.wrap(parent + self.a_plus.sample_displacement(rng, self.torus.dim))
        # the mixture intensity equals b_eps(x, gamma) exactly
        return x, 1.0, None

    def mean_field_rhs(self, grid: Grid, rho: np.ndarray) -> np.ndarray:
        conv_m = circular_convolve(grid, rho, self.a_minus.profile(grid))
        conv_p = circular_convolve(grid, rho, self.a_plus.profile(grid))
        return (self.kappa_plus * conv_p - self.kappa_minus * rho * conv_m
                - self.m * rho + self.kappa)


def detailed_balance_bdlp(torus: Torus, m: float, kappa_minus: float, z: float,
                          kernel: RadialKernel) -> BDLPModel:
    """Immigration model with birth = z * death: dispersal equals competition,
    dispersal strength z * kappa_minus, immigration z * m.  The homogeneous
    density-z field is then invariant."""
    return BDLPModel(torus=torus, m=m, kappa_minus=kappa_minus,
                     kappa_plus=z * kappa_minus, a_minus=kernel, a_plus=kernel,
                     kappa=z * m)
