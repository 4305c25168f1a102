"""Sufficient-condition arithmetic for the semigroup construction.

Computes the kernel-integral constants (a1, a2) of the implemented
models for a given Ruelle weight C, evaluates the inequality chain that
guarantees well-posedness of the hierarchy evolution (a1 + a2/C < 3/2),
the weaker stationary-solver condition (< 2), the growth-constant window
for nu, and the admissible alpha interval.  Each model's quantities that
do not depend on C (the beta integrals, the kernel profiles) are computed
once per check and serve both the report at C and the scan for the C that
minimizes a1 + a2/C.  A numerical verifier measures the constants again by
Lebesgue-Poisson quadrature on sampled configurations; on grid-node
configurations it is the test suite's oracle for the declared closed forms
(tests/test_conditions.py), not a step of a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .configurations import FiniteConfiguration, QuadratureScheme, lp_integral
from .errors import KernelBoundError
from .kernels import RadialKernel
from .models import BDLPModel, GlauberModel, RateModel, constant_exp
from .space import Grid


@dataclass(frozen=True)
class ConditionReport:
    """Constants and flags of the sufficient-condition check at Ruelle
    weight C.  Every bound and window is derived from (C, a1, a2, nu), so
    a report cannot contradict itself."""

    model: str
    C: float
    a1: float
    a2: float
    nu: float
    inequalities: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    best_C: Optional[dict] = None

    @property
    def sum_a(self) -> float:               # a1 + a2 / C
        return self.a1 + self.a2 / self.C

    @property
    def bound_3_2(self) -> bool:            # a1 + a2/C < 3/2 (hierarchy semigroup)
        return self.sum_a < 1.5

    @property
    def bound_2(self) -> bool:              # a1 + a2/C < 2 (stationary solver)
        return self.sum_a < 2.0

    @property
    def contraction_q(self) -> float:       # the fixed-point operator norm bound
        return self.sum_a - 1.0

    @property
    def alpha_window(self) -> Optional[tuple]:
        """The admissible open interval for the weight-shrinking factor
        alpha, or None when it is empty."""
        if self.a1 >= 1.5:
            return None
        lo, hi = self.a2 / (self.C * (1.5 - self.a1)), 1.0 / self.nu
        return (lo, hi) if lo < hi else None

    @property
    def nu_window(self) -> bool:            # 1 <= nu < (C / a2) (3/2 - a1)
        return self.alpha_window is not None

    def as_dict(self) -> dict:
        window = self.alpha_window
        return {"model": self.model, "C": self.C, "a1": self.a1, "a2": self.a2,
                "a1_plus_a2_over_C": self.sum_a, "bound_3_2": self.bound_3_2,
                "bound_2": self.bound_2, "nu": self.nu, "nu_window": self.nu_window,
                "alpha_window": list(window) if window else None,
                "contraction_q": self.contraction_q, "inequalities": self.inequalities,
                "details": self.details, "best_C": self.best_C}

    def failed_inequalities(self) -> list:
        return [name for name, item in self.inequalities.items() if not item["holds"]]


def beta_tau(phi, tau: float, grid: Grid) -> float:
    """Torus integral of |exp(tau * phi) - 1| by grid quadrature.

    `phi` may be a radial kernel, a grid function, or a raw array of
    values at node offsets from the origin.
    """
    if not -1.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [-1, 1]")
    if isinstance(phi, RadialKernel):
        vals = phi.profile(grid)
    elif hasattr(phi, "values"):
        vals = phi.values
    else:
        vals = np.asarray(phi, dtype=float).reshape(grid.node_count)
    with np.errstate(over="ignore"):   # an overflow is inf, named by the callers
        return float(grid.weight * np.sum(np.abs(np.expm1(tau * vals))))


class _GlauberConditions:
    """The C-independent part of the Glauber conditions: beta_s and
    beta_{s-1} from one profile of phi (at s = 0, beta_{s-1} is beta_{-1}),
    and phi_bar."""

    def __init__(self, model: GlauberModel, grid: Grid):
        self.model = model
        phi = model.phi.profile(grid)
        self.b_s = beta_tau(phi, model.s, grid)
        self.b_s1 = beta_tau(phi, model.s - 1.0, grid)

    def constants(self, C: float):
        """(a1, a2, nu) at Ruelle weight C."""
        m = self.model
        return (constant_exp("a1 = exp(C beta_s)", C * self.b_s, C),
                m.z * constant_exp("a2 = z exp(C beta_{s-1})", C * self.b_s1, C),
                m.growth_constants(C)[2])

    def report(self, C: float, best_C: dict) -> ConditionReport:
        m = self.model
        r = ConditionReport(m.name, C, *self.constants(C), best_C=best_C, details={
            "beta_s": self.b_s, "beta_s_minus_1": self.b_s1, "phi_bar": m.phi_bar})
        stronger = r.a1 + r.a2 * r.nu / C
        r.inequalities.update({
            "sn0smallz": {"lhs": r.sum_a, "rhs": 1.5, "holds": r.bound_3_2,
                          "text": "exp(C b_s) + (z/C) exp(C b_{s-1}) < 3/2"},
            "statior": {"lhs": r.sum_a, "rhs": 2.0, "holds": r.bound_2,
                        "text": "a1 + a2/C < 2"},
            "stronger_sn0smallz": {"lhs": stronger, "rhs": 1.5, "holds": stronger < 1.5,
                                   "text": "exp(C b_s) + (z/C) exp(s phi_bar + C b_{s-1}) < 3/2"},
        })
        if m.s == 0.0:
            lhs0 = (m.z / C) * math.exp(C * self.b_s1)
            r.inequalities["s0smallz"] = {"lhs": lhs0, "rhs": 0.5, "holds": lhs0 < 0.5,
                                          "text": "(z/C) exp(C b_{-1}) < 1/2"}
        return r


class _BDLPConditions:
    """The C-independent part of the BDLP conditions: the a- and a+
    profiles and their grid masses.  The modified model (kappa > 0) has
    shift 2 where the plain one has 4, in the slack delta and in both
    small-parameter inequalities."""

    def __init__(self, model: BDLPModel, grid: Grid):
        self.model, self.grid = model, grid
        self.am = model.a_minus.profile(grid)
        self.ap = model.a_plus.profile(grid)
        self.modified = model.kappa > 0
        self.shift = 2.0 if self.modified else 4.0
        self.masses = {"a_minus_grid_mass": float(grid.weight * self.am.sum()),
                       "a_plus_grid_mass": float(grid.weight * self.ap.sum())}

    def _slack(self, C: float):
        """(denom, delta): max{kminus C, 2 kappa / C} (modified) or kminus C,
        and the largest admissible delta, the slack of the strict inequality."""
        m = self.model
        denom = max(m.kappa_minus * C, 2.0 * m.kappa / C) if self.modified else m.kappa_minus * C
        return denom, math.inf if denom == 0 else m.m / denom - self.shift

    def constants(self, C: float):
        """(a1, a2, nu) at Ruelle weight C."""
        _, delta = self._slack(C)
        a1 = 1.0 if math.isinf(delta) else 1.0 + 1.0 / (self.shift + delta)
        return a1, C / self.shift, self.model.growth_constants(C)[2]

    def report(self, C: float, best_C: dict) -> ConditionReport:
        m, grid = self.model, self.grid
        denom, delta = self._slack(C)
        r = ConditionReport(m.name, C, *self.constants(C), best_C=best_C,
                            details={"delta": delta, **self.masses})
        # shift denom < m, and shift kplus a+ <= C kminus a- pointwise
        lhs = self.shift * denom
        small_1 = {"lhs": lhs, "rhs": m.m, "holds": lhs < m.m,
                   "text": "2 max{kminus C, 2 kappa / C} < m" if self.modified
                   else "4 kminus C < m"}
        point_rhs = C * m.kappa_minus * self.am
        viol = self.shift * m.kappa_plus * self.ap - point_rhs
        worst = int(np.argmax(viol))
        pointwise = {
            "holds": bool(viol[worst] <= 1e-12 * max(1.0, float(np.max(np.abs(point_rhs))))),
            "text": f"{self.shift:g} kplus a+(x) <= C kminus a-(x) on the grid",
            "worst_node": worst, "worst_node_coords": grid.nodes[worst].tolist(),
            "worst_margin": float(viol[worst])}
        keys = ("aaa1", "aaa2") if self.modified else ("smallparBDLP-1", "smallparBDLP-2")
        r.inequalities.update({keys[0]: small_1, keys[1]: pointwise, "asmall": {
            "lhs": r.sum_a, "rhs": 1.5, "holds": r.bound_3_2, "text": "a1 + a2/C < 3/2"}})
        return r


def _best_C(constants) -> dict:
    """The first C of a log grid in (1, 10] at which a1 + a2/C is least,
    from `constants(C) -> (a1, a2, nu)`.  A C at which exp(C beta)
    overflows ranks last."""
    def sum_a(c: float) -> float:
        try:
            a1, a2, _ = constants(c)
        except OverflowError:
            return math.inf
        return a1 + a2 / c

    best = min(map(float, np.geomspace(1.01, 10.0, 120)), key=sum_a)
    return {"C": best, "a1_plus_a2_over_C": sum_a(best)}


def check_conditions(model: RateModel, C: float, grid: Grid) -> ConditionReport:
    """Evaluate the sufficient conditions of a model at Ruelle weight C; the
    report also carries best_C, the C on a log grid in (1, 10] that
    minimizes a1 + a2/C."""
    if C <= 1.0:
        raise ValueError("the Ruelle weight C must exceed 1")
    if isinstance(model, GlauberModel):
        conditions = _GlauberConditions(model, grid)
    elif isinstance(model, BDLPModel):
        conditions = _BDLPConditions(model, grid)
    else:
        raise TypeError(f"no condition arithmetic for model type {type(model).__name__}")
    return conditions.report(C, _best_C(conditions.constants))


def verify_kernel_bounds(model: RateModel, C: float, grid: Grid,
                         xi_samples: Sequence[FiniteConfiguration],
                         declared: Optional[tuple] = None,
                         n_max: int = 10, rtol: float = 1e-6):
    """Measure the kernel-integral constants on sampled configurations.

    For each sampled xi, integrates |inverse-transform kernel| of the death
    and birth rates with layer weights C^n over the grid, sums over the
    points of xi, and divides by the total death rate.  Returns the worst
    observed ratios (a1_hat, a2_hat).  When `declared` constants are given
    and exceeded beyond `rtol` relative slack, raises KernelBoundError
    naming the offending configuration.

    On grid-node configurations of a model that meets every inequality,
    the measured constants stay within the declared grid sums; the test
    suite uses this as the oracle for `check_conditions`' closed forms.
    """
    scheme = QuadratureScheme(grid, n_max=n_max)
    a1_hat = 0.0
    a2_hat = 0.0
    worst = {"death": None, "birth": None}
    for xi in xi_samples:
        if len(xi) == 0 or len(xi) > 4:
            raise ValueError("xi samples must have 1 to 4 points")
        pts = xi.points
        D = float(np.sum(model.death_rates(pts)))
        lhs_d = 0.0
        lhs_b = 0.0
        for i in range(len(pts)):
            x = pts[i]
            rest = np.delete(pts, i, axis=0)
            lhs_d += lp_integral(model.k0inv_abs_setfunction(x, rest, "death"), C, scheme).value
            lhs_b += lp_integral(model.k0inv_abs_setfunction(x, rest, "birth"), C, scheme).value
        ratio_d = lhs_d / D
        ratio_b = lhs_b / D
        if ratio_d > a1_hat:
            a1_hat, worst["death"] = ratio_d, xi
        if ratio_b > a2_hat:
            a2_hat, worst["birth"] = ratio_b, xi
    if declared is not None:
        a1_decl, a2_decl = declared
        if a1_hat > a1_decl * (1.0 + rtol):
            raise KernelBoundError(
                f"measured a1 = {a1_hat} exceeds declared {a1_decl} at xi = {worst['death']}")
        if a2_hat > a2_decl * (1.0 + rtol):
            raise KernelBoundError(
                f"measured a2 = {a2_hat} exceeds declared {a2_decl} at xi = {worst['birth']}")
    return a1_hat, a2_hat
