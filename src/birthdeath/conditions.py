"""Sufficient-condition arithmetic for the semigroup construction.

Computes the kernel-integral constants (a1, a2) of the implemented
models for a given Ruelle weight C, evaluates the inequality chain that
guarantees well-posedness of the hierarchy evolution (a1 + a2/C < 3/2),
the weaker stationary-solver condition (< 2), the growth-constant window
for nu, and the admissible alpha interval.  A numerical verifier
cross-checks the declared constants against dense kernel integrals on
sampled configurations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .configurations import FiniteConfiguration, QuadratureScheme, lp_integral
from .errors import KernelBoundError
from .kernels import RadialKernel
from .models import BDLPModel, GlauberModel, RateModel
from .space import Grid


@dataclass
class ConditionReport:
    """Constants and boolean flags of the sufficient-condition check."""

    model: str
    C: float
    a1: float
    a2: float
    sum_a: float                    # a1 + a2 / C
    bound_3_2: bool                 # a1 + a2/C < 3/2 (hierarchy semigroup)
    bound_2: bool                   # a1 + a2/C < 2 (stationary solver)
    nu: float
    nu_window: bool                 # 1 <= nu < (C / a2) (3/2 - a1)
    alpha_window: Optional[tuple]   # open interval, or None when empty
    contraction_q: float            # a1 + a2/C - 1, the fixed-point operator norm bound
    inequalities: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    best_C: Optional[dict] = None

    def __post_init__(self):
        # internal consistency: the stronger bound implies the weaker one,
        # and the alpha window is nonempty exactly on the nu window
        if self.bound_3_2 and not self.bound_2:
            raise ValueError("inconsistent report: bound_3_2 holds but bound_2 does not")
        if (self.alpha_window is not None) != self.nu_window:
            raise ValueError(
                f"inconsistent report: alpha_window {self.alpha_window} "
                f"with nu_window {self.nu_window}")

    def as_dict(self) -> dict:
        out = {
            "model": self.model,
            "C": self.C,
            "a1": self.a1,
            "a2": self.a2,
            "a1_plus_a2_over_C": self.sum_a,
            "bound_3_2": self.bound_3_2,
            "bound_2": self.bound_2,
            "nu": self.nu,
            "nu_window": self.nu_window,
            "alpha_window": list(self.alpha_window) if self.alpha_window else None,
            "contraction_q": self.contraction_q,
            "inequalities": self.inequalities,
            "details": self.details,
            "best_C": self.best_C,
        }
        return out

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
    return float(grid.weight * np.sum(np.abs(np.expm1(tau * vals))))


def _alpha_window(a1: float, a2: float, C: float, nu: float):
    """The admissible open interval for the weight-shrinking factor alpha."""
    if a1 >= 1.5:
        return None, False
    hi = 1.0 / nu
    lo = a2 / (C * (1.5 - a1))
    nu_ok = lo < hi
    return ((lo, hi) if nu_ok else None), nu_ok


def _glauber_report(model: GlauberModel, C: float, grid: Grid) -> ConditionReport:
    b_s = beta_tau(model.phi, model.s, grid)
    b_s1 = beta_tau(model.phi, model.s - 1.0, grid)
    a1 = math.exp(C * b_s)
    a2 = model.z * math.exp(C * b_s1)
    sum_a = a1 + a2 / C
    _, _, nu = model.growth_constants(C)
    window, nu_ok = _alpha_window(a1, a2, C, nu)

    ineq = {
        "sn0smallz": {"lhs": sum_a, "rhs": 1.5, "holds": sum_a < 1.5,
                      "text": "exp(C b_s) + (z/C) exp(C b_{s-1}) < 3/2"},
        "statior": {"lhs": sum_a, "rhs": 2.0, "holds": sum_a < 2.0,
                    "text": "a1 + a2/C < 2"},
        "stronger_sn0smallz": {"lhs": a1 + a2 * nu / C, "rhs": 1.5,
                               "holds": a1 + a2 * nu / C < 1.5,
                               "text": "exp(C b_s) + (z/C) exp(s phi_bar + C b_{s-1}) < 3/2"},
    }
    if model.s == 0.0:
        lhs0 = (model.z / C) * math.exp(C * beta_tau(model.phi, -1.0, grid))
        ineq["s0smallz"] = {"lhs": lhs0, "rhs": 0.5, "holds": lhs0 < 0.5,
                            "text": "(z/C) exp(C b_{-1}) < 1/2"}

    return ConditionReport(
        model=model.name, C=C, a1=a1, a2=a2, sum_a=sum_a,
        bound_3_2=sum_a < 1.5, bound_2=sum_a < 2.0,
        nu=nu, nu_window=nu_ok, alpha_window=window,
        contraction_q=sum_a - 1.0,
        inequalities=ineq,
        details={"beta_s": b_s, "beta_s_minus_1": b_s1, "phi_bar": model.phi_bar},
    )


def _bdlp_report(model: BDLPModel, C: float, grid: Grid) -> ConditionReport:
    am = model.a_minus.profile(grid)
    ap = model.a_plus.profile(grid)
    modified = model.kappa > 0

    if modified:
        # 2 max{kappa^- C, 2 kappa / C} < m and 2 kappa^+ a^+ <= C kappa^- a^- pointwise
        denom = max(model.kappa_minus * C, 2.0 * model.kappa / C)
        small_1 = {"lhs": 2.0 * denom, "rhs": model.m, "holds": 2.0 * denom < model.m,
                   "text": "2 max{kminus C, 2 kappa / C} < m"}
        point_lhs = 2.0 * model.kappa_plus * ap
        point_rhs = C * model.kappa_minus * am
        point_text = "2 kplus a+(x) <= C kminus a-(x) on the grid"
        shift = 2.0
    else:
        denom = model.kappa_minus * C
        small_1 = {"lhs": 4.0 * denom, "rhs": model.m, "holds": 4.0 * denom < model.m,
                   "text": "4 kminus C < m"}
        point_lhs = 4.0 * model.kappa_plus * ap
        point_rhs = C * model.kappa_minus * am
        point_text = "4 kplus a+(x) <= C kminus a-(x) on the grid"
        shift = 4.0

    viol = point_lhs - point_rhs
    worst = int(np.argmax(viol))
    point_ok = bool(viol[worst] <= 1e-12 * max(1.0, float(np.max(np.abs(point_rhs)))))
    pointwise = {"holds": point_ok, "text": point_text,
                 "worst_node": worst,
                 "worst_node_coords": grid.nodes[worst].tolist(),
                 "worst_margin": float(viol[worst])}

    # the strict-inequality slack gives the largest admissible delta
    delta = math.inf if denom == 0 else model.m / denom - shift
    a1 = 1.0 if math.isinf(delta) else 1.0 + 1.0 / (shift + delta)
    a2 = C / shift
    sum_a = a1 + a2 / C
    _, _, nu = model.growth_constants(C)
    window, nu_ok = _alpha_window(a1, a2, C, nu)

    key = "aaa1" if modified else "smallparBDLP-1"
    key2 = "aaa2" if modified else "smallparBDLP-2"
    combined = {"lhs": sum_a, "rhs": 1.5, "holds": sum_a < 1.5,
                "text": "a1 + a2/C < 3/2"}
    return ConditionReport(
        model=model.name, C=C, a1=a1, a2=a2, sum_a=sum_a,
        bound_3_2=sum_a < 1.5, bound_2=sum_a < 2.0,
        nu=nu, nu_window=nu_ok, alpha_window=window,
        contraction_q=sum_a - 1.0,
        inequalities={key: small_1, key2: pointwise, "asmall": combined},
        details={"delta": delta, "a_minus_grid_mass": float(grid.weight * am.sum()),
                 "a_plus_grid_mass": float(grid.weight * ap.sum())},
    )


def check_conditions(model: RateModel, C: float, grid: Grid,
                     scan_best_C: bool = True) -> ConditionReport:
    """Evaluate the sufficient conditions of a model at Ruelle weight C.

    Also reports (as a convenience) the C on a log grid in (1, 10] that
    minimizes a1 + a2/C.
    """
    if C <= 1.0:
        raise ValueError("the Ruelle weight C must exceed 1")
    report = _dispatch(model, C, grid)
    if scan_best_C:
        best = None
        for c in np.geomspace(1.01, 10.0, 120):
            r = _dispatch(model, float(c), grid)
            if best is None or r.sum_a < best["a1_plus_a2_over_C"]:
                best = {"C": float(c), "a1_plus_a2_over_C": r.sum_a}
        report.best_C = best
    return report


def _dispatch(model: RateModel, C: float, grid: Grid) -> ConditionReport:
    if isinstance(model, GlauberModel):
        return _glauber_report(model, C, grid)
    if isinstance(model, BDLPModel):
        return _bdlp_report(model, C, grid)
    raise TypeError(f"no condition arithmetic for model type {type(model).__name__}")


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
