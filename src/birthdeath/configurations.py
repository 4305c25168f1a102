"""Finite-configuration algebra and Lebesgue-Poisson quadrature.

Finite point configurations, set functions on them, the combinatorial
transform K (sum over subconfigurations) with its signed inverse, the
star convolution, coherent states, and truncated Lebesgue-Poisson
integrals over the configuration space of the torus.

The Lebesgue-Poisson quadrature sums over ordered grid tuples including
tuples with repeated nodes; their contribution is the value of the
underlying symmetric n-point function at the coincidence limit, vanishes
under grid refinement, and makes product-form integrands factorize
exactly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import SizeLimitError
from .space import Grid, GridFunction, Torus

#: hard cap for 2^n subset enumeration
MAX_SUBSET_CARDINALITY = 20
#: hard cap for 3^n partition enumeration
MAX_PARTITION_CARDINALITY = 12
#: cap on the number of quadrature tuples a dense Lebesgue-Poisson sum may visit
MAX_LP_TUPLES = 2_000_000


class FiniteConfiguration:
    """A finite set of distinct points on the torus, lexicographically ordered.

    Points are stored as an immutable (n, d) array wrapped into [0, L)^d.
    Equality of points is exact float comparison: points are grid nodes or
    simulator output and are never expected to collide.
    """

    __slots__ = ("points", "torus")

    def __init__(self, points, torus: Torus):
        pts = torus.wrap(np.asarray(points, dtype=float).reshape(-1, torus.dim))
        if len(pts) > 1:
            order = np.lexsort(pts.T[::-1])
            pts = pts[order]
            if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
                raise ValueError("configuration points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "torus", torus)

    def __setattr__(self, *_):
        raise AttributeError("FiniteConfiguration is immutable")

    @classmethod
    def empty(cls, torus: Torus) -> "FiniteConfiguration":
        return cls(np.empty((0, torus.dim)), torus)

    @classmethod
    def _from_array(cls, points: np.ndarray, torus: Torus) -> "FiniteConfiguration":
        """Internal constructor that skips ordering and distinctness checks.

        Quadrature paths use it to evaluate symmetric functions on node
        tuples that may contain repeats (coincidence-limit values).
        """
        obj = object.__new__(cls)
        pts = np.asarray(points, dtype=float).reshape(-1, torus.dim)
        object.__setattr__(obj, "points", pts)
        object.__setattr__(obj, "torus", torus)
        return obj

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FiniteConfiguration({self.points.tolist()})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteConfiguration)
                and self.points.shape == other.points.shape
                and bool(np.all(self.points == other.points)))

    def subset(self, indices) -> "FiniteConfiguration":
        return FiniteConfiguration._from_array(self.points[list(indices)], self.torus)

    def union_point(self, x) -> "FiniteConfiguration":
        pts = np.vstack([self.points, np.asarray(x, dtype=float).reshape(1, -1)])
        return FiniteConfiguration(pts, self.torus)

    def without_index(self, i: int) -> "FiniteConfiguration":
        return FiniteConfiguration._from_array(np.delete(self.points, i, axis=0), self.torus)


class SetFunction:
    """Real-valued function of finite configurations.

    The evaluator must be permutation invariant (it sees canonical point
    arrays).  `support_bound` is the largest cardinality with a nonzero
    value, or None when unbounded.
    """

    def __init__(self, evaluator: Callable[[FiniteConfiguration], float],
                 support_bound: Optional[int] = None):
        self.evaluator = evaluator
        self.support_bound = support_bound

    def __call__(self, eta: FiniteConfiguration) -> float:
        if self.support_bound is not None and len(eta) > self.support_bound:
            return 0.0
        return float(self.evaluator(eta))


class CoherentState(SetFunction):
    """Product set function prefactor * prod_{x in eta} f(x), one at the empty set.

    `f` may be a callable on (n, d) point arrays or a GridFunction (then
    off-grid points follow its interpolation rule).  Lebesgue-Poisson
    integration of coherent states factorizes layer by layer, which is the
    fast path of :func:`lp_integral`.
    """

    def __init__(self, f, prefactor: float = 1.0):
        self.f = f
        self.prefactor = float(prefactor)
        super().__init__(self._eval, support_bound=None)

    def point_values(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(points), dtype=float).reshape(len(points))

    def _eval(self, eta: FiniteConfiguration) -> float:
        if len(eta) == 0:
            return self.prefactor
        return self.prefactor * float(np.prod(self.point_values(eta.points)))


def vacuum_indicator() -> SetFunction:
    """The unit of the star convolution: one at the empty configuration, zero elsewhere."""
    return SetFunction(lambda eta: 1.0 if len(eta) == 0 else 0.0, support_bound=0)


def coherent_state(f, eta: FiniteConfiguration) -> float:
    """Product of f over the points of eta; empty product is one."""
    return CoherentState(f)(eta)


def _check_size(eta: FiniteConfiguration, limit: int, op: str) -> None:
    if len(eta) > limit:
        raise SizeLimitError(f"{op} supports |eta| <= {limit}, got {len(eta)}")


def k_transform(G: SetFunction, eta: FiniteConfiguration) -> float:
    """Sum of G over all subconfigurations of eta (including the empty one)."""
    _check_size(eta, MAX_SUBSET_CARDINALITY, "k_transform")
    n = len(eta)
    terms = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        terms.append(G(eta.subset(idx)))
    return math.fsum(terms)


def k_inverse(F: SetFunction, eta: FiniteConfiguration) -> float:
    """Signed subset sum inverting :func:`k_transform`."""
    _check_size(eta, MAX_SUBSET_CARDINALITY, "k_inverse")
    n = len(eta)
    terms = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sign = -1.0 if (n - len(idx)) % 2 else 1.0
        terms.append(sign * F(eta.subset(idx)))
    return math.fsum(terms)


def star_convolution(G1: SetFunction, G2: SetFunction, eta: FiniteConfiguration) -> float:
    """Convolution adapted to the K transform.

    Sums G1(eta_1 u eta_2) * G2(eta_2 u eta_3) over all ordered partitions
    of eta into three (possibly empty) parts, so that applying the K
    transform turns star products into pointwise products.
    """
    _check_size(eta, MAX_PARTITION_CARDINALITY, "star_convolution")
    n = len(eta)
    terms = []
    for assignment in itertools.product((0, 1, 2), repeat=n):
        part1 = [i for i in range(n) if assignment[i] != 2]   # eta_1 u eta_2
        part2 = [i for i in range(n) if assignment[i] != 0]   # eta_2 u eta_3
        terms.append(G1(eta.subset(part1)) * G2(eta.subset(part2)))
    return math.fsum(terms)


@dataclass(frozen=True)
class QuadratureScheme:
    """Grid nodes, uniform weights, and a configuration-size cutoff for
    Lebesgue-Poisson sums."""

    grid: Grid
    n_max: int = 12

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


class LPIntegral(NamedTuple):
    """Value of a truncated Lebesgue-Poisson integral and a truncation bound.

    `truncation_error` is zero when the integrand's support bound fits the
    cutoff, a tail estimate for product-form integrands, and None when no
    bound is available.
    """

    value: float
    truncation_error: Optional[float]


def lp_integral(H: SetFunction, C: float, scheme: QuadratureScheme) -> LPIntegral:
    """Truncated Lebesgue-Poisson integral of H with layer weights C^n.

    Sums (1/n!) * C^n * w^n * sum over ordered grid n-tuples of H, for
    n = 0..n_max.  Coherent states use the exact layer factorization
    (C * w * sum f)^n / n!; generic integrands are enumerated densely and
    must either carry a small support bound or live on a coarse scheme.
    """
    if C <= 0:
        raise ValueError("weight C must be positive")
    grid = scheme.grid
    w = grid.weight

    if isinstance(H, CoherentState):
        if isinstance(H.f, GridFunction) and H.f.grid is grid:
            fvals = H.f.values
        else:
            fvals = H.point_values(grid.nodes)
        x = C * w * float(fvals.sum())
        value = H.prefactor * math.fsum(x ** n / math.factorial(n)
                                        for n in range(scheme.n_max + 1))
        # tail of the exponential series: sum_{k>n} |x|^k/k! <= |x|^{n+1}/(n+1)! e^{|x|}
        tail = abs(H.prefactor) * abs(x) ** (scheme.n_max + 1) \
            / math.factorial(scheme.n_max + 1) * math.exp(abs(x))
        return LPIntegral(value, tail)

    if H.support_bound is not None:
        n_top = min(scheme.n_max, H.support_bound)
        trunc = 0.0 if H.support_bound <= scheme.n_max else None
    else:
        n_top = scheme.n_max
        trunc = None

    total_tuples = sum(grid.node_count ** n for n in range(1, n_top + 1))
    if total_tuples > MAX_LP_TUPLES:
        raise SizeLimitError(
            f"dense Lebesgue-Poisson sum would visit {total_tuples} tuples; "
            "use a coarser grid, a smaller n_max, or a structured integrand")

    terms = [H(FiniteConfiguration.empty(grid.torus))]
    for n in range(1, n_top + 1):
        coeff = (C * w) ** n / math.factorial(n)
        layer = math.fsum(
            H(FiniteConfiguration._from_array(grid.nodes[list(tup)], grid.torus))
            for tup in itertools.product(range(grid.node_count), repeat=n))
        terms.append(coeff * layer)
    return LPIntegral(math.fsum(terms), trunc)


def minlos_check(H: Callable[[FiniteConfiguration, FiniteConfiguration, FiniteConfiguration], float],
                 eta_size_max: int, scheme: QuadratureScheme) -> float:
    """Residual of the combinatorial Fubini identity for three-argument set functions.

    Compares the single integral of sum_{xi subset eta} H(xi, eta \\ xi, eta)
    against the double integral of H(xi, eta, eta u xi), both truncated so
    the same total cardinalities appear on each side.  Returns the absolute
    discrepancy; used by tests only.
    """
    if eta_size_max > 4:
        raise SizeLimitError("minlos_check supports eta_size_max <= 4")
    grid = scheme.grid
    torus = grid.torus
    w = grid.weight
    N = grid.node_count

    def config(idx_tuple):
        return FiniteConfiguration._from_array(grid.nodes[list(idx_tuple)], torus)

    lhs_terms = []
    for n in range(eta_size_max + 1):
        coeff = w ** n / math.factorial(n)
        layer = []
        for tup in itertools.product(range(N), repeat=n):
            eta = config(tup)
            for mask in range(1 << n):
                sel = [i for i in range(n) if mask >> i & 1]
                rest = [i for i in range(n) if not (mask >> i & 1)]
                layer.append(H(eta.subset(sel), eta.subset(rest), eta))
        lhs_terms.append(coeff * math.fsum(layer))
    lhs = math.fsum(lhs_terms)

    rhs_terms = []
    for j in range(eta_size_max + 1):
        for m_size in range(eta_size_max + 1 - j):
            coeff = w ** (j + m_size) / (math.factorial(j) * math.factorial(m_size))
            layer = []
            for tup_xi in itertools.product(range(N), repeat=j):
                xi = config(tup_xi)
                for tup_eta in itertools.product(range(N), repeat=m_size):
                    eta = config(tup_eta)
                    union = config(tup_xi + tup_eta)
                    layer.append(H(xi, eta, union))
            rhs_terms.append(coeff * math.fsum(layer))
    rhs = math.fsum(rhs_terms)

    return abs(lhs - rhs)
