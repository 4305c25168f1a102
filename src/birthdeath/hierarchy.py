"""Truncated correlation-function hierarchies.

The state is a correlation vector truncated at order one or two (density
and pair function on the grid).  This module applies the dual generator
of the birth-and-death dynamics to such vectors, integrates the resulting
ODE system with classical RK4, applies the generalized Kirkwood-Salzburg
operator, and solves the stationary equation by contraction iteration
with an a-priori and an a-posteriori error bound.

Integration over unresolved orders is truncated at a configurable kernel
order, and values of the correlation vector beyond the truncation order
are supplied by a closure rule: `zero` drops them, `poisson` peels excess
points into density factors (exact on coherent vectors, i.e. on
Poisson-factorized states).

The operators run in one of two layouts, chosen by the state.  Every
kernel table is a radial function of the node offset, so the models hand
each over as its length-N offset profile (see `KernelTables`).  A general
state holds an (N, N) pair table; its layout gathers each profile into
an (N, N) table once per run, and every kernel integral is a dense matrix
product.  A homogeneous (translation-invariant) state has a constant
density and a pair function of the node offset, so all tables involved
are circulant and each is carried by its row 0, which is the profile
itself.  Kernel compositions then become periodic convolutions by FFT,
row sums become dot products and transposition becomes the offset
reversal o -> -o, so one application costs O(N log N) and a run holds
only length-N rows.  The dense layout is the reference the homogeneous
one is tested against.

A pair application writes into at most two (rows, N) work arrays besides
the kernel composition w * (Gb @ k2), which becomes its result; each is
made for that application, so no buffer outlives it or is shared between
two results.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .conditions import check_conditions
from .errors import BlowUpError, ConditionError, StabilityError, TruncationError
from .models import KernelTables, RateModel
from .space import Grid, circular_convolve

__all__ = [
    "CorrelationVector", "QuasiObservable", "HierarchyConfig",
    "apply_dual_generator", "ks_operator", "stationary_solve", "evolve",
    "dual_pairing", "apply_forward_generator", "EvolveResult", "StationaryResult",
]


@dataclass(frozen=True)
class HierarchyConfig:
    """Truncation and scaling knobs of the hierarchy operators.

    zeta_max bounds the kernel order kept in the integrals, closure picks
    the rule for correlation orders above the truncation ('none' makes any
    such occurrence an error instead), and eps selects the renormalized
    scaled generator (1 = unscaled dynamics, 0 = the mean-field limit
    symbols).
    """

    zeta_max: int = 2
    closure: str = "poisson"
    eps: float = 1.0

    def __post_init__(self):
        if self.zeta_max < 0:
            raise ValueError("zeta_max must be >= 0")
        if self.closure not in ("zero", "poisson", "none"):
            raise ValueError("closure must be 'zero', 'poisson', or 'none'")
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError("eps must lie in [0, 1]")


def _weighted_sup(C: float, k0: Optional[float], k1: np.ndarray,
                  k2: Optional[np.ndarray] = None) -> float:
    """The truncated weighted sup norm max(|k0|, sup |k1| / C, sup |k2| / C^2)
    of the orders present (None: absent); NaN when any order holds a NaN."""
    terms = [float(np.max(np.abs(k1), initial=0.0)) / C]
    if k0 is not None:
        terms.append(abs(k0))
    if k2 is not None:
        terms.append(float(np.max(np.abs(k2), initial=0.0)) / C ** 2)
    return math.nan if any(map(math.isnan, terms)) else max(terms)


@dataclass(frozen=True)
class CorrelationVector:
    """Truncated correlation vector on a grid with a Ruelle weight C.

    k0 is the empty-configuration value (one for probability-normalized
    states, zero for defect vectors), k1 the density on the grid, and k2
    the pair function: either a full symmetric (N, N) table, or, in
    homogeneous (translation-invariant) mode, a length-N function of the
    node offset.  Homogeneous mode requires a constant k1 (a ValueError
    otherwise); the hierarchy operators then work on circulant offset
    profiles, hold only length-N rows and cost O(N log N) per application.
    """

    grid: Grid
    C: float
    k0: float
    k1: np.ndarray
    k2: Optional[np.ndarray] = None
    homogeneous: bool = False

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("Ruelle weight C must be positive")
        n = self.grid.node_count
        object.__setattr__(self, "k1", np.asarray(self.k1, dtype=float).reshape(n))
        # an all-NaN density counts as constant, so the norm guards see it
        if self.homogeneous and not np.all(self.k1 == self.k1[0]) \
                and not np.all(np.isnan(self.k1)):
            raise ValueError("a homogeneous correlation vector needs a constant density k1")
        if self.k2 is not None:
            k2 = np.asarray(self.k2, dtype=float)
            k2 = k2.reshape(n) if self.homogeneous else k2.reshape(n, n)
            object.__setattr__(self, "k2", k2)

    @property
    def order(self) -> int:
        return 2 if self.k2 is not None else 1

    def k2_full(self) -> Optional[np.ndarray]:
        """Pair table materialized to (N, N) regardless of representation."""
        if self.k2 is None:
            return None
        if self.homogeneous:
            return self.k2[self.grid.offset_index]
        return self.k2

    def ruelle_norm(self) -> float:
        """Truncated weighted sup norm max_n sup |k^(n)| / C^n."""
        return _weighted_sup(self.C, self.k0, self.k1, self.k2)

    @classmethod
    def zero(cls, grid: Grid, C: float, order: int = 2,
             homogeneous: bool = False) -> "CorrelationVector":
        n = grid.node_count
        k2 = None
        if order >= 2:
            k2 = np.zeros(n) if homogeneous else np.zeros((n, n))
        return cls(grid, C, 0.0, np.zeros(n), k2, homogeneous)

    @classmethod
    def vacuum(cls, grid: Grid, C: float, order: int = 2,
               homogeneous: bool = False) -> "CorrelationVector":
        """The vacuum state: one at the empty configuration, zero elsewhere."""
        return replace(cls.zero(grid, C, order, homogeneous), k0=1.0)

    @classmethod
    def coherent(cls, grid: Grid, C: float, rho, order: int = 2,
                 homogeneous: bool = False) -> "CorrelationVector":
        """Poisson-factorized vector: k1 = rho, k2 = rho (x) rho, k0 = 1."""
        n = grid.node_count
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (n,)).copy()
        k2 = None
        if order >= 2:
            if homogeneous:
                k2 = np.full(n, float(rho[0]) ** 2)
            else:
                k2 = np.outer(rho, rho)
        return cls(grid, C, 1.0, rho, k2, homogeneous)

    def _lin(self, coef: float, vec: "CorrelationVector") -> "CorrelationVector":
        """self + coef * vec over the represented orders (k0 kept)."""
        k2 = None if self.k2 is None else self.k2 + coef * vec.k2
        return replace(self, k1=self.k1 + coef * vec.k1, k2=k2)

    def diff_norm(self, other: "CorrelationVector") -> float:
        both = self.k2 is not None and other.k2 is not None
        return _weighted_sup(self.C, self.k0 - other.k0, self.k1 - other.k1,
                             self.k2 - other.k2 if both else None)


@dataclass(frozen=True)
class QuasiObservable:
    """Finite-support test vector (orders 0..2) with the weighted L1 norm."""

    grid: Grid
    C: float
    g0: float
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        n = self.grid.node_count
        object.__setattr__(self, "g1", np.asarray(self.g1, dtype=float).reshape(n))
        object.__setattr__(self, "g2", np.asarray(self.g2, dtype=float).reshape(n, n))

    def l1_norm(self) -> float:
        w = self.grid.weight
        return (abs(self.g0)
                + self.C * w * float(np.sum(np.abs(self.g1)))
                + 0.5 * (self.C * w) ** 2 * float(np.sum(np.abs(self.g2))))


def dual_pairing(G: QuasiObservable, k: CorrelationVector) -> float:
    """Discrete duality pairing sum_n (1/n!) w^n <G^(n), k^(n)>."""
    w = G.grid.weight
    out = G.g0 * k.k0 + w * float(G.g1 @ k.k1)
    k2f = k.k2_full()
    if k2f is not None:
        out += 0.5 * w * w * float(np.sum(G.g2 * k2f))
    return out


# ---------------------------------------------------------------------------
# dual generator and Kirkwood-Salzburg operator on kernel tables


def _exp_series(x: np.ndarray, j_lo: int, j_hi: int, shift: int = 0) -> np.ndarray:
    """sum_{j=j_lo}^{j_hi} x^(j - shift) / j!  (elementwise, j_hi < j_lo -> 0)."""
    out = np.zeros_like(x)
    for j in range(j_lo, j_hi + 1):
        out += x ** (j - shift) / math.factorial(j)
    return out


class _Layout:
    """The operands of one run: the kernel tables `t` in the layout of its
    states, and `diag`, the total death rate D2 + D2^T of a pair in the
    same layout, formed on first use.  Every array is read-only."""

    t: KernelTables
    rows: int
    w: float

    def transpose(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @functools.cached_property
    def diag(self) -> np.ndarray:
        diag = self.t.D2 + self.transpose(self.t.D2)
        diag.setflags(write=False)
        return diag


class _DenseLayout(_Layout):
    """Operands as stored: (N, N) tables indexed by node pairs, each
    gathered once from its offset profile, `profile[grid.offset_index]`.
    States of order one read no pair rates, so at `order` 1 the layout
    holds None for D2 and B2 instead of gathering them."""

    def __init__(self, t: KernelTables, grid: Grid, order: int = 2):
        self.rows = grid.node_count
        self.w = grid.weight
        if order < 2:
            t = replace(t, D2=None, B2=None)
        self.t = t.map_pairs(lambda p: p[grid.offset_index])

    def wmatmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Quadrature of a kernel composition, w * (a @ b), scaled in place
        in the product's fresh array."""
        out = np.matmul(a, b)
        out *= self.w
        return out

    def transpose(self, a: np.ndarray) -> np.ndarray:
        return a.T


class _CirculantLayout(_Layout):
    """Operands of a homogeneous state, each carried by its row 0.

    A table with A[i, j] = a[offset(i, j)] is circulant and its row 0 is
    the offset profile a, so `t` holds each profile as it is, as a (1, N)
    row, and no (N, N) array is made; a constant vector is carried by its
    entry 0.  Elementwise products, row sums, broadcasts and products
    A[:1] @ k1 with the full-length density keep this form, so the dense
    formulas apply unchanged to the (1, N) and (1,) slices; only
    compositions (periodic convolutions) and transposition (the offset
    reversal o -> -o) differ.
    """

    rows = 1

    def __init__(self, t: KernelTables, grid: Grid):
        self.grid = grid
        self.w = grid.weight
        self.t = replace(t.map_pairs(lambda p: p[None, :]), D1=t.D1[:1], B1=t.B1[:1])

    def wmatmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return circular_convolve(self.grid, a, b)[None, :]

    def transpose(self, a: np.ndarray) -> np.ndarray:
        return a[:, self.grid.negated_offset]


def _layout(t: KernelTables, grid: Grid, homogeneous: bool, order: int = 2) -> _Layout:
    """The operands of one run: the tables in the layout of its states,
    which are of order `order`."""
    return _CirculantLayout(t, grid) if homogeneous else _DenseLayout(t, grid, order)


def _pair_operand(lay: _Layout, k: CorrelationVector, closure: str) -> np.ndarray:
    """The pair table of k in the layout's rows, with the closure standing
    in for it at order one."""
    n = k.grid.node_count
    if k.order >= 2:
        k2e = k.k2.reshape(lay.rows, n)
    elif closure == "poisson":
        k2e = np.outer(k.k1[:lay.rows], k.k1)
    else:
        k2e = np.zeros((lay.rows, n))
    return k2e


def _require_closure(cfg: HierarchyConfig) -> None:
    # any nonzero kernel order couples the top represented order to the one
    # above it, so a closure rule is mandatory unless the integrals are cut
    # at the empty kernel order
    if cfg.closure == "none" and cfg.zeta_max >= 1:
        raise TruncationError(
            "the operator needs correlation orders beyond the truncation "
            f"(zeta_max = {cfg.zeta_max}); enable the 'zero' or 'poisson' closure")


def _operands(lay: _Layout, k: CorrelationVector, cfg: HierarchyConfig):
    """What both parts of one application read: the pair operand k2e, the
    order-one kernel integrals (cd1, cb1) = w * (Gd @ k1), w * (Gb @ k1)
    (Ad, Ab under support_one) and the composition gbk2 = w * (Gb @ k2),
    each None where no part reads it, and a (rows, N) work array that each
    part overwrites."""
    t = lay.t
    z = cfg.zeta_max
    k2e = _pair_operand(lay, k, cfg.closure)
    gbk2 = None
    if t.structure == "support_one":
        cd1 = lay.w * (t.Ad @ k.k1) if k.order >= 2 and cfg.closure == "poisson" and z >= 1 else None
        cb1 = lay.w * (t.Ab @ k.k1) if z >= 1 else None
    else:
        cd1, cb1 = lay.w * (t.Gd @ k.k1), lay.w * (t.Gb @ k.k1)
        # the singleton birth term reads gbk2 from kernel order 2, the pair one from 1
        if z >= (1 if k.order >= 2 else 2):
            gbk2 = lay.wmatmul(t.Gb, k2e)
    # the work array is made after gbk2, which outlives it as the pair
    # result; made first, it cost ~8 % more page faults on the evolve-dense
    # benchmark workload (glibc malloc)
    return k2e, (cd1, cb1), gbk2, np.empty_like(k2e)


def _order1_parts(t: KernelTables, lay: _Layout, k: CorrelationVector, k2e: np.ndarray,
                  c1: tuple, gbk2: Optional[np.ndarray], work: np.ndarray,
                  cfg: HierarchyConfig):
    """Death (excluding the diagonal kernel term) and birth sums at singletons.

    Returns (death_tail, birth_total) with the convention that the full
    dual-generator singleton component is -D1 * k1 - death_tail + birth_total.
    Of the operands of `_operands` it writes only `work`.
    """
    z = cfg.zeta_max
    cd1, cb1 = c1
    if t.structure == "support_one":
        death_tail = (lay.w * np.sum(np.multiply(t.Ad, k2e, out=work), axis=1) if z >= 1
                      else np.zeros(lay.rows))
        birth = k.k0 * t.B1
        if z >= 1:
            birth = birth + cb1
        return death_tail, birth

    rd2 = lay.w * np.sum(np.multiply(t.Gd, k2e, out=work), axis=1)
    # death: kernel order j >= 1 needs k^(1+j); exact at j = 1, closure above
    j_hi_d = z if cfg.closure == "poisson" else min(z, 1)
    death_tail = t.D1 * rd2 * _exp_series(cd1, 1, j_hi_d, shift=1)
    # birth: j = 0, 1 from k0, k1; j = 2 exact via k2; j > 2 by closure
    birth = k.k0 * t.B1
    if z >= 1:
        birth = birth + t.B1 * cb1
    j_hi_b = z if cfg.closure == "poisson" else min(z, 2)
    if j_hi_b >= 2:
        # sum_{j,l} Gb[i,j] k2[j,l] Gb[i,l]: one product, then row-wise dots
        qb2 = lay.w * np.sum(np.multiply(gbk2, t.Gb, out=work), axis=1)
        birth = birth + t.B1 * qb2 * _exp_series(cb1, 2, j_hi_b, shift=2)
    return death_tail, birth


def _order2_parts(t: KernelTables, lay: _Layout, k: CorrelationVector, k2e: np.ndarray,
                  c1: tuple, gbk2: Optional[np.ndarray], work: np.ndarray,
                  cfg: HierarchyConfig):
    """Death (excluding the diagonal term) and birth matrices at pairs,
    already symmetrized over which point of the pair plays the active role.

    Returns (death_tail, birth), two (rows, N) arrays that no operand
    shares.  The birth term is formed in gbk2 when there is one (Ab @ k2
    under support_one), so gbk2 must not be read after this call; `work`
    is overwritten.
    """
    z = cfg.zeta_max
    cd1, cb1 = c1
    if t.structure == "support_one":
        # k2 * (cd1[i] + cd1[j]) under the closure, else zero
        death_tail = np.zeros_like(k2e)
        if cd1 is not None:
            np.add(cd1[:, None], cd1[None, :], out=death_tail)
            np.multiply(k2e, death_tail, out=death_tail)
        product = lay.wmatmul(t.Ab, k2e) if z >= 1 else None
    else:
        # death: every kernel order j >= 1 exceeds the truncation, so closure
        # only; k2 * (a + a^T) for a = D2 * e[:, None], formed in work
        j_hi_d = z if cfg.closure == "poisson" else 0
        if j_hi_d >= 1:
            np.multiply(t.D2, _exp_series(cd1, 1, j_hi_d)[:, None], out=work)
        else:
            work.fill(0.0)
        death_tail = np.add(work, lay.transpose(work))
        np.multiply(k2e, death_tail, out=death_tail)
        # birth: j = 1 exact via k2, higher orders by closure
        j_hi_b = z if cfg.closure == "poisson" else min(z, 1)
        product = gbk2 if j_hi_b >= 1 else None
        if product is not None:
            np.multiply(t.B2, product, out=product)
            np.multiply(product, _exp_series(cb1, 1, j_hi_b, shift=1)[:, None], out=product)
    # bterm = B2 * k1[None, :] (+ the kernel product) in work, then bterm + bterm^T
    bterm = np.multiply(t.B2, k.k1[None, :], out=work)
    if product is not None:
        np.add(bterm, product, out=bterm)
    return death_tail, np.add(bterm, lay.transpose(bterm), out=product)


def _pack_like(k: CorrelationVector, out1: np.ndarray,
               out2: Optional[np.ndarray]) -> CorrelationVector:
    """Results in the stored form of k, with k0 = 0: a homogeneous density
    is constant and its pair function is the row-0 profile."""
    if k.homogeneous:
        out1 = np.full(k.grid.node_count, out1[0])
        out2 = None if out2 is None else out2[0]
    return replace(k, k0=0.0, k1=out1, k2=out2)


def _apply_tables(lay: _Layout, k: CorrelationVector, cfg: HierarchyConfig) -> CorrelationVector:
    _require_closure(cfg)
    t = lay.t
    k2e, c1, gbk2, work = _operands(lay, k, cfg)
    death_tail1, birth1 = _order1_parts(t, lay, k, k2e, c1, gbk2, work, cfg)
    out1 = -t.D1 * k.k1[:lay.rows] - death_tail1 + birth1
    out2 = None
    if k.order >= 2:
        # last: the pair parts overwrite gbk2
        death_tail2, out2 = _order2_parts(t, lay, k, k2e, c1, gbk2, work, cfg)
        # -k2e * diag - death_tail2 + birth2, into the birth term's array
        lead = np.negative(k2e, out=work)
        np.multiply(lead, lay.diag, out=lead)
        np.subtract(lead, death_tail2, out=lead)
        np.add(lead, out2, out=out2)
    return _pack_like(k, out1, out2)


def apply_dual_generator(model: RateModel, k: CorrelationVector,
                         cfg: HierarchyConfig = HierarchyConfig()) -> CorrelationVector:
    """Apply the dual generator of the (eps-renormalized) dynamics to k.

    The empty-configuration component of the result is always zero, so k0
    is conserved by the induced flow.
    """
    tables = model.hierarchy_tables(k.grid, cfg.eps)
    return _apply_tables(_layout(tables, k.grid, k.homogeneous, k.order), k, cfg)


def _ks_tables(lay: _Layout, k: CorrelationVector, cfg: HierarchyConfig,
               model_name: str) -> CorrelationVector:
    _require_closure(cfg)
    t = lay.t
    if np.min(t.D1) <= 0.0:
        raise ConditionError(
            f"model {model_name} has vanishing death rate at the empty "
            "configuration; the Kirkwood-Salzburg operator requires d(x, {}) > 0")
    k2e, c1, gbk2, work = _operands(lay, k, cfg)
    death_tail1, birth1 = _order1_parts(t, lay, k, k2e, c1, gbk2, work, cfg)
    out1 = (-death_tail1 + birth1) / t.D1
    out2 = None
    if k.order >= 2:
        # a circulant profile holds every entry of its table, so the
        # minimum over the profile is the minimum over all pairs
        if np.min(lay.diag) <= 0.0:
            raise ConditionError(f"model {model_name} has vanishing total death rate on a pair")
        # last: the pair parts overwrite gbk2
        death_tail2, out2 = _order2_parts(t, lay, k, k2e, c1, gbk2, work, cfg)
        # (-death_tail2 + birth2) / (D2 + D2^T), into the birth term's array
        np.negative(death_tail2, out=death_tail2)
        np.add(death_tail2, out2, out=out2)
        np.divide(out2, lay.diag, out=out2)
    return _pack_like(k, out1, out2)


def ks_operator(model: RateModel, k: CorrelationVector,
                cfg: HierarchyConfig = HierarchyConfig()) -> CorrelationVector:
    """Generalized Kirkwood-Salzburg operator S.

    Differs from the dual generator by dropping the empty kernel order in
    the death part and dividing by the total death rate of the argument
    configuration; S vanishes at the empty configuration.  Always uses the
    unscaled (eps = 1) kernels.
    """
    tables = model.hierarchy_tables(k.grid, eps=1.0)
    return _ks_tables(_layout(tables, k.grid, k.homogeneous, k.order), k, cfg, model.name)


@dataclass(frozen=True)
class StationaryResult:
    k_inv: CorrelationVector
    iterations: int
    q: float
    certificate: float       # a-priori geometric-series bound q^n ||E|| / (1 - q)
    residual: float          # || S k~ + E - k~ || at the returned iterate
    report: object
    a_posteriori_bound: float   # q / (1 - q) times the last increment
    increments: List[float]     # ||k_n - k_(n-1)|| of every iteration


def stationary_solve(model: RateModel, grid: Grid, C: float,
                     cfg: Optional[HierarchyConfig] = None,
                     tol: float = 1e-10, max_iter: int = 1000,
                     homogeneous: bool = True) -> StationaryResult:
    """Solve the stationary hierarchy equation by contraction iteration.

    Iterates k~ <- S k~ + E from zero, where E carries the newborn-density
    ratio b(x, {}) / d(x, {}) at singletons, and returns the vacuum plus
    the fixed point together with two error bounds: the a-priori
    geometric-series certificate q^n ||E|| / (1 - q) and the a-posteriori
    bound q / (1 - q) ||k_n - k_(n-1)|| from the last increment, which the
    stopping rule keeps at or below tol.  Requires the stationary condition
    a1 + a2/C < 2; refuses to iterate otherwise.
    """
    if cfg is None:
        cfg = HierarchyConfig(eps=1.0)
    report = check_conditions(model, C, grid)
    q = report.contraction_q
    if not report.bound_2 or q >= 1.0:
        raise ConditionError(
            f"contraction factor q = {q:.4f} >= 1 (a1 + a2/C = {report.sum_a:.4f}); "
            "the stationary iteration requires a1 + a2/C < 2")

    tables = model.hierarchy_tables(grid, eps=1.0)
    if np.min(tables.D1) <= 0.0:
        raise ConditionError("stationary solve requires d(x, {}) > 0 everywhere")

    # the defect source E lives on singletons only: b(x, {}) / d(x, {})
    e1 = tables.B1 / tables.D1
    e_norm = _weighted_sup(C, None, e1)

    threshold = tol * (1.0 - q) / q if q > 0 else tol
    lay = _layout(tables, grid, homogeneous)
    k = CorrelationVector.zero(grid, C, order=2, homogeneous=homogeneous)
    increments = []
    for iterations in range(1, max_iter + 1):
        nxt = _ks_tables(lay, k, cfg, model.name)
        nxt = replace(nxt, k1=nxt.k1 + e1)
        inc = nxt.diff_norm(k)
        increments.append(inc)
        if not math.isfinite(inc):
            raise ConditionError(f"stationary iteration {iterations} has a non-finite "
                                 f"increment norm {inc}")
        k = nxt
        if inc <= threshold:
            break
    else:
        raise ConditionError(f"stationary iteration did not converge in {max_iter} steps")

    resid_vec = _ks_tables(lay, k, cfg, model.name)
    residual = _weighted_sup(C, None, resid_vec.k1 + e1 - k.k1,
                             None if k.k2 is None else resid_vec.k2 - k.k2)
    certificate = q ** iterations * e_norm / (1.0 - q) if q > 0 else 0.0

    k_inv = replace(k, k0=1.0)
    return StationaryResult(k_inv=k_inv, iterations=iterations, q=q,
                            certificate=certificate, residual=residual, report=report,
                            a_posteriori_bound=q / (1.0 - q) * increments[-1],
                            increments=increments)


def _check_horizon(T: float) -> None:
    """A ValueError unless T is a finite time >= 0."""
    if not (T >= 0 and math.isfinite(T)):
        raise ValueError(f"T = {T} is not a finite time >= 0")


class _TimeSteps:
    """The RK4 engine of `evolve` and `vlasov.integrate`.  It takes the fewest
    equal steps (`count` of `dt`, none when T = 0) of at most dt to reach T;
    `served` is the step nearest each requested time (default: T), and the
    state at T is kept too, each labelled step * dt.  A ValueError names a
    dt, T or snapshot time out of range; a StabilityError, a dt above `bound`."""

    def __init__(self, T: float, dt: float, snapshot_times: Optional[Sequence[float]],
                 bound: float):
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError(f"dt = {dt} is not a positive finite time step")
        _check_horizon(T)
        requested = [T] if snapshot_times is None else list(snapshot_times)
        for t in requested:
            if not 0 <= t <= T + 1e-12:
                raise ValueError(f"snapshot time {t} lies outside [0, T = {T}]")
        if dt > bound * (1.0 + 1e-12):
            raise StabilityError(f"dt = {dt} exceeds the stability guard {bound}")
        self.count = max(1, math.ceil(T / dt - 1e-12)) if T > 0 else 0
        self.dt = T / self.count if self.count else dt
        self.served = [min(self.count, int(round(t / self.dt))) for t in requested]

    def run(self, state, rhs: Callable, axpy: Callable, check: Callable) -> tuple:
        """Step `state` by RK4 of the engine's `rhs(y)`, `axpy(y, c, f)` (a new
        y + c f) and `check(y, t)` (y at time t, checked).  Returns the kept
        times and states, and `served` as indices."""
        kept = sorted(set(self.served) | {self.count})
        index = {s: j for j, s in enumerate(kept)}
        states = [state] if 0 in index else []
        h = self.dt
        for i in range(1, self.count + 1):
            acc = stage = state
            # a stage's weight in acc, then the next stage's node (none after f4)
            for w, c in ((h / 6.0, 0.5 * h), (h / 3.0, 0.5 * h), (h / 3.0, h), (h / 6.0, 0.0)):
                f = rhs(stage)
                acc = axpy(acc, w, f)
                stage = axpy(state, c, f) if c else None
                del f   # released before the next stage's derivative is made
            state = check(acc, i * h)
            if i in index:
                states.append(state)
        return [s * h for s in kept], states, [index[s] for s in self.served]


@dataclass(frozen=True)
class EvolveResult:
    times: List[float]
    snapshots: List[CorrelationVector]
    norms: List[float]
    dt: float
    served: List[int]        # index in times of the snapshot serving each requested time

    def final(self) -> CorrelationVector:
        return self.snapshots[-1]


def _stability_guard(t: KernelTables, grid: Grid, order: int) -> float:
    """Explicit-stepper guard 1 / (2 sup D) over represented configurations.

    The pair total D2 + D2^T at offset o is p[o] + p[-o] for the profile
    p, and every offset occurs in the pair table, so the profile gives the
    supremum over all pairs."""
    for name in ("D1", "D2")[:order]:
        if not np.all(np.isfinite(getattr(t, name))):
            raise ConditionError(f"hierarchy table {name} holds a non-finite death rate")
    sup_d = float(np.max(t.D1))
    if order >= 2:
        sup_d = max(sup_d, float(np.max(t.D2 + t.D2[grid.negated_offset])))
    return 1.0 / (2.0 * sup_d) if sup_d > 0 else math.inf


def evolve(model: RateModel, k0: CorrelationVector, T: float,
           dt: Optional[float] = None,
           cfg: HierarchyConfig = HierarchyConfig(),
           snapshot_times: Optional[Sequence[float]] = None,
           norm_guard: float = 10.0,
           check: bool = True) -> EvolveResult:
    """Integrate the truncated hierarchy ODE with classical RK4.

    dt defaults to half the stability guard; an explicit dt above the
    guard raises.  The run takes ceil(T / dt) equal steps; each requested
    snapshot time (default: T) is served by its nearest step, as `served`
    records, the state at T is always kept, and a snapshot's time is
    step * dt.  A dt, T or snapshot time out of range raises ValueError.  The
    Ruelle norm is tracked per step and the run aborts when it exceeds
    `norm_guard` times the initial norm (a symptom of violated conditions
    or too large a step).
    """
    grid = k0.grid
    tables = model.hierarchy_tables(grid, cfg.eps)
    bound = _stability_guard(tables, grid, k0.order)
    if dt is None:
        dt = min(0.5 * bound, T) if T > 0 else bound
    steps = _TimeSteps(T, dt, snapshot_times, bound)

    if check:
        report = check_conditions(model, max(k0.C, 1.0 + 1e-9), grid)
        if not report.bound_3_2:
            warnings.warn(
                f"conditions do not certify the evolution: a1 + a2/C = {report.sum_a:.4f} >= 3/2",
                RuntimeWarning)

    norm0 = max(k0.ruelle_norm(), 1e-300)
    lay = _layout(tables, grid, k0.homogeneous, k0.order)

    def guard(k: CorrelationVector, t: float) -> CorrelationVector:
        norm = k.ruelle_norm()
        if not np.isfinite(norm) or norm > norm_guard * norm0:
            raise BlowUpError(
                f"hierarchy norm {norm:.3e} is not finite or exceeds {norm_guard} x initial "
                f"at t = {t:.4f}; check the sufficient conditions or reduce dt")
        return k

    times, snaps, served = steps.run(k0, lambda k: _apply_tables(lay, k, cfg),
                                     CorrelationVector._lin, guard)
    return EvolveResult(times, snaps, [k.ruelle_norm() for k in snaps], steps.dt, served)


# ---------------------------------------------------------------------------
# forward operator on quasi-observables (duality test partner)


def apply_forward_generator(model: RateModel, G: QuasiObservable,
                            eps: float = 1.0) -> QuasiObservable:
    """Apply the forward hierarchy operator to a finite-support test vector.

    Implements the subset-sum expression of the transformed generator:
    a signed sum over subconfigurations weighted by the death kernels plus
    a birth integral over the grid, evaluated on all configurations of
    order up to two.  Together with :func:`dual_pairing` this provides the
    adjointness check against :func:`apply_dual_generator`.
    """
    grid = G.grid
    lay = _DenseLayout(model.hierarchy_tables(grid, eps), grid)
    t = lay.t
    w = grid.weight
    g1, g2 = G.g1, G.g2

    if t.structure == "separable":
        kb1 = t.B1[:, None] * t.Gb          # birth kernel at a singleton
        kd1 = t.D1[:, None] * t.Gd          # death kernel at a singleton
    else:
        kb1 = t.Ab
        kd1 = t.Ad

    out0 = w * float(g1 @ t.B1)

    out1 = (-g1 * t.D1
            + w * (g1 @ kb1)
            + w * np.einsum("ga,ga->a", g2, t.B2))

    dterm = g1[:, None] * kd1
    death2 = -(dterm + dterm.T) - g2 * lay.diag
    if t.structure == "separable":
        birth_pair = w * np.einsum("ga,ga,gb->ab", g2, t.B2, t.Gb)
        birth_empty = w * np.einsum("g,ga,gb->ab", g1 * t.B1, t.Gb, t.Gb)
    else:
        birth_pair = w * np.einsum("ga,gb->ab", g2, t.Ab)
        birth_empty = np.zeros_like(g2)
    out2 = death2 + birth_pair + birth_pair.T + birth_empty

    return QuasiObservable(grid, G.C, out0, out1, out2)
