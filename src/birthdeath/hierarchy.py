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
product (the composition with k2 over the kernel's support only).  A
homogeneous (translation-invariant) state has a constant density and a
pair function of the node offset, so all tables involved are circulant
and each is carried by its row 0, which is the profile itself.  Kernel
compositions then become periodic convolutions by FFT, row sums become
dot products and transposition becomes the offset reversal o -> -o, so
one application costs O(N log N) and a run holds only length-N rows.  The
dense layout is the reference the homogeneous one is tested against.

An application writes into a workspace of three (rows, N) arrays (see
`_Workspace`).  `evolve` makes one per run, and its RK4 steps write into
buffers that last the run; every other application makes its own, so
the results it returns share no memory with each other or their operands.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .conditions import check_conditions
from .errors import BlowUpError, ConditionError, StabilityError, TruncationError
from .models import KernelTables, RateModel
from .space import Grid, periodic_sum

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


def _sup_abs(a: np.ndarray) -> float:
    """max |a| (0 if empty, NaN with a NaN) without an |a| temporary; + 0.0
    turns a -0.0 into 0.0."""
    return max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0))) + 0.0


def _weighted_sup(C: float, k0: Optional[float], k1: np.ndarray,
                  k2: Optional[np.ndarray] = None) -> float:
    """The truncated weighted sup norm max(|k0|, sup |k1| / C, sup |k2| / C^2)
    of the orders present (None: absent); NaN when any order holds a NaN."""
    terms = [_sup_abs(k1) / C]
    if k0 is not None:
        terms.append(abs(k0))
    if k2 is not None:
        terms.append(_sup_abs(k2) / C ** 2)
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

    def _axpy(self, coef: float, vec: "CorrelationVector", out: Optional["CorrelationVector"],
              work: np.ndarray) -> "CorrelationVector":
        """self + coef * vec over the represented orders into the arrays of
        `out` (a new vector when None; k0 kept), coef * vec formed in the
        float array `work`: the bits of `self.k2 + coef * vec.k2`."""
        if out is None:   # zeros: a homogeneous vector's k1 must be constant
            out = replace(self, k1=np.zeros_like(self.k1),
                          k2=None if self.k2 is None else np.empty_like(self.k2))
        flat = work.reshape(-1)
        for y, f, o in ((self.k1, vec.k1, out.k1), (self.k2, vec.k2, out.k2)):
            if y is not None:
                np.add(y, np.multiply(f, coef, out=flat[:y.size].reshape(y.shape)), out=o)
        return out

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
    """sum_{j=j_lo}^{j_hi} x^(j - shift) / j!  (elementwise, j_hi < j_lo -> 0).

    The terms are added to 0.0 in order of j, as to an array of zeros (which
    keeps the sign of a zero sum and every NaN), and the x^0 term is the
    number 1 / j!, as x ** 0 is 1 even at NaN and inf."""
    out = 0.0
    for j in range(j_lo, j_hi + 1):
        p = j - shift
        out = out + (x ** p if p else 1.0) / math.factorial(j)
    return out if isinstance(out, np.ndarray) else np.full_like(x, out)


#: rows of the pair table in one block of a kernel composition on the dense
#: layout (at least one grid line).  One Gb @ k2 with a reach of 25 lines at
#: d = 1, M = 256 (OpenBLAS, one thread) took 0.50 ms whole, 0.18 ms in blocks
#: of 16 or 32 rows and 0.31 ms in blocks of 64; at d = 2, M = 48 (reach 4
#: lines) it took 0.31 s whole, 0.088 s by single lines and 0.093 s by four.
_BLOCK_ROWS = 32


class _Layout:
    """The operands of one run: the kernel tables `t` in the layout of its
    states, `D2T`, the transposed pair death rate D2^T in the same layout
    (None at order one), and `diag`, the total death rate D2 + D2^T of a
    pair, formed on first use.  Every array is read-only.

    `compose(b, out)` writes the kernel composition K @ b, without
    quadrature weight, into `out`, for K the table of the birth kernel
    integral: Gb, or Ab under support_one."""

    t: KernelTables
    D2T: Optional[np.ndarray]
    rows: int
    w: float

    def transpose(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def kernel(self) -> np.ndarray:
        """K, the table that `compose` applies."""
        return self.t.Gb if self.t.structure == "separable" else self.t.Ab

    @functools.cached_property
    def diag(self) -> np.ndarray:
        diag = self.t.D2 + self.D2T
        diag.setflags(write=False)
        return diag


def _read_only(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is not None:
        a.setflags(write=False)
    return a


def _composition_blocks(grid: Grid, profile: np.ndarray) -> list:
    """(rows, cols) of each block of K @ b for K = profile[offset_index]:
    the rows of a block of grid lines along axis 0, and the rows of b within
    the reach of the profile, a slice or, for a window that wraps around the
    torus, an index array.  The reach is the largest axis-0 offset, in
    lines, at which the profile is non-zero (a NaN counts as non-zero), so
    K is exactly 0.0 outside the window.  A window that covers the torus
    makes one block, the whole product."""
    m, n = grid.m, grid.node_count
    line = n // m                       # nodes per grid line
    o0 = np.flatnonzero(profile != 0) // line
    reach = int(np.max(np.minimum(o0, m - o0), initial=0))
    lines = max(1, _BLOCK_ROWS // line)
    if lines + 2 * reach >= m:
        return [(slice(None), slice(None))]
    blocks = []
    for start in range(0, m, lines):
        stop = min(start + lines, m)
        lo, hi = start - reach, stop + reach
        cols = slice(lo * line, hi * line) if 0 <= lo and hi <= m \
            else np.arange(lo * line, hi * line) % n
        blocks.append((slice(start * line, stop * line), cols))
    return blocks


class _DenseLayout(_Layout):
    """Operands as stored: (N, N) tables indexed by node pairs, each
    gathered once from its offset profile, `profile[grid.offset_index]`,
    and D2^T from the reversed profile, `profile[negated_offset]`; the index
    table is freed once they are.  States of order one read no pair rates,
    so at `order` 1 the layout holds None for D2, D2T and B2 instead of
    gathering them.

    A composition runs one matrix product per block of grid lines, against
    the rows of b within the kernel's reach (see `_composition_blocks`)."""

    def __init__(self, t: KernelTables, grid: Grid, order: int = 2):
        self.rows = grid.node_count
        self.w = grid.weight
        if order < 2:
            t = replace(t, D2=None, B2=None)
        index = grid.offset_index
        self.D2T = None if t.D2 is None else _read_only(t.D2[grid.negated_offset][index])
        self.t = t.map_pairs(lambda p: p[index])
        self.blocks = _composition_blocks(grid, self.kernel[0])   # row 0: the profile

    def compose(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        kernel = self.kernel
        for rows, cols in self.blocks:
            np.matmul(kernel[rows, cols], b[cols], out=out[rows])
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
    compositions (periodic sums) and transposition (the offset reversal
    o -> -o) differ.
    """

    rows = 1

    def __init__(self, t: KernelTables, grid: Grid):
        self.grid = grid
        self.w = grid.weight
        self.t = replace(t.map_pairs(lambda p: p[None, :]), D1=t.D1[:1], B1=t.B1[:1])
        self.D2T = None if t.D2 is None else _read_only(t.D2[grid.negated_offset][None, :])

    def compose(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[0] = periodic_sum(self.grid, self.kernel, b)
        return out

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


# The (rows, N) arrays an application writes: `product` takes the kernel
# composition Gb @ k2 (Ab @ k2 under support_one) and then the pair result,
# `work` is scratch that each part overwrites, and `death` takes the pair
# death term (None for states of order one, which have no pair result).
_Workspace = namedtuple("_Workspace", "product work death")


def _workspace(lay: _Layout, k: CorrelationVector) -> _Workspace:
    """A workspace for applications to states of k's layout and order."""
    shape = (lay.rows, k.grid.node_count)
    return _Workspace(np.empty(shape), np.empty(shape),
                      np.empty(shape) if k.order >= 2 else None)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[i, j] b[i, j] for each row i, in one pass without a product table."""
    return np.einsum("ij,ij->i", a, b)


def _operands(lay: _Layout, k: CorrelationVector, cfg: HierarchyConfig,
              ws: Optional[_Workspace]):
    """What both parts of one application read: the pair operand k2e, the
    order-one kernel integrals (cd1, cb1) = w * (Gd @ k1), w * (Gb @ k1)
    (Ad, Ab under support_one) and the composition `lay.compose(k2e)`,
    Gb @ k2 (Ab @ k2) without quadrature weight, in `ws.product`, each None
    where no part reads it, and the workspace: `ws`, or a new one when None."""
    t = lay.t
    z = cfg.zeta_max
    k2e = _pair_operand(lay, k, cfg.closure)
    ws = _workspace(lay, k) if ws is None else ws
    if t.structure == "support_one":
        cd1 = lay.w * (t.Ad @ k.k1) if k.order >= 2 and cfg.closure == "poisson" and z >= 1 else None
        cb1 = lay.w * (t.Ab @ k.k1) if z >= 1 else None
        # only the pair birth term reads a composition, from kernel order 1
        composed = k.order >= 2 and z >= 1
    else:
        cd1, cb1 = lay.w * (t.Gd @ k.k1), lay.w * (t.Gb @ k.k1)
        # the singleton birth term reads it from kernel order 2, the pair one from 1
        composed = z >= (1 if k.order >= 2 else 2)
    product = lay.compose(k2e, ws.product) if composed else None
    return k2e, (cd1, cb1), product, ws


def _order1_parts(t: KernelTables, lay: _Layout, k: CorrelationVector, k2e: np.ndarray,
                  c1: tuple, product: Optional[np.ndarray], cfg: HierarchyConfig):
    """Death (excluding the diagonal kernel term) and birth sums at singletons.

    Returns (death_tail, birth_total) with the convention that the full
    dual-generator singleton component is -D1 * k1 - death_tail + birth_total.
    It writes none of the operands of `_operands`.
    """
    z = cfg.zeta_max
    cd1, cb1 = c1
    if t.structure == "support_one":
        death_tail = lay.w * _row_dots(t.Ad, k2e) if z >= 1 else np.zeros(lay.rows)
        birth = k.k0 * t.B1
        if z >= 1:
            birth = birth + cb1
        return death_tail, birth

    rd2 = lay.w * _row_dots(t.Gd, k2e)
    # death: kernel order j >= 1 needs k^(1+j); exact at j = 1, closure above
    j_hi_d = z if cfg.closure == "poisson" else min(z, 1)
    death_tail = t.D1 * rd2 * _exp_series(cd1, 1, j_hi_d, shift=1)
    # birth: j = 0, 1 from k0, k1; j = 2 exact via k2; j > 2 by closure
    birth = k.k0 * t.B1
    if z >= 1:
        birth = birth + t.B1 * cb1
    j_hi_b = z if cfg.closure == "poisson" else min(z, 2)
    if j_hi_b >= 2:
        # w^2 sum_{j,l} Gb[i,j] k2[j,l] Gb[i,l]: row dots of the composition with Gb
        qb2 = lay.w ** 2 * _row_dots(product, t.Gb)
        birth = birth + t.B1 * qb2 * _exp_series(cb1, 2, j_hi_b, shift=2)
    return death_tail, birth


def _order2_parts(t: KernelTables, lay: _Layout, k: CorrelationVector, k2e: np.ndarray,
                  c1: tuple, product: Optional[np.ndarray], ws: _Workspace,
                  cfg: HierarchyConfig, rates: bool):
    """Death and birth terms at pairs, each summed over which point of the
    pair plays the active role.

    Returns (death, birth): the death term k2 * F in `ws.death`, with the
    death rates D2 + D2^T of the pair in F when `rates` and without them
    otherwise, and the birth term in `ws.work`.  The birth term is formed
    in `product` (Gb @ k2, Ab @ k2 under support_one), so it must not be
    read after this call; `ws.product` is overwritten.
    """
    z = cfg.zeta_max
    cd1, cb1 = c1
    work, death = ws.work, ws.death
    # death: F = f(D2, v[:, None]) + f(D2^T, v[None, :]); D2^T is held as a
    # table of its own, so no pass reads a transposed array
    if t.structure == "support_one":
        # f = +, v = cd1 under the closure (else 0); without the rates,
        # F = v[:, None] + v[None, :]
        f, v = np.add, np.zeros(lay.rows) if cd1 is None else cd1
        d2, d2t = (t.D2, lay.D2T) if rates else (0.0, 0.0)
    else:
        # f = *, v = 1 + e (e without the rates) for the closure series e:
        # every kernel order j >= 1 exceeds the truncation
        j_hi_d = z if cfg.closure == "poisson" else 0
        f, v = np.multiply, _exp_series(cd1, 1, j_hi_d)
        d2, d2t = t.D2, lay.D2T
        if rates:
            v = 1.0 + v
    with np.errstate(over="ignore"):   # an overflow is inf, which the norm guards see
        f(d2, v[:, None], out=death)
        np.add(death, f(d2t, v[None, :], out=work), out=death)
        np.multiply(death, k2e, out=death)
        # birth: bterm = B2 * k1[None, :] plus the kernel integral, then bterm + bterm^T
        if product is None:
            bterm = np.multiply(t.B2, k.k1[None, :], out=ws.product)
        elif t.structure == "support_one":
            # + w * (Ab @ k2), exact at kernel order 1
            bterm = np.multiply(product, lay.w, out=product)
            np.add(bterm, np.multiply(t.B2, k.k1[None, :], out=work), out=bterm)
        else:
            # B2 * (P * (w e)[:, None] + k1[None, :]) for P = Gb @ k2 and the
            # series e: j = 1 exact via k2, higher orders by closure
            j_hi_b = z if cfg.closure == "poisson" else min(z, 1)
            scale = lay.w * _exp_series(cb1, 1, j_hi_b, shift=1)
            bterm = np.multiply(product, scale[:, None], out=product)
            np.add(bterm, k.k1[None, :], out=bterm)
            np.multiply(bterm, t.B2, out=bterm)
        return death, np.add(bterm, lay.transpose(bterm), out=work)


def _pack_like(k: CorrelationVector, out1: np.ndarray,
               out2: Optional[np.ndarray]) -> CorrelationVector:
    """Results in the stored form of k, with k0 = 0: a homogeneous density
    is constant and its pair function is the row-0 profile."""
    if k.homogeneous:
        out1 = np.full(k.grid.node_count, out1[0])
        out2 = None if out2 is None else out2[0]
    return replace(k, k0=0.0, k1=out1, k2=out2)


def _apply_tables(lay: _Layout, k: CorrelationVector, cfg: HierarchyConfig,
                  ws: Optional[_Workspace] = None) -> CorrelationVector:
    """The dual generator applied to k; the pair result is `ws.product`
    (of a new workspace when ws is None)."""
    _require_closure(cfg)
    t = lay.t
    k2e, c1, product, ws = _operands(lay, k, cfg, ws)
    death_tail1, birth1 = _order1_parts(t, lay, k, k2e, c1, product, cfg)
    out1 = -t.D1 * k.k1[:lay.rows] - death_tail1 + birth1
    out2 = None
    if k.order >= 2:
        # last: the pair parts overwrite the composition
        death2, birth2 = _order2_parts(t, lay, k, k2e, c1, product, ws, cfg, rates=True)
        out2 = np.subtract(birth2, death2, out=ws.product)
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
    k2e, c1, product, ws = _operands(lay, k, cfg, None)
    death_tail1, birth1 = _order1_parts(t, lay, k, k2e, c1, product, cfg)
    out1 = (-death_tail1 + birth1) / t.D1
    out2 = None
    if k.order >= 2:
        # a circulant profile holds every entry of its table, so the
        # minimum over the profile is the minimum over all pairs
        if np.min(lay.diag) <= 0.0:
            raise ConditionError(f"model {model_name} has vanishing total death rate on a pair")
        # last: the pair parts overwrite the composition
        death2, birth2 = _order2_parts(t, lay, k, k2e, c1, product, ws, cfg, rates=False)
        # (birth2 - death2) / (D2 + D2^T), into the composition's array
        out2 = np.subtract(birth2, death2, out=ws.product)
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
        """Step `state` by RK4 of the engine's `rhs(y)`, `axpy(y, c, f, out)`
        (y + c f written into and returning `out`, a new state when None)
        and `check(y, t)` (y at time t, checked, or a new state).  Returns
        the kept times and states, and `served` as indices.

        The engine writes only into the accumulator and the stage node it
        made; after a step the old state's buffer takes the next sums,
        unless it is the caller's initial state or a kept one."""
        kept = sorted(set(self.served) | {self.count})
        index = {s: j for j, s in enumerate(kept)}
        states = [state] if 0 in index else []
        h = self.dt
        acc = node = None   # the engine's buffers, made on first use
        writable = False    # whether the engine may write into `state`
        for i in range(1, self.count + 1):
            total = stage = state
            # a stage's weight in acc, then the next stage's node (none after f4)
            for w, c in ((h / 6.0, 0.5 * h), (h / 3.0, 0.5 * h), (h / 3.0, h), (h / 6.0, 0.0)):
                f = rhs(stage)
                total = acc = axpy(total, w, f, acc)
                if c:
                    stage = node = axpy(state, c, f, node)
                del f   # released before the next stage's derivative is made
            done = check(acc, i * h)
            acc = state if writable else None
            state, writable = done, i not in index
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

    # one workspace for the run: each derivative lives in it until the next
    # application, and the steps form c * f in its work array
    ws = _workspace(lay, k0)
    times, snaps, served = steps.run(k0, lambda k: _apply_tables(lay, k, cfg, ws),
                                     lambda y, c, f, out: y._axpy(c, f, out, ws.work), guard)
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
