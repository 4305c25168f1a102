import dataclasses
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, CorrelationVector, GaussianKernel,
                        GlauberModel, HierarchyConfig, KernelTables,
                        QuasiObservable, apply_dual_generator,
                        apply_forward_generator, check_conditions,
                        detailed_balance_bdlp, dual_pairing, evolve, ks_operator,
                        normalize_on_grid, stationary_solve)
from birthdeath.errors import (BlowUpError, ConditionError, StabilityError,
                               TruncationError)
from birthdeath import hierarchy
from birthdeath.hierarchy import _apply_tables, _ks_tables, _layout, _stability_guard
from birthdeath.space import Grid, Torus


@pytest.fixture
def kernel16(grid16):
    return normalize_on_grid(BoxKernel(1.0, 0.1), grid16)


@pytest.fixture
def db_model(torus1, kernel16):
    # birth = 0.5 * death: the density-0.5 field is invariant
    return detailed_balance_bdlp(torus1, m=1.0, kappa_minus=0.15, z=0.5, kernel=kernel16)


def random_vector(rng, grid, C, homogeneous=False):
    n = grid.node_count
    if homogeneous:
        # translation invariance: constant density, even offset pair function
        k1 = np.full(n, rng.normal())
        k2 = rng.normal(size=n)
        k2 = 0.5 * (k2 + k2[grid.negated_offset])
    else:
        k1 = rng.normal(size=n)
        k2 = rng.normal(size=(n, n))
        k2 = 0.5 * (k2 + k2.T)
    return CorrelationVector(grid, C, rng.normal(), k1, k2, homogeneous=homogeneous)


def oracle_models(torus):
    """One model per kernel structure, with kernels reaching several nodes."""
    return [GlauberModel(torus, s=0.5, z=0.3, phi=GaussianKernel(0.4, 0.15, 0.35)),
            BDLPModel(torus, m=1.1, kappa_minus=0.25, kappa_plus=0.3,
                      a_minus=GaussianKernel(1.0, 0.1, 0.3),
                      a_plus=GaussianKernel(0.8, 0.15, 0.35), kappa=0.5)]


def assert_close_to_dense(fast, dense, case):
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(fast - dense)) <= 1e-12 * scale, case


class TestVectorBasics:
    def test_ruelle_norm(self, grid16):
        n = grid16.node_count
        k = CorrelationVector(grid16, 2.0, 1.0, np.full(n, 3.0), np.full((n, n), 6.0))
        assert k.ruelle_norm() == pytest.approx(max(1.0, 3.0 / 2.0, 6.0 / 4.0))

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_norms_of_finite_vectors(self, homogeneous):
        grid = Grid(Torus(1, 1.0), 8)
        n, C = grid.node_count, 2.0
        k2 = np.full(n, -6.0) if homogeneous else np.full((n, n), -6.0)
        k = CorrelationVector(grid, C, 1.0, np.full(n, 3.0), k2, homogeneous=homogeneous)
        zero = CorrelationVector.zero(grid, C, homogeneous=homogeneous)
        assert k.ruelle_norm() == max(1.0, 3.0 / C, 6.0 / C ** 2)
        assert k.diff_norm(zero) == k.ruelle_norm()
        assert zero.diff_norm(zero) == 0.0
        order1 = CorrelationVector(grid, C, -0.5, np.full(n, 0.4))
        assert order1.ruelle_norm() == 0.5
        assert order1.diff_norm(zero) == 0.5

    @pytest.mark.parametrize("order", ["k0", "k1", "k2", "all"])
    def test_a_nan_in_any_order_makes_the_norm_nan(self, order):
        # Python's max(0.0, nan) is 0.0: a NaN iterate must not read as norm 0
        grid = Grid(Torus(1, 1.0), 8)
        n = grid.node_count
        zero = CorrelationVector.zero(grid, 1.5)
        k0 = math.nan if order in ("k0", "all") else 0.0
        k1 = np.zeros(n)
        k2 = np.zeros((n, n))
        if order in ("k1", "all"):
            k1[3] = math.nan
        if order in ("k2", "all"):
            k2[2, 5] = k2[5, 2] = math.nan
        k = CorrelationVector(grid, 1.5, k0, k1, k2)
        assert math.isnan(k.ruelle_norm())
        assert math.isnan(k.diff_norm(zero))
        assert math.isnan(zero.diff_norm(k))

    def test_homogeneous_materialization(self, grid16, rng):
        k = random_vector(rng, grid16, 1.5, homogeneous=True)
        full = k.k2_full()
        off = grid16.offset_index
        assert np.array_equal(full, k.k2[off])
        assert np.allclose(full, full.T)

    def test_homogeneous_needs_constant_density(self, grid16):
        n = grid16.node_count
        with pytest.raises(ValueError, match="constant density"):
            CorrelationVector(grid16, 1.5, 1.0, np.linspace(0.2, 0.3, n), np.zeros(n),
                              homogeneous=True)

    def test_coherent_vector(self, grid16):
        rho = np.linspace(0.1, 0.5, grid16.node_count)
        k = CorrelationVector.coherent(grid16, 1.5, rho)
        assert k.k0 == 1.0
        assert np.allclose(k.k2, np.outer(rho, rho))


class TestDualGeneratorOracle:
    def test_bdlp_order_one_closed_form(self, torus1, grid16, kernel16, rng):
        # independent expansion: (L*k)(x) = -m k1(x) - kminus int a-(x-y) k2(x,y) dy
        #                                   + kappa + kplus int a+(x-y) k1(y) dy
        model = BDLPModel(torus1, m=1.3, kappa_minus=0.2, kappa_plus=0.4,
                          a_minus=kernel16, a_plus=kernel16, kappa=0.7)
        k = random_vector(rng, grid16, 1.5)
        out = apply_dual_generator(model, k, HierarchyConfig(closure="poisson"))
        w = grid16.weight
        at = kernel16.profile(grid16)[grid16.offset_index]
        expect = (-model.m * k.k1
                  - model.kappa_minus * w * np.sum(at * k.k2, axis=1)
                  + model.kappa * k.k0
                  + model.kappa_plus * w * (at @ k.k1))
        assert np.allclose(out.k1, expect, atol=1e-12)

    def test_bdlp_order_two_closed_form(self, torus1, kernel16, rng):
        grid = Grid(torus1, 8)
        a = normalize_on_grid(BoxKernel(1.0, 0.15), grid)
        model = BDLPModel(torus1, m=1.1, kappa_minus=0.25, kappa_plus=0.3,
                          a_minus=a, a_plus=a, kappa=0.5)
        k = random_vector(rng, grid, 1.5)
        out = apply_dual_generator(model, k, HierarchyConfig(closure="poisson"))
        w = grid.weight
        at = a.profile(grid)[grid.offset_index]
        n = grid.node_count
        expect = np.zeros((n, n))
        for i in range(n):
            for m_ in range(n):
                total = 0.0
                for x, o in ((i, m_), (m_, i)):
                    d_xo = model.m + model.kappa_minus * at[x, o]
                    b_xo = model.kappa + model.kappa_plus * at[x, o]
                    # death: exact pair term plus closed third order
                    total -= d_xo * k.k2[x, o]
                    k3 = k.k2[i, m_] * k.k1  # peeled closure
                    total -= model.kappa_minus * w * float(at[x] @ k3)
                    # birth: empty kernel order plus singleton dispersal
                    total += b_xo * k.k1[o]
                    total += model.kappa_plus * w * float(at[x] @ k.k2[o])
                expect[i, m_] = total
        assert np.allclose(out.k2, expect, atol=1e-12)

    def test_vacuum_input(self, torus1, grid16, kernel16):
        modified = BDLPModel(torus1, m=1.0, kappa_minus=0.1, kappa_plus=0.1,
                             a_minus=kernel16, a_plus=kernel16, kappa=0.6)
        plain = BDLPModel(torus1, m=1.0, kappa_minus=0.1, kappa_plus=0.1,
                          a_minus=kernel16, a_plus=kernel16)
        vac = CorrelationVector.vacuum(grid16, 1.5)
        out_mod = apply_dual_generator(modified, vac)
        out_plain = apply_dual_generator(plain, vac)
        assert np.allclose(out_mod.k1, 0.6)
        assert np.allclose(out_plain.k1, 0.0)
        assert out_mod.k0 == 0.0

    def test_detailed_balance_geometric_state_is_stationary(self, db_model, grid16):
        z = 0.5
        k = CorrelationVector.coherent(grid16, 2.0, z, homogeneous=True)
        out = apply_dual_generator(db_model, k, HierarchyConfig(closure="poisson"))
        assert np.max(np.abs(out.k1)) < 1e-8
        assert np.max(np.abs(out.k2)) < 1e-8

    def test_disabled_closure_raises_when_needed(self, db_model, grid16, rng):
        k = random_vector(rng, grid16, 1.5)
        with pytest.raises(TruncationError, match="closure"):
            apply_dual_generator(db_model, k, HierarchyConfig(closure="none"))
        # with the integrals cut at the empty kernel order nothing beyond
        # the truncation is touched
        out = apply_dual_generator(db_model, k,
                                   HierarchyConfig(zeta_max=0, closure="none"))
        assert np.all(np.isfinite(out.k1))

    def test_homogeneous_matches_full(self, rng):
        # the circulant layout of homogeneous states against the dense
        # layout on the same vector, over the whole configuration space
        cases = [(closure, z) for closure in ("zero", "poisson") for z in range(4)]
        cases.append(("none", 0))
        calls = [(apply_dual_generator, eps) for eps in (1.0, 0.3, 0.0)]
        calls.append((ks_operator, 1.0))    # S always uses the eps = 1 kernels
        # M = 20 puts the Gaussian cutoffs 0.3 and 0.35 on node distances,
        # where every pair at one offset must still get one kernel value
        for torus, m in ((Torus(1, 1.0), 16), (Torus(1, 1.0), 20), (Torus(2, 1.0), 8)):
            grid = Grid(torus, m)
            for model in oracle_models(torus):
                for order in (1, 2):
                    k_h = random_vector(rng, grid, 1.5, homogeneous=True)
                    if order == 1:
                        k_h = replace(k_h, k2=None)
                    k_f = replace(k_h, k2=k_h.k2_full(), homogeneous=False)
                    for (closure, z), (op, eps) in itertools.product(cases, calls):
                        cfg = HierarchyConfig(zeta_max=z, closure=closure, eps=eps)
                        out_h, out_f = op(model, k_h, cfg), op(model, k_f, cfg)
                        case = (torus.dim, model.name, order, closure, z, op.__name__, eps)
                        assert out_h.k0 == out_f.k0
                        assert_close_to_dense(out_h.k1, out_f.k1, case)
                        if order == 2:
                            assert_close_to_dense(out_h.k2_full(), out_f.k2, case)

    def test_circulant_layout_on_asymmetric_tables(self, rng):
        # any offset profiles, including non-even ones (non-symmetric
        # tables) and an uneven pair profile, so a wrong offset reversal shows
        for torus, m in ((Torus(1, 1.0), 12), (Torus(2, 1.0), 6)):
            grid = Grid(torus, m)
            n = grid.node_count

            def prof():
                return rng.uniform(0.1, 1.0, n)

            base = dict(eps=1.0, D1=np.full(n, 1.2), D2=prof(), B1=np.full(n, 0.4), B2=prof())
            for tables in (KernelTables("separable", Gd=prof(), Gb=prof(), **base),
                           KernelTables("support_one", Ad=prof(), Ab=prof(), **base)):
                k_h = CorrelationVector(grid, 1.5, rng.normal(), np.full(n, rng.normal()),
                                        rng.normal(size=n), homogeneous=True)
                k_f = replace(k_h, k2=k_h.k2_full(), homogeneous=False)
                lay_h, lay_f = _layout(tables, grid, True), _layout(tables, grid, False)
                cfg = HierarchyConfig(zeta_max=3, closure="poisson")
                for apply in (_apply_tables, lambda t, k, c: _ks_tables(t, k, c, "test")):
                    out_h, out_f = apply(lay_h, k_h, cfg), apply(lay_f, k_f, cfg)
                    case = (torus.dim, tables.structure)
                    assert_close_to_dense(out_h.k1, out_f.k1, case)
                    assert_close_to_dense(out_h.k2_full(), out_f.k2, case)

    def test_dense_pair_contraction_matches_einsum_reference(self, rng, monkeypatch):
        # with the zero closure, raising zeta_max from 1 to 2 adds exactly the
        # birth term B1 * qb2 / 2, qb2 = w^2 sum_{j,l} Gb[i,j] k2[j,l] Gb[i,l]
        for torus, m in ((Torus(1, 1.0), 32), (Torus(2, 1.0), 8)):
            grid = Grid(torus, m)
            model = oracle_models(torus)[0]
            k = random_vector(rng, grid, 1.5)
            t = model.hierarchy_tables(grid)
            gb = t.Gb[grid.offset_index]
            qb2 = grid.weight ** 2 * np.einsum("ij,jl,il->i", gb, k.k2, gb)
            hi = apply_dual_generator(model, k, HierarchyConfig(zeta_max=2, closure="zero"))
            lo = apply_dual_generator(model, k, HierarchyConfig(zeta_max=1, closure="zero"))
            assert_close_to_dense(hi.k1 - lo.k1, 0.5 * t.B1 * qb2, torus.dim)

        # the singleton and pair birth terms share one composition Gb @ k2:
        # one per application, with results bitwise equal to forming the
        # composition separately in each term
        products = []
        compose = hierarchy._DenseLayout.compose

        def counted(lay, b, out):
            products.append(b.shape)
            return compose(lay, b, out)

        def run_all(k, t):
            cfg = HierarchyConfig(zeta_max=2, closure="poisson")
            products.clear()
            lay = _layout(t, k.grid, k.homogeneous)
            outs = [_apply_tables(lay, k, cfg), _ks_tables(lay, k, cfg, "glauber")]
            return outs, len(products)

        monkeypatch.setattr(hierarchy._DenseLayout, "compose", counted)
        grid = Grid(Torus(1, 1.0), 32)
        k = random_vector(rng, grid, 1.5)
        t = oracle_models(grid.torus)[0].hierarchy_tables(grid)
        shared, n_shared = run_all(k, t)
        # separately: operands without the composition (at zeta_max 0 none
        # is formed), and each part forms its own
        operands = hierarchy._operands
        monkeypatch.setattr(hierarchy, "_operands",
                            lambda lay, k, cfg, ws: operands(lay, k, replace(cfg, zeta_max=0), ws))
        order1, order2 = hierarchy._order1_parts, hierarchy._order2_parts
        monkeypatch.setattr(hierarchy, "_order1_parts", lambda t, lay, k, k2e, c1, product, cfg:
                            order1(t, lay, k, k2e, c1, lay.compose(k2e, np.empty_like(k2e)), cfg))
        monkeypatch.setattr(hierarchy, "_order2_parts", lambda t, lay, k, k2e, c1, product, ws, *a, **kw:
                            order2(t, lay, k, k2e, c1, lay.compose(k2e, ws.product), ws, *a, **kw))
        separate, n_separate = run_all(k, t)
        assert (n_shared, n_separate) == (2, 4)
        for a, b in zip(shared, separate):
            assert np.array_equal(a.k1, b.k1) and np.array_equal(a.k2, b.k2)


TIE_GRIDS = ((1, 20), (1, 40), (2, 20))


def box_models(torus, grid):
    """Box kernels of radius 0.1, a whole number of spacings on the tie grids."""
    a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
    return [GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1)),
            BDLPModel(torus, m=1.0, kappa_minus=0.4, kappa_plus=0.3,
                      a_minus=a, a_plus=a, kappa=0.2)]


def formula_tables(model, grid, eps):
    """The (N, N) pair tables by the formulas of the models, applied to
    each kernel's pair table profile[offset_index]."""
    off = grid.offset_index
    if isinstance(model, GlauberModel):
        s, z, phi = model.s, model.z, model.phi.profile(grid)[off]
        if eps == 0.0:
            gd, gb = s * phi, (s - 1.0) * phi
        else:
            gd, gb = np.expm1(eps * s * phi) / eps, np.expm1(eps * (s - 1.0) * phi) / eps
        return {"D2": np.exp(eps * s * phi), "B2": z * np.exp(eps * (s - 1.0) * phi),
                "Gd": gd, "Gb": gb}
    a_m, a_p = model.a_minus.profile(grid)[off], model.a_plus.profile(grid)[off]
    return {"D2": model.m + eps * model.kappa_minus * a_m,
            "B2": model.kappa + eps * model.kappa_plus * a_p,
            "Ad": model.kappa_minus * a_m, "Ab": model.kappa_plus * a_p}


# ---------------------------------------------------------------------------
# the dense pair operator as plain whole-array expressions: the reference
# that the in-place operator must match bit for bit.  The composition is the
# layout's own, checked against the whole product in TestWindowedComposition.


def ref_transpose(lay, grid, a):
    return a[:, grid.negated_offset] if lay.rows == 1 else a.T


def ref_compose(lay, b):
    return lay.compose(b, np.empty_like(b))


def ref_row_dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def ref_exp_series(x, j_lo, j_hi, shift=0):
    out = np.zeros_like(x)
    for j in range(j_lo, j_hi + 1):
        out += x ** (j - shift) / math.factorial(j)
    return out


def ref_pair_operand(lay, k, closure):
    n = k.grid.node_count
    if k.order >= 2:
        return k.k2.reshape(lay.rows, n)
    if closure == "poisson":
        return np.outer(k.k1[:lay.rows], k.k1)
    return np.zeros((lay.rows, n))


def ref_order1_parts(t, lay, grid, k, k2e, cfg):
    w, z = lay.w, cfg.zeta_max
    if t.structure == "support_one":
        death_tail = w * ref_row_dots(t.Ad, k2e) if z >= 1 else np.zeros(lay.rows)
        birth = k.k0 * t.B1
        if z >= 1:
            birth = birth + w * (t.Ab @ k.k1)
        return death_tail, birth
    cd1 = w * (t.Gd @ k.k1)
    cb1 = w * (t.Gb @ k.k1)
    rd2 = w * ref_row_dots(t.Gd, k2e)
    j_hi_d = z if cfg.closure == "poisson" else min(z, 1)
    death_tail = t.D1 * rd2 * ref_exp_series(cd1, 1, j_hi_d, shift=1)
    birth = k.k0 * t.B1
    if z >= 1:
        birth = birth + t.B1 * cb1
    j_hi_b = z if cfg.closure == "poisson" else min(z, 2)
    if j_hi_b >= 2:
        qb2 = w ** 2 * ref_row_dots(ref_compose(lay, k2e), t.Gb)
        birth = birth + t.B1 * qb2 * ref_exp_series(cb1, 2, j_hi_b, shift=2)
    return death_tail, birth


def ref_order2_parts(t, lay, grid, k, k2e, cfg, rates):
    """The pair term X + X^T for X = bterm - k2 * f(D2, v[:, None]), the
    birth term less the death term with the first point of the pair active
    (with its death rate D2 when `rates`): k2 is symmetric."""
    w, z = lay.w, cfg.zeta_max
    if t.structure == "support_one":
        v = w * (t.Ad @ k.k1) if cfg.closure == "poisson" and z >= 1 else np.zeros(lay.rows)
        death = ((t.D2 if rates else 0.0) + v[:, None]) * k2e
        bterm = t.B2 * k.k1[None, :]
        if z >= 1:
            bterm = w * ref_compose(lay, k2e) + bterm
    else:
        cd1 = w * (t.Gd @ k.k1)
        cb1 = w * (t.Gb @ k.k1)
        j_hi_d = z if cfg.closure == "poisson" else 0
        u = ref_exp_series(cd1, 1, j_hi_d)
        if rates:
            u = 1.0 + u
        death = t.D2 * u[:, None] * k2e
        j_hi_b = z if cfg.closure == "poisson" else min(z, 1)
        if j_hi_b >= 1:
            scale = w * ref_exp_series(cb1, 1, j_hi_b, shift=1)
            bterm = t.B2 * (ref_compose(lay, k2e) * scale[:, None] + k.k1[None, :])
        else:
            bterm = t.B2 * k.k1[None, :]
    x = bterm - death
    return x + ref_transpose(lay, grid, x)


def ref_operator(lay, grid, k, cfg, ks):
    """(out1, out2) of _apply_tables (ks False) or _ks_tables (ks True),
    in the rows of the layout."""
    t = lay.t
    k2e = ref_pair_operand(lay, k, cfg.closure)
    death_tail1, birth1 = ref_order1_parts(t, lay, grid, k, k2e, cfg)
    out1 = (-death_tail1 + birth1) / t.D1 if ks else -t.D1 * k.k1[:lay.rows] - death_tail1 + birth1
    out2 = None
    if k.order >= 2:
        out2 = ref_order2_parts(t, lay, grid, k, k2e, cfg, rates=not ks)
        if ks:
            out2 = out2 / (t.D2 + ref_transpose(lay, grid, t.D2))
    return out1, out2


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_exp_series_bitwise_equal_to_zeros_loop():
    """The truncated exponential series equals the loop from an array of zeros
    with x ** 0 evaluated, bit for bit: signed zeros, subnormals, overflow,
    infinities and NaNs of either sign and several payloads."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000ABC], dtype=np.uint64).view(float)
    x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e-160, -1e-160,
                         0.3, -0.7, 2.5, -3.0, 1e200, -1e200, np.inf, -np.inf], nans])
    with np.errstate(all="ignore"):
        for j_lo in range(4):
            for j_hi in range(j_lo - 1, 6):
                for shift in range(j_lo + 1):
                    for arg in [x] + [x[i:i + 1] for i in range(len(x))]:
                        got = hierarchy._exp_series(arg, j_lo, j_hi, shift)
                        want = ref_exp_series(arg, j_lo, j_hi, shift)
                        assert bitwise_equal(got, want), (arg, j_lo, j_hi, shift)


def operator_tables(grid, rng):
    """Glauber and BDLP tables at eps 1, 0.3 and 0, and a separable and a
    support-one set of uneven offset profiles (non-symmetric tables)."""
    out = [model.hierarchy_tables(grid, eps) for model in oracle_models(grid.torus)
           for eps in (1.0, 0.3, 0.0)]
    n = grid.node_count

    def prof():
        return rng.uniform(0.1, 1.0, n)

    base = dict(eps=1.0, D1=np.full(n, 1.2), D2=prof(), B1=np.full(n, 0.4), B2=prof())
    out += [KernelTables("separable", Gd=prof(), Gb=prof(), **base),
            KernelTables("support_one", Ad=prof(), Ab=prof(), **base)]
    return out


class TestOperatorMatchesReference:
    @pytest.mark.parametrize("dim,m", [(1, 16), (2, 6), (1, 300)])
    def test_bitwise_equal_to_whole_array_expressions(self, dim, m, rng):
        grid = Grid(Torus(dim, 1.0), m)
        n = grid.node_count
        cases = [(closure, z) for closure in ("zero", "poisson") for z in range(4)]
        cases.append(("none", 0))
        for tables in operator_tables(grid, rng):
            for homogeneous in (False, True):
                # symmetric pair functions, bit for bit
                if homogeneous:
                    k2 = rng.normal(size=n)
                    k2 = 0.5 * (k2 + k2[grid.negated_offset])
                else:
                    k2 = rng.normal(size=(n, n))
                    k2 = 0.5 * (k2 + k2.T)
                k = CorrelationVector(grid, 1.5, rng.normal(),
                                      np.full(n, rng.normal()) if homogeneous else rng.normal(size=n),
                                      k2, homogeneous=homogeneous)
                for order in (1, 2):
                    kk = k if order == 2 else replace(k, k2=None)
                    lay = _layout(tables, grid, homogeneous, order)
                    for closure, z in cases:
                        cfg = HierarchyConfig(zeta_max=z, closure=closure)
                        for ks, op in ((False, _apply_tables),
                                       (True, lambda l, v, c: _ks_tables(l, v, c, "test"))):
                            out = op(lay, kk, cfg)
                            ref1, ref2 = ref_operator(lay, grid, kk, cfg, ks)
                            case = (dim, m, tables.structure, tables.eps, homogeneous, order,
                                    closure, z, ks)
                            rows = lay.rows
                            assert bitwise_equal(out.k1[:rows], ref1), case
                            if order == 2:
                                assert bitwise_equal(out.k2.reshape(rows, n), ref2), case
                            else:
                                assert out.k2 is None, case

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_results_own_their_memory(self, homogeneous, rng):
        grid = Grid(Torus(2, 1.0), 6)
        model = oracle_models(grid.torus)[0]
        lay = _layout(model.hierarchy_tables(grid), grid, homogeneous)
        assert np.array_equal(lay.diag, lay.t.D2 + ref_transpose(lay, grid, lay.t.D2))
        cfg = HierarchyConfig(zeta_max=2, closure="poisson")
        for op in (_apply_tables, lambda l, v, c: _ks_tables(l, v, c, "glauber")):
            k_a = random_vector(rng, grid, 1.5, homogeneous)
            k_b = random_vector(rng, grid, 1.5, homogeneous)
            first = op(lay, k_a, cfg)
            saved = (first.k1.copy(), first.k2.copy())
            second = op(lay, k_b, cfg)
            assert np.array_equal(first.k1, saved[0]) and np.array_equal(first.k2, saved[1])
            held = [first.k1, first.k2, second.k1, second.k2]
            operands = [k_a.k1, k_a.k2, k_b.k1, k_b.k2, lay.diag] + [
                getattr(lay.t, f.name) for f in dataclasses.fields(lay.t)
                if isinstance(getattr(lay.t, f.name), np.ndarray)]
            for i, a in enumerate(held):
                for b in held[i + 1:] + operands:
                    assert not np.shares_memory(a, b)


class TestWindowedComposition:
    """The dense layout composes Gb @ k2 (Ab @ k2) one block of grid lines at
    a time, against the rows of k2 within the kernel's reach."""

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
    def test_equals_whole_product(self, dim, m, rng):
        torus = Torus(dim, 1.0)
        grid = Grid(torus, m)
        n = grid.node_count
        for model in box_models(torus, grid):
            lay = _layout(model.hierarchy_tables(grid), grid, homogeneous=False)
            # reach 6 lines at d = 1 (two blocks of 32 lines, both wrapping),
            # 1 line at d = 2 (eight of two lines, the first and last wrapping)
            plain = [isinstance(cols, slice) for _, cols in lay.blocks]
            assert plain == ([False] * 2 if dim == 1 else [False] + [True] * 6 + [False])
            k2 = rng.normal(size=(n, n))
            whole = lay.kernel @ k2
            windowed = lay.compose(k2, np.empty_like(k2))
            assert np.max(np.abs(windowed - whole)) <= 1e-14 * np.max(np.abs(whole)), model.name

    def test_window_covering_the_torus_is_the_whole_product(self, rng):
        # reach 11 of 32 lines: a block of 32 lines and its window cover the torus
        grid = Grid(Torus(1, 1.0), 32)
        for model in oracle_models(grid.torus):
            lay = _layout(model.hierarchy_tables(grid), grid, homogeneous=False)
            assert lay.blocks == [(slice(None), slice(None))], model.name
            k2 = rng.normal(size=(32, 32))
            assert bitwise_equal(lay.compose(k2, np.empty_like(k2)), lay.kernel @ k2)

    def test_inf_outside_a_window(self):
        """An inf in k2 row 16 of a d = 1, M = 64 state: the whole product
        has 0 * inf = NaN in its column on every row beyond the kernel's
        reach of 6 lines, the windowed one only on the rows of the block
        whose window holds row 16.  `evolve` refuses the state before any
        step, as its norm is inf, and one application has a NaN norm."""
        torus = Torus(1, 1.0)
        grid = Grid(torus, 64)
        model = box_models(torus, grid)[0]
        k = CorrelationVector.coherent(grid, 1.5, 0.25, homogeneous=False)
        k2 = k.k2.copy()
        k2[16, 5] = math.inf
        lay = _layout(model.hierarchy_tables(grid), grid, homogeneous=False)
        in_reach = np.abs(np.arange(64) - 16) <= 6
        with np.errstate(invalid="ignore"):
            whole = lay.kernel @ k2
            windowed = lay.compose(k2, np.empty_like(k2))
        assert np.array_equal(np.isnan(whole[:, 5]), ~in_reach)
        assert np.array_equal(np.isnan(windowed[:, 5]), ~in_reach & (np.arange(64) < 32))
        assert np.array_equal(np.isinf(windowed[:, 5]), in_reach)
        with pytest.raises(BlowUpError, match="initial hierarchy norm inf is not finite"):
            evolve(model, replace(k, k2=k2), T=0.1, dt=0.05, check=False)
        assert math.isnan(_apply_tables(lay, replace(k, k2=k2), HierarchyConfig()).ruelle_norm())


class TestTranslationInvariantTables:
    # on these grids a box edge falls on node distances, where distances
    # computed pair by pair differ in the last bit between pairs at one offset
    @pytest.mark.parametrize("dim,m", TIE_GRIDS + ((2, 16),))
    def test_tables_are_gathered_profiles(self, dim, m):
        torus = Torus(dim, 1.0)
        grid = Grid(torus, m)
        n = grid.node_count
        kernel = BoxKernel(0.4, 0.1)
        assert np.array_equal(kernel.profile(grid)[grid.offset_index][0], kernel.profile(grid))
        for model in box_models(torus, grid) + oracle_models(torus):
            for eps in (0.0, 0.5, 1.0):
                tables = model.hierarchy_tables(grid, eps=eps)
                lay = _layout(tables, grid, homogeneous=False)
                dense = lay.t
                expect = formula_tables(model, grid, eps)
                for name in KernelTables.PAIR_FIELDS:
                    case = (model.name, eps, name)
                    if name not in expect:
                        assert getattr(tables, name) is None, case
                        continue
                    assert getattr(tables, name).shape == (n,), case
                    table = getattr(dense, name)
                    assert np.array_equal(table, expect[name]), case
                    assert np.array_equal(table, table[0][grid.offset_index]), case
                assert np.array_equal(lay.diag, expect["D2"] + expect["D2"].T), (model.name, eps)

    def test_order_one_dense_layout_gathers_no_pair_rates(self):
        # order-one operators read Gd, Gb (or Ad, Ab) but never D2 or B2
        torus = Torus(1, 1.0)
        grid = Grid(torus, 20)
        rho = 0.26 + 0.04 * np.cos(2 * np.pi * np.arange(20) / 20)
        k = CorrelationVector.coherent(grid, 1.5, rho, order=1)
        for model in box_models(torus, grid) + oracle_models(torus):
            tables = model.hierarchy_tables(grid)
            order1 = _layout(tables, grid, homogeneous=False, order=1)
            full = _layout(tables, grid, homogeneous=False)
            assert order1.t.D2 is None and order1.t.B2 is None, model.name
            assert full.t.D2.shape == full.t.B2.shape == (20, 20)
            assert np.array_equal(full.diag, full.t.D2 + full.t.D2.T), model.name
            for closure, z in (("poisson", 3), ("zero", 2)):
                cfg = HierarchyConfig(zeta_max=z, closure=closure)
                for a, b in ((_apply_tables(order1, k, cfg), _apply_tables(full, k, cfg)),
                             (_ks_tables(order1, k, cfg, model.name),
                              _ks_tables(full, k, cfg, model.name))):
                    assert a.k2 is None and np.array_equal(a.k1, b.k1), (model.name, closure)

    def test_tables_and_layout_operands_are_read_only(self):
        torus = Torus(2, 1.0)
        grid = Grid(torus, 8)
        for model in oracle_models(torus):
            tables = model.hierarchy_tables(grid)
            for homogeneous in (True, False):
                lay = _layout(tables, grid, homogeneous)
                arrays = [getattr(t, f.name) for t in (tables, lay.t)
                          for f in dataclasses.fields(t)
                          if isinstance(getattr(t, f.name), np.ndarray)]
                for a in arrays + [lay.diag]:
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0.0

    def test_homogeneous_run_holds_no_pair_table(self):
        # d = 2, M = 64: one (N, N) float table would take 128 MiB
        torus = Torus(2, 1.0)
        grid = Grid(torus, 64)
        model = GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))
        k0 = CorrelationVector.coherent(grid, 1.5, 0.25, homogeneous=True)
        tracemalloc.start()
        try:
            run = evolve(model, k0, T=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.final().k2.shape == (grid.node_count,)
        assert peak < 16 * 2 ** 20, peak

    def test_dense_run_peak_in_pair_tables(self):
        # d = 2, M = 32, two RK4 steps: the gathered tables D2, B2, Gd, Gb,
        # the run's operator workspace (the composition Gb @ k2 that becomes
        # each result, a work array and the half X of the pair term X + X^T)
        # and three states (state, accumulator, stage): 10 (N, N) arrays, besides
        # length-N vectors (0.03 N^2 in all) and the k2 rows that a wrapping
        # window gathers (7 lines, 0.21 N^2); the offset table is freed once
        # the tables are gathered
        torus = Torus(2, 1.0)
        grid = Grid(torus, 32)
        model = GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))
        k0 = CorrelationVector.coherent(grid, 1.5, 0.25, homogeneous=False)
        tracemalloc.start()
        try:
            run = evolve(model, k0, T=0.1, dt=0.05, check=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(run.times) == 1 and run.times[0] == pytest.approx(0.1)
        assert peak < 10.5 * 8 * grid.node_count ** 2, peak / (8 * grid.node_count ** 2)

    @pytest.mark.parametrize("dim,m", TIE_GRIDS)
    def test_dense_run_keeps_constant_density(self, dim, m):
        torus = Torus(dim, 1.0)
        grid = Grid(torus, m)
        for model in box_models(torus, grid):
            k0 = CorrelationVector.coherent(grid, 1.5, 0.2, homogeneous=False)
            run = evolve(model, k0, T=0.2, snapshot_times=[0.1, 0.2], check=False)
            for k in run.snapshots:
                assert np.all(k.k1 == k.k1[0]), model.name
            assert run.final().k1[0] != 0.2


class TestDuality:
    @pytest.mark.parametrize("model_kind", ["glauber", "bdlp"])
    def test_forward_and_dual_are_adjoint(self, torus1, model_kind, rng):
        grid = Grid(torus1, 12)
        if model_kind == "glauber":
            model = GlauberModel(torus1, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.12))
        else:
            a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
            model = BDLPModel(torus1, m=1.0, kappa_minus=0.06, kappa_plus=0.04,
                              a_minus=a, a_plus=a, kappa=0.3)
        cfg = HierarchyConfig(zeta_max=2, closure="zero")
        for _ in range(5):
            G = QuasiObservable(grid, 1.5, rng.normal(), rng.normal(size=grid.node_count),
                                (lambda A: A + A.T)(rng.normal(size=(grid.node_count,) * 2)))
            k = random_vector(rng, grid, 1.5)
            lhs = dual_pairing(apply_forward_generator(model, G), k)
            rhs = dual_pairing(G, apply_dual_generator(model, k, cfg))
            scale = max(1e-30, G.l1_norm() * k.ruelle_norm())
            assert abs(lhs - rhs) / scale < 1e-12


class TestPairFunctionSymmetry:
    """The operators form the pair term as X + X^T, which needs k2(x, y) =
    k2(y, x); the entry points refuse a k2 that differs from its mirror by
    more than 1e-12 sup |k2|."""

    @staticmethod
    def skewed(grid, homogeneous, by):
        k = CorrelationVector.coherent(grid, 1.5, 0.25, homogeneous=homogeneous)
        k2 = k.k2.copy()
        if homogeneous:
            k2[1] += by      # offset 1 against offset -1
        else:
            k2[2, 5] += by
        return replace(k, k2=k2)

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize("entry", ["apply_dual_generator", "ks_operator", "evolve"])
    def test_entry_points_refuse_an_asymmetric_pair_function(self, db_model, grid16,
                                                             homogeneous, entry):
        call = {"apply_dual_generator": lambda k: apply_dual_generator(db_model, k),
                "ks_operator": lambda k: ks_operator(db_model, k),
                "evolve": lambda k: evolve(db_model, k, T=0.1, dt=0.05, check=False)}[entry]
        with pytest.raises(ValueError, match=r"k2 is not symmetric: .* differ by up to 1\.000e-09"):
            call(self.skewed(grid16, homogeneous, 1e-9))
        # sup |k2| = 0.0625: a gap of 1e-14 is within the tolerance
        call(self.skewed(grid16, homogeneous, 1e-14))


class TestKSOperator:
    def test_zero_maps_to_zero(self, db_model, grid16):
        zero = CorrelationVector.zero(grid16, 2.0)
        out = ks_operator(db_model, zero)
        assert out.k0 == 0.0
        assert np.all(out.k1 == 0.0) and np.all(out.k2 == 0.0)

    def test_plain_bdlp_annihilates_defect_free_vectors(self, torus1, grid16, kernel16):
        # with no immigration the birth-at-empty vanishes, so vectors with
        # zero tail stay zero and the vacuum is the stationary state
        plain = BDLPModel(torus1, m=1.0, kappa_minus=0.05, kappa_plus=0.02,
                          a_minus=kernel16, a_plus=kernel16)
        vac_tail = CorrelationVector(grid16, 1.5, 1.0,
                                     np.zeros(grid16.node_count),
                                     np.zeros((grid16.node_count,) * 2))
        out = ks_operator(plain, vac_tail)
        assert np.all(out.k1 == 0.0) and np.all(out.k2 == 0.0)

    def test_contraction_bound(self, db_model, torus1, rng):
        grid = Grid(torus1, 16)
        C = 2.5
        rep = check_conditions(db_model, C, grid)
        assert rep.bound_2
        worst = 0.0
        for _ in range(40):
            k = random_vector(rng, grid, C)
            ratio = ks_operator(db_model, k, HierarchyConfig(closure="zero")).ruelle_norm() \
                / k.ruelle_norm()
            worst = max(worst, ratio)
        assert worst <= rep.contraction_q + 1e-6


class TestStationarySolve:
    def test_plain_bdlp_returns_vacuum_exactly(self, torus1, grid16, kernel16):
        plain = BDLPModel(torus1, m=1.0, kappa_minus=0.05, kappa_plus=0.02,
                          a_minus=kernel16, a_plus=kernel16)
        res = stationary_solve(plain, grid16, 1.5, tol=1e-12)
        assert res.k_inv.k0 == 1.0
        assert np.all(res.k_inv.k1 == 0.0)
        assert np.all(res.k_inv.k2 == 0.0)

    def test_detailed_balance_geometric_solution(self, db_model, grid16):
        res = stationary_solve(db_model, grid16, 2.5, tol=1e-12)
        assert np.max(np.abs(res.k_inv.k1 - 0.5)) < 1e-10
        assert np.max(np.abs(res.k_inv.k2 - 0.25)) < 1e-10
        assert res.residual < 1e-10
        assert res.certificate >= 0.0

    def test_pure_immigration_closed_form(self, torus1, grid16, kernel16):
        # with no interaction kernels the defect vector is the whole solution
        model = BDLPModel(torus1, m=2.0, kappa_minus=0.0, kappa_plus=0.0,
                          a_minus=kernel16, a_plus=kernel16, kappa=0.5)
        res = stationary_solve(model, grid16, 1.5, tol=1e-13)
        z = 0.5 / 2.0
        assert np.max(np.abs(res.k_inv.k1 - z)) < 1e-12
        assert np.max(np.abs(res.k_inv.k2 - z * z)) < 1e-12

    def test_refuses_outside_stationary_window(self, torus1, grid16, kernel16):
        model = BDLPModel(torus1, m=0.1, kappa_minus=1.0, kappa_plus=1.0,
                          a_minus=kernel16, a_plus=kernel16, kappa=0.5)
        with pytest.raises(ConditionError, match="requires a1"):
            stationary_solve(model, grid16, 1.5)

    def test_non_finite_increment_raises(self, db_model, grid16, monkeypatch):
        def nan_iterate(lay, k, cfg, name):
            return replace(k, k2=np.full_like(k.k2, math.nan))
        monkeypatch.setattr(hierarchy, "_ks_tables", nan_iterate)
        with pytest.raises(ConditionError, match="non-finite increment norm nan"):
            stationary_solve(db_model, grid16, 2.5, tol=1e-12)

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_a_posteriori_bound_holds(self, db_model, grid16, homogeneous):
        tol = 1e-8
        res = stationary_solve(db_model, grid16, 2.5, tol=tol, homogeneous=homogeneous)
        ref = stationary_solve(db_model, grid16, 2.5, tol=1e-14, homogeneous=homogeneous)
        assert len(res.increments) == res.iterations
        assert res.a_posteriori_bound == res.q / (1.0 - res.q) * res.increments[-1]
        assert res.k_inv.diff_norm(ref.k_inv) <= res.a_posteriori_bound <= tol
        # the a-priori certificate keeps its meaning and is the looser bound here
        e_norm = (db_model.kappa / db_model.m) / 2.5
        assert res.certificate == res.q ** res.iterations * e_norm / (1.0 - res.q)
        assert res.a_posteriori_bound < res.certificate

    def test_fixed_point_residual_definition(self, db_model, grid16):
        res = stationary_solve(db_model, grid16, 2.5, tol=1e-11)
        tail = CorrelationVector(grid16, 2.5, 0.0, res.k_inv.k1, res.k_inv.k2,
                                 homogeneous=res.k_inv.homogeneous)
        s_tail = ks_operator(db_model, tail)
        e1 = db_model.kappa / db_model.m
        resid = max(np.max(np.abs(s_tail.k1 + e1 - tail.k1)) / 2.5,
                    np.max(np.abs(s_tail.k2 - tail.k2)) / 2.5 ** 2)
        assert resid == pytest.approx(res.residual, rel=1e-6, abs=1e-14)


class TestEvolveReachesStationary:
    # from constant density 0.2, dt 0.05, the truncated hierarchy's flow at
    # T = 40 sits on the fixed point of the Kirkwood-Salzburg iteration;
    # measured gaps: up to 9.1e-14 in k1 and 5.1e-13 in k2 (homogeneous),
    # 4.8e-14 and 3.1e-13 (dense, M = 16)
    @staticmethod
    def models(torus, grid):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        return {"bdlp_modified": (BDLPModel(torus, m=1.0, kappa_minus=0.15, kappa_plus=0.05,
                                            a_minus=a, a_plus=a, kappa=0.5), 2.5),
                "glauber": (GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1)), 1.5)}

    @pytest.mark.parametrize("name,closure,m,homogeneous", [
        ("bdlp_modified", "zero", 64, True), ("bdlp_modified", "poisson", 64, True),
        ("glauber", "zero", 64, True), ("glauber", "poisson", 64, True),
        ("glauber", "poisson", 16, False)])
    def test_evolve_agrees_with_stationary_solve(self, name, closure, m, homogeneous):
        torus = Torus(1, 1.0)
        grid = Grid(torus, m)
        model, C = self.models(torus, grid)[name]
        cfg = HierarchyConfig(closure=closure)
        fixed = stationary_solve(model, grid, C, cfg, tol=1e-12, homogeneous=homogeneous).k_inv
        k0 = CorrelationVector.coherent(grid, C, 0.2, homogeneous=homogeneous)
        final = evolve(model, k0, T=40.0, dt=0.05, cfg=cfg, check=False).final()
        assert np.max(np.abs(final.k1 - fixed.k1)) <= 1e-11
        assert np.max(np.abs(final.k2 - fixed.k2)) <= 1e-11


class TestEvolve:
    def test_pure_death_exponential_decay(self, torus1, grid16, kernel16):
        model = BDLPModel(torus1, m=1.4, kappa_minus=0.0, kappa_plus=0.0,
                          a_minus=kernel16, a_plus=kernel16)
        c = 0.8
        k0 = CorrelationVector.coherent(grid16, 1.5, c, homogeneous=True)
        res = evolve(model, k0, T=1.0, dt=0.01, check=False)
        expect1 = c * math.exp(-1.4)
        expect2 = c * c * math.exp(-2 * 1.4)
        assert np.max(np.abs(res.final().k1 - expect1)) < 1e-8
        assert np.max(np.abs(res.final().k2 - expect2)) < 1e-8

    def test_stationary_input_is_fixed(self, db_model, grid16):
        res = stationary_solve(db_model, grid16, 2.5, tol=1e-12)
        with pytest.warns(RuntimeWarning):
            run = evolve(db_model, res.k_inv, T=1.0, dt=0.05)
        assert run.final().diff_norm(res.k_inv) < 1e-6

    def test_time_zero_returns_input(self, db_model, grid16):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.3, homogeneous=True)
        res = evolve(db_model, k0, T=0.0, check=False)
        assert res.final() is k0

    def test_order_one_poisson_closure_is_mean_field(self, torus1, grid16, kernel16):
        # at truncation order one with the Poisson closure, the homogeneous
        # competition-model hierarchy reduces to the mean-field density law
        from birthdeath.vlasov import integrate
        model = BDLPModel(torus1, m=1.0, kappa_minus=0.4, kappa_plus=1.5,
                          a_minus=kernel16, a_plus=kernel16, kappa=0.1)
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.3, order=1, homogeneous=True)
        run = evolve(model, k0, T=1.0, dt=0.01,
                     cfg=HierarchyConfig(closure="poisson"), check=False)
        mf = integrate(model, grid16, 0.3, T=1.0, dt=0.01)
        assert np.max(np.abs(run.final().k1 - mf.final().rho)) < 1e-10

    def test_snapshot_times(self, db_model, grid16):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.3, homogeneous=True)
        res = evolve(db_model, k0, T=1.0, dt=0.05,
                     snapshot_times=[0.25, 0.5, 1.0], check=False)
        assert res.times == pytest.approx([0.25, 0.5, 1.0])

    def test_stability_guard(self, db_model, grid16):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.3, homogeneous=True)
        tables = db_model.hierarchy_tables(grid16)
        bound = _stability_guard(tables, grid16, k0.order)
        # the profile gives the supremum over the whole pair table
        d2 = tables.D2[grid16.offset_index]
        assert bound == 1.0 / (2.0 * max(float(np.max(tables.D1)), float(np.max(d2 + d2.T))))
        with pytest.raises(StabilityError):
            evolve(db_model, k0, T=1.0, dt=2.1 * bound, check=False)

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_nan_state_trips_the_guard(self, db_model, grid16, homogeneous):
        # k0 = 1 used to hide a NaN pair function from the norm
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.3, homogeneous=homogeneous)
        k0 = replace(k0, k2=np.full_like(k0.k2, math.nan))
        with pytest.raises(BlowUpError, match="norm nan is not finite"):
            evolve(db_model, k0, T=0.1, dt=0.05, check=False)

    def test_blowup_guard(self, torus1, grid16, kernel16):
        # birth far above death: the truncated system grows until the guard trips
        model = BDLPModel(torus1, m=0.05, kappa_minus=0.0, kappa_plus=8.0,
                          a_minus=kernel16, a_plus=kernel16, kappa=4.0)
        k0 = CorrelationVector.coherent(grid16, 1.2, 0.4, homogeneous=True)
        with pytest.raises(BlowUpError):
            evolve(model, k0, T=40.0, dt=0.2, check=False, norm_guard=5.0)
