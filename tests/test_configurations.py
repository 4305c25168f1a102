import math

import numpy as np
import pytest

from birthdeath import (CoherentState, FiniteConfiguration, GridFunction,
                        QuadratureScheme, SetFunction, coherent_state, k_inverse,
                        k_transform, lp_integral, minlos_check, star_convolution,
                        vacuum_indicator)
from birthdeath.errors import SizeLimitError
from birthdeath.space import Grid, Torus

from conftest import random_configuration, random_table_function


class TestFiniteConfiguration:
    def test_canonical_order_and_wrap(self, torus1):
        cfg = FiniteConfiguration([[0.7], [1.2], [0.1]], torus1)
        assert np.allclose(cfg.points[:, 0], [0.1, 0.2, 0.7])
        assert len(cfg) == 3

    def test_distinctness_enforced(self, torus1):
        torus2 = Torus(2, 1.0)
        for pts, torus in (([[0.3], [0.3]], torus1),
                           ([[0.3], [0.7], [0.1], [0.3]], torus1),  # apart before sorting
                           ([[0.25], [1.25]], torus1),              # equal after wrapping
                           ([[0.5, 0.2], [0.1, 0.9], [0.5, 0.2]], torus2)):
            with pytest.raises(ValueError, match="distinct"):
                FiniteConfiguration(pts, torus)
        # d = 2 rows that share one coordinate are distinct
        for pts in ([[0.5, 0.2], [0.5, 0.9]], [[0.1, 0.4], [0.7, 0.4], [0.1, 0.8]]):
            assert len(FiniteConfiguration(pts, torus2)) == len(pts)

    def test_union_and_removal_keep_order(self, torus1):
        cfg = FiniteConfiguration([[0.5], [0.2]], torus1)
        grown = cfg.union_point([0.05])
        assert np.allclose(grown.points[:, 0], [0.05, 0.2, 0.5])
        assert np.allclose(grown.without_index(1).points[:, 0], [0.05, 0.5])


class TestKTransform:
    def test_vacuum_transforms_to_one(self, torus1, rng):
        for n in range(5):
            eta = random_configuration(rng, torus1, n)
            assert k_transform(vacuum_indicator(), eta) == 1.0

    def test_coherent_shift_identity(self, torus1, rng):
        # K applied to a product state shifts the factor by one
        f = lambda p: 0.4 + 0.3 * np.sin(2 * np.pi * p[:, 0])
        for n in range(7):
            eta = random_configuration(rng, torus1, n)
            lhs = k_transform(CoherentState(f), eta)
            rhs = coherent_state(lambda p: f(p) + 1.0, eta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_singleton_counting(self, torus1, rng):
        G = SetFunction(lambda c: 1.0 if len(c) == 1 else 0.0, support_bound=1)
        eta = random_configuration(rng, torus1, 3)
        assert k_transform(G, eta) == 3.0

    def test_size_limit(self, torus1, rng):
        eta = random_configuration(rng, torus1, 21)
        with pytest.raises(SizeLimitError):
            k_transform(vacuum_indicator(), eta)


class TestKInverse:
    def test_constant_one_inverts_to_vacuum(self, torus1, rng):
        F = SetFunction(lambda c: 1.0)
        assert k_inverse(F, FiniteConfiguration.empty(torus1)) == 1.0
        for n in range(1, 6):
            eta = random_configuration(rng, torus1, n)
            assert abs(k_inverse(F, eta)) <= 1e-12

    def test_inverts_coherent_shift(self, torus1, rng):
        f = lambda p: 0.2 + 0.1 * np.cos(2 * np.pi * p[:, 0])
        F = CoherentState(lambda p: f(p) + 1.0)
        for n in range(6):
            eta = random_configuration(rng, torus1, n)
            assert abs(k_inverse(F, eta) - coherent_state(f, eta)) <= 1e-12

    def test_roundtrip_on_random_functions(self, torus1, rng):
        for n in range(7):
            G = random_table_function(rng)
            eta = random_configuration(rng, torus1, n)
            F = SetFunction(lambda c: k_transform(G, c))
            assert abs(k_inverse(F, eta) - G(eta)) <= 1e-12


class TestStarConvolution:
    def test_vacuum_is_unit(self, torus1, rng):
        one = vacuum_indicator()
        assert star_convolution(one, one, FiniteConfiguration.empty(torus1)) == 1.0
        for n in range(1, 5):
            eta = random_configuration(rng, torus1, n)
            assert star_convolution(one, one, eta) == 0.0

    def test_transform_of_star_is_product(self, torus1, rng):
        for n in range(6):
            G1 = random_table_function(rng)
            G2 = random_table_function(rng)
            eta = random_configuration(rng, torus1, n)
            star = SetFunction(lambda c: star_convolution(G1, G2, c))
            lhs = k_transform(star, eta)
            rhs = k_transform(G1, eta) * k_transform(G2, eta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_regrouped_form_agrees(self, torus1, rng):
        # oracle: sum over subsets xi of G1(xi) sum over zeta subset xi of
        # G2((eta \ xi) u zeta), an independent regrouping of the partitions
        def regrouped(G1, G2, eta):
            n = len(eta)
            total = 0.0
            for mask in range(1 << n):
                xi = [i for i in range(n) if mask >> i & 1]
                rest = [i for i in range(n) if not (mask >> i & 1)]
                inner = 0.0
                for sub in range(1 << len(xi)):
                    zeta = [xi[i] for i in range(len(xi)) if sub >> i & 1]
                    inner += G2(eta.subset(rest + zeta))
                total += G1(eta.subset(xi)) * inner
            return total

        for n in range(6):
            G1 = random_table_function(rng)
            G2 = random_table_function(rng)
            eta = random_configuration(rng, torus1, n)
            assert abs(star_convolution(G1, G2, eta)
                       - regrouped(G1, G2, eta)) <= 1e-12

    def test_size_limit(self, torus1, rng):
        eta = random_configuration(rng, torus1, 13)
        with pytest.raises(SizeLimitError):
            star_convolution(vacuum_indicator(), vacuum_indicator(), eta)


class TestCoherentState:
    def test_empty_is_one(self, torus1):
        assert coherent_state(lambda p: 0.0 * p[:, 0], FiniteConfiguration.empty(torus1)) == 1.0

    def test_constant_power(self, torus1, rng):
        for n in range(5):
            eta = random_configuration(rng, torus1, n)
            val = coherent_state(lambda p: np.full(len(p), 1.7), eta)
            assert abs(val - 1.7 ** n) <= 1e-12 * 1.7 ** n

    def test_grid_function_interpolation(self, grid16):
        gf = grid16.sample(lambda p: np.sin(2 * np.pi * p[:, 0]))
        # exact at nodes, linear midway
        assert abs(gf(np.array([grid16.axis[3], ])) - np.sin(2 * np.pi * grid16.axis[3])) < 1e-14
        mid = 0.5 * (grid16.axis[3] + grid16.axis[4])
        expect = 0.5 * (gf.values[3] + gf.values[4])
        assert abs(gf(np.array([mid])) - expect) < 1e-14


class TestLPIntegral:
    def test_vacuum_is_one(self, grid16):
        scheme = QuadratureScheme(grid16, n_max=6)
        for C in (0.5, 1.0, 3.0):
            res = lp_integral(vacuum_indicator(), C, scheme)
            assert res.value == 1.0
            assert res.truncation_error == 0.0

    def test_coherent_exponential(self, torus1):
        grid = Grid(torus1, 64)
        scheme = QuadratureScheme(grid, n_max=12)
        f = grid.sample(lambda p: 1.0 + 0.8 * np.sin(2 * np.pi * p[:, 0]))
        res = lp_integral(CoherentState(f), 1.0, scheme)
        exact = math.exp(f.integral())
        assert abs(res.value - exact) / exact < 1e-6

    def test_single_layer_support(self, grid16):
        g = lambda p: 0.5 + p[:, 0]
        H = SetFunction(lambda c: float(g(c.points)[0]) if len(c) == 1 else 0.0,
                        support_bound=1)
        scheme = QuadratureScheme(grid16, n_max=4)
        res = lp_integral(H, 1.0, scheme)
        expect = grid16.sample(g).integral()
        assert abs(res.value - expect) < 1e-12
        assert res.truncation_error == 0.0

    def test_dense_enumeration_guard(self, grid64):
        H = SetFunction(lambda c: 1.0)
        with pytest.raises(SizeLimitError):
            lp_integral(H, 1.0, QuadratureScheme(grid64, n_max=12))

    def test_refinement_diagnostics(self, torus1):
        # errors shrink as the mesh and the layer cutoff grow
        f_exact = lambda p: 1.0 + 0.6 * np.exp(np.sin(2 * np.pi * p[:, 0]))
        errs_m = []
        for m in (8, 16, 64):
            grid = Grid(torus1, m)
            val = lp_integral(CoherentState(grid.sample(f_exact)), 1.0,
                              QuadratureScheme(grid, n_max=20)).value
            # reference: fine-grid layer sum with the same cutoff
            fine = Grid(torus1, 512)
            ref = lp_integral(CoherentState(fine.sample(f_exact)), 1.0,
                              QuadratureScheme(fine, n_max=20)).value
            errs_m.append(abs(val - ref))
        assert errs_m[0] > errs_m[-1]

        grid = Grid(torus1, 64)
        f = grid.sample(f_exact)
        exact = math.exp(f.integral())
        errs_n = [abs(lp_integral(CoherentState(f), 1.0,
                                  QuadratureScheme(grid, n_max=n)).value - exact)
                  for n in (2, 6, 12)]
        assert errs_n[0] > errs_n[1] > errs_n[2]
        # the reported tail bound dominates the actual truncation error
        res = lp_integral(CoherentState(f), 1.0, QuadratureScheme(grid, n_max=6))
        assert abs(res.value - exact) <= res.truncation_error


class TestMinlos:
    def test_zero_function(self, torus1):
        scheme = QuadratureScheme(Grid(torus1, 5), n_max=3)
        assert minlos_check(lambda a, b, c: 0.0, 3, scheme) == 0.0

    def test_separable_closed_form(self, torus1):
        # both sides integrate a product of coherent states to exp-type sums
        f = lambda p: 0.2 + 0.1 * p[:, 0]
        g = lambda p: 0.3 - 0.1 * p[:, 0]

        def H(xi, eta, _omega):
            return coherent_state(f, xi) * coherent_state(g, eta)

        scheme = QuadratureScheme(Grid(torus1, 6), n_max=3)
        assert minlos_check(H, 3, scheme) < 1e-8

    def test_random_separable(self, torus1, rng):
        grid = Grid(torus1, 5)
        vals = [rng.uniform(0.1, 0.6, grid.node_count) for _ in range(3)]
        fns = [GridFunction(grid, v) for v in vals]

        def H(xi, eta, omega):
            return (coherent_state(fns[0], xi) * coherent_state(fns[1], eta)
                    * coherent_state(fns[2], omega))

        scheme = QuadratureScheme(grid, n_max=3)
        assert minlos_check(H, 3, scheme) < 1e-8

    def test_size_guard(self, torus1):
        scheme = QuadratureScheme(Grid(torus1, 4), n_max=5)
        with pytest.raises(SizeLimitError):
            minlos_check(lambda a, b, c: 0.0, 5, scheme)
