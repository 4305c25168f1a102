"""Two-dimensional coverage: geometry, quadrature, operators, simulation."""
import math

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, CoherentState, CorrelationVector,
                        FiniteConfiguration, GlauberModel, HierarchyConfig,
                        PoissonInitial, QuadratureScheme, QuasiObservable,
                        apply_dual_generator, apply_forward_generator,
                        circular_convolve, dual_pairing, lp_integral,
                        normalize_on_grid, run_ensemble)
from birthdeath.space import Grid, Torus
from birthdeath.vlasov import integrate


@pytest.fixture
def torus2():
    return Torus(2, 1.0)


@pytest.fixture
def grid2(torus2):
    return Grid(torus2, 8)


class TestGeometry:
    def test_minimage_distance(self, torus2):
        a = np.array([0.05, 0.95])
        b = np.array([0.95, 0.05])
        assert torus2.distance(a, b) == pytest.approx(math.sqrt(0.02))

    def test_offset_index(self, grid2):
        off = grid2.offset_index
        nodes = grid2.nodes
        for i, j in [(0, 5), (12, 3), (60, 60)]:
            diff = grid2.torus.wrap(nodes[j] - nodes[i])
            k = off[i, j]
            assert np.allclose(nodes[k], diff)
        assert np.array_equal(grid2.negated_offset, off[:, 0])
        grid1 = Grid(Torus(1, 1.0), 16)
        assert np.array_equal(grid1.negated_offset, grid1.offset_index[:, 0])

    def test_bilinear_interpolation(self, grid2):
        gf = grid2.sample(lambda p: 2.0 + p[:, 0] * 0.0)
        assert gf(np.array([0.31, 0.77])) == pytest.approx(2.0)
        lin = grid2.sample(lambda p: np.sin(2 * np.pi * p[:, 0]))
        x = np.array([grid2.axis[2], grid2.axis[5]])
        assert lin(x) == pytest.approx(math.sin(2 * math.pi * grid2.axis[2]), abs=1e-14)

    def test_cell_index(self, grid2):
        pts = np.array([[0.01, 0.01], [0.99, 0.99]])
        idx = grid2.cell_index(pts)
        assert idx[0] == 0
        assert idx[1] == grid2.node_count - 1


class TestQuadrature2d:
    def test_coherent_exponential(self, torus2):
        grid = Grid(torus2, 16)
        f = grid.sample(lambda p: 0.5 + 0.2 * np.sin(2 * np.pi * p[:, 0])
                        * np.cos(2 * np.pi * p[:, 1]))
        res = lp_integral(CoherentState(f), 1.0, QuadratureScheme(grid, n_max=12))
        assert abs(res.value - math.exp(f.integral())) < 1e-8

    def test_convolution_matches_direct_sum(self, grid2, rng):
        f = rng.uniform(0, 1, grid2.node_count)
        kern = BoxKernel(1.0, 0.2)
        prof = kern.profile(grid2)
        conv = circular_convolve(grid2, f, prof)
        direct = grid2.weight * (prof[grid2.offset_index] @ f)
        assert np.allclose(conv, direct, atol=1e-12)


class TestOperators2d:
    def test_duality(self, torus2, rng):
        grid = Grid(torus2, 5)
        model = GlauberModel(torus2, s=0.4, z=0.3, phi=BoxKernel(0.5, 0.2))
        n = grid.node_count
        G = QuasiObservable(grid, 1.5, rng.normal(), rng.normal(size=n),
                            (lambda A: A + A.T)(rng.normal(size=(n, n))))
        k2 = rng.normal(size=(n, n))
        k = CorrelationVector(grid, 1.5, rng.normal(), rng.normal(size=n),
                              0.5 * (k2 + k2.T))
        cfg = HierarchyConfig(zeta_max=2, closure="zero")
        lhs = dual_pairing(apply_forward_generator(model, G), k)
        rhs = dual_pairing(G, apply_dual_generator(model, k, cfg))
        assert abs(lhs - rhs) < 1e-10 * G.l1_norm() * k.ruelle_norm()

    def test_logistic_mean_field(self, torus2):
        grid = Grid(torus2, 16)
        a = normalize_on_grid(BoxKernel(1.0, 0.15), grid)
        model = BDLPModel(torus2, m=1.0, kappa_minus=0.5, kappa_plus=1.6,
                          a_minus=a, a_plus=a)
        rho0, T = 0.4, 3.0
        res = integrate(model, grid, rho0, T, dt=0.005)
        r = 1.6 - 1.0
        exact = r * rho0 * math.exp(r * T) / (r + 0.5 * rho0 * (math.exp(r * T) - 1))
        assert abs(res.final().rho[0] - exact) / exact < 1e-6


class TestSimulation2d:
    def test_poisson_moments_and_determinism(self, torus2):
        torus = Torus(2, 4.0)
        grid = Grid(torus, 8)
        kern = normalize_on_grid(BoxKernel(1.0, 0.4), grid)
        model = BDLPModel(torus, m=1.0, kappa_minus=0.05, kappa_plus=0.05,
                          a_minus=kern, a_plus=kern, kappa=0.5)
        z = 0.5
        res = run_ensemble(model, PoissonInitial(z), T=0.0, replicas=200,
                           seed=17, estimator_grid=grid, snapshot_times=[0.0])
        k1 = res.correlations.k1.mean()
        assert abs(k1 - z) < 0.05
        mask = res.correlations.k2_centers < 1.8
        assert abs(res.correlations.k2[mask].mean() - z * z) < 0.05
        res2 = run_ensemble(model, PoissonInitial(z), T=0.0, replicas=200,
                            seed=17, estimator_grid=grid, snapshot_times=[0.0])
        assert np.array_equal(res.correlations.k1, res2.correlations.k1)

    def test_short_dynamics_runs(self, torus2):
        torus = Torus(2, 3.0)
        grid = Grid(torus, 6)
        kern = normalize_on_grid(BoxKernel(1.0, 0.3), grid)
        model = BDLPModel(torus, m=1.0, kappa_minus=0.1, kappa_plus=0.2,
                          a_minus=kern, a_plus=kern, kappa=0.3)
        res = run_ensemble(model, PoissonInitial(0.4), T=2.0, replicas=20,
                           seed=3, estimator_grid=grid, snapshot_times=[1.0, 2.0])
        assert np.all(res.population_mean >= 0)
        assert np.all(np.isfinite(res.correlations.k2_se))
