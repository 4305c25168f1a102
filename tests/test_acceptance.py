"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and matches the module contracts.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, CoherentState, CorrelationVector,
                        FiniteConfiguration, GlauberModel, GridFunction,
                        HierarchyConfig, PoissonInitial, FixedInitial,
                        QuadratureScheme, QuasiObservable, SetFunction,
                        apply_dual_generator, apply_forward_generator,
                        check_conditions, coherent_state, detailed_balance_bdlp,
                        dual_pairing, k_inverse, k_transform, ks_operator,
                        lp_integral, minlos_check, normalize_on_grid,
                        run_ensemble, scaling_compare, stationary_solve,
                        verify_kernel_bounds)
from birthdeath.space import Grid, Torus
from birthdeath.vlasov import integrate

from conftest import config_key, random_configuration, random_table_function

TORUS = Torus(1, 1.0)


@contextmanager
def criterion(number, label, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.time() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")
    assert elapsed < budget_s


def test_criterion_1_combinatorial_identities():
    with criterion(1, "combinatorial identities (roundtrip, product shift, "
                      "exponential integral, Fubini residual)", 60):
        rng = np.random.default_rng(101)
        worst_round = 0.0
        worst_shift = 0.0
        for _ in range(1000):
            n = int(rng.integers(0, 7))
            eta = random_configuration(rng, TORUS, n)
            G = random_table_function(rng)
            F = SetFunction(lambda c: k_transform(G, c))
            worst_round = max(worst_round, abs(k_inverse(F, eta) - G(eta)))
            a, b = rng.uniform(0.1, 1.0, 2)
            f = lambda p: a + b * np.sin(2 * np.pi * p[:, 0])
            lhs = k_transform(CoherentState(f), eta)
            rhs = coherent_state(lambda p: f(p) + 1.0, eta)
            worst_shift = max(worst_shift, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert worst_round <= 1e-12
        assert worst_shift <= 1e-12

        grid = Grid(TORUS, 64)
        f = grid.sample(lambda p: 1.0 + 0.8 * np.sin(2 * np.pi * p[:, 0]))
        res = lp_integral(CoherentState(f), 1.0, QuadratureScheme(grid, n_max=12))
        exact = math.exp(f.integral())
        assert abs(res.value - exact) / exact < 1e-6

        small = Grid(TORUS, 5)
        vals = [rng.uniform(0.1, 0.5, small.node_count) for _ in range(3)]

        def H(xi, eta_c, omega):
            return (coherent_state(GridFunction(small, vals[0]), xi)
                    * coherent_state(GridFunction(small, vals[1]), eta_c)
                    * coherent_state(GridFunction(small, vals[2]), omega))

        assert minlos_check(H, 3, QuadratureScheme(small, 3)) < 1e-8


def test_criterion_2_kernel_closed_forms():
    with criterion(2, "inverse-transform kernels match brute force to 1e-10", 60):
        grid = Grid(TORUS, 16)
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        models = [
            GlauberModel(TORUS, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.12)),
            GlauberModel(TORUS, s=1.0, z=0.7, phi=BoxKernel(0.3, 0.1)),
            BDLPModel(TORUS, m=1.0, kappa_minus=0.06, kappa_plus=0.03,
                      a_minus=a, a_plus=a, kappa=0.25),
            BDLPModel(TORUS, m=1.3, kappa_minus=0.1, kappa_plus=0.05,
                      a_minus=a, a_plus=a),
        ]
        rng = np.random.default_rng(202)
        worst = 0.0
        for model in models:
            for _ in range(40):
                n_xi = int(rng.integers(0, 4))
                n_eta = int(rng.integers(0, 5))
                pts = rng.uniform(0, 1, (1 + n_xi + n_eta, 1))
                x, xi, eta_pts = pts[0], pts[1:1 + n_xi], pts[1 + n_xi:]
                eta = FiniteConfiguration(eta_pts, TORUS)
                for kind, closed_fn, rate in (
                        ("death", model.k0inv_death, model.death),
                        ("birth", model.k0inv_birth, model.birth)):
                    def F(cfg, rate=rate):
                        p = np.vstack([cfg.points, xi]) if len(xi) else cfg.points
                        return rate(x, p)
                    worst = max(worst, abs(closed_fn(x, xi, eta)
                                           - k_inverse(SetFunction(F), eta)))
        assert worst < 1e-10


def test_criterion_3_conditions_arithmetic():
    with criterion(3, "reference-parameter condition chain and kernel-bound "
                      "verification", 60):
        grid = Grid(TORUS, 64)
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        m, C = 1.0, 2.0
        kminus = m / (8.0 * C)          # 4 kminus C = m / 2
        kplus = C * kminus / 8.0        # 4 kplus a+ = (C/2) kminus a-
        model = BDLPModel(TORUS, m=m, kappa_minus=kminus, kappa_plus=kplus,
                          a_minus=a, a_plus=a)
        rep = check_conditions(model, C, grid)
        delta = rep.details["delta"]
        assert delta == pytest.approx(4.0, rel=1e-12)
        assert rep.sum_a == pytest.approx(1.0 + 1.0 / (4.0 + delta) + 0.25, rel=1e-12)
        assert rep.sum_a < 1.5 and rep.bound_3_2
        rng = np.random.default_rng(303)
        samples = [random_configuration(rng, TORUS, n) for n in (1, 2, 3, 4)]
        a1_hat, a2_hat = verify_kernel_bounds(model, C, grid, samples,
                                              declared=(rep.a1, rep.a2), rtol=1e-6)
        assert a1_hat <= rep.a1 * (1 + 1e-6)
        assert a2_hat <= rep.a2 * (1 + 1e-6)


def test_criterion_4_ks_contraction_and_stationary_states():
    with criterion(4, "Kirkwood-Salzburg contraction and exact stationary "
                      "solutions", 120):
        grid_probe = Grid(TORUS, 32)
        kern_probe = normalize_on_grid(BoxKernel(1.0, 0.1), grid_probe)
        z = 0.5
        model_probe = detailed_balance_bdlp(TORUS, m=1.0, kappa_minus=0.15, z=z,
                                            kernel=kern_probe)
        C = 2.5
        rep = check_conditions(model_probe, C, grid_probe)
        q = rep.contraction_q
        assert q < 1.0
        rng = np.random.default_rng(404)
        n = grid_probe.node_count
        worst = 0.0
        for _ in range(100):
            k1 = rng.uniform(-1, 1, n) * C
            k2 = rng.uniform(-1, 1, (n, n)) * C ** 2
            k2 = 0.5 * (k2 + k2.T)
            k = CorrelationVector(grid_probe, C, rng.uniform(-1, 1), k1, k2)
            ratio = ks_operator(model_probe, k, HierarchyConfig(closure="zero")) \
                .ruelle_norm() / k.ruelle_norm()
            worst = max(worst, ratio)
        assert worst <= q + 1e-6

        grid = Grid(TORUS, 64)
        kern = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        plain = BDLPModel(TORUS, m=1.0, kappa_minus=0.05, kappa_plus=0.02,
                          a_minus=kern, a_plus=kern)
        res_plain = stationary_solve(plain, grid, 1.5, tol=1e-12)
        assert res_plain.k_inv.k0 == 1.0
        assert np.all(res_plain.k_inv.k1 == 0.0)
        assert np.all(res_plain.k_inv.k2 == 0.0)

        db = detailed_balance_bdlp(TORUS, m=1.0, kappa_minus=0.15, z=z, kernel=kern)
        res_db = stationary_solve(db, grid, C, tol=1e-8)
        assert np.max(np.abs(res_db.k_inv.k1 - z)) <= 1e-5
        assert np.max(np.abs(res_db.k_inv.k2 - z * z)) <= 1e-5


def test_criterion_5_duality():
    with criterion(5, "forward/dual generator adjointness on 20 random pairs", 120):
        grid = Grid(TORUS, 32)
        kern = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        models = [
            GlauberModel(TORUS, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.12)),
            BDLPModel(TORUS, m=1.0, kappa_minus=0.06, kappa_plus=0.04,
                      a_minus=kern, a_plus=kern, kappa=0.3),
        ]
        cfg = HierarchyConfig(zeta_max=2, closure="zero")
        rng = np.random.default_rng(505)
        n = grid.node_count
        for i in range(20):
            model = models[i % 2]
            G = QuasiObservable(grid, 1.5, rng.normal(), rng.normal(size=n),
                                (lambda A: A + A.T)(rng.normal(size=(n, n))))
            k2 = rng.normal(size=(n, n))
            k = CorrelationVector(grid, 1.5, rng.normal(), rng.normal(size=n),
                                  0.5 * (k2 + k2.T))
            lhs = dual_pairing(apply_forward_generator(model, G), k)
            rhs = dual_pairing(G, apply_dual_generator(model, k, cfg))
            assert abs(lhs - rhs) < 1e-6 * G.l1_norm() * k.ruelle_norm()


def test_criterion_6_simulator_laws():
    with criterion(6, "simulator: decay law, detailed-balance invariance, "
                      "bit-exact seeding", 300):
        torus = Torus(1, 10.0)
        grid = Grid(torus, 20)
        kern = normalize_on_grid(BoxKernel(1.0, 0.5), grid)

        pure = BDLPModel(torus, m=1.0, kappa_minus=0.0, kappa_plus=0.0,
                         a_minus=kern, a_plus=kern)
        n0, reps = 30, 1000
        pts = np.linspace(0, 10, n0, endpoint=False).reshape(-1, 1)
        res = run_ensemble(pure, FixedInitial(pts), T=2.0, replicas=reps, seed=42,
                           estimator_grid=grid, snapshot_times=[0.5, 1.0, 2.0])
        for i, t in enumerate([0.5, 1.0, 2.0]):
            p = math.exp(-t)
            se = math.sqrt(n0 * p * (1 - p) / reps)
            assert abs(res.population_mean[i] - n0 * p) < 3 * se

        z = 0.6
        db = detailed_balance_bdlp(torus, m=1.0, kappa_minus=0.15, z=z, kernel=kern)
        res_db = run_ensemble(db, PoissonInitial(z), T=10.0, replicas=300, seed=11,
                              estimator_grid=grid, snapshot_times=[1.0, 5.0, 10.0])
        for i in range(3):
            k1 = res_db.population_mean[i] / torus.volume
            se = res_db.population_se[i] / torus.volume
            assert abs(k1 - z) < 3 * se

        kwargs = dict(initial=PoissonInitial(z), T=1.0, replicas=8, seed=99,
                      estimator_grid=grid, snapshot_times=[0.5, 1.0])
        a = run_ensemble(db, **kwargs)
        b = run_ensemble(db, **kwargs)
        assert np.array_equal(a.correlations.k1, b.correlations.k1)
        assert np.array_equal(a.correlations.k2, b.correlations.k2)
        assert np.array_equal(a.population_mean, b.population_mean)
        assert a.events == b.events


def test_criterion_7_vlasov_oracles():
    with criterion(7, "mean-field oracles: logistic trajectory and "
                      "activity-equation steady state", 60):
        grid = Grid(TORUS, 64)
        kern = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        m, km, kp = 1.0, 0.4, 1.8
        model = BDLPModel(TORUS, m=m, kappa_minus=km, kappa_plus=kp,
                          a_minus=kern, a_plus=kern)
        rho0, T = 0.3, 5.0
        res = integrate(model, grid, rho0, T, dt=0.002)
        r = kp - m
        exact = r * rho0 * math.exp(r * T) / (r + km * rho0 * (math.exp(r * T) - 1))
        assert abs(res.final().rho[0] - exact) / exact < 1e-6

        phi = BoxKernel(0.4, 0.1)
        z = 0.3
        beta = phi.profile(grid).sum() * grid.weight
        finals = []
        for s in (0.0, 0.5, 1.0):
            gl = GlauberModel(TORUS, s=s, z=z, phi=phi)
            rho_f = integrate(gl, grid, 0.25, T=40.0, dt=0.02).final().rho[0]
            assert abs(rho_f * math.exp(beta * rho_f) - z) < 1e-8
            finals.append(rho_f)
        assert max(finals) - min(finals) < 1e-8


def test_criterion_8_scaling_convergence():
    with criterion(8, "scaled hierarchy converges to the mean-field flow", 600):
        grid = Grid(TORUS, 64)
        model = GlauberModel(TORUS, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))
        eps_list = [1.0, 0.3, 0.1, 0.03]
        table = scaling_compare(model, grid, eps_list, rho0=0.25,
                                T=1.0, dt=0.01, C=1.5)
        errs = table.errors[:, -1]
        assert np.all(np.diff(errs) < 0), f"not strictly decreasing: {errs}"
        assert errs[-1] < 0.25 * errs[0]

        limit = scaling_compare(model, grid, [0.0], rho0=0.25,
                                T=1.0, dt=0.01, C=1.5)
        assert limit.errors[0, -1] < 1e-4
