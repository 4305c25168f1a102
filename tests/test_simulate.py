import math
import signal

import numpy as np
import pytest
from scipy.stats import chisquare

from birthdeath import (BDLPModel, BoxKernel, FiniteConfiguration, GlauberModel,
                        PoissonInitial, FixedInitial, SimulationState,
                        detailed_balance_bdlp, normalize_on_grid, run_ensemble,
                        step)
from birthdeath.errors import SimulationAbort
from birthdeath.space import Grid, Torus


#: (eps, scaled) pairs outside the simulator's range: 0 <= eps <= 1, eps > 0 scaled
BAD_EPS = ((0.0, True), (-0.5, False), (-0.5, True), (2.0, False), (2.0, True),
           (math.nan, False))


@pytest.fixture
def torus10():
    return Torus(1, 10.0)


@pytest.fixture
def grid10(torus10):
    return Grid(torus10, 20)


@pytest.fixture
def kernel10(grid10):
    return normalize_on_grid(BoxKernel(1.0, 0.5), grid10)


@pytest.fixture
def pure_death(torus10, kernel10):
    return BDLPModel(torus10, m=1.0, kappa_minus=0.0, kappa_plus=0.0,
                     a_minus=kernel10, a_plus=kernel10)


@pytest.fixture
def db_model(torus10, kernel10):
    return detailed_balance_bdlp(torus10, m=1.0, kappa_minus=0.15, z=0.6,
                                 kernel=kernel10)


class TestStep:
    def test_determinism(self, pure_death, torus10):
        pts = np.linspace(0, 10, 8, endpoint=False).reshape(-1, 1)
        runs = []
        for _ in range(2):
            state = SimulationState.initial(FiniteConfiguration(pts, torus10), seed=123)
            trace = []
            for _ in range(6):
                state = step(state, pure_death)
                trace.append((state.time, len(state.configuration)))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_input_state_not_mutated(self, pure_death, torus10):
        pts = np.linspace(0, 10, 5, endpoint=False).reshape(-1, 1)
        state = SimulationState.initial(FiniteConfiguration(pts, torus10), seed=5)
        before = dict(state.rng_state)
        a = step(state, pure_death)
        b = step(state, pure_death)
        assert state.rng_state == before
        assert a.time == b.time and len(a.configuration) == len(b.configuration)

    def test_pure_death_only_removes(self, pure_death, torus10):
        pts = np.linspace(0, 10, 10, endpoint=False).reshape(-1, 1)
        state = SimulationState.initial(FiniteConfiguration(pts, torus10), seed=7)
        sizes = [len(state.configuration)]
        for _ in range(10):
            state = step(state, pure_death)
            sizes.append(len(state.configuration))
        assert all(b - a == -1 for a, b in zip(sizes, sizes[1:]))

    def test_absorbing_empty_plain_model(self, torus10, kernel10):
        plain = BDLPModel(torus10, m=1.0, kappa_minus=0.1, kappa_plus=0.4,
                          a_minus=kernel10, a_plus=kernel10)
        state = SimulationState.initial(FiniteConfiguration.empty(torus10), seed=1)
        nxt = step(state, plain)
        assert math.isinf(nxt.time)
        assert len(nxt.configuration) == 0

    def test_step_scaled_at_one_matches_step(self, db_model, torus10):
        pts = np.linspace(0, 10, 6, endpoint=False).reshape(-1, 1)
        s0 = SimulationState.initial(FiniteConfiguration(pts, torus10), seed=11)
        a, b = s0, s0
        for _ in range(8):
            a = step(a, db_model)
            b = step(b, db_model, eps=1.0, scaled=True)
            assert a.time == b.time
            assert np.array_equal(a.configuration.points, b.configuration.points)

    def test_eps_validated(self, db_model, torus10):
        pts = np.linspace(0, 10, 6, endpoint=False).reshape(-1, 1)
        s0 = SimulationState.initial(FiniteConfiguration(pts, torus10), seed=11)
        for eps, scaled in BAD_EPS:
            with pytest.raises(ValueError, match="eps"):
                step(s0, db_model, eps=eps, scaled=scaled)
        for eps, scaled in ((0.0, False), (0.3, False), (0.3, True), (1.0, True)):
            assert step(s0, db_model, eps=eps, scaled=scaled).event_count == 1

    def test_scaled_bdlp_dispersal_rate_eps_free(self, torus10, kernel10):
        plain = BDLPModel(torus10, m=1.0, kappa_minus=0.0, kappa_plus=0.4,
                          a_minus=kernel10, a_plus=kernel10)
        for eps in (1.0, 0.3, 0.1):
            # total scaled birth rate (1/eps) * eps * kplus * n * |a| is eps-free
            assert plain.birth_total_bound(7, eps) / eps == pytest.approx(
                plain.birth_total_bound(7, 1.0), rel=1e-12)

    def test_population_cap(self, torus10, kernel10):
        exploder = BDLPModel(torus10, m=0.01, kappa_minus=0.0, kappa_plus=50.0,
                             a_minus=kernel10, a_plus=kernel10, kappa=5.0)
        state = SimulationState.initial(
            FiniteConfiguration(np.linspace(0, 10, 20, endpoint=False).reshape(-1, 1),
                                torus10), seed=3)
        with pytest.raises(SimulationAbort, match="population cap"):
            for _ in range(600):
                state = step(state, exploder, population_cap=100)


class TestThinning:
    def test_glauber_birth_locations_match_density(self):
        # frozen configuration: accepted proposals must follow b(x, gamma)/int b
        torus = Torus(1, 1.0)
        model = GlauberModel(torus, s=0.3, z=1.0, phi=BoxKernel(1.2, 0.15))
        frozen = np.array([[0.3], [0.42], [0.8]])
        rng = np.random.default_rng(2024)
        n_prop = 20000
        accepted = []
        for _ in range(n_prop):
            x, p, _ = model.propose_birth(rng, frozen)
            if rng.uniform() < p:
                accepted.append(x[0])
        accepted = np.asarray(accepted)

        fine = Grid(torus, 512)
        dens = np.array([model.birth(x, frozen) for x in fine.nodes])
        n_bins = 8
        edges = np.linspace(0, 1, n_bins + 1)
        expected = np.array([
            dens[(fine.nodes[:, 0] >= edges[i]) & (fine.nodes[:, 0] < edges[i + 1])].sum()
            for i in range(n_bins)])
        expected = expected / expected.sum() * len(accepted)
        observed, _ = np.histogram(accepted, bins=edges)
        stat, pvalue = chisquare(observed, expected)
        assert pvalue > 0.01


class TestEnsemble:
    def test_bit_exact_reproducibility(self, db_model, grid10):
        kwargs = dict(initial=PoissonInitial(0.6), T=1.0, replicas=6, seed=99,
                      estimator_grid=grid10, snapshot_times=[0.5, 1.0])
        a = run_ensemble(db_model, **kwargs)
        b = run_ensemble(db_model, **kwargs)
        assert np.array_equal(a.correlations.k1, b.correlations.k1)
        assert np.array_equal(a.correlations.k2, b.correlations.k2)
        assert np.array_equal(a.population_mean, b.population_mean)
        assert a.events == b.events

    def test_replicas_differ(self, db_model, grid10):
        res = run_ensemble(db_model, PoissonInitial(0.6), T=1.0, replicas=4,
                           seed=5, estimator_grid=grid10, snapshot_times=[1.0])
        counts = [ev["proposals"] for ev in res.events["per_replica"]]
        assert len(set(counts)) > 1

    def test_poisson_initial_moments(self, db_model, grid10):
        z = 0.6
        res = run_ensemble(db_model, PoissonInitial(z), T=0.0, replicas=400,
                           seed=7, estimator_grid=grid10, snapshot_times=[0.0])
        corr = res.correlations
        assert np.all(corr.k1 >= 0) and np.all(corr.k2 >= 0)
        assert np.all(np.isfinite(corr.k1_se)) and np.all(np.isfinite(corr.k2_se))
        k1_mean = corr.k1.mean()
        k1_se = corr.k1.std(ddof=1) / math.sqrt(len(corr.k1))
        assert abs(k1_mean - z) < 3 * max(k1_se, corr.k1_se.mean())
        mask = corr.k2_centers < 4.5
        k2_mean = corr.k2[mask].mean()
        assert abs(k2_mean - z * z) < 3 * max(corr.k2_se[mask].mean(), 1e-3)

    def test_pure_death_decay_law(self, pure_death, torus10, grid10):
        n0 = 30
        pts = np.linspace(0, 10, n0, endpoint=False).reshape(-1, 1)
        res = run_ensemble(pure_death, FixedInitial(pts), T=2.0, replicas=300,
                           seed=42, estimator_grid=grid10,
                           snapshot_times=[0.5, 1.0, 2.0])
        for i, t in enumerate([0.5, 1.0, 2.0]):
            p = math.exp(-t)
            se = math.sqrt(n0 * p * (1 - p) / 300)
            assert abs(res.population_mean[i] - n0 * p) < 3 * se

    def test_detailed_balance_density_invariant(self, db_model, torus10, grid10):
        z = 0.6
        res = run_ensemble(db_model, PoissonInitial(z), T=10.0, replicas=200,
                           seed=11, estimator_grid=grid10,
                           snapshot_times=[1.0, 5.0, 10.0])
        for i in range(3):
            k1 = res.population_mean[i] / torus10.volume
            se = res.population_se[i] / torus10.volume
            assert abs(k1 - z) < 3 * se

    def test_glauber_low_activity_matches_stationary_solver(self, torus10, grid10):
        # cross-module oracle: the long-run simulated density agrees with the
        # fixed point of the stationary hierarchy solver
        from birthdeath import GlauberModel, check_conditions, stationary_solve
        z = 0.25
        model = GlauberModel(torus10, s=0.0, z=z, phi=BoxKernel(0.4, 0.5))
        grid = Grid(torus10, 40)
        C = 1.2
        assert check_conditions(model, C, grid, scan_best_C=False).bound_3_2
        k1_ks = stationary_solve(model, grid, C, tol=1e-10).k_inv.k1[0]
        sim = run_ensemble(model, PoissonInitial(z), T=30.0, replicas=300, seed=13,
                           estimator_grid=grid, snapshot_times=[20.0, 25.0, 30.0],
                           burn_in=15.0)
        k1_sim = sim.population_mean.mean() / torus10.volume
        se = math.sqrt(float(np.mean(sim.population_se ** 2))) / torus10.volume
        assert abs(k1_sim - k1_ks) < 3 * se

    def test_threads_match_sequential(self, db_model, grid10):
        kwargs = dict(initial=PoissonInitial(0.6), T=0.5, replicas=4, seed=21,
                      estimator_grid=grid10, snapshot_times=[0.5])
        seq = run_ensemble(db_model, threads=1, **kwargs)
        par = run_ensemble(db_model, threads=2, **kwargs)
        assert np.array_equal(seq.correlations.k1, par.correlations.k1)
        assert np.array_equal(seq.population_mean, par.population_mean)

    def test_validates_eps(self, db_model, grid10):
        for eps, scaled in BAD_EPS:
            with pytest.raises(ValueError, match="eps"):
                run_ensemble(db_model, PoissonInitial(0.6), T=1.0, replicas=1, seed=0,
                             estimator_grid=grid10, eps=eps, scaled=scaled)

    def test_nan_snapshot_time_raises_at_once(self, db_model, grid10):
        # NaN sorts last and is never reached: unchecked, the chain never stops,
        # so an alarm ends the test instead of hanging the suite
        def hang(signum, frame):
            raise AssertionError("run_ensemble did not reject a NaN snapshot time")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            for times in ([0.0, math.nan], [math.nan], [0.5, math.inf], [-math.inf, 1.0]):
                with pytest.raises(ValueError, match="finite"):
                    run_ensemble(db_model, PoissonInitial(0.6), T=1.0, replicas=1, seed=0,
                                 estimator_grid=grid10, snapshot_times=times)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_validates_replicas(self, db_model, grid10):
        with pytest.raises(ValueError):
            run_ensemble(db_model, PoissonInitial(0.6), T=1.0, replicas=0,
                         seed=0, estimator_grid=grid10)
