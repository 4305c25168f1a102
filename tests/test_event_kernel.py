"""The incremental thinning kernel against the O(n^2) proposal loop it replaced."""
import math

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, FiniteConfiguration, GaussianKernel,
                        GlauberModel, PoissonInitial, SimulationState,
                        detailed_balance_bdlp, normalize_on_grid, run_ensemble, step)
from birthdeath.simulate import _Chain
from birthdeath.space import Grid, Torus

TIME_RTOL = 1e-12
RATE_RTOL = 1e-12


def reference_proposal(points, rng, model, eps, birth_scale):
    """One thinning proposal with every death rate recomputed from all pairs.

    Returns (points, wait, kind, victim index or -1)."""
    d_vec = model.death_rates(points, eps)
    d_tot = float(d_vec.sum())
    b_bar = birth_scale * model.birth_total_bound(len(points), eps)
    total = d_tot + b_bar
    if total <= 0.0:
        return points, math.inf, "absorbed", -1
    wait = rng.exponential(1.0 / total)
    if rng.uniform(0.0, total) < d_tot:
        v = rng.uniform(0.0, d_tot)
        idx = int(np.searchsorted(np.cumsum(d_vec), v, side="right"))
        idx = min(idx, len(points) - 1)
        return np.delete(points, idx, axis=0), wait, "death", idx
    x, accept, _ = model.propose_birth(rng, points, eps)
    if rng.uniform() < accept:
        pts = np.vstack([points, model.torus.wrap(x).reshape(1, -1)])
        return pts, wait, "birth", len(pts) - 1
    return points, wait, "rejected", -1


def reference_trace(model, points, seed, n_events, eps=1.0, birth_scale=1.0):
    rng = np.random.default_rng(seed)
    t, trace = 0.0, []
    for _ in range(n_events):
        points, wait, kind, idx = reference_proposal(points, rng, model, eps, birth_scale)
        t += wait
        trace.append((kind, idx, t))
    return trace, points


def kernel_trace(model, points, seed, n_events, eps=1.0, birth_scale=1.0):
    rng = np.random.default_rng(seed)
    chain = _Chain(model, points, 0.0, eps, birth_scale, population_cap=10 ** 6)
    trace = []
    for _ in range(n_events):
        before = chain.points
        t = chain.next_time(rng)
        kind = chain.fire(rng, t)
        if kind == "death":
            differs = np.any(before[:-1] != chain.points, axis=1)
            idx = int(np.argmax(differs)) if differs.any() else len(before) - 1
        else:
            idx = len(chain.points) - 1 if kind == "birth" else -1
        trace.append((kind, idx, t))
    return trace, chain


def crowded_bdlp():
    # the sim-crowded benchmark model at a third of its density: d = 2,
    # detailed balance at z = 150, population ~150
    torus = Torus(2, 1.0)
    grid = Grid(torus, 16)
    kernel = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
    return BDLPModel(torus, m=1.0, kappa_minus=0.005, kappa_plus=0.75,
                     a_minus=kernel, a_plus=kernel, kappa=150.0)


def sparse_glauber():
    # the sim-sparse benchmark model: d = 1, birth proposals often rejected
    return GlauberModel(Torus(1, 1.0), s=0.5, z=40.0, phi=BoxKernel(0.4, 0.1))


def scaled_bdlp():
    torus = Torus(1, 10.0)
    kernel = normalize_on_grid(GaussianKernel(1.0, 0.3, 1.0), Grid(torus, 40))
    return detailed_balance_bdlp(torus, m=1.0, kappa_minus=0.5, z=3.0, kernel=kernel)


CASES = {
    "bdlp-d2": (crowded_bdlp, 150.0, 1.0, 1.0, 800),
    "glauber-d1-rejections": (sparse_glauber, 20.0, 1.0, 1.0, 1500),
    "bdlp-scaled-eps0.3": (scaled_bdlp, 3.0, 0.3, 1.0 / 0.3, 1500),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_quadratic_reference(case):
    # Kinds and victim indices agree exactly; event times to rounding, since
    # the kernel's rates come from maintained sums and the reference's from
    # all pairs.  No victim-index tie at cumulative-sum rounding has shown up
    # in these traces.
    make, intensity, eps, birth_scale, n_events = CASES[case]
    model = make()
    points = PoissonInitial(intensity).sample(np.random.default_rng(5), model.torus)
    ref, ref_points = reference_trace(model, points, 17, n_events, eps, birth_scale)
    got, chain = kernel_trace(model, points, 17, n_events, eps, birth_scale)
    assert [(k, i) for k, i, _ in got] == [(k, i) for k, i, _ in ref]
    np.testing.assert_allclose([t for *_, t in got], [t for *_, t in ref],
                               rtol=TIME_RTOL, atol=0)
    assert np.array_equal(chain.points, ref_points)
    kinds = {k for k, _, _ in ref}
    assert {"birth", "death"} <= kinds
    if case.startswith("glauber"):
        assert "rejected" in kinds


@pytest.mark.parametrize("make", [scaled_bdlp, sparse_glauber])
def test_maintained_rates_do_not_drift(make):
    model = make()
    eps = 0.3 if make is scaled_bdlp else 1.0
    rng = np.random.default_rng(3)
    points = PoissonInitial(3.0 if make is scaled_bdlp else 20.0).sample(rng, model.torus)
    chain = _Chain(model, points, 0.0, eps, 1.0 / eps, population_cap=10 ** 6)
    for _ in range(12_000):
        chain.fire(rng, chain.next_time(rng))
    assert len(chain.points) > 5
    np.testing.assert_allclose(chain.rates(), model.death_rates(chain.points, eps),
                               rtol=RATE_RTOL, atol=0)


def test_glauber_birth_evaluates_phi_once(monkeypatch):
    # the acceptance probability and the pair-sum update of an accepted
    # birth share one kernel row; it must equal the row and the acceptance
    # computed on their own
    torus = Torus(2, 3.0)
    model = GlauberModel(torus, s=0.5, z=2.0, phi=GaussianKernel(0.7, 0.3, 0.9))
    rng = np.random.default_rng(12)
    for n in (0, 1, 30):
        points = rng.uniform(0.0, torus.length, (n, 2))
        x, accept, row = model.propose_birth(np.random.default_rng(n), points, 0.7)
        # the location is the proposal's only draw
        assert np.array_equal(x, np.random.default_rng(n).uniform(0.0, torus.length, 2))
        assert accept == math.exp(0.7 * (model.s - 1.0) * model.pair_sum(model.phi, x, points))
        chain = _Chain(model, points, 0.0, 0.7, 1.0, population_cap=10 ** 6)
        assert np.array_equal(row, chain._kernel_at(torus.wrap(x).reshape(1, -1)))

    # s = 1 accepts every birth, and z dwarfs the death rates
    model = GlauberModel(Torus(1, 1.0), s=1.0, z=1e6, phi=BoxKernel(0.4, 0.1))
    points = rng.uniform(0.0, 1.0, (5, 1))
    chain = _Chain(model, points, 0.0, 1.0, 1.0, population_cap=10 ** 6)
    calls = []
    radial = BoxKernel.radial
    monkeypatch.setattr(BoxKernel, "radial", lambda self, r: calls.append(1) or radial(self, r))
    assert chain.fire(rng, chain.next_time(rng)) == "birth"
    assert len(calls) == 1
    np.testing.assert_allclose(chain.sums, model.death_sums(chain.points), rtol=RATE_RTOL)


def test_step_follows_the_long_lived_kernel():
    # step rebuilds the pair sums from scratch on every call and keeps the
    # configuration in lexicographic order; a long-lived kernel whose rows
    # are put in the same order after each event must visit the same
    # configurations at the same times, unscaled and scaled (birth x 1/eps)
    model = sparse_glauber()
    points = FiniteConfiguration(
        PoissonInitial(20.0).sample(np.random.default_rng(8), model.torus), model.torus)
    for eps, scaled, birth_scale in ((1.0, False, 1.0), (0.3, True, 1 / 0.3)):
        state = SimulationState.initial(points, seed=31)
        rng = state.generator()
        chain = _Chain(model, points.points, 0.0, eps, birth_scale, population_cap=10 ** 6)
        for _ in range(400):
            state = step(state, model, eps=eps, scaled=scaled)
            chain.fire(rng, chain.next_time(rng))
            order = np.lexsort(chain.points.T[::-1])
            chain.points, chain.sums = chain.points[order], chain.sums[order]
            assert np.array_equal(state.configuration.points, chain.points)
            assert state.time == pytest.approx(chain.time, rel=TIME_RTOL, abs=0)
            assert state.rng_state == rng.bit_generator.state


class RecordingInitial:
    """Poisson initial state that keeps every sample it draws."""

    def __init__(self, intensity):
        self.poisson = PoissonInitial(intensity)
        self.samples = []

    def sample(self, rng, torus):
        pts = self.poisson.sample(rng, torus)
        self.samples.append(pts)
        return pts


def test_ensembles_with_different_seeds_share_no_replica():
    torus = Torus(1, 10.0)
    grid = Grid(torus, 20)
    model = detailed_balance_bdlp(torus, m=1.0, kappa_minus=0.15, z=2.0,
                                  kernel=normalize_on_grid(BoxKernel(1.0, 0.5), grid))
    initials = []
    for seed in (0, 1):
        initial = RecordingInitial(2.0)
        run_ensemble(model, initial, T=0.0, replicas=4, seed=seed, estimator_grid=grid)
        initials.append(initial.samples)
    assert all(len(s) == 4 for s in initials)
    for a in initials[0]:
        for b in initials[1]:
            assert not (a.shape == b.shape and np.array_equal(a, b))
