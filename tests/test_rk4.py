"""The one RK4 engine (`hierarchy._TimeSteps`) of both time integrators.

The dt-order oracle halves dt and reads the observed order of each engine
against a fine reference; it holds for any arithmetic order of the stage
combination, and it fails when a stage weight or node is made first order.
The hierarchy's combination is pinned bit for bit against RK4 written out.
"""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from birthdeath import BoxKernel, CorrelationVector, GlauberModel, HierarchyConfig, evolve
from birthdeath.hierarchy import _apply_tables, _layout
from birthdeath import vlasov
from birthdeath.space import Grid, Torus
from birthdeath.vlasov import integrate

#: dt halved from 0.2 to 0.0125; the reference runs at a quarter of the finest
DTS = [0.2 / 2 ** j for j in range(5)]
REFERENCE_DT = DTS[-1] / 4
#: band of the observed orders (measured here 4.02-4.12 for `integrate` and
#: 4.02-4.15 for `evolve`)
ORDER_BAND = (3.8, 4.4)


@pytest.fixture(scope="module")
def setup():
    torus = Torus(1, 1.0)
    grid = Grid(torus, 32)
    model = GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))
    rho0 = 0.2 + 0.05 * np.cos(2.0 * math.pi * grid.nodes[:, 0])
    return model, grid, rho0


def observed_orders(final, distance):
    """log2 of the error ratio of consecutive dt, errors against the reference."""
    ref = final(REFERENCE_DT)
    errors = [distance(final(dt), ref) for dt in DTS]
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def test_vlasov_is_fourth_order_in_dt(setup):
    model, grid, rho0 = setup
    orders = observed_orders(lambda dt: integrate(model, grid, rho0, T=1.0, dt=dt).final().rho,
                             lambda a, b: float(np.max(np.abs(a - b))))
    assert all(ORDER_BAND[0] <= p <= ORDER_BAND[1] for p in orders), orders


def test_dense_hierarchy_is_fourth_order_in_dt(setup):
    model, grid, rho0 = setup
    k0 = CorrelationVector.coherent(grid, 1.5, rho0, order=2)
    cfg = HierarchyConfig(eps=0.5)
    orders = observed_orders(
        lambda dt: evolve(model, k0, T=1.0, dt=dt, cfg=cfg, check=False).final(),
        lambda a, b: a.diff_norm(b))
    assert all(ORDER_BAND[0] <= p <= ORDER_BAND[1] for p in orders), orders


@pytest.mark.parametrize("homogeneous", [False, True])
def test_hierarchy_combination_is_pinned(setup, homogeneous):
    """Two steps of `evolve` equal RK4 written out, with the stages added in
    the order y + h/6 f1 + h/3 f2 + h/3 f3 + h/6 f4, bit for bit."""
    model, grid, rho0 = setup
    k = CorrelationVector.coherent(grid, 1.5, 0.2 if homogeneous else rho0, order=2,
                                   homogeneous=homogeneous)
    cfg = HierarchyConfig()
    lay = _layout(model.hierarchy_tables(grid, cfg.eps), grid, homogeneous)
    h = 0.05

    def f(k1, k2):
        out = _apply_tables(lay, replace(k, k1=k1, k2=k2), cfg)
        return out.k1, out.k2

    y = (k.k1, k.k2)
    for _ in range(2):
        f1 = f(*y)
        f2 = f(*(a + 0.5 * h * b for a, b in zip(y, f1)))
        f3 = f(*(a + 0.5 * h * b for a, b in zip(y, f2)))
        f4 = f(*(a + h * b for a, b in zip(y, f3)))
        y = tuple(a + h / 6.0 * b1 + h / 3.0 * b2 + h / 3.0 * b3 + h / 6.0 * b4
                  for a, b1, b2, b3, b4 in zip(y, f1, f2, f3, f4))
    got = evolve(model, k, T=2 * h, dt=h, cfg=cfg, check=False).final()
    assert got.k0 == k.k0
    for want, have in zip(y, (got.k1, got.k2)):
        assert np.array_equal(have.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the engine writes into buffers it owns: every kept state equals RK4 written
# out of place (a new y + c * f per stage, as before the buffers), and no kept
# state shares memory with another or with the initial state, which the run
# leaves as it was


def rk4_out_of_place(y, f, axpy, check, h, steps):
    """The states after steps 1..steps of RK4 with each sum a new value."""
    out = []
    for i in range(1, steps + 1):
        f1 = f(y)
        f2 = f(axpy(y, 0.5 * h, f1))
        f3 = f(axpy(y, 0.5 * h, f2))
        f4 = f(axpy(y, h, f3))
        acc = axpy(axpy(axpy(axpy(y, h / 6.0, f1), h / 3.0, f2), h / 3.0, f3), h / 6.0, f4)
        y = check(acc)
        out.append(y)
    return out


def assert_owned(arrays, initial):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:] + initial:
            assert not np.shares_memory(a, b)


#: steps kept of 6: every one, and some (so a state buffer is reused)
KEPT_STEPS = [[1, 2, 3, 4, 5, 6], [2, 3, 6]]


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("kept", KEPT_STEPS)
def test_evolve_buffers_match_out_of_place_rk4(setup, homogeneous, kept):
    model, _, _ = setup
    grid = Grid(Torus(1, 1.0), 16)
    rho0 = 0.2 + 0.05 * np.cos(2.0 * math.pi * grid.nodes[:, 0])
    k = CorrelationVector.coherent(grid, 1.5, 0.2 if homogeneous else rho0, order=2,
                                   homogeneous=homogeneous)
    saved = (k.k1.copy(), k.k2.copy())
    cfg = HierarchyConfig()
    lay = _layout(model.hierarchy_tables(grid, cfg.eps), grid, homogeneous)
    h = 0.05
    run = evolve(model, k, T=6 * h, dt=h, cfg=cfg, snapshot_times=[s * h for s in kept],
                 check=False)
    want = rk4_out_of_place(
        k, lambda y: _apply_tables(lay, y, cfg),
        lambda y, c, f: replace(y, k1=y.k1 + c * f.k1, k2=y.k2 + c * f.k2), lambda y: y,
        run.dt, 6)
    assert len(run.snapshots) == len(kept)
    for step, got in zip(kept, run.snapshots):
        assert got.k0 == k.k0
        for have, exp in ((got.k1, want[step - 1].k1), (got.k2, want[step - 1].k2)):
            assert np.array_equal(have.view(np.int64), exp.view(np.int64)), step
    assert_owned([a for s in run.snapshots for a in (s.k1, s.k2)], [k.k1, k.k2])
    assert np.array_equal(k.k1, saved[0]) and np.array_equal(k.k2, saved[1])


@pytest.mark.parametrize("clips", [False, True])
@pytest.mark.parametrize("kept", KEPT_STEPS)
def test_integrate_buffers_match_out_of_place_rk4(setup, monkeypatch, clips, kept):
    model, grid, rho0 = setup
    rho0 = rho0.copy()
    saved = rho0.copy()
    h = 0.05
    if clips:
        # a sink that drives part of the density below zero within a step
        sink = np.linspace(0.0, 4.0, grid.node_count)
        monkeypatch.setattr(vlasov, "vlasov_rhs", lambda model, grid, rho: -0.5 * rho - sink)
    rhs = vlasov.vlasov_rhs
    clipped = []

    def clip(rho):
        if np.any(rho < 0.0):
            clipped.append(True)
            return np.maximum(rho, 0.0)
        return rho

    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if clips else "error", RuntimeWarning)
        run = integrate(model, grid, rho0, T=6 * h, dt=h, snapshot_times=[s * h for s in kept])
    want = rk4_out_of_place(rho0, lambda r: rhs(model, grid, r), lambda y, c, f: y + c * f,
                            clip, run.dt, 6)
    assert bool(clipped) == clips and (run.clipped_mass > 0.0) == clips
    for step, field in zip(kept, run.fields):
        assert np.array_equal(field.rho.view(np.int64), want[step - 1].view(np.int64)), step
    assert_owned([f.rho for f in run.fields], [rho0])
    assert np.array_equal(rho0, saved)
