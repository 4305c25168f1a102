"""The one RK4 engine (`hierarchy._TimeSteps`) of both time integrators.

The dt-order oracle halves dt and reads the observed order of each engine
against a fine reference; it holds for any arithmetic order of the stage
combination, and it fails when a stage weight or node is made first order.
The hierarchy's combination is pinned bit for bit against RK4 written out.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from birthdeath import BoxKernel, CorrelationVector, GlauberModel, HierarchyConfig, evolve
from birthdeath.hierarchy import _apply_tables, _layout
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
