import math

import numpy as np
import pytest
from scipy.optimize import brentq

from birthdeath import (BDLPModel, BoxKernel, CorrelationVector, GlauberModel,
                        evolve, normalize_on_grid,
                        scaling_compare, vlasov_rhs, vlasov_rhs_reference)
from birthdeath.errors import BlowUpError, StabilityError
from birthdeath.space import Grid, Torus
from birthdeath.vlasov import ScalingTable, integrate


@pytest.fixture
def glauber(torus1):
    return GlauberModel(torus1, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))


def bdlp(torus, grid, m=1.0, km=0.4, kp=1.8, kappa=0.0):
    a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
    return BDLPModel(torus, m=m, kappa_minus=km, kappa_plus=kp,
                     a_minus=a, a_plus=a, kappa=kappa)


class TestRhs:
    def test_zero_density_plain_is_absorbing(self, torus1, grid64):
        model = bdlp(torus1, grid64)
        assert np.all(vlasov_rhs(model, grid64, np.zeros(grid64.node_count)) == 0.0)

    def test_zero_density_immigration(self, torus1, grid64):
        model = bdlp(torus1, grid64, kappa=0.7)
        out = vlasov_rhs(model, grid64, np.zeros(grid64.node_count))
        assert np.allclose(out, 0.7)

    def test_homogeneous_glauber_closed_form(self, glauber, grid64):
        beta = glauber.phi.profile(grid64).sum() * grid64.weight
        for rho in (0.1, 0.4):
            out = vlasov_rhs(glauber, grid64, np.full(grid64.node_count, rho))
            expect = -rho * math.exp(glauber.s * beta * rho) \
                + glauber.z * math.exp((glauber.s - 1) * beta * rho)
            assert np.allclose(out, expect, atol=1e-12)

    def test_generic_reference_matches_closed_form(self, torus1, glauber, rng):
        grid = Grid(torus1, 16)
        rho = rng.uniform(0.05, 0.5, grid.node_count)
        model = bdlp(torus1, grid, kappa=0.2)
        for m in (glauber, model):
            d = np.max(np.abs(vlasov_rhs(m, grid, rho)
                              - vlasov_rhs_reference(m, grid, rho, n_max=8)))
            assert d < 1e-4

    def test_mean_balance_homogeneous(self, glauber, grid64):
        # for constant density the spatial mean of the rhs equals the scalar law
        rho = np.full(grid64.node_count, 0.27)
        out = vlasov_rhs(glauber, grid64, rho)
        assert abs(out.mean() - out[0]) < 1e-10

    def test_homogeneous_steps_follow_scalar_integrator(self, glauber, grid64):
        # the spectral path keeps constant fields constant, so per step the
        # mean density moves exactly like the scalar law under the same stepper
        beta = glauber.phi.profile(grid64).sum() * grid64.weight
        s, z = glauber.s, glauber.z

        def scalar_rhs(r):
            return -r * math.exp(s * beta * r) + z * math.exp((s - 1) * beta * r)

        dt = 0.05
        r = 0.27
        field = integrate(glauber, grid64, r, T=5 * dt, dt=dt,
                          snapshot_times=[dt * i for i in range(1, 6)])
        for f in field.fields:
            f1 = scalar_rhs(r)
            f2 = scalar_rhs(r + 0.5 * dt * f1)
            f3 = scalar_rhs(r + 0.5 * dt * f2)
            f4 = scalar_rhs(r + dt * f3)
            r = r + dt / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
            assert np.max(f.rho) - np.min(f.rho) < 1e-12
            assert abs(f.rho.mean() - r) < 1e-10


class TestIntegrate:
    def test_time_zero(self, glauber, grid64):
        res = integrate(glauber, grid64, 0.3, T=0.0, dt=0.01)
        assert res.final().time == 0.0
        assert np.all(res.final().rho == 0.3)

    def test_logistic_closed_form(self, torus1, grid64):
        model = bdlp(torus1, grid64, m=1.0, km=0.4, kp=1.8)
        rho0, T = 0.3, 5.0
        res = integrate(model, grid64, rho0, T, dt=0.002)
        r = 1.8 - 1.0
        exact = r * rho0 * math.exp(r * T) / (r + 0.4 * rho0 * (math.exp(r * T) - 1.0))
        assert abs(res.final().rho[0] - exact) / exact < 1e-6

    def test_glauber_steady_state_s_independent(self, torus1, grid64):
        phi = BoxKernel(0.4, 0.1)
        z = 0.3
        beta = phi.profile(grid64).sum() * grid64.weight
        rho_star = brentq(lambda r: r * math.exp(beta * r) - z, 0.0, z)
        finals = []
        for s in (0.0, 0.5, 1.0):
            model = GlauberModel(torus1, s=s, z=z, phi=phi)
            rho_f = integrate(model, grid64, 0.25, T=40.0, dt=0.02).final().rho[0]
            assert abs(rho_f * math.exp(beta * rho_f) - z) < 1e-8
            finals.append(rho_f)
        assert max(finals) - min(finals) < 1e-10
        assert abs(finals[0] - rho_star) < 1e-9

    def test_blowup_aborts(self, torus1, grid64):
        model = bdlp(torus1, grid64, m=1.0, km=0.0, kp=60.0)
        with pytest.raises(BlowUpError):
            integrate(model, grid64, 0.5, T=2.0, dt=0.005, blowup_sup=1e3)

    def test_dt_above_loss_bound_raises(self, torus1, grid64):
        # L = m + kappa_minus * (a- * rho) = 1 + 0.4 * 0.5 at the density 0.5
        # (a- has unit grid mass), so the bound is 1 / 2.4
        model = bdlp(torus1, grid64)
        bound = 1.0 / (2.0 * (1.0 + 0.4 * 0.5))
        integrate(model, grid64, 0.5, T=0.41, dt=0.41)
        with pytest.raises(StabilityError, match="dt = 0.42 exceeds the stability guard") as err:
            integrate(model, grid64, 0.5, T=0.42, dt=0.42)
        assert float(str(err.value).split()[-1]) == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("height,guard", [(800.0, "3."), (20000.0, "0.0")])
    def test_overflowing_loss_rate_raises_before_any_step(self, torus1, grid64, monkeypatch,
                                                          height, guard):
        # at height 800 the loss rate exp(s * phi * rho) peaks near 1.6e15 (its
        # run once made densities of 1e22 and a RuntimeWarning); at 20000 it
        # overflows, and the bound is 0
        model = GlauberModel(torus1, s=1.0, z=5.0, phi=BoxKernel(height, 0.1))

        def never(*args):
            raise AssertionError("a step was taken")
        monkeypatch.setattr(GlauberModel, "mean_field_rhs", never)
        with pytest.raises(StabilityError, match=f"dt = 0.05 exceeds the stability guard {guard}"):
            integrate(model, grid64, 0.2, T=0.2, dt=0.05)

    def test_snapshots(self, glauber, grid64):
        res = integrate(glauber, grid64, 0.2, T=1.0, dt=0.01,
                        snapshot_times=[0.5, 1.0])
        assert [f.time for f in res.fields] == pytest.approx([0.5, 1.0])


class TestTimeSteps:
    """`evolve` and `integrate` share one step plan and one snapshot rule."""

    @pytest.mark.parametrize("snapshot_times", [
        None,                     # T alone
        [0.1, 0.2],               # on steps; T is not requested
        [0.12, 0.3],              # off-step: the nearest step serves 0.12
        [0.1, 0.11, 0.1],         # duplicates share a step
        [0.3, 0.0, 0.15],         # unsorted, with t = 0
    ])
    def test_engines_share_times(self, glauber, grid16, snapshot_times):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.2, homogeneous=True)
        run = evolve(glauber, k0, T=0.3, dt=0.05, snapshot_times=snapshot_times, check=False)
        field = integrate(glauber, grid16, 0.2, T=0.3, dt=0.05, snapshot_times=snapshot_times)
        assert run.times == field.times == [f.time for f in field.fields]
        assert run.dt == field.dt == 0.3 / 6
        assert run.served == field.served
        requested = [0.3] if snapshot_times is None else snapshot_times
        assert len(run.served) == len(requested)
        for t, j in zip(requested, run.served):
            assert run.times[j] == round(t / run.dt) * run.dt
        # the state at T is kept and labelled 6 * dt, requested or not
        assert run.times[-1] == 6 * run.dt
        assert run.times == sorted(set(run.times))

    def test_time_zero_keeps_dt(self, glauber, grid16):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.2, homogeneous=True)
        run = evolve(glauber, k0, T=0.0, dt=0.05, snapshot_times=[0.0, 0.0], check=False)
        field = integrate(glauber, grid16, 0.2, T=0.0, dt=0.05, snapshot_times=[0.0, 0.0])
        assert run.times == field.times == [0.0]
        assert run.dt == field.dt == 0.05
        assert run.served == field.served == [0, 0]

    @pytest.mark.parametrize("T,dt,snapshot_times,named", [
        (1.0, 0.0, None, "dt = 0.0"),
        (1.0, -0.1, None, "dt = -0.1"),
        (1.0, math.nan, None, "dt = nan"),
        (1.0, math.inf, None, "dt = inf"),
        (-1.0, 0.1, None, "T = -1.0"),
        (math.inf, 0.1, None, "T = inf"),
        (math.nan, 0.1, None, "T = nan"),
        (0.3, 0.05, [0.1, 0.5], "snapshot time 0.5"),
        (0.3, 0.05, [-0.1], "snapshot time -0.1"),
        (0.3, 0.05, [math.nan], "snapshot time nan"),
        (0.3, 0.05, [math.inf], "snapshot time inf"),
    ])
    def test_bad_times_raise(self, glauber, grid16, T, dt, snapshot_times, named):
        k0 = CorrelationVector.coherent(grid16, 1.5, 0.2, homogeneous=True)
        with pytest.raises(ValueError, match=named):
            evolve(glauber, k0, T=T, dt=dt, snapshot_times=snapshot_times, check=False)
        with pytest.raises(ValueError, match=named):
            integrate(glauber, grid16, 0.2, T=T, dt=dt, snapshot_times=snapshot_times)

    def test_snapshot_within_rounding_of_T(self, glauber, grid16):
        field = integrate(glauber, grid16, 0.2, T=0.3, dt=0.05, snapshot_times=[0.3 + 1e-13])
        assert field.served == [0] and field.times == [6 * field.dt]


class TestScalingCompare:
    def test_glauber_monotone_in_eps(self, glauber, grid64):
        table = scaling_compare(glauber, grid64, [1.0, 0.3, 0.1, 0.03],
                                rho0=0.25, T=1.0, dt=0.01, C=1.5)
        errs = table.errors[:, -1]
        assert np.all(np.diff(errs) < 0)
        assert errs[-1] < 0.25 * errs[0]

    def test_error_is_first_order_in_eps(self, glauber, torus1):
        """The eps-order oracle: with eps halved from 1 to 1/32, the distance
        from the mean-field trajectory halves with eps (observed orders 0.90,
        0.95, 0.98, 0.99, 0.99), and at eps = 0 it is the kernel-order
        truncation floor (6.2e-8).  It holds for any arithmetic order of the
        operator.  A dropped eps in one Glauber table (D2, B2, Gd or Gb) moves
        the orders off the band or the floor above 1e-4, and the mean-field
        convolution scaled by 1 + 1e-3 lifts the floor to 2.8e-6."""
        grid = Grid(torus1, 32)
        rho0 = 0.2 + 0.05 * np.cos(2 * np.pi * grid.nodes[:, 0])
        eps = [2.0 ** -j for j in range(6)] + [0.0]
        errors = scaling_compare(glauber, grid, eps, rho0, T=1.0, dt=0.05, C=1.5).errors[:, 0]
        orders = [math.log2(a / b) for a, b in zip(errors[:5], errors[1:6])]
        assert all(0.9 <= p <= 1.1 for p in orders[-3:]), orders
        assert errors[-1] < 1e-6, errors[-1]

    def test_eps_orders_are_none_where_undefined(self):
        # equal eps, an eps of 0 and an error of 0 give no finite order
        table = ScalingTable([1.0, 1.0, 0.5, 0.25, 0.0], [0.5, 1.0],
                             np.array([[0.4, 0.2], [0.4, 0.2], [0.1, 0.1], [0.0, 0.05],
                                       [0.01, 0.01]]), [0.5, 1.0])
        orders = table.eps_orders()
        assert [[p is None for p in row] for row in orders] == [[True, False, True, True],
                                                                [True, False, False, True]]
        assert [orders[0][1], *orders[1][1:3]] == pytest.approx([2.0, 1.0, 1.0], rel=1e-12)

    def test_limit_symbols_track_mean_field(self, glauber, grid64):
        table = scaling_compare(glauber, grid64, [0.0], rho0=0.25,
                                T=1.0, dt=0.01, C=1.5)
        assert table.errors[0, -1] < 1e-4

    def test_chaos_propagation_of_pair_defect(self, glauber, grid64):
        # with the limit symbols and Poisson closure the coherent structure
        # persists: k2 - rho x rho stays at the truncation floor
        from birthdeath import CorrelationVector, HierarchyConfig, evolve
        rho0 = 0.25
        k0 = CorrelationVector.coherent(grid64, 1.5, rho0, homogeneous=True)
        cfg = HierarchyConfig(zeta_max=2, closure="poisson", eps=0.0)
        run = evolve(glauber, k0, T=1.0, dt=0.01, cfg=cfg, check=False)
        res = integrate(glauber, grid64, rho0, T=1.0, dt=0.01)
        defect = np.max(np.abs(run.final().k2 - res.final().rho[0] ** 2))
        assert defect < 1e-6

    def test_bdlp_dispersal_entries_eps_free_but_pair_level_not(self, torus1, grid64):
        # the singleton kernel entries cancel eps exactly; the empty-order
        # base at pairs keeps an eps-proportional term, so the trajectory
        # distance decreases with eps instead of being identical
        model = bdlp(torus1, grid64, m=1.0, km=0.3, kp=0.9, kappa=0.2)
        t1 = model.hierarchy_tables(grid64, eps=1.0)
        t2 = model.hierarchy_tables(grid64, eps=0.05)
        assert np.array_equal(t1.Ad, t2.Ad) and np.array_equal(t1.Ab, t2.Ab)
        assert not np.allclose(t1.D2, t2.D2)
        table = scaling_compare(model, grid64, [1.0, 0.3, 0.1],
                                rho0=0.3, T=1.0, dt=0.01, C=1.5)
        errs = table.errors[:, -1]
        assert np.all(np.diff(errs) < 0)

    def test_rows_layout(self, glauber, grid64):
        table = scaling_compare(glauber, grid64, [1.0, 0.1], rho0=0.2,
                                T=0.5, dt=0.01, C=1.5, snapshot_times=[0.25, 0.5])
        rows = list(table.rows())
        assert len(rows) == 4
        assert rows[0][0] == 1.0 and rows[-1][0] == 0.1
