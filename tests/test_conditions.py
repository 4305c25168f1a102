import dataclasses
import math

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, ConditionReport, GlauberModel, beta_tau,
                        check_conditions, detailed_balance_bdlp, normalize_on_grid,
                        stationary_solve, verify_kernel_bounds)
from birthdeath.errors import ConditionError, KernelBoundError
from birthdeath.kernels import RadialKernel
from birthdeath.space import Grid, GridFunction, Torus

from conftest import random_configuration


class TestBetaTau:
    def test_tau_zero(self, grid16):
        phi = BoxKernel(0.4, 0.1)
        assert beta_tau(phi, 0.0, grid16) == 0.0

    def test_phi_zero(self, grid16):
        assert beta_tau(np.zeros(grid16.node_count), 0.7, grid16) == 0.0

    def test_box_potential_analytic(self, torus1):
        # phi = c on [0, w) with w a multiple of the spacing: the quadrature
        # hits the analytic value w |e^{c tau} - 1| exactly
        grid = Grid(torus1, 40)
        c, w = 0.8, 0.2
        vals = np.where(grid.nodes[:, 0] < w, c, 0.0)
        for tau in (-1.0, -0.3, 0.5, 1.0):
            expect = w * abs(math.exp(c * tau) - 1.0)
            assert beta_tau(GridFunction(grid, vals), tau, grid) == pytest.approx(expect, rel=1e-13)

    def test_tau_range(self, grid16):
        with pytest.raises(ValueError):
            beta_tau(BoxKernel(0.1, 0.1), 1.5, grid16)


class TestGlauberConditions:
    def test_zero_interaction_zero_activity(self, torus1, grid64):
        model = GlauberModel(torus1, s=0.3, z=0.0, phi=BoxKernel(0.0, 0.1))
        rep = check_conditions(model, 1.2, grid64)
        assert rep.a1 == 1.0 and rep.a2 == 0.0
        assert rep.bound_3_2 and rep.bound_2 and rep.nu_window

    def test_s_zero_small_activity(self, torus1, grid64):
        # pick z so that (z/C) e^{C beta_{-1}} = 0.4 < 1/2; then a1 = 1 and
        # the full bound 1.4 < 3/2 holds
        phi = BoxKernel(0.5, 0.1)
        C = 1.2
        b_m1 = beta_tau(phi, -1.0, grid64)
        z = 0.4 * C / math.exp(C * b_m1)
        model = GlauberModel(torus1, s=0.0, z=z, phi=phi)
        rep = check_conditions(model, C, grid64)
        assert rep.a1 == 1.0
        assert rep.sum_a == pytest.approx(1.4, rel=1e-12)
        assert rep.bound_3_2
        assert rep.inequalities["s0smallz"]["holds"]

    def test_tall_narrow_potential_separates_windows(self, torus1, grid64):
        # large phi_bar: the base inequality holds but the nu-strengthened
        # variant fails, so the alpha window is empty
        model = GlauberModel(torus1, s=1.0, z=0.2, phi=BoxKernel(2.0, 0.005))
        rep = check_conditions(model, 1.1, grid64)
        assert rep.bound_3_2
        assert rep.inequalities["sn0smallz"]["holds"]
        assert not rep.inequalities["stronger_sn0smallz"]["holds"]
        assert not rep.nu_window
        assert rep.alpha_window is None

    def test_window_arithmetic(self, torus1, grid64):
        model = GlauberModel(torus1, s=0.4, z=0.1, phi=BoxKernel(0.3, 0.08))
        rep = check_conditions(model, 1.3, grid64)
        assert rep.nu == math.exp(0.4 * 0.3)
        assert rep.nu_window
        lo, hi = rep.alpha_window
        assert 0 < lo < hi <= 1.0
        assert hi == pytest.approx(1.0 / rep.nu)
        assert lo == pytest.approx(rep.a2 / (1.3 * (1.5 - rep.a1)))

    def test_contraction_flags(self, torus1, grid64, rng):
        for _ in range(20):
            z = float(rng.uniform(0.0, 3.0))
            height = float(rng.uniform(0.0, 1.0))
            model = GlauberModel(torus1, s=float(rng.uniform(0, 1)), z=z,
                                 phi=BoxKernel(height, 0.1))
            C = float(rng.uniform(1.05, 4.0))
            rep = check_conditions(model, C, grid64)
            assert rep.bound_2 == (rep.sum_a < 2.0)
            if rep.bound_3_2:
                assert rep.bound_2
                assert rep.contraction_q < 0.5
            if rep.bound_2:
                assert rep.contraction_q < 1.0


class TestBDLPConditions:
    def test_reference_parameter_chain(self, torus1, grid64):
        # 4 kminus C = m/2 and 4 kplus a+ = (C/2) kminus a-  =>  delta = 4 and
        # a1 + a2/C = 1 + 1/8 + 1/4
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        m, C = 1.0, 2.0
        kminus = m / (8.0 * C)
        kplus = C * kminus / 8.0
        model = BDLPModel(torus1, m=m, kappa_minus=kminus, kappa_plus=kplus,
                          a_minus=a, a_plus=a)
        rep = check_conditions(model, C, grid64)
        assert rep.details["delta"] == pytest.approx(4.0, rel=1e-12)
        assert rep.a1 == pytest.approx(1.0 + 1.0 / 8.0, rel=1e-12)
        assert rep.a2 == pytest.approx(C / 4.0, rel=1e-12)
        assert rep.sum_a == pytest.approx(1.375, rel=1e-12)
        assert rep.bound_3_2
        assert all(item["holds"] for item in rep.inequalities.values())

    def test_zero_rates_trivially_admissible(self, torus1, grid64):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        model = BDLPModel(torus1, m=0.7, kappa_minus=0.0, kappa_plus=0.0,
                          a_minus=a, a_plus=a)
        rep = check_conditions(model, 1.5, grid64)
        assert rep.a1 == 1.0
        assert math.isinf(rep.details["delta"])
        assert rep.bound_3_2

    def test_modified_stationary_margin(self, torus1, grid64):
        # 2 max{kminus C, 2 kappa / C} = 0.9 m puts the model inside the
        # stationary window but outside the stronger hierarchy window
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        m, C = 1.0, 2.0
        kminus = 0.45 * m / C
        kappa = 0.1 * C * m / 4.0          # well below the kminus branch
        model = BDLPModel(torus1, m=m, kappa_minus=kminus, kappa_plus=0.0,
                          a_minus=a, a_plus=a, kappa=kappa)
        rep = check_conditions(model, C, grid64)
        assert rep.details["delta"] == pytest.approx(1.0 / 0.45 - 2.0, rel=1e-12)
        assert rep.a1 == pytest.approx(1.0 + 0.45 / (0.45 * 2 + 1.0 - 2 * 0.45), abs=1e-9)
        assert rep.a2 == pytest.approx(C / 2.0)
        assert rep.bound_2 and not rep.bound_3_2

    def test_pointwise_violation_reports_worst_node(self, torus1, grid64):
        # dispersal wider than competition violates the pointwise comparison
        a_minus = normalize_on_grid(BoxKernel(1.0, 0.05), grid64)
        a_plus = normalize_on_grid(BoxKernel(1.0, 0.3), grid64)
        model = BDLPModel(torus1, m=1.0, kappa_minus=0.02, kappa_plus=0.02,
                          a_minus=a_minus, a_plus=a_plus)
        rep = check_conditions(model, 1.5, grid64)
        item = rep.inequalities["smallparBDLP-2"]
        assert not item["holds"]
        assert item["worst_margin"] > 0
        assert 0 <= item["worst_node"] < grid64.node_count

    def test_best_C_scan(self, torus1, grid64):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        model = BDLPModel(torus1, m=1.0, kappa_minus=0.02, kappa_plus=0.01,
                          a_minus=a, a_plus=a)
        rep = check_conditions(model, 1.5, grid64)
        assert rep.best_C is not None
        assert rep.best_C["a1_plus_a2_over_C"] <= rep.sum_a + 1e-12


class TestOnePass:
    """Each check computes the C-independent quantities of its model once;
    the report at C and the scan for best_C share one constants(C)."""

    @staticmethod
    def models(torus, grid):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
        return {"glauber": GlauberModel(torus, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1)),
                "bdlp_modified": BDLPModel(torus, m=1.0, kappa_minus=0.15, kappa_plus=0.075,
                                           a_minus=a, a_plus=a, kappa=0.5)}

    @pytest.mark.parametrize("name", ["glauber", "bdlp_modified"])
    def test_profiles_computed_at_most_three_times(self, monkeypatch, name):
        torus = Torus(2, 1.0)
        grid = Grid(torus, 128)
        model = self.models(torus, grid)[name]
        calls = []
        profile = RadialKernel.profile

        def counted(kernel, grid):
            calls.append(kernel)
            return profile(kernel, grid)

        monkeypatch.setattr(RadialKernel, "profile", counted)
        check_conditions(model, 2.5, grid)
        assert 1 <= len(calls) <= 3

    @pytest.mark.parametrize("name", ["glauber", "bdlp_modified"])
    def test_best_C_is_the_minimum_over_the_scanned_reports(self, torus1, grid64, name):
        model = self.models(torus1, grid64)[name]
        scan = np.geomspace(1.01, 10, 120)
        sums = [check_conditions(model, float(c), grid64).sum_a for c in scan]
        first = int(np.argmin(sums))
        assert check_conditions(model, 1.5, grid64).best_C == {
            "C": float(scan[first]), "a1_plus_a2_over_C": sums[first]}

    def test_report_stores_its_inputs_and_derives_the_rest(self, torus1, grid64):
        rep = check_conditions(self.models(torus1, grid64)["glauber"], 1.5, grid64)
        assert [f.name for f in dataclasses.fields(ConditionReport)] == [
            "model", "C", "a1", "a2", "nu", "inequalities", "details", "best_C"]
        assert list(rep.as_dict()) == [
            "model", "C", "a1", "a2", "a1_plus_a2_over_C", "bound_3_2", "bound_2", "nu",
            "nu_window", "alpha_window", "contraction_q", "inequalities", "details", "best_C"]
        assert rep.sum_a == rep.a1 + rep.a2 / rep.C
        assert rep.contraction_q == rep.sum_a - 1.0

    def test_overflow_at_a_scanned_C_ranks_it_last(self, torus1, grid64):
        # exp(C beta_s) with beta_s ~ 82 overflows from C ~ 8.7 on, not at C = 1.5
        model = GlauberModel(torus1, s=1.0, z=0.1, phi=BoxKernel(6.0, 0.1))
        rep = check_conditions(model, 1.5, grid64)
        assert not rep.bound_2
        assert rep.best_C["C"] < 8.0 and math.isfinite(rep.best_C["a1_plus_a2_over_C"])
        with pytest.raises(ConditionError, match="contraction factor"):
            stationary_solve(model, grid64, 1.5)


class TestVerifyKernelBounds:
    def test_glauber_ratio_is_xi_independent(self, torus1, grid64, rng):
        phi = BoxKernel(0.4, 0.1)
        model = GlauberModel(torus1, s=0.5, z=0.3, phi=phi)
        C = 1.2
        rep = check_conditions(model, C, grid64)
        samples = [random_configuration(rng, torus1, n) for n in (1, 2, 3, 4)]
        a1_hat, a2_hat = verify_kernel_bounds(model, C, grid64, samples,
                                              declared=(rep.a1, rep.a2))
        assert a1_hat == pytest.approx(rep.a1, rel=1e-9)
        # birth ratio z e^{C beta_{s-1}} d / D is attained when the death
        # rate is flat, e.g. on singletons
        assert a2_hat <= rep.a2 * (1 + 1e-9)

    def test_bdlp_singleton_attains_declared(self, torus1, grid64):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        m, C = 1.0, 2.0
        model = BDLPModel(torus1, m=m, kappa_minus=m / (8 * C), kappa_plus=m / (64),
                          a_minus=a, a_plus=a)
        rep = check_conditions(model, C, grid64)
        singleton = [random_configuration(np.random.default_rng(0), torus1, 1)]
        a1_hat, _ = verify_kernel_bounds(model, C, grid64, singleton,
                                         declared=(rep.a1, rep.a2))
        assert a1_hat == pytest.approx(rep.a1, rel=1e-12)

    def test_zero_competition_ratio_is_one(self, torus1, grid64):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        model = BDLPModel(torus1, m=1.0, kappa_minus=0.0, kappa_plus=0.0,
                          a_minus=a, a_plus=a)
        singleton = [random_configuration(np.random.default_rng(1), torus1, 1)]
        a1_hat, a2_hat = verify_kernel_bounds(model, 1.5, grid64, singleton)
        assert a1_hat == pytest.approx(1.0, abs=1e-14)
        assert a2_hat == 0.0

    def test_exceeding_declared_raises(self, torus1, grid64, rng):
        model = GlauberModel(torus1, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.1))
        samples = [random_configuration(rng, torus1, 2)]
        with pytest.raises(KernelBoundError, match="exceeds declared"):
            verify_kernel_bounds(model, 1.2, grid64, samples, declared=(1.0, 1.0))

    def test_detailed_balance_within_declared(self, torus1, grid64, rng):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid64)
        model = detailed_balance_bdlp(torus1, m=1.0, kappa_minus=0.15, z=0.5, kernel=a)
        C = 2.5
        rep = check_conditions(model, C, grid64)
        samples = [random_configuration(rng, torus1, n) for n in (1, 2, 3, 4)]
        a1_hat, a2_hat = verify_kernel_bounds(model, C, grid64, samples,
                                              declared=(rep.a1, rep.a2))
        assert a1_hat <= rep.a1 * (1 + 1e-6)
        assert a2_hat <= rep.a2 * (1 + 1e-6)
