import math

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, FiniteConfiguration, GaussianKernel,
                        GlauberModel, SetFunction, detailed_balance_bdlp, k_inverse,
                        normalize_on_grid)
from birthdeath.errors import ModelValidationError
from birthdeath.space import Grid, Torus

from conftest import random_configuration


@pytest.fixture
def glauber(torus1):
    return GlauberModel(torus1, s=0.5, z=0.3, phi=BoxKernel(0.4, 0.12))


@pytest.fixture
def bdlp(torus1, grid16):
    a = normalize_on_grid(BoxKernel(1.0, 0.1), grid16)
    return BDLPModel(torus1, m=1.0, kappa_minus=0.06, kappa_plus=0.03,
                     a_minus=a, a_plus=a, kappa=0.25)


def brute_force_kernel(model, x, xi_pts, eta, kind):
    """Signed subset sum of eta -> rate(x, eta u xi): the independent oracle."""
    rate = model.death if kind == "death" else model.birth

    def F(cfg):
        pts = np.vstack([cfg.points, xi_pts]) if len(xi_pts) else cfg.points
        return rate(x, pts)

    return k_inverse(SetFunction(F), eta)


class TestKernelClosedForms:
    def test_empty_entry_is_the_rate(self, glauber, bdlp, torus1, rng):
        empty = FiniteConfiguration.empty(torus1)
        for model in (glauber, bdlp):
            xi = random_configuration(rng, torus1, 2)
            x = rng.uniform(0, 1, 1)
            assert model.k0inv_death(x, xi, empty) == pytest.approx(model.death(x, xi), abs=0)
            assert model.k0inv_birth(x, xi, empty) == pytest.approx(model.birth(x, xi), abs=0)

    def test_glauber_s_zero_death_kernel_collapses(self, torus1, rng):
        model = GlauberModel(torus1, s=0.0, z=0.5, phi=BoxKernel(0.4, 0.12))
        x = rng.uniform(0, 1, 1)
        xi = random_configuration(rng, torus1, 2)
        assert model.k0inv_death(x, xi, FiniteConfiguration.empty(torus1)) == 1.0
        for n in (1, 2, 3):
            eta = random_configuration(rng, torus1, n)
            assert model.k0inv_death(x, xi, eta) == 0.0

    def test_glauber_s_one_birth_kernel_collapses(self, torus1, rng):
        model = GlauberModel(torus1, s=1.0, z=0.7, phi=BoxKernel(0.4, 0.12))
        x = rng.uniform(0, 1, 1)
        empty = FiniteConfiguration.empty(torus1)
        assert model.k0inv_birth(x, empty, empty) == 0.7
        assert model.k0inv_birth(x, empty, random_configuration(rng, torus1, 2)) == 0.0

    def test_glauber_singleton_matches_exponential_factor(self, glauber, torus1):
        x = np.array([0.3])
        y = np.array([[0.35]])
        eta = FiniteConfiguration(y, torus1)
        phi_val = float(glauber.phi.radial(torus1.distance(x, y[0])))
        expect = math.exp(glauber.s * phi_val) - 1.0
        got = glauber.k0inv_death(x, FiniteConfiguration.empty(torus1), eta)
        assert got == pytest.approx(expect, abs=1e-14)

    def test_glauber_birth_factor_range(self, glauber, torus1, rng):
        # the per-point birth factor lies in [-1, 0] since s <= 1 and phi >= 0
        for _ in range(30):
            x = rng.uniform(0, 1, 1)
            y = rng.uniform(0, 1, (1, 1))
            val = glauber.k0inv_birth(x, FiniteConfiguration.empty(torus1),
                                      FiniteConfiguration(y, torus1))
            assert -glauber.z <= val <= 0.0

    def test_bdlp_support_bound(self, bdlp, torus1, rng):
        assert bdlp.kernel_support_bound == 1
        x = rng.uniform(0, 1, 1)
        xi = random_configuration(rng, torus1, 1)
        eta2 = random_configuration(rng, torus1, 2)
        assert bdlp.k0inv_death(x, xi, eta2) == 0.0
        assert bdlp.k0inv_birth(x, xi, eta2) == 0.0

    def test_matches_brute_force(self, glauber, bdlp, torus1, rng):
        worst = 0.0
        for model in (glauber, bdlp):
            for _ in range(25):
                n_xi = int(rng.integers(0, 4))
                n_eta = int(rng.integers(0, 5))
                pts = rng.uniform(0, 1, (1 + n_xi + n_eta, 1))
                x, xi, eta_pts = pts[0], pts[1:1 + n_xi], pts[1 + n_xi:]
                eta = FiniteConfiguration(eta_pts, torus1)
                for kind in ("death", "birth"):
                    closed = (model.k0inv_death if kind == "death"
                              else model.k0inv_birth)(x, xi, eta)
                    brute = brute_force_kernel(model, x, xi, eta, kind)
                    worst = max(worst, abs(closed - brute))
        assert worst < 1e-10

    def test_member_point_rejected(self, glauber, torus1):
        x = np.array([0.25])
        xi = FiniteConfiguration([[0.25], [0.7]], torus1)
        with pytest.raises(ValueError, match="must not belong"):
            glauber.death(x, xi)
        with pytest.raises(ValueError, match="must not belong"):
            glauber.k0inv_death(x, xi, FiniteConfiguration.empty(torus1))


class TestScaledKernels:
    def test_eps_one_is_unscaled(self, glauber, bdlp, torus1, rng):
        for model in (glauber, bdlp):
            x = rng.uniform(0, 1, 1)
            xi = random_configuration(rng, torus1, 2)
            eta = random_configuration(rng, torus1, 2)
            assert model.k0inv_death(x, xi, eta, eps=1.0) == model.k0inv_death(x, xi, eta)
            assert model.k0inv_birth(x, xi, eta, eps=1.0) == model.k0inv_birth(x, xi, eta)

    def test_bdlp_singleton_entry_eps_free(self, bdlp, torus1, rng):
        x = rng.uniform(0, 1, 1)
        xi = random_configuration(rng, torus1, 1)
        eta = random_configuration(rng, torus1, 1)
        vals = [bdlp.k0inv_death(x, xi, eta, eps=e) for e in (1.0, 0.3, 0.05)]
        assert vals[0] == vals[1] == vals[2]
        bvals = [bdlp.k0inv_birth(x, xi, eta, eps=e) for e in (1.0, 0.3, 0.05)]
        assert bvals[0] == bvals[1] == bvals[2]

    def test_glauber_limit_is_potential(self, glauber, torus1):
        x = np.array([0.3])
        y = np.array([[0.36]])
        eta = FiniteConfiguration(y, torus1)
        phi_val = float(glauber.phi.radial(torus1.distance(x, y[0])))
        limit = glauber.k0inv_death(x, FiniteConfiguration.empty(torus1), eta, eps=0.0)
        assert limit == pytest.approx(glauber.s * phi_val, abs=1e-14)

    def test_vlasov_symbols_at_empty(self, glauber, bdlp, torus1, rng):
        x = rng.uniform(0, 1, 1)
        empty = FiniteConfiguration.empty(torus1)
        d, b = glauber.vlasov_symbols(x, empty)
        assert (d, b) == (1.0, glauber.z)
        d, b = bdlp.vlasov_symbols(x, empty)
        assert (d, b) == (bdlp.m, bdlp.kappa)
        plain = BDLPModel(torus1, m=2.0, kappa_minus=0.1, kappa_plus=0.1,
                          a_minus=bdlp.a_minus, a_plus=bdlp.a_plus)
        d, b = plain.vlasov_symbols(x, empty)
        assert (d, b) == (2.0, 0.0)

    def test_scaled_kernels_converge_to_symbols(self, glauber, torus1):
        # the renormalized kernels approach the limit symbols monotonically;
        # the configurations must interact, so keep them inside the support
        x = np.array([0.5])
        xi = FiniteConfiguration([[0.45], [0.56]], torus1)
        configs = [(x, xi, FiniteConfiguration([[0.54]], torus1)),
                   (x, xi, FiniteConfiguration([[0.43], [0.58]], torus1))]
        errs = []
        for eps in (1.0, 0.3, 0.1, 0.03, 0.01):
            worst = 0.0
            for xx, xi_c, eta in configs:
                lim = glauber.k0inv_death(xx, FiniteConfiguration.empty(torus1), eta, eps=0.0)
                worst = max(worst, abs(glauber.k0inv_death(xx, xi_c, eta, eps=eps) - lim))
            errs.append(worst)
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        assert errs[-1] < 0.02 * errs[0]


class TestModelStructure:
    def test_validation(self, torus1, grid16):
        with pytest.raises(ModelValidationError):
            GlauberModel(torus1, s=1.5, z=0.1, phi=BoxKernel(0.1, 0.1))
        with pytest.raises(ModelValidationError):
            GlauberModel(torus1, s=0.5, z=-0.1, phi=BoxKernel(0.1, 0.1))
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid16)
        with pytest.raises(ModelValidationError):
            BDLPModel(torus1, m=0.0, kappa_minus=0.1, kappa_plus=0.1, a_minus=a, a_plus=a)
        with pytest.raises(ValueError):
            GlauberModel(torus1, s=0.5, z=0.1, phi=BoxKernel(0.1, 0.8))

    def test_kernels_reject_nan_parameters(self):
        nan = math.nan
        for make in (lambda: BoxKernel(nan, 0.1), lambda: BoxKernel(0.4, nan),
                     lambda: GaussianKernel(nan, 0.05, 0.2), lambda: GaussianKernel(1.0, nan, 0.2),
                     lambda: GaussianKernel(1.0, 0.05, nan)):
            with pytest.raises(ValueError):
                make()

    def test_normalized_kernel_grid_mass_is_one(self, grid16):
        for base in (BoxKernel(2.0, 0.13), GaussianKernel(1.0, 0.05, 0.2)):
            a = normalize_on_grid(base, grid16)
            assert a.grid_mass(grid16) == pytest.approx(1.0, abs=1e-14)

    def test_glauber_birth_bounded_by_activity(self, glauber, torus1, rng):
        for _ in range(50):
            x = rng.uniform(0, 1, 1)
            xi = random_configuration(rng, torus1, int(rng.integers(0, 6)))
            assert 0.0 <= glauber.birth(x, xi) <= glauber.z

    def test_growth_bound_sampled(self, glauber, torus1, grid16, rng):
        C = 1.5
        a_k = normalize_on_grid(BoxKernel(1.0, 0.1), grid16)
        # competition strength below m / (4C) so the stored constant applies
        bdlp = BDLPModel(torus1, m=1.0, kappa_minus=0.12, kappa_plus=0.05,
                         a_minus=a_k, a_plus=a_k)
        for model in (glauber, bdlp):
            A, N, nu = model.growth_constants(C)
            assert nu >= 1.0 and A > 0
            for _ in range(60):
                n = int(rng.integers(0, 6))
                xi = random_configuration(rng, torus1, n)
                x = rng.uniform(0, 1, 1)
                bound = A * (1 + n) ** N * nu ** n
                assert model.death(x, xi) <= bound * (1 + 1e-12)

    def test_detailed_balance_builder(self, torus1, grid16, rng):
        a = normalize_on_grid(BoxKernel(1.0, 0.1), grid16)
        model = detailed_balance_bdlp(torus1, m=1.3, kappa_minus=0.2, z=0.4, kernel=a)
        assert model.kappa == pytest.approx(0.4 * 1.3)
        assert model.kappa_plus == pytest.approx(0.4 * 0.2)
        for _ in range(20):
            x = rng.uniform(0, 1, 1)
            xi = random_configuration(rng, torus1, int(rng.integers(0, 4)))
            assert model.birth(x, xi) == pytest.approx(0.4 * model.death(x, xi), rel=1e-12)

    def test_names(self, glauber, bdlp, torus1):
        assert glauber.name == "glauber"
        assert bdlp.name == "bdlp_modified"
        plain = BDLPModel(torus1, m=1.0, kappa_minus=0.0, kappa_plus=0.0,
                          a_minus=bdlp.a_minus, a_plus=bdlp.a_plus)
        assert plain.name == "bdlp"


def radial_of_minimage(kernel, torus, displacement):
    """Kernel at a displacement as `RadialKernel.value` computed it before the
    models evaluated `kernel.radial(torus.distance(x, pts))`."""
    d = torus.minimage(displacement)
    return kernel.radial(np.sqrt(np.sum(np.asarray(d) ** 2, axis=-1)))


def reference_rates(model, x, xi, eta, eps):
    """(death, birth, k0inv_death, k0inv_birth, |k0inv_death|, |k0inv_birth|)
    with every kernel value from `radial_of_minimage`; the last two at
    eps = 1, in the arithmetic of `k0inv_abs_setfunction`."""
    t = model.torus

    def pair_sum(kernel, pts):
        if len(pts) == 0:
            return 0.0
        return float(np.sum(radial_of_minimage(kernel, t, np.asarray(x) - pts)))

    if isinstance(model, GlauberModel):
        s_sum = pair_sum(model.phi, xi)
        vals = radial_of_minimage(model.phi, t, np.asarray(x) - eta)

        def rates(e):
            death = float(np.exp(e * model.s * s_sum))
            birth = model.z * math.exp(e * (model.s - 1.0) * s_sum)
            if len(eta) == 0:
                return death, birth, death, birth
            return (death, birth, death * float(np.prod(model._g_death(vals, e))),
                    birth * float(np.prod(model._g_birth(vals, e))))

        death1, birth1, _, _ = rates(1.0)
        abs_d, abs_b = abs(death1), abs(birth1)
        if len(eta):
            abs_d *= float(np.prod(np.abs(model._g_death(vals, 1.0))))
            abs_b *= float(np.prod(np.abs(model._g_birth(vals, 1.0))))
        return rates(eps) + (abs_d, abs_b)

    def rates(e):
        death = model.m + e * model.kappa_minus * pair_sum(model.a_minus, xi)
        birth = model.kappa + e * model.kappa_plus * pair_sum(model.a_plus, xi)
        if len(eta) == 0:
            return death, birth, death, birth
        if len(eta) == 1:
            disp = np.asarray(x) - eta[0]
            return (death, birth,
                    model.kappa_minus * float(radial_of_minimage(model.a_minus, t, disp)),
                    model.kappa_plus * float(radial_of_minimage(model.a_plus, t, disp)))
        return death, birth, 0.0, 0.0

    return rates(eps) + tuple(abs(v) for v in rates(1.0)[2:])


@pytest.mark.parametrize("dim", [1, 2])
def test_rates_match_minimage_kernel_bitwise(dim):
    # supports reach L/2, so displacements of exactly +-L/2 count
    torus = Torus(dim, 1.0)
    box, gauss = BoxKernel(0.4, 0.5), GaussianKernel(0.7, 0.2, 0.5)
    models = [GlauberModel(torus, s=0.5, z=0.3, phi=box),
              GlauberModel(torus, s=0.5, z=0.3, phi=gauss),
              BDLPModel(torus, m=1.0, kappa_minus=0.06, kappa_plus=0.03,
                        a_minus=box, a_plus=gauss, kappa=0.25),
              BDLPModel(torus, m=1.0, kappa_minus=0.06, kappa_plus=0.03,
                        a_minus=gauss, a_plus=box, kappa=0.25)]
    rng = np.random.default_rng(41)
    half = np.zeros(dim)
    half[-1] = 0.5
    empty = np.empty((0, dim))
    for x in (np.full(dim, 0.25), rng.uniform(0, 1, dim)):
        # x + L wraps onto x (displacement 0); x +- L/2 sit on the support edge
        edge = np.array([x + 1.0, x + half, x - half])
        others = rng.uniform(0, 1, (4, dim))
        xis = (empty, edge, np.vstack([edge, others]))
        etas = (empty, x[None], edge[1:2], np.array([x, x - half]), edge[1:] + 0.0,
                np.vstack([edge[2], others[0]]))
        for model in models:
            for xi in xis:
                for eta in etas:
                    sf_eta = FiniteConfiguration._from_array(eta, torus)
                    for eps in (0.0, 0.3, 1.0):
                        got = (model.death(x, xi, eps), model.birth(x, xi, eps),
                               model.k0inv_death(x, xi, eta, eps),
                               model.k0inv_birth(x, xi, eta, eps),
                               model.k0inv_abs_setfunction(x, xi, "death")(sf_eta),
                               model.k0inv_abs_setfunction(x, xi, "birth")(sf_eta))
                        want = reference_rates(model, x, xi, eta, eps)
                        assert np.array(got).tobytes() == np.array(want).tobytes(), \
                            (model, x, xi, eta, eps, got, want)
