"""Model contracts: sampling paths vs densities, budget accounting, and the
linear-model analytic machinery."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from eigopt import dual
from eigopt.dual import lift_design
from eigopt.models import (
    Design,
    LinearModel,
    PKModel,
    SimBudget,
    Stat5Model,
    ToyModel,
    linear_eig_oracle,
)
from eigopt.models.stat5 import EpoRCurve

ALL_MODELS = [
    LinearModel(n_obs=3, sigma2=1.0),
    ToyModel(noise_sd=0.1),
    PKModel(),
    Stat5Model(noise_sd=0.3),
]


def simulate(model, theta_values, eps, lam):
    """y = observe(forward(theta, lam), eps) for one theta."""
    return model.observe(model.forward(theta_values, lam), eps)


def fixed_design(model, rng):
    lam = model.random_design(rng).values
    if model.name == "stat5":
        # keep design times off the integration grid nodes so central
        # differences never straddle an interpolation kink
        snapped = np.abs(lam / 0.25 - np.round(lam / 0.25)) < 0.1
        lam = np.clip(np.where(snapped, lam + 0.05, lam), 0.0, 60.0)
    if model.name == "toy":
        # d1 = 0.4 is the |.|-kink of the response; stay away from it
        lam[0] = 0.2 if abs(lam[0] - 0.4) < 0.05 else lam[0]
    return lam


class TestDesign:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            Design(np.array([2.0]), np.array([0.0]), np.array([1.0]))

    def test_clip(self):
        d = Design(np.array([0.5]), np.array([0.0]), np.array([1.0]))
        assert d.clip([1.7]).values[0] == 1.0


class TestPriorAndNoise:
    def test_toy_prior_support(self):
        m = ToyModel()
        assert m.log_prior(np.array([0.5])) == 0.0
        assert m.log_prior(np.array([1.5])) == -np.inf

    def test_pk_prior_is_lognormal(self):
        m = PKModel()
        rng = np.random.default_rng(0)
        th = m.sample_prior_values(rng, 100_000)
        logs = np.log(th)
        np.testing.assert_allclose(
            logs.mean(axis=0), np.log([1.0, 0.1, 20.0]), atol=4 * np.sqrt(0.05 / 1e5)
        )
        np.testing.assert_allclose(logs.var(axis=0), 0.05, rtol=0.05)

    def test_noise_is_standard_normal(self):
        for model in ALL_MODELS:
            rng = np.random.default_rng(1)
            eps = model.sample_noise_values(rng, 100_000 // model.noise_dim)
            se = 1.0 / np.sqrt(eps.size)
            assert abs(eps.mean()) < 4 * se
            assert abs(eps.var() - 1.0) < 4 * np.sqrt(2.0) * se

    def test_noise_deterministic_per_seed(self):
        m = ToyModel()
        a = m.sample_noise_values(np.random.default_rng(5), 1)
        b = m.sample_noise_values(np.random.default_rng(5), 1)
        np.testing.assert_array_equal(a, b)


class TestSimulate:
    def test_linear_first_column_is_ones(self):
        m = LinearModel(n_obs=3)
        y = simulate(m, np.array([1.0, 0.0, 0.0]), np.zeros(3), np.array([0.3, -0.8, 0.5]))
        np.testing.assert_array_equal(y, np.ones(3))

    def test_toy_vanishes_at_origin(self):
        m = ToyModel()
        y = simulate(m, np.array([0.0]), np.zeros(2), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(y, np.zeros(2))

    def test_nonfinite_observation_names_theta_and_design(self):
        m = ToyModel()
        y = np.array([[0.1, 0.2], [np.inf, 0.3]])
        thetas = np.array([[0.25], [0.75]])
        with pytest.raises(FloatingPointError, match=r"theta=\[0\.75\], design=\[0\.5 0\.5\]"):
            m.require_finite(y, thetas, np.array([0.5, 0.5]))
        m.require_finite(y[0], thetas[0], np.array([0.5, 0.5]))

    def test_forward_cache_charges_once(self):
        m = PKModel()
        budget = SimBudget()
        key = SimpleNamespace(uid=0)
        theta = m.sample_prior_values(np.random.default_rng(0), 1)[0]
        lam = np.linspace(0.5, 12.0, 10)
        a = budget.cached_forward(key, lambda: m.forward(theta, lam))
        b = budget.cached_forward(key, lambda: m.forward(theta, lam))
        assert a is b
        assert budget.forward_evals == 1

    def test_cache_cleared_on_new_design_version(self):
        m = PKModel()
        budget = SimBudget()
        key = SimpleNamespace(uid=0)
        theta = m.sample_prior_values(np.random.default_rng(0), 1)[0]
        lam = np.linspace(0.5, 12.0, 10)
        budget.cached_forward(key, lambda: m.forward(theta, lam))
        budget.new_design_version()
        budget.cached_forward(key, lambda: m.forward(theta, lam))
        assert budget.forward_evals == 2


class TestLogLikelihood:
    def test_gaussian_mode_value(self):
        # scalar additive N(0,1) noise with y exactly at the mean
        m = LinearModel(n_obs=1, sigma2=1.0)
        theta = np.array([0.3, 0.2, 0.1])
        lam = np.array([0.7])
        y = simulate(m, theta, np.zeros(1), lam)
        ll = m.log_likelihood(y, theta, lam)
        np.testing.assert_allclose(ll, -0.5 * np.log(2 * np.pi), rtol=1e-12)

    def test_linear_matches_dense_mvn(self):
        m = LinearModel(n_obs=3, sigma2=0.7)
        rng = np.random.default_rng(2)
        lam = rng.uniform(-1, 1, 3)
        theta = rng.standard_normal(3)
        y = rng.standard_normal(3)
        got = float(dual.value_of(m.log_likelihood(y, theta, lam)))
        # independent dense evaluation of the quadratic form
        D = np.stack([np.ones(3), lam, lam**2], axis=1)
        mean = D @ theta
        cov = 0.7 * np.eye(3)
        want = float(stats.multivariate_normal.logpdf(y, mean, cov))
        assert abs(got - want) / abs(want) < 1e-12

    def test_pk_mixture_matches_marginalized_density(self):
        m = PKModel(mult_sd=0.1, add_sd=np.sqrt(0.1))
        rng = np.random.default_rng(3)
        theta = m.sample_prior_values(rng, 1)[0]
        lam = np.linspace(0.5, 12.0, 10)
        f = dual.value_of(
            simulate(m, theta, np.zeros(m.noise_dim), lam)
        )  # zero noise -> forward values
        for seed in range(3):
            y = simulate(m, theta, m.sample_noise_values(np.random.default_rng(seed), 1)[0], lam)
            got = float(dual.value_of(m.log_likelihood(y, theta, lam)))
            var = 0.01 * f**2 + 0.1
            want = float(np.sum(stats.norm.logpdf(dual.value_of(y), f, np.sqrt(var))))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_pk_mixture_density_vs_monte_carlo(self):
        # the analytic marginal must match an empirical density of the
        # two-noise sampling path at a few probe points
        m = PKModel(mult_sd=0.2, add_sd=0.3)
        theta = np.array([1.1, 0.09, 19.0])
        lam = np.array([2.0])
        mdl1 = PKModel(mult_sd=0.2, add_sd=0.3, n_times=1)
        f = dual.value_of(mdl1.forward(theta, lam)).item()
        rng = np.random.default_rng(0)
        eps = rng.standard_normal((1_000_000, 2))
        ys = f * (1 + 0.2 * eps[:, 0]) + 0.3 * eps[:, 1]
        sd = np.sqrt(0.04 * f * f + 0.09)
        for probe in (f, f + sd, f - 2 * sd):
            width = 0.05 * sd
            emp = np.mean(np.abs(ys - probe) < width) / (2 * width)
            ana = stats.norm.pdf(probe, f, sd)
            assert abs(emp - ana) / ana < 0.05

    def test_never_nan(self):
        m = ToyModel(noise_sd=1e-4)
        theta = np.array([0.5])
        lam = np.array([0.5, 0.5])
        y = np.array([1e9, -1e9])  # absurd observation: underflow territory
        ll = m.log_likelihood(y, theta, lam)
        assert not np.isnan(dual.value_of(ll))


class TestSamplingPathConsistency:
    """Draws from simulate must match the density exp(log_likelihood)."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_kolmogorov_smirnov(self, model):
        rng = np.random.default_rng(11)
        for rep in range(3):
            theta = model.sample_prior_values(rng, 1)[0]
            lam = fixed_design(model, rng)
            f = dual.value_of(model.forward(theta, lam))
            eps = model.sample_noise_values(rng, 10_000)
            ys = dual.value_of(model.observe(f, eps))
            dim = int(rng.integers(model.obs_dim))
            # conditional density of y[dim] with the other dims at f comes
            # straight from the model's own log likelihood
            grid = f[dim] + np.linspace(-8, 8, 4001) * (np.std(ys[:, dim]) + 1e-12)
            probe = np.tile(f, (grid.size, 1))
            probe[:, dim] = grid
            ll, _, _ = model.log_density_value_and_partials(probe, f[None, :])
            pdf = np.exp(ll - ll.max())
            cdf = np.cumsum(pdf)
            cdf /= cdf[-1]
            res = stats.ks_1samp(ys[:, dim], lambda q: np.interp(q, grid, cdf))
            assert res.pvalue > 1e-3, f"{model.name} rep {rep} dim {dim}"


class TestTotalGradient:
    """Likelihood tangents must be total design derivatives: through the
    simulated observation and the explicit design dependence."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(13)
        theta = model.sample_prior_values(rng, 1)[0]
        theta2 = model.sample_prior_values(rng, 1)[0]
        eps = model.sample_noise_values(rng, 1)[0]
        lam = fixed_design(model, rng)

        def ll_at(v):
            y = simulate(model, theta, eps, v)
            return model.log_likelihood(y, theta2, v)

        tangent = ll_at(lift_design(lam)).tangent
        for k in range(lam.size):
            h = 1e-5 * (1.0 + abs(lam[k]))
            hi, lo = lam.copy(), lam.copy()
            hi[k] += h
            lo[k] -= h
            fd = (float(ll_at(hi)) - float(ll_at(lo))) / (2 * h)
            assert abs(tangent[k] - fd) / (abs(fd) + 1e-12) < 1e-4, (model.name, k)


class TestLinearOracle:
    def test_single_observation_at_zero(self):
        U, g = linear_eig_oracle(np.array([0.0]), 1.0)
        np.testing.assert_allclose(U, 0.5 * np.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(g, [0.0], atol=1e-15)

    def test_single_observation_gradient_formula(self):
        # d/dl 0.5 log((1 + l^2 + l^4 + s2)/s2) = (l + 2 l^3)/(1 + l^2 + l^4 + s2)
        for lam, s2 in [(1.0, 1.0), (0.3, 0.5), (-0.9, 2.0)]:
            _, g = linear_eig_oracle(np.array([lam]), s2)
            want = (lam + 2 * lam**3) / (1 + lam**2 + lam**4 + s2)
            np.testing.assert_allclose(g, [want], rtol=1e-10)
        _, g = linear_eig_oracle(np.array([1.0]), 1.0)
        np.testing.assert_allclose(g, [0.75], rtol=1e-12)

    def test_duplicated_row_matches_2x2_determinant(self):
        a, s2 = 0.6, 0.8
        U2, _ = linear_eig_oracle(np.array([a, a]), s2)
        # brute-force 2x2: D rows identical, DD' entries all g = 1+a^2+a^4
        g = 1 + a**2 + a**4
        det = (g + s2) ** 2 - g**2
        np.testing.assert_allclose(U2, 0.5 * np.log(det / s2**2), rtol=1e-12)


class TestConjugatePosterior:
    def test_uninformative_limit_is_prior(self):
        m = LinearModel(n_obs=3, sigma2=1e8)
        rng = np.random.default_rng(0)
        lam = np.array([0.5, -0.5, 0.2])
        draws = m.conjugate_posterior_sample_batch(np.zeros((1, 3)), lam, 100_000, [rng])[0]
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.02)

    def test_mean_matches_analytic(self):
        m = LinearModel(n_obs=3, sigma2=0.5)
        rng = np.random.default_rng(1)
        lam = np.array([0.3, 0.9, -0.4])
        y = np.array([1.0, -0.5, 0.25])
        mean, cov = m.posterior_moments(y, lam)
        draws = m.conjugate_posterior_sample_batch(y[None, :], lam, 100_000, [rng])[0]
        se = np.sqrt(np.diag(cov) / 1e5)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mean), 4 * se)

    def test_no_observations_gives_prior(self):
        m = LinearModel(n_obs=0, sigma2=1.0)
        mean, cov = m.posterior_moments(np.zeros(0), np.zeros(0))
        np.testing.assert_allclose(mean, np.zeros(3))
        np.testing.assert_allclose(cov, np.eye(3))

    def test_single_draw_matches_batch_distribution(self):
        m = LinearModel(n_obs=2, sigma2=0.3)
        lam = np.array([0.2, -0.7])
        y = np.array([0.5, 1.0])
        draws = np.stack(
            [
                m.conjugate_posterior_sample_batch(
                    y[None, :], lam, 1, [np.random.default_rng(s)]
                )[0, 0]
                for s in range(20_000)
            ]
        )
        mean, cov = m.posterior_moments(y, lam)
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mean), 4 * se)


class TestStat5:
    def test_initial_state_observables(self):
        m = Stat5Model()
        paths = m.solve_paths(np.array([1.0, 0.1, 6.0]))
        np.testing.assert_allclose(paths[0, 0], 0.0)  # no phosphorylated STAT5 yet
        np.testing.assert_allclose(paths[0, 1], 0.26 * 3.71)

    def test_step_halving_changes_little(self):
        # linear interpolation of the solution grid makes the observables
        # second-order in the step; at 0.25 min the discretization error sits
        # far below the smallest observation noise (sd 1e-3)
        theta = np.array([2.0, 0.15, 5.0])
        lam = np.linspace(3.1, 57.3, 16)
        coarse = dual.value_of(Stat5Model(rk_step=0.25).forward(theta, lam))
        fine = dual.value_of(Stat5Model(rk_step=0.125).forward(theta, lam))
        assert np.max(np.abs(coarse - fine)) < 1e-3

    def test_batch_forward_matches_loop(self):
        m = Stat5Model()
        rng = np.random.default_rng(5)
        thetas = m.sample_prior_values(rng, 4)
        lam = np.linspace(2.0, 58.0, 16) + 0.1
        batch = dual.value_of(m.forward(thetas, lam))
        single = np.stack([dual.value_of(m.forward(t, lam)) for t in thetas])
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_nonfinite_state_reports_theta(self):
        m = Stat5Model()
        with pytest.raises(FloatingPointError, match="stat5"):
            m.solve_paths(np.array([1e12, 0.1, 6.0]))

    def test_nonfinite_row_of_a_batch_is_named(self):
        # tau = 1e-3 makes the delay chain far too stiff for the RK step
        m = Stat5Model()
        thetas = np.array([[[1.0, 0.1, 6.0], [2.0, 0.15, 5.0]],
                           [[1.5, 0.1, 1e-3], [2.0, 0.1, 4.0]]])
        with pytest.raises(FloatingPointError, match=r"theta=\[1\.5e\+00 1\.0e-01 1\.0e-03\]$"):
            m.solve_paths(thetas)
        assert np.all(np.isfinite(m.solve_paths(thetas[0])))


class TestEpoRCurve:
    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "epor.csv"
        p.write_text("t,value\n0,0.0\n10,1.0\n60,0.2\n")
        curve = EpoRCurve.from_csv(str(p))
        assert curve(5.0) == 0.5
        assert curve(-3.0) == 0.0  # clamped
        assert curve(90.0) == pytest.approx(0.2)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EpoRCurve.from_text("t,value\n0,0\n0,1\n")

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            EpoRCurve.from_text("t,value\n0,0\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            EpoRCurve.from_text("time;value\n0,0\n1,1\n")
