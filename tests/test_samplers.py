"""Sampler correctness: stationary distributions, adaptation, accounting."""

import numpy as np
import pytest
from scipy import stats

from eigopt.models import LinearModel, SimBudget
from eigopt.samplers import (
    AdaptiveMHState,
    SamplerConfig,
    adaptive_mh_step,
    posterior_draws,
    run_chain,
    slice_update_1d,
)


def std_normal_logpdf(x):
    return -0.5 * float(x @ x)


class TestSliceUpdate:
    def test_flat_target_on_unit_interval_is_uniform(self):
        rng = np.random.default_rng(0)

        def log_target(x):
            return 0.0 if 0.0 <= x <= 1.0 else -np.inf

        x, log_fx = 0.5, 0.0
        draws = np.empty(10_000)
        for i in range(draws.size):
            x, log_fx, _ = slice_update_1d(log_target, x, log_fx, 0.7, 8, rng)
            draws[i] = x
        assert stats.kstest(draws, "uniform").pvalue > 1e-3

    def test_narrow_target_stays_in_support(self):
        rng = np.random.default_rng(1)

        def log_target(x):
            return 0.0 if abs(x - 0.3) < 1e-4 else -np.inf

        x, log_fx = 0.3, 0.0
        for _ in range(200):
            x, log_fx, _ = slice_update_1d(log_target, x, log_fx, 1.0, 8, rng)
            assert abs(x - 0.3) < 1e-4

    def test_huge_width_still_terminates(self):
        rng = np.random.default_rng(2)

        def log_target(x):
            return 0.0 if 0.0 <= x <= 1.0 else -np.inf

        x, log_fx, evals = slice_update_1d(log_target, 0.5, 0.0, 1e6, 4, rng)
        assert 0.0 <= x <= 1.0
        assert np.isfinite(log_fx)

    def test_level_inequality(self):
        # returned point always satisfies log f(x1) > level drawn below f(x0)
        rng = np.random.default_rng(3)
        x, log_fx = 0.0, 0.0
        for _ in range(100):
            x1, log_fx1, _ = slice_update_1d(lambda v: -0.5 * v * v, x, log_fx, 1.0, 8, rng)
            assert log_fx1 <= 0.0  # cannot exceed the mode
            x, log_fx = x1, log_fx1

    def test_requires_finite_start(self):
        with pytest.raises(ValueError):
            slice_update_1d(lambda v: -np.inf, 0.0, -np.inf, 1.0, 8, np.random.default_rng(0))


class TestRunChainSlice:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(4)
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=10_000)
        chain = run_chain(std_normal_logpdf, np.zeros(1), cfg, rng)
        xs = chain.draws[:, 0]
        n = xs.size
        assert abs(xs.mean()) < 4 / np.sqrt(n)
        assert abs(xs.var() - 1.0) < 4 * np.sqrt(2.0 / n)

    def test_eval_accounting_lower_bound(self):
        rng = np.random.default_rng(5)
        cfg = SamplerConfig(kind="slice", thinning=3, n_samples=50)
        chain = run_chain(std_normal_logpdf, np.zeros(2), cfg, rng)
        # every coordinate update takes at least one evaluation
        assert chain.n_target_evals >= len(chain.draws) * cfg.thinning
        assert chain.accept_rate == 1.0

    def test_determinism(self):
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=25)
        a = run_chain(std_normal_logpdf, np.zeros(2), cfg, np.random.default_rng(9))
        b = run_chain(std_normal_logpdf, np.zeros(2), cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.n_target_evals == b.n_target_evals


class TestAdaptiveMH:
    def test_acceptance_band_after_adaptation(self):
        rng = np.random.default_rng(6)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=1, n_samples=5000, mh_adapt_start=10)
        chain = run_chain(std_normal_logpdf, np.zeros(2), cfg, rng)
        assert 0.1 <= chain.accept_rate <= 0.6

    def test_symmetric_target_mean(self):
        rng = np.random.default_rng(7)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=1, n_samples=20_000, mh_adapt_start=10)
        chain = run_chain(std_normal_logpdf, np.zeros(1), cfg, rng)
        xs = chain.draws[2000:, 0]
        # correlated draws: generous 4-SE band using an effective-sample guess
        assert abs(xs.mean()) < 4 / np.sqrt(xs.size / 20)

    def test_uphill_proposals_always_accepted(self):
        state = AdaptiveMHState(x=np.array([5.0]), log_fx=-12.5, adapt_start=10)
        rng = np.random.default_rng(8)
        for _ in range(50):
            before = state.log_fx
            state = adaptive_mh_step(state, lambda v: -0.5 * float(v @ v), rng)
            if state.log_fx > before:
                pass  # accepted uphill: consistent
            # log_fx never decreases without an accepted downhill move
        assert state.n_accepted > 0

    def test_covariance_adaptation_recovers_scale_ratio(self):
        rng = np.random.default_rng(9)

        def log_target(x):
            return -0.5 * (x[0] ** 2 + x[1] ** 2 / 100.0)

        cfg = SamplerConfig(
            kind="adaptive_mh", thinning=1, n_samples=100_000, mh_adapt_start=10
        )
        chain = run_chain(log_target, np.zeros(2), cfg, rng)
        xs = chain.draws[20_000:]
        ratio = xs[:, 1].var() / xs[:, 0].var()
        assert 50 <= ratio <= 200

    def test_eval_accounting(self):
        rng = np.random.default_rng(10)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=5, n_samples=40)
        chain = run_chain(std_normal_logpdf, np.zeros(2), cfg, rng)
        assert chain.n_target_evals == 1 + 40 * 5


class TestPosteriorDraws:
    def test_exact_kind_matches_analytic_marginal(self):
        model = LinearModel(n_obs=2, sigma2=0.5)
        lam = np.array([0.4, -0.6])
        y = np.array([0.8, -0.1])
        cfg = SamplerConfig(kind="exact", n_samples=4000)
        xs = posterior_draws(model, y, lam, cfg, SimBudget(), np.random.default_rng(0))
        mean, cov = model.posterior_moments(y, lam)
        for k in range(3):
            res = stats.kstest(xs[:, k], "norm", args=(mean[k], np.sqrt(cov[k, k])))
            assert res.pvalue > 1e-3

    def test_stationarity_from_exact_start(self):
        # start each chain at an exact posterior draw; the k-th thinned state
        # must still be posterior-distributed
        model = LinearModel(n_obs=2, sigma2=0.5)
        lam = np.array([0.4, -0.6])
        y = np.array([0.8, -0.1])
        mean, cov = model.posterior_moments(y, lam)
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=3)
        rng = np.random.default_rng(1)
        last = np.empty(2000)
        for r in range(last.size):
            init = model.conjugate_posterior_sample_batch(y[None, :], lam, 1, rng)[0, 0]
            draws = posterior_draws(model, y, lam, cfg, SimBudget(), rng, init_theta=init)
            last[r] = draws[-1, 0]
        res = stats.kstest(last, "norm", args=(mean[0], np.sqrt(cov[0, 0])))
        assert res.pvalue > 1e-3

    def test_budget_counts_distinct_proposals_once(self):
        class Counting(LinearModel):
            calls = 0

            def log_likelihood(self, y, theta_values, lam):
                Counting.calls += 1
                return super().log_likelihood(y, theta_values, lam)

        model = Counting(n_obs=2, sigma2=0.5)
        lam = np.array([0.4, -0.6])
        budget = SimBudget()
        rng = np.random.default_rng(2)
        theta = model.sample_prior_values(rng, 1)[0]
        y = model.forward(theta, lam) + model.noise_sd * model.sample_noise_values(rng, 1)[0]
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=5)
        draws = posterior_draws(model, y, lam, cfg, budget, rng, init_theta=theta)
        # the Gaussian prior is finite everywhere, so every target evaluation
        # reaches the likelihood; each is charged once except the start's,
        # whose forward the caller already paid for, and kept draws are
        # states the chain has evaluated, so they cost nothing more
        assert Counting.calls > 1
        assert budget.forward_evals == Counting.calls - 1
        assert draws.shape == (5, 3)

    def test_mcmc_needs_init(self):
        model = LinearModel()
        cfg = SamplerConfig(kind="slice")
        with pytest.raises(ValueError, match="initial theta"):
            posterior_draws(
                model, np.zeros(3), np.zeros(3), cfg, SimBudget(), np.random.default_rng(0)
            )

    def test_exact_kind_requires_conjugate_model(self):
        from eigopt.models import ToyModel

        cfg = SamplerConfig(kind="exact")
        with pytest.raises(ValueError, match="exact posterior sampler"):
            posterior_draws(
                ToyModel(), np.zeros(2), np.zeros(2), cfg, SimBudget(), np.random.default_rng(0)
            )
