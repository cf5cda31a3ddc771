"""Sampler correctness: stationary distributions, adaptation, accounting,
and lockstep chains that match the same chains run alone."""

import numpy as np
import pytest
from scipy import stats

from eigopt.models import LinearModel, PKModel, SimBudget, ToyModel
from eigopt.samplers import SamplerConfig, posterior_draws, run_chain


def std_normal_logpdf(x):
    return -0.5 * np.sum(x * x, axis=-1)


def unit_interval_logpdf(x):
    return np.where((x[:, 0] >= 0.0) & (x[:, 0] <= 1.0), 0.0, -np.inf)


def slice_cfg(n, width, max_stepout):
    return SamplerConfig(
        kind="slice", thinning=1, n_samples=n, slice_width=width, slice_max_stepout=max_stepout
    )


class TestSliceUpdate:
    def test_flat_target_on_unit_interval_is_uniform(self):
        rng = np.random.default_rng(0)
        chain = run_chain(unit_interval_logpdf, [[0.5]], slice_cfg(10_000, 0.7, 8), [rng])
        assert stats.kstest(chain.draws[0, :, 0], "uniform").pvalue > 1e-3

    def test_narrow_target_stays_in_support(self):
        rng = np.random.default_rng(1)

        def log_target(x):
            return np.where(np.abs(x[:, 0] - 0.3) < 1e-4, 0.0, -np.inf)

        chain = run_chain(log_target, [[0.3]], slice_cfg(200, 1.0, 8), [rng])
        assert np.all(np.abs(chain.draws - 0.3) < 1e-4)

    def test_huge_width_still_terminates(self):
        rng = np.random.default_rng(2)
        chain = run_chain(unit_interval_logpdf, [[0.5]], slice_cfg(1, 1e6, 4), [rng])
        assert 0.0 <= chain.draws[0, 0, 0] <= 1.0

    def test_level_inequality(self):
        # every kept draw is a point the target evaluated, with a log target
        # that cannot exceed the mode
        rng = np.random.default_rng(3)
        seen = {}

        def log_target(x):
            val = -0.5 * x[:, 0] * x[:, 0]
            seen.update((float(v), float(f)) for v, f in zip(x[:, 0], val) if np.isfinite(v))
            return val

        chain = run_chain(log_target, [[0.0]], slice_cfg(100, 1.0, 8), [rng])
        for v in chain.draws[0, :, 0]:
            assert seen[float(v)] <= 0.0

    def test_requires_finite_start(self):
        with pytest.raises(ValueError, match="finite log target"):
            run_chain(
                lambda x: np.full(len(x), -np.inf), [[0.0]], slice_cfg(1, 1.0, 8),
                [np.random.default_rng(0)],
            )


class TestRunChainSlice:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(4)
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=10_000)
        chain = run_chain(std_normal_logpdf, np.zeros((1, 1)), cfg, [rng])
        xs = chain.draws[0, :, 0]
        n = xs.size
        assert abs(xs.mean()) < 4 / np.sqrt(n)
        assert abs(xs.var() - 1.0) < 4 * np.sqrt(2.0 / n)

    def test_eval_accounting_lower_bound(self):
        rng = np.random.default_rng(5)
        cfg = SamplerConfig(kind="slice", thinning=3, n_samples=50)
        chain = run_chain(std_normal_logpdf, np.zeros((1, 2)), cfg, [rng])
        # every coordinate update takes at least one evaluation
        assert chain.n_target_evals >= chain.draws.shape[1] * cfg.thinning
        assert chain.accept_rate == 1.0

    def test_determinism(self):
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=25)
        a = run_chain(std_normal_logpdf, np.zeros((1, 2)), cfg, [np.random.default_rng(9)])
        b = run_chain(std_normal_logpdf, np.zeros((1, 2)), cfg, [np.random.default_rng(9)])
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.n_target_evals == b.n_target_evals


class TestAdaptiveMH:
    def test_acceptance_band_after_adaptation(self):
        rng = np.random.default_rng(6)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=1, n_samples=5000, mh_adapt_start=10)
        chain = run_chain(std_normal_logpdf, np.zeros((1, 2)), cfg, [rng])
        assert 0.1 <= chain.accept_rate <= 0.6

    def test_symmetric_target_mean(self):
        rng = np.random.default_rng(7)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=1, n_samples=20_000, mh_adapt_start=10)
        chain = run_chain(std_normal_logpdf, np.zeros((1, 1)), cfg, [rng])
        xs = chain.draws[0, 2000:, 0]
        # correlated draws: generous 4-SE band using an effective-sample guess
        assert abs(xs.mean()) < 4 / np.sqrt(xs.size / 20)

    def test_uphill_proposals_always_accepted(self):
        # far out in the tail almost every proposal is uphill, and an uphill
        # proposal is always accepted
        rng = np.random.default_rng(8)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=1, n_samples=50)
        chain = run_chain(std_normal_logpdf, np.array([[5.0]]), cfg, [rng])
        assert chain.accept_rate > 0
        assert np.abs(chain.draws[0, -1, 0]) < 5.0

    def test_covariance_adaptation_recovers_scale_ratio(self):
        rng = np.random.default_rng(9)

        def log_target(x):
            return -0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2 / 100.0)

        cfg = SamplerConfig(
            kind="adaptive_mh", thinning=1, n_samples=100_000, mh_adapt_start=10
        )
        chain = run_chain(log_target, np.zeros((1, 2)), cfg, [rng])
        xs = chain.draws[0, 20_000:]
        ratio = xs[:, 1].var() / xs[:, 0].var()
        assert 50 <= ratio <= 200

    def test_eval_accounting(self):
        rng = np.random.default_rng(10)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=5, n_samples=40)
        chain = run_chain(std_normal_logpdf, np.zeros((1, 2)), cfg, [rng])
        assert chain.n_target_evals == 1 + 40 * 5


LOCKSTEP_CFGS = [
    SamplerConfig(kind="slice", thinning=2, n_samples=6),
    SamplerConfig(kind="slice", thinning=1, n_samples=4, slice_width=0.05, slice_max_stepout=2),
    SamplerConfig(kind="adaptive_mh", thinning=10, n_samples=6, mh_adapt_start=3),
]
LOCKSTEP_IDS = ["slice", "slice-narrow", "adaptive_mh"]


class TestLockstep:
    """A chain run in a batch is the same chain run alone, bit for bit."""

    @pytest.mark.parametrize("cfg", LOCKSTEP_CFGS, ids=LOCKSTEP_IDS)
    def test_run_chain_batch_equals_chains_alone(self, cfg):
        init = np.array([[0.0, 0.0], [3.0, -1.0], [-0.5, 8.0]])
        batch = run_chain(std_normal_logpdf, init, cfg, np.random.default_rng(1).spawn(3))
        alone = [
            run_chain(std_normal_logpdf, init[c:c + 1], cfg, [g])
            for c, g in enumerate(np.random.default_rng(1).spawn(3))
        ]
        np.testing.assert_array_equal(batch.draws, np.concatenate([a.draws for a in alone]))
        assert batch.n_target_evals == sum(a.n_target_evals for a in alone)
        assert batch.accept_rate == pytest.approx(np.mean([a.accept_rate for a in alone]))
        if cfg.kind == "adaptive_mh":
            # every chain adapts, so the per-chain proposal factors are used
            steps = cfg.thinning * cfg.n_samples
            assert min(a.accept_rate for a in alone) * steps > cfg.mh_adapt_start

    @pytest.mark.parametrize("cfg", LOCKSTEP_CFGS, ids=LOCKSTEP_IDS)
    @pytest.mark.parametrize("model", [PKModel(), ToyModel(0.1)], ids=["pk", "toy"])
    def test_posterior_draws_batch_equals_chains_alone(self, model, cfg):
        lam = model.random_design(np.random.default_rng(2)).values
        rng = np.random.default_rng(3)
        thetas = model.sample_prior_values(rng, 4)
        y = model.observe(model.forward(thetas, lam), model.sample_noise_values(rng, 4))
        budget = SimBudget()
        batch = posterior_draws(
            model, y, lam, cfg, budget, np.random.default_rng(4).spawn(4), init_theta=thetas
        )
        alone_budget = SimBudget()
        alone = [
            posterior_draws(
                model, y[c:c + 1], lam, cfg, alone_budget, [g], init_theta=thetas[c:c + 1]
            )
            for c, g in enumerate(np.random.default_rng(4).spawn(4))
        ]
        np.testing.assert_array_equal(batch, np.concatenate(alone))
        assert budget.forward_evals == alone_budget.forward_evals
        assert np.any(batch != thetas[:, None, :])


class TestPosteriorDraws:
    def test_exact_kind_matches_analytic_marginal(self):
        model = LinearModel(n_obs=2, sigma2=0.5)
        lam = np.array([0.4, -0.6])
        y = np.array([0.8, -0.1])
        cfg = SamplerConfig(kind="exact", n_samples=4000)
        xs = posterior_draws(model, y[None], lam, cfg, SimBudget(), [np.random.default_rng(0)])[0]
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
            init = model.conjugate_posterior_sample_batch(y[None, :], lam, 1, rng)[0]
            draws = posterior_draws(model, y[None], lam, cfg, SimBudget(), [rng], init_theta=init)
            last[r] = draws[0, -1, 0]
        res = stats.kstest(last, "norm", args=(mean[0], np.sqrt(cov[0, 0])))
        assert res.pvalue > 1e-3

    @staticmethod
    def counting(base):
        """`base` with counts of the target's rows: evaluated points (not
        NaN) that reach the prior, and rows that reach the likelihood."""

        class Counting(base):
            prior_rows = 0
            rows = 0

            def sampling_log_prior(self, z):
                Counting.prior_rows += int(np.count_nonzero(~np.isnan(z[:, 0])))
                return super().sampling_log_prior(z)

            def log_likelihood(self, y, theta_values, lam):
                Counting.rows += len(theta_values)
                return super().log_likelihood(y, theta_values, lam)

        return Counting

    def test_budget_counts_distinct_proposals_once(self):
        model = self.counting(LinearModel)(n_obs=2, sigma2=0.5)
        lam = np.array([0.4, -0.6])
        budget = SimBudget()
        rng = np.random.default_rng(2)
        theta = model.sample_prior_values(rng, 1)
        y = model.forward(theta, lam) + model.noise_sd * model.sample_noise_values(rng, 1)
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=5)
        draws = posterior_draws(model, y, lam, cfg, budget, [rng], init_theta=theta)
        # the Gaussian prior is finite everywhere, so every target evaluation
        # reaches the likelihood; each is charged once except the start's,
        # whose forward the caller already paid for, and kept draws are
        # states the chain has evaluated, so they cost nothing more
        assert model.rows > 1
        assert model.rows == model.prior_rows
        assert budget.forward_evals == model.rows - 1
        assert draws.shape == (1, 5, 3)

    def test_budget_with_several_chains(self):
        # wide toy slice steps leave the prior's support; those points, the
        # chains' starts and the NaN rows of finished chains cost nothing
        model = self.counting(ToyModel)(noise_sd=0.1)
        lam = np.array([0.3, 0.8])
        rng = np.random.default_rng(5)
        n = 6
        thetas = model.sample_prior_values(rng, n)
        y = model.observe(model.forward(thetas, lam), model.sample_noise_values(rng, n))
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=5, slice_width=3.0)
        budget = SimBudget()
        posterior_draws(model, y, lam, cfg, budget, rng.spawn(n), init_theta=thetas)
        assert model.prior_rows > model.rows > n
        assert budget.forward_evals == model.rows - n

    def test_mcmc_needs_init(self):
        model = LinearModel()
        cfg = SamplerConfig(kind="slice")
        with pytest.raises(ValueError, match="initial theta"):
            posterior_draws(
                model, np.zeros((1, 3)), np.zeros(3), cfg, SimBudget(), [np.random.default_rng(0)]
            )

    def test_exact_kind_requires_conjugate_model(self):
        cfg = SamplerConfig(kind="exact")
        with pytest.raises(ValueError, match="exact posterior sampler"):
            posterior_draws(
                ToyModel(), np.zeros((1, 2)), np.zeros(2), cfg, SimBudget(),
                [np.random.default_rng(0)],
            )
