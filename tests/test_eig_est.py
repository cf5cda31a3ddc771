"""EIG value estimators: oracle agreement, caps, bounds, convergence."""

import numpy as np
import pytest

from eigopt import (
    LinearModel,
    SimBudget,
    ToyModel,
    linear_eig_oracle,
    nmc_value,
    pce_value,
    srnmc_value,
)
from eigopt.errors import EstimatorError
from eigopt.models.base import Model
from eigopt.rng import substream


class UninformativeModel(Model):
    """Observations carry no information about theta: y = design + noise."""

    name = "uninformative"
    theta_dim = 1
    noise_dim = 2
    obs_dim = 2
    noise_sd = 1.0

    def design_bounds(self):
        return np.zeros(2), np.ones(2)

    def sample_prior_values(self, rng, size):
        return rng.uniform(0.0, 1.0, size=(size, 1))

    def log_prior(self, theta_values):
        return 0.0

    def forward(self, theta_values, lam):
        th = np.asarray(theta_values, dtype=float)
        return 0.0 * th[..., 0:1] + lam

    def sampling_scale(self):
        return np.ones(1)


class TestNmc:
    def test_zero_information_model(self):
        est = nmc_value(
            UninformativeModel(), np.array([0.3, 0.7]), 400, 200,
            np.random.default_rng(0), SimBudget(),
        )
        assert abs(est.value) < 3 * est.std_error + 1e-9

    def test_matches_linear_oracle(self):
        model = LinearModel(n_obs=3, sigma2=1.0)
        rng = substream(17, "nmc")
        lam = rng.uniform(-1, 1, 3)
        oracle, _ = linear_eig_oracle(lam, 1.0)
        est = nmc_value(model, lam, 2000, 2000, rng, SimBudget())
        assert abs(est.value - oracle) < 3 * est.std_error

    def test_cost_contract(self):
        budget = SimBudget()
        nmc_value(LinearModel(), np.zeros(3), 13, 7, np.random.default_rng(0), budget)
        assert budget.forward_evals == 13 * (7 + 1)

    def test_forced_self_inner_is_zero(self):
        # the log-ratio collapses when the inner sample equals the outer one
        model = LinearModel()
        rng = np.random.default_rng(1)
        thetas = model.sample_prior_values(rng, 5)
        eps = model.sample_noise_values(rng, 5)
        lam = np.array([0.1, -0.2, 0.5])
        f = model.forward(thetas, lam)
        y = model.observe(f, eps)
        ll_own, _, _ = model.log_density_value_and_partials(y, f)
        ll_inner, _, _ = model.log_density_value_and_partials(y[:, None, :], f[:, None, :])
        terms = ll_own - ll_inner[:, 0]
        np.testing.assert_allclose(terms, np.zeros(5), atol=1e-14)


class TestSrnmc:
    def test_cap_holds_exactly_on_random_trials(self):
        rng = substream(23, "cap")
        models = [LinearModel(sigma2=0.02), ToyModel(1e-3), ToyModel(0.1)]
        for t in range(300):
            model = models[t % len(models)]
            m = int(rng.integers(1, 12))
            est = srnmc_value(model, model.random_design(rng), m, rng, SimBudget())
            assert est.value <= np.log(m), (t, est.value, np.log(m))

    def test_single_sample_is_zero(self):
        est = srnmc_value(LinearModel(), np.zeros(3), 1, np.random.default_rng(0), SimBudget())
        assert est.value == 0.0

    def test_lower_bound_and_monotone_in_m(self):
        model = LinearModel(sigma2=0.1)
        lam = np.array([0.4, -0.7, 0.9])
        oracle, _ = linear_eig_oracle(lam, 0.1)
        reps = 300
        means, ses = [], []
        for M in (2, 8, 32):
            vals = [
                srnmc_value(model, lam, M, substream(29, M, r), SimBudget()).value
                for r in range(reps)
            ]
            means.append(np.mean(vals))
            ses.append(np.std(vals, ddof=1) / np.sqrt(reps))
        for k in range(len(means) - 1):
            assert means[k + 1] >= means[k] - 3 * np.hypot(ses[k], ses[k + 1])
        for m, s in zip(means, ses):
            assert m <= oracle + 3 * s

    def test_cost_is_m(self):
        budget = SimBudget()
        srnmc_value(LinearModel(), np.zeros(3), 21, np.random.default_rng(0), budget)
        assert budget.forward_evals == 21

    def test_fixed_batch_reproducible(self):
        model = ToyModel(0.1)
        rng = np.random.default_rng(7)
        batch = (model.sample_prior_values(rng, 6), model.sample_noise_values(rng, 6))
        lam = np.array([0.2, 0.8])
        a = srnmc_value(model, lam, budget=SimBudget(), batch=batch).value
        b = srnmc_value(model, lam, budget=SimBudget(), batch=batch).value
        assert a == b


class TestPce:
    def test_n_zero_is_identically_zero(self):
        est = pce_value(LinearModel(), np.zeros(3), 50, 0, np.random.default_rng(0), SimBudget())
        assert est.value == 0.0

    def test_cap_log_n_plus_one(self):
        rng = substream(31, "pce-cap")
        model = ToyModel(1e-3)
        for t in range(300):
            n = int(rng.integers(0, 6))
            est = pce_value(model, model.random_design(rng), 4, n, rng, SimBudget())
            assert est.value <= np.log(n + 1)

    def test_matches_oracle_at_large_samples(self):
        model = LinearModel(sigma2=2.0)  # modest EIG so the cap is far away
        lam = np.array([0.5, -0.5, 0.8])
        oracle, _ = linear_eig_oracle(lam, 2.0)
        est = pce_value(model, lam, 2000, 1000, substream(37, "pce"), SimBudget())
        assert abs(est.value - oracle) < 3 * est.std_error + 0.01

    def test_cost_contract(self):
        budget = SimBudget()
        pce_value(LinearModel(), np.zeros(3), 9, 4, np.random.default_rng(0), budget)
        assert budget.forward_evals == 9 * (4 + 1)


class TestCrossEstimatorAgreement:
    def test_all_three_agree_on_small_eig(self):
        model = LinearModel(sigma2=4.0)
        lam = np.array([0.3, 0.3, -0.3])
        rng = substream(41, "agree")
        a = nmc_value(model, lam, 3000, 1500, rng, SimBudget())
        b = srnmc_value(model, lam, 3000, rng, SimBudget())
        c = pce_value(model, lam, 3000, 1500, rng, SimBudget())
        tol = 3 * np.sqrt(a.std_error**2 + b.std_error**2) + 0.01
        assert abs(a.value - b.value) < tol
        assert abs(a.value - c.value) < tol

    def test_mse_decays_roughly_linearly(self):
        # empirical rate check: log MSE vs log M slope near -1
        model = LinearModel(sigma2=1.0)
        lam = np.array([0.4, -0.7, 0.9])
        oracle, _ = linear_eig_oracle(lam, 1.0)
        mses = []
        sizes = (8, 32, 128)
        for M in sizes:
            vals = np.array(
                [srnmc_value(model, lam, M, substream(43, M, r), SimBudget()).value
                 for r in range(300)]
            )
            mses.append(np.mean((vals - oracle) ** 2))
        slope = np.polyfit(np.log(sizes), np.log(mses), 1)[0]
        assert -1.3 <= slope <= -0.7


class TestErrors:
    def test_dead_inner_rows_raise(self):
        model = ToyModel(noise_sd=1e-6)
        rng = np.random.default_rng(0)
        with pytest.raises(EstimatorError):
            # observations pushed out of every atom's reach
            thetas = np.array([[0.2], [0.8]])
            eps = np.sign(rng.standard_normal((2, 2))) * 1e160
            srnmc_value(model, np.array([0.5, 0.5]), budget=SimBudget(), batch=(thetas, eps))
