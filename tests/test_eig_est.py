"""EIG value estimators: oracle agreement, caps, bounds, convergence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigopt import (
    LinearModel,
    PKModel,
    SimBudget,
    ToyModel,
    linear_eig_oracle,
    nmc_value,
    pce_value,
    srnmc_value,
)
from eigopt import dual
from eigopt.errors import EstimatorError
from eigopt.grad_est import _chunk_rows
from eigopt.models.base import Model
from eigopt.rng import substream

ROOT = Path(__file__).resolve().parent.parent


def unchunked_srnmc_terms(model, lam, thetas, eps):
    """The sample-reuse terms from the whole M x M likelihood matrix at once."""
    M = thetas.shape[0]
    f = model.forward(thetas, lam)
    y = model.observe(f, eps)
    ll, _, _ = model.log_density_value_and_partials(y[:, None, :], f[None, :, :])
    own = ll[np.arange(M), np.arange(M)]
    return np.minimum(own - dual.logsumexp(ll, axis=1), 0.0)


def unchunked_pce_terms(model, lam, M, N, rng):
    """The contrastive terms from all M*N inner samples at once, with the own
    term from its own likelihood call."""
    thetas = model.sample_prior_values(rng, M)
    eps = model.sample_noise_values(rng, M)
    f = model.forward(thetas, lam)
    y = model.observe(f, eps)
    ll_own, _, _ = model.log_density_value_and_partials(y, f)
    inner = model.sample_prior_values(rng, M * N).reshape(M, N, model.theta_dim)
    ll_in, _, _ = model.log_density_value_and_partials(y[:, None, :], model.forward(inner, lam))
    ll_all = np.concatenate([ll_own[:, None], ll_in], axis=1)
    return np.minimum(ll_own - dual.logsumexp(ll_all, axis=1), 0.0)


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

    def test_dead_row_named_by_global_index(self):
        # the sample-reuse matrix of 1500 toy atoms spans two row chunks;
        # only observation 1400, in the second chunk, is out of reach
        model = ToyModel(noise_sd=1e-6)
        rng = np.random.default_rng(0)
        thetas = model.sample_prior_values(rng, 1500)
        eps = model.sample_noise_values(rng, 1500)
        eps[1400] = 1e160
        assert _chunk_rows(1500, model.obs_dim) < 1400
        with pytest.raises(EstimatorError, match=r"observation 1400$"):
            srnmc_value(model, np.array([0.5, 0.5]), budget=SimBudget(), batch=(thetas, eps))


class TestChunkedKernels:
    """The chunked kernels against copies of the unchunked code, at sizes
    that span two row chunks."""

    def test_srnmc_matches_unchunked(self):
        model = PKModel()
        lam = model.random_design(substream(61, "design")).values
        M = 700
        assert _chunk_rows(M, model.obs_dim) < M
        est = srnmc_value(model, lam, M, substream(61, "srnmc"), SimBudget())
        rng = substream(61, "srnmc")
        thetas = model.sample_prior_values(rng, M)
        terms = unchunked_srnmc_terms(model, lam, thetas, model.sample_noise_values(rng, M))
        assert est.value == float(np.mean(terms) + np.log(M))
        assert est.std_error == float(np.std(terms, ddof=1) / np.sqrt(M))

    def test_pce_matches_unchunked(self):
        model = PKModel()
        lam = model.random_design(substream(62, "design")).values
        M = N = 700
        assert _chunk_rows(N + 1, model.obs_dim) < M
        budget = SimBudget()
        est = pce_value(model, lam, M, N, substream(62, "pce"), budget)
        terms = unchunked_pce_terms(model, lam, M, N, substream(62, "pce"))
        assert est.value == float(np.mean(terms) + np.log(N + 1))
        assert est.std_error == float(np.std(terms, ddof=1) / np.sqrt(M))
        assert budget.forward_evals == M * (N + 1)

    @pytest.mark.parametrize("name", ["srnmc_value", "pce_value"])
    def test_peak_memory_bounded_at_large_sizes(self, name):
        # M = N = 2000 on the model of the PK `eig` config, in a fresh
        # process whose peak resident set (ru_maxrss, KiB on Linux) is its own
        args = "2000, rng" if name == "srnmc_value" else "2000, 2000, rng"
        code = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from eigopt import eig_est\n"
            "from eigopt.config import ExperimentConfig\n"
            "model = ExperimentConfig.from_yaml(sys.argv[1]).build_model()\n"
            "rng = np.random.default_rng(0)\n"
            "lam = model.random_design(rng)\n"
            f"eig_est.{name}(model, lam, {args})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "configs" / "pk_small_eig_beeg.yaml")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
            capture_output=True, text=True, check=True,
        )
        peak_mb = int(run.stdout.split()[-1]) / 1024
        assert peak_mb < 1024, peak_mb
