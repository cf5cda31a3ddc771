"""Gradient estimators: unbiasedness, the atomic-prior/sample-reuse
identity, finite-difference agreement, and cost contracts."""

import numpy as np
import pytest

from eigopt import (
    LinearModel,
    PKModel,
    SamplerConfig,
    SimBudget,
    Stat5Model,
    ToyModel,
    beeg_ap_gradient,
    linear_eig_oracle,
    pce_gradient,
    srnmc_value,
    ueeg_mcmc_gradient,
)
from eigopt import dual
from eigopt.dual import lift_design
from eigopt.eig_est import pce_value, srnmc_dual_gradient
from eigopt.errors import EstimatorError
from eigopt.grad_est import _chunk_rows, softmax_rows
from eigopt.rng import substream
from eigopt.samplers import posterior_draws

# identity/FD checks run the models at noise scales where the atom weights
# are informative (tiny noise underflows all off-diagonal likelihoods and
# makes the gradients exactly zero, which tests nothing)
IDENTITY_CASES = [
    (LinearModel(n_obs=3, sigma2=1.0), 8),
    (ToyModel(noise_sd=0.1), 8),
    (PKModel(), 6),
    (Stat5Model(noise_sd=0.5), 5),
]


def per_draw_ueeg_reference(model, lam, M, cfg, rng):
    """UEEG-MCMC gradient with one likelihood tangent per draw, summed
    draw by draw, and each chain run alone; each outer sample's child stream
    draws theta, then eps, then its chain, as in `ueeg_mcmc_gradient`."""
    lam_dual = lift_design(lam)
    terms = []
    for child in rng.spawn(M):
        theta = model.sample_prior_values(child, 1)[0]
        eps = model.sample_noise_values(child, 1)[0]
        y = model.observe(model.forward(theta, lam_dual), eps)
        draws = posterior_draws(
            model, y.value[None], lam, cfg, SimBudget(), [child], init_theta=theta[None]
        )[0]
        t_own = model.log_likelihood(y, theta, lam_dual).tangent
        t_post = np.zeros_like(t_own)
        for theta_p in draws:
            t_post += model.log_likelihood(y, theta_p, lam_dual).tangent
        terms.append(t_own - t_post / len(draws))
    return np.mean(terms, axis=0)


def unchunked_beeg_ap_gradient(model, lam, thetas, eps):
    """BEEG-AP from the whole M x M likelihood matrix and one contraction."""
    M = thetas.shape[0]
    lam_dual = lift_design(lam)
    f = model.forward(thetas, lam_dual)
    y = model.observe(f, eps)
    ll, d_dy, d_df = model.log_density_value_and_partials(
        y.value[:, None, :], f.value[None, :, :]
    )
    coeff = np.eye(M) - softmax_rows(ll)
    ay = np.einsum("ab,abt->at", coeff, d_dy)
    bf = np.einsum("ab,abt->bt", coeff, d_df)
    return (np.einsum("at,atk->k", ay, y.tangent) + np.einsum("bt,btk->k", bf, f.tangent)) / M


def unchunked_pce_gradient(model, lam, M, N, rng):
    """PCE gradient from all M*N contrastive samples and one contraction."""
    lam_dual = lift_design(lam)
    thetas = model.sample_prior_values(rng, M)
    eps = model.sample_noise_values(rng, M)
    f = model.forward(thetas, lam_dual)
    y = model.observe(f, eps)
    inner = model.sample_prior_values(rng, M * N).reshape(M, N, model.theta_dim)
    f_all = dual.concatenate([f[:, None, :], model.forward(inner, lam_dual)], axis=1)
    ll, d_dy, d_df = model.log_density_value_and_partials(y.value[:, None, :], f_all.value)
    coeff = -softmax_rows(ll)
    coeff[:, 0] += 1.0
    ay = np.einsum("ab,abt->at", coeff, d_dy)
    af = coeff[..., None] * d_df
    return (np.einsum("at,atk->k", ay, y.tangent)
            + np.einsum("abt,abtk->k", af, f_all.tangent)) / M


def identity_design(model, rng):
    lam = model.random_design(rng).values
    if model.name == "stat5":
        snapped = np.abs(lam / 0.25 - np.round(lam / 0.25)) < 0.1
        lam = np.clip(np.where(snapped, lam + 0.05, lam), 0.0, 60.0)
    if model.name == "toy":
        lam[0] = 0.2 if abs(lam[0] - 0.4) < 0.05 else lam[0]
    return lam


class TestBeegApIdentity:
    @pytest.mark.parametrize("model,M", IDENTITY_CASES, ids=lambda c: getattr(c, "name", c))
    def test_equals_dual_gradient_of_srnmc(self, model, M):
        rng = substream(123, "identity", model.name)
        for rep in range(2):
            thetas = model.sample_prior_values(rng, M)
            eps = model.sample_noise_values(rng, M)
            lam = identity_design(model, rng)
            g1 = beeg_ap_gradient(
                model, lam, M, rng, SimBudget(), batch=(thetas, eps)
            ).gradient
            _, g2 = srnmc_dual_gradient(model, lam, (thetas, eps), SimBudget())
            rel = np.max(np.abs(g1 - g2) / (np.abs(g2) + 1e-12))
            assert rel < 1e-10, (model.name, rep, rel)

    @pytest.mark.parametrize("model,M", IDENTITY_CASES, ids=lambda c: getattr(c, "name", c))
    def test_equals_finite_differences_of_srnmc(self, model, M):
        rng = substream(456, "fd", model.name)
        thetas = model.sample_prior_values(rng, M)
        eps = model.sample_noise_values(rng, M)
        lam = identity_design(model, rng)
        g = beeg_ap_gradient(model, lam, M, rng, SimBudget(), batch=(thetas, eps)).gradient

        def value_at(v):
            return srnmc_value(model, v, budget=SimBudget(), batch=(thetas, eps)).value

        for k in range(lam.size):
            h = 1e-5 * (1 + abs(lam[k]))
            hi, lo = lam.copy(), lam.copy()
            hi[k] += h
            lo[k] -= h
            fd = (value_at(hi) - value_at(lo)) / (2 * h)
            assert abs(g[k] - fd) / (abs(fd) + 1e-12) < 1e-4, (model.name, k)

    def test_single_atom_gradient_is_zero(self):
        model = ToyModel(0.1)
        est = beeg_ap_gradient(
            model, np.array([0.3, 0.6]), 1, np.random.default_rng(0), SimBudget()
        )
        np.testing.assert_array_equal(est.gradient, np.zeros(2))

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        ll = rng.normal(size=(5, 7))
        shifted = ll + rng.normal(size=(5, 1))  # per-row constant
        np.testing.assert_allclose(softmax_rows(ll), softmax_rows(shifted), rtol=1e-12)

    def test_cost_is_exactly_m(self):
        model = LinearModel()
        budget = SimBudget()
        est = beeg_ap_gradient(model, np.zeros(3), 64, np.random.default_rng(1), budget)
        assert budget.forward_evals == 64
        assert est.forward_evals_used == 64


class TestUeegMcmc:
    def test_unbiased_with_exact_sampler(self):
        model = LinearModel(n_obs=3, sigma2=1.0)
        cfg = SamplerConfig(kind="exact", n_samples=10)
        for j in range(3):
            lam = substream(99, "design", j).uniform(-1, 1, 3)
            _, oracle = linear_eig_oracle(lam, 1.0)
            grads = np.stack(
                [
                    ueeg_mcmc_gradient(
                        model, model.design(lam), 200, cfg, substream(99, "rep", j, r), SimBudget()
                    ).gradient
                    for r in range(150)
                ]
            )
            se = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
            assert np.all(np.abs(grads.mean(axis=0) - oracle) < 3 * se), j

    def test_zero_gradient_at_symmetric_point(self):
        model = LinearModel(n_obs=1, sigma2=1.0)
        cfg = SamplerConfig(kind="exact", n_samples=10)
        grads = np.stack(
            [
                ueeg_mcmc_gradient(
                    model, model.design([0.0]), 100, cfg, substream(5, r), SimBudget()
                ).gradient
                for r in range(200)
            ]
        )
        se = grads.std(ddof=1) / np.sqrt(grads.shape[0])
        assert abs(grads.mean()) < 3 * se

    def test_deterministic_single_sample(self):
        model = LinearModel()
        cfg = SamplerConfig(kind="exact", n_samples=1)
        a = ueeg_mcmc_gradient(model, np.zeros(3), 1, cfg, np.random.default_rng(3), SimBudget())
        b = ueeg_mcmc_gradient(model, np.zeros(3), 1, cfg, np.random.default_rng(3), SimBudget())
        np.testing.assert_array_equal(a.gradient, b.gradient)

    def test_exact_cost_contract(self):
        model = LinearModel()
        budget = SimBudget()
        cfg = SamplerConfig(kind="exact", n_samples=7)
        ueeg_mcmc_gradient(model, np.zeros(3), 11, cfg, np.random.default_rng(0), budget)
        assert budget.forward_evals == 11 * (7 + 1)

    def test_mcmc_cost_at_most_m_times_l_plus_one(self):
        model = ToyModel(0.1)
        budget = SimBudget()
        cfg = SamplerConfig(kind="slice", thinning=2, n_samples=5)
        ueeg_mcmc_gradient(
            model, np.array([0.5, 0.5]), 4, cfg, np.random.default_rng(0), budget
        )
        # crude upper bound: every slice update costs at most
        # 2*max_stepout + ~60 shrinkage evals; just assert the cheap side
        assert budget.forward_evals >= 4  # at least the simulations
        assert budget.forward_evals < 4 * (5 * 2 * (2 * cfg.slice_max_stepout + 60) + 1)

    @pytest.mark.parametrize(
        "model,cfg",
        [
            (ToyModel(0.1), SamplerConfig(kind="slice", thinning=2, n_samples=5)),
            (PKModel(), SamplerConfig(kind="adaptive_mh", thinning=5, n_samples=4)),
        ],
        ids=["toy-slice", "pk-adaptive_mh"],
    )
    def test_batched_matches_per_draw_reference(self, model, cfg):
        lam = model.random_design(substream(3, "batched", model.name)).values
        for rep in range(2):
            g = ueeg_mcmc_gradient(
                model, lam, 4, cfg, substream(3, "rep", model.name, rep), SimBudget()
            ).gradient
            ref = per_draw_ueeg_reference(model, lam, 4, cfg, substream(3, "rep", model.name, rep))
            assert np.any(ref != 0.0)
            assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref)), (rep, g, ref)

    def test_chain_that_accepts_nothing_gives_exact_zero(self):
        # posterior sd ~1e-6 against a fixed 0.1 proposal sd: no proposal
        # is accepted, so every draw is the generating theta
        model = LinearModel(n_obs=3, sigma2=1e-12)
        cfg = SamplerConfig(kind="adaptive_mh", thinning=5, n_samples=3)
        M = 4
        budget = SimBudget()
        est = ueeg_mcmc_gradient(
            model, np.array([0.3, -0.5, 0.9]), M, cfg, np.random.default_rng(4), budget
        )
        np.testing.assert_array_equal(est.gradient, np.zeros(3))
        assert budget.forward_evals == M * (1 + cfg.thinning * cfg.n_samples)
        assert est.forward_evals_used == budget.forward_evals

    def test_mcmc_matches_exact_in_expectation(self):
        # slice-sampled posterior vs exact sampler on the same design: both
        # unbiased, so their replicate means must agree within joint SE
        model = LinearModel(n_obs=2, sigma2=0.8)
        lam = model.design([0.5, -0.3])
        cfg_ex = SamplerConfig(kind="exact", n_samples=6)
        cfg_sl = SamplerConfig(kind="slice", thinning=2, n_samples=6)
        g_ex = np.stack(
            [
                ueeg_mcmc_gradient(model, lam, 20, cfg_ex, substream(1, "e", r), SimBudget()).gradient
                for r in range(150)
            ]
        )
        g_sl = np.stack(
            [
                ueeg_mcmc_gradient(model, lam, 20, cfg_sl, substream(1, "s", r), SimBudget()).gradient
                for r in range(150)
            ]
        )
        diff = g_ex.mean(axis=0) - g_sl.mean(axis=0)
        se = np.sqrt(g_ex.var(axis=0, ddof=1) / 150 + g_sl.var(axis=0, ddof=1) / 150)
        assert np.all(np.abs(diff) < 4 * se)


class TestPceGradient:
    def test_n_zero_gradient_is_zero(self):
        model = ToyModel(0.1)
        est = pce_gradient(model, np.array([0.4, 0.6]), 5, 0, np.random.default_rng(0), SimBudget())
        np.testing.assert_array_equal(est.gradient, np.zeros(2))

    def test_matches_finite_differences_with_common_randomness(self):
        model = LinearModel(sigma2=0.5)
        lam = np.array([0.2, -0.6, 0.9])
        seed = 31

        def grad():
            return pce_gradient(
                model, lam, 30, 10, np.random.default_rng(seed), SimBudget()
            ).gradient

        def value_at(v):
            return pce_value(model, v, 30, 10, np.random.default_rng(seed), SimBudget()).value

        g = grad()
        for k in range(3):
            h = 1e-5 * (1 + abs(lam[k]))
            hi, lo = lam.copy(), lam.copy()
            hi[k] += h
            lo[k] -= h
            fd = (value_at(hi) - value_at(lo)) / (2 * h)
            assert abs(g[k] - fd) / (abs(fd) + 1e-12) < 1e-4

    def test_cost_contract(self):
        model = LinearModel()
        budget = SimBudget()
        pce_gradient(model, np.zeros(3), 12, 5, np.random.default_rng(0), budget)
        assert budget.forward_evals == 12 * (5 + 1)


class TestChunkedKernels:
    """The chunked gradients against copies of the unchunked code, at sizes
    that span two row chunks; summing chunks reorders the additions."""

    def test_beeg_ap_matches_unchunked(self):
        model = ToyModel(0.1)
        lam = model.random_design(substream(71, "design")).values
        M = 1500
        assert _chunk_rows(M, model.obs_dim) < M
        g = beeg_ap_gradient(model, lam, M, substream(71, "beeg"), SimBudget()).gradient
        rng = substream(71, "beeg")
        thetas = model.sample_prior_values(rng, M)
        ref = unchunked_beeg_ap_gradient(model, lam, thetas, model.sample_noise_values(rng, M))
        assert np.all(ref != 0.0)
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0.0)

    def test_pce_matches_unchunked(self):
        model = ToyModel(0.1)
        lam = model.random_design(substream(72, "design")).values
        M, N = 1200, 2000
        assert _chunk_rows(N + 1, model.obs_dim) < M
        g = pce_gradient(model, lam, M, N, substream(72, "pce"), SimBudget()).gradient
        ref = unchunked_pce_gradient(model, lam, M, N, substream(72, "pce"))
        assert np.all(ref != 0.0)
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0.0)


class TestFailureModes:
    def test_all_dead_row_raises_with_index(self):
        # atoms that cannot explain an observation: tiny noise, distant thetas
        model = ToyModel(noise_sd=1e-6)
        rng = np.random.default_rng(0)
        thetas = np.array([[0.1], [0.9]])
        # observations so far out that the squared residual overflows to inf
        eps = np.sign(rng.standard_normal((2, 2))) * 1e160
        with pytest.raises(EstimatorError, match="observation"):
            beeg_ap_gradient(
                model, np.array([0.5, 0.5]), 2, rng, SimBudget(), batch=(thetas, eps)
            )
