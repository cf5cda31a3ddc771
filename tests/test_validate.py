"""Validation tools: KDE entropy behavior, high-sample EIG scoring, and the
linear-model bias study."""

import numpy as np
import pytest

from eigopt import LinearModel, SamplerConfig, ToyModel, linear_eig_oracle, nmc_value
from eigopt.rng import substream
from eigopt.validate import (
    BIAS_STUDY_ESTIMATORS,
    bias_study,
    kde_entropy,
    kde_log_density,
    posterior_entropy,
    silverman_bandwidths,
)


class TestKdeEntropy:
    def test_standard_normal_entropy(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((1000, 1))
        ent, _ = kde_entropy(xs)
        assert abs(ent - 0.5 * np.log(2 * np.pi * np.e)) < 0.1

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((400, 1))
        h = silverman_bandwidths(xs)
        grid = np.linspace(-8, 8, 4001)[:, None]
        dens = np.exp(kde_log_density(grid, xs, h))
        integral = np.trapezoid(dens[:, 0] if dens.ndim > 1 else dens, grid[:, 0])
        assert abs(integral - 1.0) < 1e-3

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((800, 2))
        base, _ = kde_entropy(xs)
        for s in (0.5, 3.0):
            scaled, _ = kde_entropy(xs * s)
            assert abs(scaled - (base + 2 * np.log(s))) < 0.05

    def test_degenerate_dimension_floors_bandwidth(self):
        xs = np.zeros((50, 1))
        with pytest.warns(UserWarning, match="bandwidth"):
            h = silverman_bandwidths(xs)
        assert h[0] == 1e-8

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            kde_entropy(np.zeros((1, 2)))


class TestPosteriorEntropy:
    def test_uninformative_design_scores_prior_entropy(self):
        # enormous noise: the posterior is the Unif(0,1) prior (entropy 0)
        model = ToyModel(noise_sd=1e6)
        report = posterior_entropy(
            model,
            np.array([0.5, 0.5]),
            trials=20,
            sampler_cfg=SamplerConfig(kind="slice", thinning=2),
            kde_n=300,
            rng=substream(3, "ent"),
        )
        assert abs(report.mean_entropy - 0.0) < 0.2

    def test_informative_design_beats_uninformative_noise(self):
        # same design, two noise scales: smaller noise -> tighter posterior
        lam = np.array([0.4, 1.0])
        cfg = SamplerConfig(kind="slice", thinning=2)
        sharp = posterior_entropy(
            ToyModel(noise_sd=0.01), lam, 15, cfg, 200, substream(4, "a")
        )
        blunt = posterior_entropy(
            ToyModel(noise_sd=1.0), lam, 15, cfg, 200, substream(4, "b")
        )
        gap_se = np.hypot(sharp.std_error, blunt.std_error)
        assert sharp.mean_entropy < blunt.mean_entropy - gap_se

    def test_reports_space_name(self):
        from eigopt import PKModel

        model = PKModel()
        report = posterior_entropy(
            model,
            np.linspace(0.5, 12, 10),
            trials=3,
            sampler_cfg=SamplerConfig(kind="adaptive_mh", thinning=3),
            kde_n=100,
            rng=substream(5, "pk"),
        )
        assert report.space == "log-theta"
        assert np.isfinite(report.mean_entropy)


class TestNmcValidate:
    def test_matches_oracle(self):
        model = LinearModel(sigma2=1.0)
        lam = np.array([0.6, -0.2, 0.9])
        oracle, _ = linear_eig_oracle(lam, 1.0)
        est = nmc_value(model, lam, 2000, 2000, substream(6, "v"))
        assert abs(est.value - oracle) < 3 * est.std_error

    def test_nonnegative_everywhere(self):
        model = ToyModel(0.1)
        rng = substream(7, "nn")
        for _ in range(5):
            est = nmc_value(model, model.random_design(rng), 500, 500, rng)
            assert est.value > -3 * est.std_error

    def test_se_shrinks_like_root_m(self):
        model = LinearModel(sigma2=1.0)
        lam = np.array([0.3, 0.3, 0.3])
        ses = {}
        for M in (500, 2000):
            vals = [
                nmc_value(model, lam, M, 200, substream(8, M, r)).std_error
                for r in range(5)
            ]
            ses[M] = np.mean(vals)
        ratio = ses[500] / ses[2000]
        assert 1.6 <= ratio <= 2.5


class TestBiasStudy:
    def test_exact_sampler_variant_is_unbiased(self):
        report = bias_study(
            sigma2=0.5, n_designs=4, replicates=80, seed=11,
            estimators={"ueeg_exact": BIAS_STUDY_ESTIMATORS["ueeg_exact"]},
        )
        for row in report.rows:
            assert row.bias_norm < 3 * row.std_error, row.design_id

    def test_large_noise_makes_all_biases_vanish(self):
        report = bias_study(sigma2=400.0, n_designs=3, replicates=60, seed=12)
        for row in report.rows:
            assert row.bias_norm < 4 * row.std_error, (row.estimator, row.design_id)

    def test_rows_complete(self):
        report = bias_study(sigma2=0.5, n_designs=2, replicates=5, seed=13)
        names = {r.estimator for r in report.rows}
        assert names == {"beeg_ap", "ueeg_exact", "ueeg_slice", "pce"}
        assert len(report.rows) == 2 * 4
        assert all(np.isfinite(r.oracle_eig) for r in report.rows)
