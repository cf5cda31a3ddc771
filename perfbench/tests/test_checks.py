"""Each correctness check passes on the program's real output and rejects a
deliberately wrong one."""

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from eigopt import Stat5Model, ToyModel, PKModel
from eigopt.rng import substream

SEED = 11


def test_evals_per_step_accepts_exact_counts_and_skipped_steps():
    checks.check_evals_per_step("beeg", [0, 1, 2, 3], [0, 100, 200, 300], 100)
    checks.check_evals_per_step("beeg", [0, 1, 3], [0, 100, 300], 100)


def test_evals_per_step_rejects_a_miscounted_budget():
    with pytest.raises(CheckFailed, match="step 2 added 101"):
        checks.check_evals_per_step("beeg", [0, 1, 2, 3], [0, 100, 201, 301], 100)
    with pytest.raises(CheckFailed, match="row 0"):
        checks.check_evals_per_step("beeg", [0, 1], [5, 105], 100)


def test_total_evals_rejects_a_missing_step():
    checks.check_total_evals("pce", 200090, 1819, 110)
    with pytest.raises(CheckFailed):
        checks.check_total_evals("pce", 199980, 1819, 110)


def test_in_box_rejects_a_design_outside_its_bounds():
    lower, upper = np.zeros(2), np.ones(2)
    checks.check_in_box("toy", [[0.0, 1.0], [0.5, 0.5]], lower, upper)
    with pytest.raises(CheckFailed, match="row 1"):
        checks.check_in_box("toy", [[0.0, 1.0], [0.5, 1.0 + 1e-12]], lower, upper)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_in_box("toy", [[np.nan, 0.5]], lower, upper)


def test_cap_rejects_a_value_above_it():
    checks.check_cap("srnmc", np.log(100.0), np.log(100.0))
    with pytest.raises(CheckFailed):
        checks.check_cap("srnmc", np.nextafter(np.log(100.0), 10.0), np.log(100.0))
    with pytest.raises(CheckFailed):
        checks.check_cap("srnmc", float("nan"), np.log(100.0))


@pytest.mark.parametrize("model,lam", [
    (ToyModel(noise_sd=0.1), [0.3, 0.8]),
    (PKModel(), np.linspace(1.0, 20.0, 10)),
])
def test_srnmc_batch_check_rejects_a_wrong_value(model, lam):
    rng = lambda: substream(SEED, "srnmc")  # noqa: E731
    workloads.srnmc_batch_check(model, lam, 100, rng(), what="srnmc")
    with pytest.raises(CheckFailed, match="srnmc_value"):
        workloads.srnmc_batch_check(model, lam, 100, rng(), what="srnmc", shift=1e-6)


def test_terms_capped_rejects_an_inner_average_without_the_own_sample():
    ll = np.log(np.array([[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]]))
    checks.check_terms_capped("srnmc", ll, checks.sample_reuse_terms(ll))
    off = ~np.eye(3, dtype=bool)
    without_own = np.diagonal(ll) - checks.logsumexp(np.where(off, ll, -np.inf), axis=1)
    with pytest.raises(CheckFailed, match="own sample"):
        checks.check_terms_capped("srnmc", ll, without_own)


def test_linear_pce_check_rejects_an_estimator_without_the_own_sample():
    from eigopt import eig_est

    workloads.linear_pce_check(SEED)
    # nmc_value is PCE with the own sample left out of the inner average.
    with pytest.raises(CheckFailed, match="linear pce_value"):
        workloads.linear_pce_check(SEED, estimator=eig_est.nmc_value)


@pytest.mark.parametrize("model,lam,h", [
    (ToyModel(noise_sd=0.1), [0.3, 0.8], 1e-5),
    (PKModel(), np.linspace(1.0, 20.0, 10), 1e-4),
])
def test_beeg_fd_check_rejects_a_perturbed_gradient(model, lam, h):
    rng = lambda: substream(SEED, "fd")  # noqa: E731
    workloads.beeg_fd_check(model, lam, 100, rng(), h, what="beeg")
    with pytest.raises(CheckFailed, match="central differences"):
        workloads.beeg_fd_check(model, lam, 100, rng(), h, what="beeg", perturb=1e-3)


def test_ueeg_exact_check_rejects_a_biased_gradient():
    workloads.ueeg_exact_check(SEED, replicates=200)
    with pytest.raises(CheckFailed, match="SE"):
        workloads.ueeg_exact_check(SEED, replicates=200, perturb=0.2)


def test_linear_nmc_check_rejects_a_shifted_value():
    workloads.linear_nmc_check(SEED)
    with pytest.raises(CheckFailed):
        workloads.linear_nmc_check(SEED, shift=0.2)


def test_gaussian_kde_check_rejects_a_wrong_scale():
    workloads.gaussian_kde_check(SEED)
    with pytest.raises(CheckFailed):
        workloads.gaussian_kde_check(SEED, scale=1.5)


def test_linear_entropy_check_rejects_a_shifted_entropy():
    workloads.linear_entropy_check(SEED)
    with pytest.raises(CheckFailed):
        workloads.linear_entropy_check(SEED, shift=1.0)


def test_stat5_ode_check_rejects_shifted_and_perturbed_paths():
    model = Stat5Model(noise_sd=0.01)
    thetas = model.sample_prior_values(substream(SEED, "ode"), 2)
    workloads.stat5_ode_check(model, thetas)
    paths = [model.solve_paths(t) for t in thetas]
    shifted = [np.concatenate([p[:1], p[:-1]]) for p in paths]
    with pytest.raises(CheckFailed, match="off by"):
        workloads.stat5_ode_check(model, thetas, paths=shifted)
    slower = [model.solve_paths(t * np.array([1.0, 1.01, 1.0])) for t in thetas]
    with pytest.raises(CheckFailed, match="off by"):
        workloads.stat5_ode_check(model, thetas, paths=slower)


def test_linear_references_match_known_values():
    # One observation at design 0: D = [1, 0, 0], EIG = 1/2 log(1 + 1/sigma2).
    assert checks.linear_eig([0.0], 1.0) == pytest.approx(0.5 * np.log(2.0))
    assert checks.gaussian_entropy([[1.0]]) == pytest.approx(0.5 * np.log(2 * np.pi * np.e))
    g = checks.central_differences(lambda x: float(x @ x), np.array([1.0, -2.0]), 1e-4)
    np.testing.assert_allclose(g, [2.0, -4.0], rtol=1e-8)
