"""Acceptance suite: every criterion checked at its stated tolerance and
runtime budget against an independent oracle (closed forms, exact samplers,
finite differences, brute-force grids).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is deterministic given the pinned seed.
"""

import time

import numpy as np
import pytest
from scipy import stats

from eigopt import (
    LinearModel,
    OptimConfig,
    PKModel,
    SamplerConfig,
    SimBudget,
    Stat5Model,
    ToyModel,
    beeg_ap_gradient,
    dual,
    linear_eig_oracle,
    nmc_value,
    optimize,
    pce_gradient,
    srnmc_value,
    ueeg_mcmc_gradient,
)
from eigopt.eig_est import srnmc_dual_gradient
from eigopt.models.linear import linear_eig_value
from eigopt.rng import substream
from eigopt.validate import bias_study, posterior_entropy

SEED = 2024


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail} ({elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.1f}s over {limit:.0f}s"


def safe_design(model, rng):
    """Random design nudged off response kinks / interpolation nodes so
    central differences stay on one smooth piece."""
    lam = model.random_design(rng).values
    if model.name == "stat5":
        snapped = np.abs(lam / 0.25 - np.round(lam / 0.25)) < 0.1
        lam = np.clip(np.where(snapped, lam + 0.05, lam), 0.0, 60.0)
    if model.name == "toy":
        lam[0] = 0.2 if abs(lam[0] - 0.4) < 0.05 else lam[0]
    return lam


def test_criterion_01_oracle_gradient_check():
    """Dual gradient of the closed-form linear EIG vs central differences."""
    t0 = time.perf_counter()
    rng = substream(SEED, "c1")
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(-1.0, 1.0, 3)
        worst = max(worst, dual.grad_check(lambda v: linear_eig_value(v, 1.0), lam))
    report(
        1, "oracle gradient check", worst < 1e-6,
        f"max rel err {worst:.2e} over 20 designs", time.perf_counter() - t0, 5,
    )


def test_criterion_02_ueeg_unbiasedness():
    """Exact-posterior UEEG replicate mean within 3 SE of the oracle,
    every component, every design."""
    t0 = time.perf_counter()
    model = LinearModel(n_obs=3, sigma2=1.0)
    cfg = SamplerConfig(kind="exact", n_samples=10)
    worst_z = 0.0
    for j in range(10):
        lam = substream(SEED, "c2-design", j).uniform(-1.0, 1.0, 3)
        _, oracle = linear_eig_oracle(lam, 1.0)
        grads = np.stack(
            [
                ueeg_mcmc_gradient(
                    model, model.design(lam), 200, cfg,
                    substream(SEED, "c2-rep", j, r), SimBudget(),
                ).gradient
                for r in range(500)
            ]
        )
        se = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
        z = np.abs(grads.mean(axis=0) - oracle) / se
        worst_z = max(worst_z, float(z.max()))
    report(
        2, "UEEG-MCMC unbiasedness", worst_z < 3.0,
        f"max |z| {worst_z:.2f} over 10 designs x 3 components x 500 reps",
        time.perf_counter() - t0, 120,
    )


def test_criterion_03_beeg_identity():
    """BEEG-AP equals the dual gradient of the sample-reuse estimator to
    1e-10 and its frozen-batch central differences to 1e-4, on all four
    models."""
    t0 = time.perf_counter()
    cases = [
        (LinearModel(n_obs=3, sigma2=1.0), 8),
        (ToyModel(noise_sd=0.1), 8),
        (PKModel(), 6),
        (Stat5Model(noise_sd=0.5), 5),
    ]
    worst_dual, worst_fd = 0.0, 0.0
    for model, M in cases:
        rng = substream(SEED, "c3", model.name)
        for _ in range(3):
            thetas = model.sample_prior_values(rng, M)
            eps = model.sample_noise_values(rng, M)
            lam = safe_design(model, rng)
            g = beeg_ap_gradient(
                model, lam, M, rng, SimBudget(), batch=(thetas, eps)
            ).gradient
            _, g_dual = srnmc_dual_gradient(model, lam, (thetas, eps), SimBudget())
            worst_dual = max(
                worst_dual, float(np.max(np.abs(g - g_dual) / (np.abs(g_dual) + 1e-12)))
            )

            def value_at(v):
                return srnmc_value(model, v, budget=SimBudget(), batch=(thetas, eps)).value

            for k in range(lam.size):
                h = 1e-5 * (1 + abs(lam[k]))
                hi, lo = lam.copy(), lam.copy()
                hi[k] += h
                lo[k] -= h
                fd = (value_at(hi) - value_at(lo)) / (2 * h)
                worst_fd = max(worst_fd, abs(g[k] - fd) / (abs(fd) + 1e-12))
    report(
        3, "BEEG-AP identity", worst_dual < 1e-10 and worst_fd < 1e-4,
        f"vs dual {worst_dual:.2e} (<1e-10), vs FD {worst_fd:.2e} (<1e-4)",
        time.perf_counter() - t0, 60,
    )


def test_criterion_04_srnmc_cap():
    """Sample-reuse estimate <= log M on 1000 random (model, design, batch)
    trials, exact inequality."""
    t0 = time.perf_counter()
    rng = substream(SEED, "c4")
    models = (
        [LinearModel(sigma2=0.05)] * 45 + [ToyModel(1e-3)] * 45
        + [PKModel()] * 8 + [Stat5Model(noise_sd=0.3)] * 2
    )
    violations = 0
    worst = -np.inf
    for t in range(1000):
        model = models[t % 100]
        m = int(rng.integers(1, 10))
        est = srnmc_value(model, model.random_design(rng), m, rng, SimBudget())
        worst = max(worst, est.value - np.log(m))
        violations += est.value > np.log(m)
    report(
        4, "srNMC log M cap", violations == 0,
        f"0 violations in 1000 trials (worst margin {worst:.2e})",
        time.perf_counter() - t0, 60,
    )


def test_criterion_05_srnmc_lower_bound_monotone():
    """Replicate-mean srNMC stays below the oracle and is nondecreasing in
    M within SE bands (linear model, sigma2=0.1, 2000 reps)."""
    t0 = time.perf_counter()
    model = LinearModel(sigma2=0.1)
    lam = substream(SEED, "c5-design").uniform(-1.0, 1.0, 3)
    oracle, _ = linear_eig_oracle(lam, 0.1)
    means, ses = [], []
    for M in (2, 8, 32, 128):
        vals = np.array(
            [
                srnmc_value(model, lam, M, substream(SEED, "c5", M, r), SimBudget()).value
                for r in range(2000)
            ]
        )
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / np.sqrt(vals.size))
    below = all(m <= oracle + 3 * s for m, s in zip(means, ses))
    mono = all(
        means[k + 1] >= means[k] - 3 * np.hypot(ses[k], ses[k + 1])
        for k in range(len(means) - 1)
    )
    report(
        5, "srNMC lower bound / monotone in M", below and mono,
        "means " + " -> ".join(f"{m:.3f}" for m in means) + f" vs oracle {oracle:.3f}",
        time.perf_counter() - t0, 120,
    )


def test_criterion_06_srnmc_mse_rate():
    """log-MSE vs log-M regression slope in [-1.3, -0.7]."""
    t0 = time.perf_counter()
    model = LinearModel(sigma2=1.0)
    lam = substream(SEED, "c6-design").uniform(-1.0, 1.0, 3)
    oracle, _ = linear_eig_oracle(lam, 1.0)
    sizes = (8, 32, 128, 512)
    mses = []
    for M in sizes:
        vals = np.array(
            [
                srnmc_value(model, lam, M, substream(SEED, "c6", M, r), SimBudget()).value
                for r in range(500)
            ]
        )
        mses.append(np.mean((vals - oracle) ** 2))
    slope = float(np.polyfit(np.log(sizes), np.log(mses), 1)[0])
    report(
        6, "srNMC MSE decay rate", -1.3 <= slope <= -0.7,
        f"slope {slope:.3f} in [-1.3, -0.7]", time.perf_counter() - t0, 180,
    )


def test_criterion_07_bias_ordering():
    """Bias norms grow with the oracle EIG for the capped estimators
    (Spearman >= 0.5) but not for exact-posterior UEEG (bootstrap interval
    of its Spearman contains 0)."""
    t0 = time.perf_counter()
    study = bias_study(sigma2=0.1, n_designs=20, replicates=100, seed=SEED)

    def spearman_for(name):
        rows = sorted(study.rows_for(name), key=lambda r: r.design_id)
        eig = np.array([r.oracle_eig for r in rows])
        bias = np.array([r.bias_norm for r in rows])
        return eig, bias, float(stats.spearmanr(eig, bias).statistic)

    _, _, rho_beeg = spearman_for("beeg_ap")
    _, _, rho_pce = spearman_for("pce")
    eig_u, bias_u, rho_ueeg = spearman_for("ueeg_exact")
    boot_rng = substream(SEED, "c7-boot")
    boots = []
    while len(boots) < 2000:
        idx = boot_rng.integers(0, 20, 20)
        if np.unique(bias_u[idx]).size < 3:
            continue
        boots.append(stats.spearmanr(eig_u[idx], bias_u[idx]).statistic)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    ok = rho_beeg >= 0.5 and rho_pce >= 0.5 and lo <= 0.0 <= hi
    report(
        7, "bias grows with EIG for capped estimators only", ok,
        f"spearman beeg={rho_beeg:.2f} pce={rho_pce:.2f} (>=0.5); "
        f"ueeg(exact)={rho_ueeg:.2f}, bootstrap95=({lo:.2f},{hi:.2f}) contains 0",
        time.perf_counter() - t0, 300,
    )


def test_criterion_08_toy_optimum():
    """Optimizations find the brute-force NMC-grid argmax of the toy EIG
    surface in at least 8/10 seeds per estimator (budget 2e4)."""
    t0 = time.perf_counter()
    model = ToyModel(noise_sd=0.1)
    grid = np.linspace(0.0, 1.0, 51)
    vals = np.zeros((51, 51))
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            # one fixed substream per point: common random numbers keep the
            # estimated surface smooth so its argmax is stable
            vals[i, j] = nmc_value(
                model, np.array([d1, d2]), 600, 600, substream(SEED, "c8-grid"), SimBudget()
            ).value
    am = np.unravel_index(np.argmax(vals), vals.shape)
    target = np.array([grid[am[0]], grid[am[1]]])

    def run(est, M, N, lr, sampler, seed):
        cfg = OptimConfig(
            estimator=est, step_rule="adam", learning_rate=lr, M=M, N=N,
            max_forward_evals=20_000, seed=seed, sampler=sampler,
        )
        lam0 = model.random_design(substream(seed, "init"))
        return optimize(model, lam0, cfg).final_design

    slice_cfg = SamplerConfig(kind="slice", thinning=2, n_samples=10)
    hits = {}
    for est, M, N, lr in (("beeg_ap", 100, 10, 0.05), ("ueeg_mcmc", 5, 10, 0.05)):
        finals = np.array([run(est, M, N, lr, slice_cfg, s) for s in range(10)])
        hits[est] = int(np.sum(np.max(np.abs(finals - target), axis=1) <= 0.1))
    ok = hits["beeg_ap"] >= 8 and hits["ueeg_mcmc"] >= 8
    report(
        8, "toy-model optimum recovery", ok,
        f"grid argmax {target.tolist()}; hits beeg={hits['beeg_ap']}/10 "
        f"ueeg={hits['ueeg_mcmc']}/10 (need >=8)",
        time.perf_counter() - t0, 600,
    )


def test_criterion_09_entropy_ordering():
    """Small-noise toy: posterior entropy of UEEG designs <= BEEG designs <=
    random designs, each gap exceeding one standard error.

    Gap SEs come from paired trials: the three design sets share the
    (design index, trial) random streams, so the generating-parameter noise
    cancels in the differences.
    """
    t0 = time.perf_counter()
    model = ToyModel(noise_sd=1e-4)
    n_runs = 20

    def run(est, M, N, lr, sampler, seed):
        cfg = OptimConfig(
            estimator=est, step_rule="adam", learning_rate=lr, M=M, N=N,
            max_forward_evals=20_000, seed=seed, sampler=sampler,
        )
        lam0 = model.random_design(substream(seed, "init"))
        return optimize(model, lam0, cfg).final_design

    small_slice = SamplerConfig(kind="slice", thinning=1, n_samples=8, slice_width=0.05)
    designs = {
        "ueeg": [run("ueeg_mcmc", 3, 8, 0.03, small_slice, s) for s in range(n_runs)],
        "beeg": [run("beeg_ap", 100, 10, 0.05, small_slice, s) for s in range(n_runs)],
        "rand": [model.random_design(substream(s, "rand")).values for s in range(n_runs)],
    }
    entropy_cfg = SamplerConfig(kind="slice", thinning=1, slice_width=0.05)
    ents = {}
    for name, lams in designs.items():
        per_trial = []
        for j, lam in enumerate(lams):
            rep = posterior_entropy(
                model, np.asarray(lam), trials=50, sampler_cfg=entropy_cfg,
                kde_n=200, rng=substream(SEED, "c9-trial", j),
            )
            per_trial.append(rep.entropies)
        ents[name] = np.concatenate(per_trial)

    def gap(a, b):
        d = ents[b] - ents[a]  # positive when a has lower entropy
        return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))

    g1, se1 = gap("ueeg", "beeg")
    g2, se2 = gap("beeg", "rand")
    ok = g1 > se1 and g2 > se2
    report(
        9, "small-noise entropy ordering", ok,
        f"ueeg {ents['ueeg'].mean():.3f} <= beeg {ents['beeg'].mean():.3f} <= "
        f"rand {ents['rand'].mean():.3f}; gaps {g1:.4f}>{se1:.4f}, {g2:.4f}>{se2:.4f}",
        time.perf_counter() - t0, 600,
    )


def test_criterion_10_pk_and_stat5():
    """PK small-EIG runs at budget 2e5: BEEG-AP beats PCE on validated NMC
    EIG in >= 7/10 seeds; STAT5 runs complete with finite gradients and
    feasible designs under the synthetic receptor-activity default."""
    t0 = time.perf_counter()
    pk = PKModel(mult_sd=0.1, add_sd=np.sqrt(0.1))
    wins = 0
    for seed in range(10):
        vals = {}
        for est, M, N in (("beeg_ap", 100, 10), ("pce", 10, 10)):
            cfg = OptimConfig(
                estimator=est, step_rule="adam", learning_rate=0.01, M=M, N=N,
                max_forward_evals=200_000, seed=seed,
            )
            traj = optimize(pk, pk.random_design(substream(seed, "init")), cfg)
            est_val = nmc_value(
                pk, pk.design(traj.final_design), 1000, 1000, substream(seed, "val")
            )
            vals[est] = est_val.value
        wins += vals["beeg_ap"] > vals["pce"]

    stat5 = Stat5Model(noise_sd=1e-2)
    mh = SamplerConfig(kind="adaptive_mh", thinning=95, n_samples=1, mh_adapt_start=10)
    stat5_ok = True
    details = []
    for est, M, N, lr, budget, sampler in (
        ("beeg_ap", 100, 10, 0.5, 5000, None),
        ("ueeg_mcmc", 1, 1, 0.5, 2500, mh),
    ):
        cfg = OptimConfig(
            estimator=est, step_rule="adam", learning_rate=lr, M=M, N=N,
            max_forward_evals=budget, seed=0,
            sampler=sampler if sampler else SamplerConfig(),
        )
        traj = optimize(stat5, stat5.random_design(substream(3, "init", est)), cfg)
        finite = bool(np.all(np.isfinite(traj.grad_norms[1:])))
        feasible = all(np.all((d >= 0.0) & (d <= 60.0)) for d in traj.designs)
        stat5_ok = stat5_ok and finite and feasible and traj.steps[-1] >= 10
        details.append(f"{est}:{traj.steps[-1]}steps")
    ok = wins >= 7 and stat5_ok
    report(
        10, "PK budget comparison + STAT5 completion", ok,
        f"pk beeg>pce in {wins}/10 seeds (need >=7); stat5 finite+feasible "
        f"({', '.join(details)})",
        time.perf_counter() - t0, 1200,
    )
