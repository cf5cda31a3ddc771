"""Built-in invariant suite: fast deterministic checks of the package's
core identities, runnable from the CLI without pytest."""

from __future__ import annotations

import numpy as np

from . import dual
from .eig_est import srnmc_dual_gradient, srnmc_value
from .grad_est import beeg_ap_gradient
from .models import LinearModel, PKModel, SimBudget, ToyModel, linear_eig_oracle, linear_eig_value
from .rng import substream

SEED = 20240901


def _check_ad(fast: bool):
    errs = []
    rng = substream(SEED, "ad")
    n_designs = 5 if fast else 20
    for _ in range(n_designs):
        lam = rng.uniform(-1, 1, 3)
        err = dual.grad_check(lambda v: linear_eig_value(v, 1.0), lam)
        errs.append(err)
    worst = max(errs)
    return worst < 1e-6, f"closed-form EIG dual vs central differences: max rel err {worst:.2e}"


def _check_cap(fast: bool):
    rng = substream(SEED, "cap")
    trials = 50 if fast else 300
    models = [LinearModel(sigma2=0.05), ToyModel(0.01), PKModel(mult_sd=0.0, add_sd=0.05)]
    worst = -np.inf
    for t in range(trials):
        model = models[t % len(models)]
        m = int(rng.integers(1, 9))
        lam = model.random_design(rng)
        est = srnmc_value(model, lam, m, rng, SimBudget())
        worst = max(worst, est.value - np.log(m))
        if est.value > np.log(m):
            return False, f"sample-reuse estimate exceeded log M by {est.value - np.log(m):.2e}"
    return True, f"sample-reuse cap held on {trials} trials (worst margin {worst:.2e})"


def _check_monotone(fast: bool):
    model = LinearModel(sigma2=0.1)
    lam = model.design([0.4, -0.7, 0.9])
    reps = 100 if fast else 400
    means = []
    ses = []
    for M in (2, 8, 32):
        vals = [
            srnmc_value(model, lam, M, substream(SEED, "mono", M, r), SimBudget()).value
            for r in range(reps)
        ]
        means.append(np.mean(vals))
        ses.append(np.std(vals, ddof=1) / np.sqrt(reps))
    oracle, _ = linear_eig_oracle(lam.values, 0.1)
    ok = all(
        means[k + 1] >= means[k] - 3 * np.hypot(ses[k], ses[k + 1])
        for k in range(len(means) - 1)
    ) and all(m <= oracle + 3 * s for m, s in zip(means, ses))
    return ok, (
        "sample-reuse means nondecreasing in M and below the oracle: "
        + ", ".join(f"{m:.3f}" for m in means)
        + f" vs oracle {oracle:.3f}"
    )


def _check_identity(fast: bool):
    rng = substream(SEED, "identity")
    worst = 0.0
    for model, M in ((LinearModel(), 8), (ToyModel(0.1), 8), (PKModel(), 6)):
        thetas = model.sample_prior_values(rng, M)
        eps = model.sample_noise_values(rng, M)
        lam = model.random_design(rng)
        g1 = beeg_ap_gradient(model, lam, M, rng, SimBudget(), batch=(thetas, eps)).gradient
        _, g2 = srnmc_dual_gradient(model, lam, (thetas, eps), SimBudget())
        rel = np.max(np.abs(g1 - g2) / (np.abs(g2) + 1e-12))
        worst = max(worst, rel)
    return worst < 1e-10, f"atomic-prior gradient == sample-reuse dual gradient: max rel {worst:.2e}"


def _check_budget(fast: bool):
    model = ToyModel(0.1)
    lam = model.design([0.5, 0.5])
    budget = SimBudget()
    beeg_ap_gradient(model, lam, 37, substream(SEED, "budget"), budget)
    ok = budget.forward_evals == 37
    return ok, f"atomic-prior step consumed exactly M forward evals ({budget.forward_evals}/37)"


CHECKS = [
    ("dual-ad gradients", _check_ad),
    ("sample-reuse log M cap", _check_cap),
    ("sample-reuse lower bound / monotone", _check_monotone),
    ("gradient identity", _check_identity),
    ("budget accounting", _check_budget),
]


def run(fast: bool = False) -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check(fast)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
