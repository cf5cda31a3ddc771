"""Expected-information-gain value estimators.

Three nested Monte Carlo flavors over the prior-predictive:

* `nmc_value`   - independent inner batches per outer sample, cost M*(N+1);
* `srnmc_value` - the outer batch is reused for every inner average, cost M;
* `pce_value`   - one reused outer sample plus N fresh contrastive samples.

All inner averages run through log-sum-exp on log likelihoods; -inf entries
contribute nothing and the divisor keeps the full count.  The sample-reuse
estimator can never exceed log M and the contrastive one log(N+1); both
caps hold exactly, not just in expectation.  `srnmc_value` and `pce_value`
are the BEEG-AP and PCE gradient kernels of `grad_est` run at a plain
design.  All three work in chunks of outer rows, so memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .grad_est import _check_rows, _chunk_rows, _contrastive, _draw_batch, _sample_reuse
from .models.base import Model, SimBudget, design_values

__all__ = ["EIGEstimate", "nmc_value", "srnmc_value", "pce_value", "srnmc_dual_gradient"]


@dataclass(frozen=True)
class EIGEstimate:
    """EIG point estimate in nats with its outer-sample standard error.

    std_error ignores inner-loop bias and is a diagnostic only.
    """

    value: float
    std_error: float
    M: int
    N: int
    forward_evals_used: int


def _estimate(terms: np.ndarray, offset: float, M: int, N: int, used: int) -> EIGEstimate:
    value = float(np.mean(terms) + offset)
    se = float(np.std(terms, ddof=1) / np.sqrt(terms.size)) if terms.size > 1 else 0.0
    return EIGEstimate(value, se, M, N, used)


def nmc_value(
    model: Model,
    lam,
    M: int,
    N: int,
    rng: np.random.Generator,
    budget: SimBudget | None = None,
) -> EIGEstimate:
    """Nested Monte Carlo EIG with fresh inner prior batches."""
    budget = budget if budget is not None else SimBudget()
    budget.new_design_version()
    lam_v = design_values(lam)
    start = budget.forward_evals
    thetas, eps = _draw_batch(model, rng, M)
    f = model.forward(thetas, lam_v)
    budget.charge(M)
    y = model.observe(f, eps)
    ll_own, _, _ = model.log_density_value_and_partials(y, f)

    terms = np.empty(M)
    rows = _chunk_rows(N, model.obs_dim)
    for lo in range(0, M, rows):
        hi = min(M, lo + rows)
        inner = model.sample_prior_values(rng, (hi - lo) * N).reshape(hi - lo, N, model.theta_dim)
        f_in = model.forward(inner, lam_v)
        budget.charge((hi - lo) * N)
        ll_in, _, _ = model.log_density_value_and_partials(y[lo:hi, None, :], f_in)
        _check_rows(ll_in, lo)
        terms[lo:hi] = ll_own[lo:hi] - (dual.logsumexp(ll_in, axis=1) - np.log(N))
    return _estimate(terms, 0.0, M, N, budget.forward_evals - start)


def srnmc_value(
    model: Model,
    lam,
    M: int | None = None,
    rng: np.random.Generator | None = None,
    budget: SimBudget | None = None,
    batch: tuple[np.ndarray, np.ndarray] | None = None,
) -> EIGEstimate:
    """Sample-reuse nested Monte Carlo EIG from a fresh or caller-fixed batch."""
    if batch is None and (M is None or rng is None):
        raise ValueError("need M and rng when no batch is given")
    budget = budget if budget is not None else SimBudget()
    start = budget.forward_evals
    thetas, eps = _draw_batch(model, rng, M, batch)
    M = thetas.shape[0]
    terms, _ = _sample_reuse(model, design_values(lam), thetas, eps, budget)
    return _estimate(terms, np.log(M), M, M, budget.forward_evals - start)


def srnmc_dual_gradient(
    model: Model,
    lam,
    batch: tuple[np.ndarray, np.ndarray],
    budget: SimBudget | None = None,
) -> tuple[float, np.ndarray]:
    """Value and design gradient of the sample-reuse estimator on a fixed
    batch, obtained by differentiating the estimator itself (lifted design,
    log-sum-exp and all), not by the atomic-prior weight formula."""
    budget = budget if budget is not None else SimBudget()
    budget.new_design_version()
    thetas, eps = batch
    thetas = np.asarray(thetas, dtype=float)
    M = thetas.shape[0]
    lam_dual = dual.lift_design(design_values(lam))
    f = model.forward(thetas, lam_dual)
    budget.charge(M)
    y = model.observe(f, np.asarray(eps, dtype=float))
    ll = model.log_density_given_forward(y[:, None], f[None, :])
    _check_rows(ll.value)
    idx = np.arange(M)
    own = ll[idx, idx]
    total = dual.dmean(own - dual.logsumexp(ll, axis=1)) + np.log(M)
    return float(total.value), total.tangent


def pce_value(
    model: Model,
    lam,
    M: int,
    N: int,
    rng: np.random.Generator,
    budget: SimBudget | None = None,
) -> EIGEstimate:
    """Contrastive EIG lower bound: the own sample plus N fresh contrastive
    prior samples in each inner average."""
    budget = budget if budget is not None else SimBudget()
    start = budget.forward_evals
    terms, _ = _contrastive(model, design_values(lam), M, N, rng, budget)
    return _estimate(terms, np.log(N + 1), M, N, budget.forward_evals - start)
