"""Design-gradient estimators for the expected information gain.

All three estimators average total design derivatives of log likelihoods
along reparameterized sampling paths y = g(theta, eps, lam):

* `ueeg_mcmc_gradient` - contrasts each sample's own log likelihood against
  posterior samples for its observation; unbiased when the posterior
  sampling is exact.  MCMC chains start at the generating theta, whose
  tangents the posterior term uses too; their draws are not independent of
  it, which biases the gradient towards 0 at large EIG (see `samplers`).
  With an MCMC sampler it charges M own forwards plus one per distinct
  chain state with a finite prior; the M chains run in lockstep.  The kept
  draws' tangents come from one batched dual forward that is not charged:
  every kept draw is a chain state whose forward was already paid for (the
  start's by the own batch).
* `beeg_ap_gradient`   - replaces the posterior by a softmax over one shared
  batch of prior atoms; algebraically the gradient of the sample-reuse EIG
  estimator, at cost M forward evaluations per call.
* `pce_gradient`       - the gradient of the contrastive lower bound.

Gradients are assembled from likelihood partials contracted against the
forward/observation tangents, which keeps the cost at O(pairs * obs) plus
O(samples * obs * d) instead of materializing per-pair tangents.  The
sample-reuse and contrastive kernels also give `eig_est`'s values when run
at a plain design, and build their likelihood matrices in row chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .errors import EstimatorError
from .models.base import Model, SimBudget, design_values
from .samplers import SamplerConfig, posterior_draws

__all__ = ["GradEstimate", "ueeg_mcmc_gradient", "beeg_ap_gradient", "pce_gradient"]


@dataclass(frozen=True)
class GradEstimate:
    gradient: np.ndarray
    outer_M: int
    inner_N: int
    forward_evals_used: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.gradient)):
            raise EstimatorError("non-finite gradient estimate")


def softmax_rows(ll: np.ndarray) -> np.ndarray:
    """Row-wise softmax of log weights; invariant to per-row shifts."""
    m = np.max(ll, axis=-1, keepdims=True)
    w = np.exp(ll - m)
    return w / np.sum(w, axis=-1, keepdims=True)


def _contract(coeff, d_dy, d_df, y_tan, f_tan, f_per_row: bool) -> np.ndarray:
    """Design gradient of sum_ab coeff[a,b] * ll[a,b] given likelihood
    partials and the tangents of y (rows) and f (columns or per-row)."""
    ay = np.einsum("ab,abt->at", coeff, d_dy)
    grad = np.einsum("at,atk->k", ay, y_tan)
    if f_per_row:
        af = coeff[..., None] * d_df
        grad = grad + np.einsum("abt,abtk->k", af, f_tan)
    else:
        bf = np.einsum("ab,abt->bt", coeff, d_df)
        grad = grad + np.einsum("bt,btk->k", bf, f_tan)
    return grad


def _draw_batch(model: Model, rng: np.random.Generator, size: int, batch=None):
    """`size` prior draws and their noise, or the caller's fixed `batch`."""
    if batch is not None:
        return np.asarray(batch[0], dtype=float), np.asarray(batch[1], dtype=float)
    return model.sample_prior_values(rng, size), model.sample_noise_values(rng, size)


def _chunk_rows(n_inner: int, obs_dim: int) -> int:
    """Outer rows per chunk, so (rows, n_inner, obs_dim) arrays stay near 4e6
    entries; pass obs_dim times the tangent width where per-pair tangents
    are built."""
    return max(1, int(4e6) // max(1, n_inner * obs_dim))


def _check_rows(ll: np.ndarray, start: int = 0) -> None:
    """Raise naming the first outer sample (rows of `ll` count from `start`)
    whose inner likelihoods all vanish."""
    dead = np.isneginf(ll).all(axis=-1)
    if np.any(dead):
        i = start + int(np.argmax(dead))
        raise EstimatorError(f"no inner sample explains observation {i}")


def _sample_reuse(model: Model, lam, thetas, eps, budget: SimBudget):
    """Sample-reuse terms log p(y_a|theta_a) - log sum_b p(y_a|theta_b), each
    exactly <= 0, and, for a lifted `lam`, the design gradient of their mean
    (None otherwise).  Costs the M forwards of the batch."""
    budget.new_design_version()
    M = thetas.shape[0]
    f = model.forward(thetas, lam)
    budget.charge(M)
    y = model.observe(f, eps)
    y_v, f_v = dual.value_of(y), dual.value_of(f)
    terms, grad = np.empty(M), None
    rows = _chunk_rows(M, model.obs_dim)
    for lo in range(0, M, rows):
        hi = min(M, lo + rows)
        ll, d_dy, d_df = model.log_density_value_and_partials(
            y_v[lo:hi, None, :], f_v[None, :, :]
        )
        _check_rows(ll, lo)
        own = ll[np.arange(hi - lo), np.arange(lo, hi)]
        # <= 0 as the sum includes the own term; the minimum guards against
        # log/exp round-trip ulps so the log M cap is exact.
        terms[lo:hi] = np.minimum(own - dual.logsumexp(ll, axis=1), 0.0)
        if isinstance(lam, dual.Dual):
            coeff = np.eye(hi - lo, M, lo) - softmax_rows(ll)
            g = _contract(coeff, d_dy, d_df, y.tangent[lo:hi], f.tangent, f_per_row=False)
            grad = g if grad is None else grad + g
    return terms, None if grad is None else grad / M


def _contrastive(model: Model, lam, M: int, N: int, rng: np.random.Generator,
                 budget: SimBudget):
    """Contrastive terms: each own log likelihood against the own sample plus
    N fresh prior samples, each exactly <= 0; for a lifted `lam` also the
    design gradient of their mean (None otherwise).  Costs M*(N+1) forwards."""
    budget.new_design_version()
    lifted = isinstance(lam, dual.Dual)
    thetas, eps = _draw_batch(model, rng, M)
    f = model.forward(thetas, lam)
    budget.charge(M)
    y = model.observe(f, eps)
    terms = np.zeros(M)
    if N == 0:
        return terms, np.zeros(lam.shape[0]) if lifted else None
    y_v, grad = dual.value_of(y), None
    # A lifted design gives every inner forward its own (obs, d) tangent.
    rows = _chunk_rows(N + 1, model.obs_dim * (lam.shape[0] if lifted else 1))
    for lo in range(0, M, rows):
        hi = min(M, lo + rows)
        inner = model.sample_prior_values(rng, (hi - lo) * N).reshape(hi - lo, N, model.theta_dim)
        f_all = dual.concatenate([f[lo:hi, None, :], model.forward(inner, lam)], axis=1)
        budget.charge((hi - lo) * N)
        ll, d_dy, d_df = model.log_density_value_and_partials(
            y_v[lo:hi, None, :], dual.value_of(f_all)
        )
        _check_rows(ll, lo)
        terms[lo:hi] = np.minimum(ll[:, 0] - dual.logsumexp(ll, axis=1), 0.0)
        if lifted:
            coeff = -softmax_rows(ll)
            coeff[:, 0] += 1.0
            g = _contract(coeff, d_dy, d_df, y.tangent[lo:hi], f_all.tangent, f_per_row=True)
            grad = g if grad is None else grad + g
    return terms, None if grad is None else grad / M


def beeg_ap_gradient(
    model: Model,
    lam,
    M: int,
    rng: np.random.Generator,
    budget: SimBudget | None = None,
    batch: tuple[np.ndarray, np.ndarray] | None = None,
) -> GradEstimate:
    """Atomic-prior EIG gradient from one batch of prior samples: the design
    gradient of the sample-reuse EIG estimator on that batch.

    Passing `batch` reuses a fixed atom set instead of drawing a fresh one.
    Consumes exactly M forward evaluations.
    """
    budget = budget if budget is not None else SimBudget()
    start = budget.forward_evals
    thetas, eps = _draw_batch(model, rng, M, batch)
    M = thetas.shape[0]
    _, grad = _sample_reuse(model, dual.lift_design(design_values(lam)), thetas, eps, budget)
    return GradEstimate(grad, M, M, budget.forward_evals - start)


def pce_gradient(
    model: Model,
    lam,
    M: int,
    N: int,
    rng: np.random.Generator,
    budget: SimBudget | None = None,
) -> GradEstimate:
    """Gradient of the contrastive lower bound with reparameterized paths.

    Costs M*(N+1) forward evaluations: the own samples plus M*N fresh
    contrastive prior samples.
    """
    budget = budget if budget is not None else SimBudget()
    start = budget.forward_evals
    lam_dual = dual.lift_design(design_values(lam))
    _, grad = _contrastive(model, lam_dual, M, N, rng, budget)
    return GradEstimate(grad, M, N, budget.forward_evals - start)


def ueeg_mcmc_gradient(
    model: Model,
    lam,
    M: int,
    sampler_cfg: SamplerConfig,
    rng: np.random.Generator,
    budget: SimBudget | None = None,
) -> GradEstimate:
    """Posterior-contrast EIG gradient.

    For each of M prior draws, the observation's own log-likelihood design
    derivative is contrasted with the average over sampler_cfg.n_samples
    posterior draws.  With kind="exact" the posterior draws are exact and
    the estimator is unbiased; with an MCMC kind it is biased by the
    chains' dependence on their start (see `samplers`).
    Costs M forward evaluations plus, with kind="exact", M*N for the draws
    and, with an MCMC kind, one per chain target evaluation with a finite
    prior away from the chain's start.
    """
    budget = budget if budget is not None else SimBudget()
    budget.new_design_version()
    start = budget.forward_evals
    lam_v = design_values(lam)
    lam_dual = dual.lift_design(lam_v)
    N = sampler_cfg.n_samples

    if sampler_cfg.kind == "exact":
        batch_sampler = getattr(model, "conjugate_posterior_sample_batch", None)
        if batch_sampler is None:
            raise EstimatorError(f"model {model.name} has no exact posterior sampler")
        thetas, eps = _draw_batch(model, rng, M)
    else:
        # Each outer sample owns a child stream: theta, then eps, then its chain.
        child_rngs = rng.spawn(M)
        thetas = np.concatenate([model.sample_prior_values(c, 1) for c in child_rngs])
        eps = np.concatenate([model.sample_noise_values(c, 1) for c in child_rngs])
    f = model.forward(thetas, lam_dual)
    budget.charge(M)
    y = model.observe(f, eps)
    model.require_finite(y, thetas, lam_v)

    if sampler_cfg.kind == "exact":
        post = batch_sampler(y.value, lam_v, N, rng)
        budget.charge(M * N)
    else:
        try:
            post = posterior_draws(
                model, y.value, lam_v, sampler_cfg, budget, child_rngs, init_theta=thetas
            )
        except Exception as exc:
            raise EstimatorError(f"posterior chains failed: {exc}") from exc
    f_post = model.forward(post, lam_dual)
    _, d_dy0, d_df0 = model.log_density_value_and_partials(y.value, f.value)
    _, d_dyp, d_dfp = model.log_density_value_and_partials(y.value[:, None, :], f_post.value)
    # Own-minus-draw differences, averaged over the draws: a draw equal to
    # its own theta contributes exactly 0, so a chain that never moves
    # gives an exactly zero term.
    ay = np.mean(d_dy0[:, None, :] - d_dyp, axis=1)
    af = np.mean(
        (d_df0[..., None] * f.tangent)[:, None] - d_dfp[..., None] * f_post.tangent, axis=1
    )
    grad = (np.einsum("at,atk->k", ay, y.tangent) + af.sum(axis=(0, 1))) / M
    return GradEstimate(grad, M, N, budget.forward_evals - start)
