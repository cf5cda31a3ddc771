"""Posterior samplers: coordinate-wise slice sampling, adaptive random-walk
Metropolis-Hastings, and exact conjugate draws where a model provides them.

Chains run in each model's unconstrained sampling space (identity, log, or
logit coordinates; Jacobians live in `Model.sampling_log_prior`).  A chain
started from an exact posterior draw is stationary from step one, so there
is no burn-in phase: thinning controls correlation, not bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import dual
from .models.base import Model, SimBudget, design_values

__all__ = [
    "SamplerConfig",
    "Chain",
    "run_chain",
    "slice_update_1d",
    "AdaptiveMHState",
    "adaptive_mh_step",
    "posterior_draws",
]

KINDS = ("slice", "adaptive_mh", "exact")


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "slice"
    thinning: int = 2
    n_samples: int = 10
    slice_width: float = 1.0
    slice_max_stepout: int = 8
    mh_adapt_start: int = 10

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"sampler kind must be one of {KINDS}")
        if self.thinning < 1 or self.n_samples < 1:
            raise ValueError("thinning and n_samples must be positive")
        if self.slice_width <= 0 or self.slice_max_stepout < 1:
            raise ValueError("slice_width must be > 0 and slice_max_stepout >= 1")
        if self.mh_adapt_start < 1:
            raise ValueError("mh_adapt_start must be positive")


@dataclass
class Chain:
    """Ordered thinned draws plus sampling diagnostics."""

    draws: np.ndarray
    accept_rate: float
    thinning: int
    n_target_evals: int


def slice_update_1d(
    log_target_slice: Callable[[float], float],
    x0: float,
    log_fx0: float,
    width: float,
    max_stepout: int,
    rng: np.random.Generator,
) -> tuple[float, float, int]:
    """One slice-sampling update of a scalar coordinate.

    `log_fx0` is the log target at x0, which the caller already holds, so
    x0 is not evaluated again.  Stepping-out then shrinkage; expansion is
    capped at `max_stepout` steps per side, after which shrinkage takes over
    (never an error).  Returns (new point, its log target, number of target
    evaluations).
    """
    if not np.isfinite(log_fx0):
        raise ValueError("slice sampling requires a finite log target at x0")
    n_evals = 0
    log_level = log_fx0 + np.log(rng.uniform())
    r = rng.uniform()
    left = x0 - r * width
    right = left + width
    for _ in range(max_stepout):
        if log_target_slice(left) <= log_level:
            n_evals += 1
            break
        n_evals += 1
        left -= width
    for _ in range(max_stepout):
        if log_target_slice(right) <= log_level:
            n_evals += 1
            break
        n_evals += 1
        right += width
    while True:
        x1 = rng.uniform(left, right)
        log_fx1 = log_target_slice(x1)
        n_evals += 1
        if log_fx1 > log_level:
            return x1, log_fx1, n_evals
        if x1 < x0:
            left = x1
        elif x1 > x0:
            right = x1
        else:
            # Interval shrank to the current point; keep it.
            return x0, log_fx0, n_evals


@dataclass
class AdaptiveMHState:
    """Random-walk Metropolis state with a streaming covariance estimate."""

    x: np.ndarray
    log_fx: float
    adapt_start: int
    n_steps: int = 0
    n_accepted: int = 0
    n_evals: int = 0
    mean: np.ndarray = None
    m2: np.ndarray = None
    init_sd: float = 0.1
    jitter: float = 1e-6

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        d = self.x.size
        if self.mean is None:
            self.mean = self.x.copy()
        if self.m2 is None:
            self.m2 = np.zeros((d, d))

    @property
    def accept_rate(self) -> float:
        return self.n_accepted / self.n_steps if self.n_steps else 0.0

    def proposal_cov(self) -> np.ndarray:
        d = self.x.size
        if self.n_accepted < self.adapt_start or self.n_steps < 2:
            return self.init_sd ** 2 * np.eye(d)
        cov = self.m2 / (self.n_steps - 1)
        return (2.38 ** 2 / d) * cov + self.jitter * np.eye(d)


def adaptive_mh_step(
    state: AdaptiveMHState,
    log_target: Callable[[np.ndarray], float],
    rng: np.random.Generator,
) -> AdaptiveMHState:
    """One Metropolis step with a Gaussian random-walk proposal whose
    covariance follows the chain history once enough moves were accepted."""
    chol = np.linalg.cholesky(state.proposal_cov())
    prop = state.x + chol @ rng.standard_normal(state.x.size)
    log_fp = log_target(prop)
    state.n_evals += 1
    if np.log(rng.uniform()) < log_fp - state.log_fx:
        state.x = prop
        state.log_fx = log_fp
        state.n_accepted += 1
    state.n_steps += 1
    delta = state.x - state.mean
    state.mean = state.mean + delta / state.n_steps
    state.m2 = state.m2 + np.outer(delta, state.x - state.mean)
    return state


def run_chain(
    log_target: Callable[[np.ndarray], float],
    init,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    widths: np.ndarray | None = None,
) -> Chain:
    """Run an MCMC chain and keep every `thinning`-th state after the start.

    `log_target` maps a coordinate vector to a log density; `init` is a
    vector with finite log target.  `widths` sets per-coordinate slice
    widths (defaults to all-ones scaled by cfg.slice_width).  The draws are
    an (n_samples, d) array.
    """
    if cfg.kind == "exact":
        raise ValueError("exact sampling needs a model; use posterior_draws")
    x = np.array(init, dtype=float)
    log_fx = log_target(x)
    n_evals = 1
    if not np.isfinite(log_fx):
        raise ValueError("run_chain requires a finite log target at init")
    d = x.size
    if widths is None:
        widths = np.ones(d)
    widths = cfg.slice_width * np.asarray(widths, dtype=float)

    draws = np.empty((cfg.n_samples, d))
    if cfg.kind == "slice":
        for i in range(cfg.n_samples):
            for _ in range(cfg.thinning):
                for coord in rng.permutation(d):
                    def along(v, _c=coord):
                        trial = x.copy()
                        trial[_c] = v
                        return log_target(trial)

                    new, log_fx, used = slice_update_1d(
                        along, x[coord], log_fx, widths[coord], cfg.slice_max_stepout, rng
                    )
                    x = x.copy()
                    x[coord] = new
                    n_evals += used
            draws[i] = x
        return Chain(draws, accept_rate=1.0, thinning=cfg.thinning, n_target_evals=n_evals)

    state = AdaptiveMHState(x=x, log_fx=log_fx, adapt_start=cfg.mh_adapt_start)
    for i in range(cfg.n_samples):
        for _ in range(cfg.thinning):
            state = adaptive_mh_step(state, log_target, rng)
        draws[i] = state.x
    return Chain(
        draws,
        accept_rate=state.accept_rate,
        thinning=cfg.thinning,
        n_target_evals=n_evals + state.n_evals,
    )


def posterior_draws(
    model: Model,
    y,
    lam,
    cfg: SamplerConfig,
    budget: SimBudget,
    rng: np.random.Generator,
    init_theta: np.ndarray | None = None,
) -> np.ndarray:
    """Draw from the posterior of theta given observation y at design lam.

    Returns an (n_samples, theta_dim) array of theta values.  MCMC kinds
    start from `init_theta` (no burn-in; see module docstring) and charge
    `budget` one forward evaluation per target evaluation with a finite
    prior, except at the start: the caller has already paid for the
    forward at its own theta, and the target there is evaluated at
    `init_theta` itself.  A kept draw still at the start is `init_theta`
    bit for bit, although the round trip through sampling space may not be.
    The exact kind draws from the model's conjugate posterior and charges
    nothing.
    """
    y_val = dual.value_of(y)
    lam_v = design_values(lam)
    if cfg.kind == "exact":
        sampler = getattr(model, "conjugate_posterior_sample_batch", None)
        if sampler is None:
            raise ValueError(f"model {model.name} has no exact posterior sampler")
        return sampler(y_val[None, :], lam_v, cfg.n_samples, rng)[0]

    if init_theta is None:
        raise ValueError("MCMC posterior sampling needs an initial theta")
    theta0 = np.asarray(init_theta, dtype=float)
    z0 = model.to_sampling_space(theta0)

    def log_target(z: np.ndarray) -> float:
        lp = model.sampling_log_prior(z)
        if not np.isfinite(lp):
            return -np.inf
        if np.array_equal(z, z0):
            theta = theta0
        else:
            theta = model.from_sampling_space(z)
            budget.charge(1)
        return lp + float(model.log_likelihood(y_val, theta, lam_v))

    chain = run_chain(log_target, z0, cfg, rng, widths=model.sampling_scale())
    draws = np.array(model.from_sampling_space(chain.draws), dtype=float)
    draws[np.all(chain.draws == z0, axis=1)] = theta0
    return draws
