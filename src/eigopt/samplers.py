"""Posterior samplers: coordinate-wise slice sampling (Neal 2003), adaptive
random-walk Metropolis-Hastings (Haario et al. 2001), and exact conjugate
draws where a model provides them.

All chains of a call run in lockstep on one (chains, d) array, one target
call per slice step-out or shrink round and per Metropolis step.  Chain c
draws from its own generator what it would draw alone, in the same order,
so its draws do not depend on the rest of the batch.  Chains run in each
model's unconstrained sampling space (Jacobians live in
`Model.sampling_log_prior`) and start, without burn-in, at the generating
theta: an exact posterior draw for its own observation, so each state is
marginally a posterior draw, but one correlated with the start.  Paired
with quantities of that theta, as in the UEEG posterior term, this is a
bias towards 0 at large EIG that thinning reduces but does not remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dual
from .models.base import Model, SimBudget, design_values

__all__ = ["SamplerConfig", "Chain", "run_chain", "outer_samples", "posterior_draws"]

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
    """Thinned draws of a batch of chains plus sampling diagnostics.

    `draws` is (chains, n_samples, d); `accept_rate` is the mean over the
    chains and `n_target_evals` the total, start points included.
    """

    draws: np.ndarray
    accept_rate: float
    thinning: int
    n_target_evals: int


def _slice_update(x0, log_fx0, width, max_stepout, rng):
    """Slice update of one coordinate (Neal 2003): stepping out, capped at
    `max_stepout` steps per side, then shrinkage.

    A coroutine: it yields each point to evaluate, is sent that point's log
    target, and returns (new point, its log target).  The current point's
    log target is `log_fx0`, so x0 is not evaluated again.
    """
    level = log_fx0 + np.log(rng.uniform())
    left = x0 - rng.uniform() * width
    right = left + width
    for _ in range(max_stepout):
        if (yield left) <= level:
            break
        left -= width
    for _ in range(max_stepout):
        if (yield right) <= level:
            break
        right += width
    while True:
        x1 = rng.uniform(left, right)
        log_fx1 = yield x1
        if log_fx1 > level:
            return x1, log_fx1
        if x1 < x0:
            left = x1
        elif x1 > x0:
            right = x1
        else:
            # Interval shrank to the current point; keep it.
            return x0, log_fx0


def _slice_sweep(log_target, x, log_fx, widths, max_stepout, rngs) -> int:
    """One slice update of every coordinate of every chain, in place, each
    chain in its own random coordinate order.  Each round evaluates the
    next point of every chain whose update is still running.  Returns the
    number of target evaluations over all chains."""
    n_chains, d = x.shape
    perms = np.array([g.permutation(d) for g in rngs])
    n_evals = 0
    for j in range(d):
        coord = perms[:, j]
        updates = [
            _slice_update(x[c, k], log_fx[c], widths[k], max_stepout, rngs[c])
            for c, k in enumerate(coord)
        ]
        points = {c: next(u) for c, u in enumerate(updates)}
        while points:
            live = list(points)
            z = np.full_like(x, np.nan)
            z[live] = x[live]
            z[live, coord[live]] = list(points.values())
            val = log_target(z)
            n_evals += len(live)
            for c in live:
                try:
                    points[c] = updates[c].send(val[c])
                except StopIteration as done:
                    x[c, coord[c]], log_fx[c] = done.value
                    del points[c]
    return n_evals


def _adaptive_mh(log_target, x, log_fx, cfg: SamplerConfig, rngs, draws) -> int:
    """Random-walk Metropolis steps for every chain, in place, keeping every
    `thinning`-th state in `draws`.  Returns the accepted moves over all
    chains."""
    n_chains, d = x.shape
    # Proposals are N(0, 0.1^2 I) until a chain has accepted mh_adapt_start
    # moves, then follow its running covariance, refactored at every step.
    chol = np.repeat(np.linalg.cholesky(0.1 ** 2 * np.eye(d))[None], n_chains, axis=0)
    mean = x.copy()
    m2 = np.zeros((n_chains, d, d))
    accepted = np.zeros(n_chains, dtype=int)
    adapted = np.zeros(0, dtype=int)
    step = np.empty_like(x)
    u = np.empty(n_chains)
    n_steps = 0
    for i in range(cfg.n_samples):
        for _ in range(cfg.thinning):
            if adapted.size and n_steps >= 2:
                cov = m2[adapted] / (n_steps - 1)
                chol[adapted] = np.linalg.cholesky((2.38 ** 2 / d) * cov + 1e-6 * np.eye(d))
            for c, g in enumerate(rngs):
                step[c] = chol[c] @ g.standard_normal(d)
                u[c] = g.uniform()
            prop = x + step
            log_fp = log_target(prop)
            acc = np.log(u) < log_fp - log_fx
            if acc.any():
                x[acc] = prop[acc]
                log_fx[acc] = log_fp[acc]
                accepted += acc
                adapted = np.flatnonzero(accepted >= cfg.mh_adapt_start)
            n_steps += 1
            delta = x - mean
            mean += delta / n_steps
            m2 += delta[:, :, None] * (x - mean)[:, None, :]
        draws[:, i] = x
    return int(accepted.sum())


def run_chain(
    log_target: Callable[[np.ndarray], np.ndarray],
    init,
    cfg: SamplerConfig,
    rngs: Sequence[np.random.Generator],
    widths: np.ndarray | None = None,
) -> Chain:
    """Run one chain per row of `init` in lockstep, each on its own
    generator of `rngs`, and keep every `thinning`-th state after the start.

    `log_target` maps a (chains, d) array to (chains,) log densities.  In a
    slice round, the rows of chains that are not evaluated are NaN; the
    target must give them a non-finite value, which is ignored.  Every row
    of `init` needs a finite log target.  `widths` sets per-coordinate slice
    widths (defaults to all-ones scaled by cfg.slice_width).
    """
    if cfg.kind == "exact":
        raise ValueError("exact sampling needs a model; use posterior_draws")
    x = np.array(init, dtype=float)
    n_chains, d = x.shape
    if len(rngs) != n_chains:
        raise ValueError(f"{n_chains} chains need as many generators, got {len(rngs)}")
    log_fx = np.asarray(log_target(x), dtype=float)
    if not np.isfinite(log_fx).all():
        raise ValueError("run_chain requires a finite log target at init")
    draws = np.empty((n_chains, cfg.n_samples, d))
    if cfg.kind == "adaptive_mh":
        accepted = _adaptive_mh(log_target, x, log_fx, cfg, rngs, draws)
        steps = n_chains * cfg.n_samples * cfg.thinning
        return Chain(draws, accepted / steps, cfg.thinning, n_chains + steps)

    widths = cfg.slice_width * (np.ones(d) if widths is None else np.asarray(widths, dtype=float))
    n_evals = n_chains
    for i in range(cfg.n_samples):
        for _ in range(cfg.thinning):
            n_evals += _slice_sweep(log_target, x, log_fx, widths, cfg.slice_max_stepout, rngs)
        draws[:, i] = x
    return Chain(draws, accept_rate=1.0, thinning=cfg.thinning, n_target_evals=n_evals)


def outer_samples(model: Model, rngs: Sequence[np.random.Generator]):
    """One prior draw and its noise per generator of `rngs`, every theta
    before every eps."""
    thetas = np.concatenate([model.sample_prior_values(g, 1) for g in rngs])
    eps = np.concatenate([model.sample_noise_values(g, 1) for g in rngs])
    return thetas, eps


def posterior_draws(
    model: Model,
    y,
    lam,
    cfg: SamplerConfig,
    budget: SimBudget,
    rngs: Sequence[np.random.Generator],
    init_theta: np.ndarray | None = None,
) -> np.ndarray:
    """Draw from the posteriors of theta given each observation row of y
    (chains, obs_dim) at design lam, one chain per row on its own generator.

    Returns a (chains, n_samples, theta_dim) array of theta values.  MCMC
    kinds start chain c from `init_theta[c]` (no burn-in; see module
    docstring) and charge `budget` one forward evaluation per target
    evaluation with a finite prior, except at a chain's start: the caller
    has already paid for the forward at its own theta, and the target there
    is evaluated at `init_theta[c]` itself.  A kept draw still at the start
    is `init_theta[c]` bit for bit, although the round trip through sampling
    space may not be.  The exact kind ignores `init_theta`, draws from the
    model's conjugate posterior in one batched call and charges n_samples
    forward evaluations per chain.
    """
    y_val = dual.value_of(y)
    lam_v = design_values(lam)
    if cfg.kind == "exact":
        sampler = getattr(model, "conjugate_posterior_sample_batch", None)
        if sampler is None:
            raise ValueError(f"model {model.name} has no exact posterior sampler")
        draws = sampler(y_val, lam_v, cfg.n_samples, rngs)
        budget.charge(len(rngs) * cfg.n_samples)
        return draws

    if init_theta is None:
        raise ValueError("MCMC posterior sampling needs an initial theta")
    theta0 = np.asarray(init_theta, dtype=float)
    z0 = model.to_sampling_space(theta0)

    def log_target(z: np.ndarray) -> np.ndarray:
        lp = model.sampling_log_prior(z)
        at_start = (z == z0).all(axis=1)
        theta = np.where(at_start[:, None], theta0, model.from_sampling_space(z))
        ok = np.isfinite(lp)
        budget.charge(np.count_nonzero(ok & ~at_start))
        if ok.all():
            return lp + model.log_likelihood(y_val, theta, lam_v)
        out = np.full(lp.shape, -np.inf)
        out[ok] = lp[ok] + model.log_likelihood(y_val[ok], theta[ok], lam_v)
        return out

    chain = run_chain(log_target, z0, cfg, rngs, widths=model.sampling_scale())
    draws = np.array(model.from_sampling_space(chain.draws), dtype=float)
    at_start = np.all(chain.draws == z0[:, None, :], axis=-1)
    draws[at_start] = np.broadcast_to(theta0[:, None, :], draws.shape)[at_start]
    return draws
