"""Design-quality validation.

Two complementary scores: high-sample nested Monte Carlo EIG estimates
(`eig_est.nmc_value`) for small-information regimes, and average posterior
entropy (Gaussian product-kernel density estimate, Silverman bandwidths,
resubstitution entropy) for large-information regimes where nested Monte
Carlo would need astronomically many samples.  Entropy magnitudes depend on
the density estimator; only orderings between designs are meaningful.

Also provides the gradient-bias study on the linear model, where the exact
EIG gradient is available as ground truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import dual
from .models.base import Model, SimBudget, design_values
from .models.linear import LinearModel, linear_eig_oracle
from .optim import OptimConfig, make_grad_fn
from .rng import substream
from .samplers import SamplerConfig, posterior_draws

__all__ = [
    "EntropyReport",
    "BiasRow",
    "BiasReport",
    "kde_entropy",
    "kde_log_density",
    "silverman_bandwidths",
    "posterior_entropy",
    "bias_study",
    "BIAS_STUDY_ESTIMATORS",
]


@dataclass(frozen=True)
class EntropyReport:
    mean_entropy: float
    std_error: float
    trials: int
    kde_samples: int
    bandwidths: np.ndarray
    space: str
    entropies: np.ndarray


def silverman_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman rule h_d = sd_d * (4 / ((D+2) n))^(1/(D+4))."""
    n, d = samples.shape
    sd = samples.std(axis=0, ddof=1)
    h = sd * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    if np.any(h < 1e-8):
        warnings.warn("degenerate sample dimension; flooring KDE bandwidth at 1e-8")
        h = np.maximum(h, 1e-8)
    return h


def kde_log_density(points: np.ndarray, samples: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Log density of a Gaussian product-kernel KDE at the given points."""
    z = (points[:, None, :] - samples[None, :, :]) / h
    logk = -0.5 * np.sum(z * z, axis=-1)
    logk -= np.sum(np.log(h)) + 0.5 * samples.shape[1] * np.log(2.0 * np.pi)
    return dual.logsumexp(logk, axis=1) - np.log(samples.shape[0])


def kde_entropy(samples: np.ndarray, h: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Resubstitution entropy -mean_i log p_hat(x_i) of a sample set."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need a (n >= 2, D) sample matrix")
    if h is None:
        h = silverman_bandwidths(samples)
    return float(-np.mean(kde_log_density(samples, samples, h))), h


def posterior_entropy(
    model: Model,
    lam,
    trials: int,
    sampler_cfg: SamplerConfig,
    kde_n: int,
    rng: np.random.Generator,
) -> EntropyReport:
    """Average entropy of simulated posteriors at a design.

    Each trial simulates one observation from the prior predictive, draws
    kde_n posterior samples (chains start at the generating parameters,
    which are exact posterior draws; all trials' chains run in lockstep),
    and scores the resubstitution KDE entropy in the model's entropy space.
    """
    if trials < 1 or kde_n < 2:
        raise ValueError("need trials >= 1 and kde_n >= 2")
    lam_v = design_values(lam)
    cfg = replace(sampler_cfg, n_samples=kde_n)
    entropies = np.empty(trials)
    bw = np.zeros(model.theta_dim)
    # Each trial owns a child stream: theta, then eps, then its chain.
    child = rng.spawn(trials)
    thetas = np.concatenate([model.sample_prior_values(c, 1) for c in child])
    eps = np.concatenate([model.sample_noise_values(c, 1) for c in child])
    y = model.observe(model.forward(thetas, lam_v), eps)
    model.require_finite(y, thetas, lam_v)
    draws = posterior_draws(model, y, lam_v, cfg, SimBudget(), child, init_theta=thetas)
    for t in range(trials):
        ent, h = kde_entropy(model.entropy_space(draws[t]))
        entropies[t] = ent
        bw += h / trials
    se = float(entropies.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return EntropyReport(
        mean_entropy=float(entropies.mean()),
        std_error=se,
        trials=trials,
        kde_samples=kde_n,
        bandwidths=bw,
        space=model.entropy_space_name,
        entropies=entropies,
    )


# Per-replicate sample sizes for the gradient-bias study: every estimator
# spends roughly 100 forward evaluations per replicate except the
# contrastive baseline, which needs its documented M*(N+1).
BIAS_STUDY_ESTIMATORS = {
    "beeg_ap": OptimConfig(estimator="beeg_ap", M=100),
    "ueeg_exact": OptimConfig(
        estimator="ueeg_mcmc", M=10, N=9, sampler=SamplerConfig(kind="exact")
    ),
    "ueeg_slice": OptimConfig(
        estimator="ueeg_mcmc", M=4, N=3, sampler=SamplerConfig(kind="slice", thinning=1)
    ),
    "pce": OptimConfig(estimator="pce", M=100, N=100),
}


@dataclass(frozen=True)
class BiasRow:
    design_id: int
    lam: np.ndarray
    oracle_eig: float
    oracle_grad: np.ndarray
    estimator: str
    mean_grad: np.ndarray
    bias_norm: float
    std_error: float


@dataclass
class BiasReport:
    sigma2: float
    replicates: int
    rows: list = field(default_factory=list)

    def rows_for(self, estimator: str) -> list:
        return [r for r in self.rows if r.estimator == estimator]


def bias_study(
    sigma2: float,
    n_designs: int = 20,
    replicates: int = 100,
    seed: int = 0,
    estimators: dict | None = None,
    n_obs: int = 3,
) -> BiasReport:
    """Estimate gradient biases against the linear-model oracle.

    Draws n_designs designs uniformly in [-1, 1]^n_obs, runs `replicates`
    independent gradient estimates per estimator (name -> OptimConfig, run
    through `make_grad_fn`), and reports the mean deviation from the exact
    gradient with its standard error.
    """
    model = LinearModel(n_obs=n_obs, sigma2=sigma2)
    estimators = estimators if estimators is not None else BIAS_STUDY_ESTIMATORS
    grad_fns = {name: make_grad_fn(model, cfg) for name, cfg in estimators.items()}
    report = BiasReport(sigma2=sigma2, replicates=replicates)
    for j in range(n_designs):
        lam_v = substream(seed, "bias-design", j).uniform(-1.0, 1.0, n_obs)
        lam = model.design(lam_v)
        eig, oracle = linear_eig_oracle(lam_v, sigma2)
        for name, grad_fn in grad_fns.items():
            grads = np.stack(
                [
                    grad_fn(lam, SimBudget(), substream(seed, "bias", j, name, r)).gradient
                    for r in range(replicates)
                ]
            )
            mean = grads.mean(axis=0)
            se_vec = grads.std(axis=0, ddof=1) / np.sqrt(replicates)
            report.rows.append(
                BiasRow(
                    design_id=j,
                    lam=lam_v,
                    oracle_eig=eig,
                    oracle_grad=oracle,
                    estimator=name,
                    mean_grad=mean,
                    bias_norm=float(np.linalg.norm(mean - oracle)),
                    std_error=float(np.linalg.norm(se_vec)),
                )
            )
    return report
