"""Projected stochastic gradient ascent over designs under a simulation
budget.

Each step draws a fresh gradient estimate, applies an SGD or Adam ascent
update, and clips the design back into its box.  The run stops once the
cumulative forward-evaluation budget or the step cap is reached; every
recorded design is feasible and the whole trajectory is reproducible from
the seed (wall-clock timings aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .csvio import write_csv
from .errors import EstimatorError
from .grad_est import beeg_ap_gradient, pce_gradient, ueeg_mcmc_gradient
from .models.base import Design, Model, SimBudget
from .rng import substream
from .samplers import SamplerConfig

__all__ = ["OptimConfig", "Trajectory", "optimize", "make_grad_fn", "SgdRule", "AdamRule"]

ESTIMATORS = ("ueeg_mcmc", "beeg_ap", "pce")
STEP_RULES = ("sgd", "adam")


@dataclass(frozen=True)
class OptimConfig:
    estimator: str = "beeg_ap"
    step_rule: str = "adam"
    learning_rate: float = 1e-2
    max_forward_evals: int = 20_000
    max_steps: int = 1_000_000
    seed: int = 0
    M: int = 100
    N: int = 10
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    fixed_atoms: bool = False

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_forward_evals < 1 or self.max_steps < 1:
            raise ValueError("budget limits must be positive")
        if self.M < 1 or self.N < 0:
            raise ValueError("sample sizes must be nonnegative (M >= 1)")


@dataclass
class Trajectory:
    """Per-step optimization records; row 0 is the initial design."""

    steps: list[int] = field(default_factory=list)
    designs: list[np.ndarray] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    forward_evals: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    def append(self, step, lam, grad_norm, evals, ms):
        self.steps.append(int(step))
        self.designs.append(np.array(lam, dtype=float))
        self.grad_norms.append(float(grad_norm))
        self.forward_evals.append(int(evals))
        self.wall_ms.append(float(ms))

    @property
    def final_design(self) -> np.ndarray:
        return self.designs[-1]

    @property
    def total_forward_evals(self) -> int:
        return self.forward_evals[-1]

    def write_csv(self, path) -> None:
        d = self.designs[0].size
        header = (
            ["step"]
            + [f"lambda_{k}" for k in range(d)]
            + ["grad_norm", "forward_evals", "wall_ms"]
        )
        rows = [
            [s, *lam, g, n, ms]
            for s, lam, g, n, ms in zip(
                self.steps, self.designs, self.grad_norms, self.forward_evals, self.wall_ms
            )
        ]
        write_csv(path, header, rows)


class SgdRule:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, grad: np.ndarray) -> np.ndarray:
        return self.lr * grad


class AdamRule:
    def __init__(self, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1 ** self.t)
        v_hat = self.v / (1.0 - self.b2 ** self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_grad_fn(model: Model, cfg: OptimConfig):
    """Bind an estimator to (lam, budget, rng) -> GradEstimate.

    UEEG-MCMC keeps N posterior draws per outer sample, whatever
    cfg.sampler.n_samples says.
    """
    if cfg.estimator == "beeg_ap":
        fixed_batch = None
        if cfg.fixed_atoms:
            rng0 = substream(cfg.seed, "atoms")
            fixed_batch = (
                model.sample_prior_values(rng0, cfg.M),
                model.sample_noise_values(rng0, cfg.M),
            )

        def fn(lam, budget, rng):
            return beeg_ap_gradient(model, lam, cfg.M, rng, budget, batch=fixed_batch)

        return fn
    if cfg.estimator == "pce":
        return lambda lam, budget, rng: pce_gradient(model, lam, cfg.M, cfg.N, rng, budget)
    sampler = replace(cfg.sampler, n_samples=cfg.N)
    return lambda lam, budget, rng: ueeg_mcmc_gradient(model, lam, cfg.M, sampler, rng, budget)


def optimize(model: Model, lam0: Design, cfg: OptimConfig, grad_fn=None) -> Trajectory:
    """Ascend the estimated EIG gradient from lam0 until the budget runs out.

    grad_fn defaults to the configured estimator; a custom callable
    (lam_design, budget, rng) -> GradEstimate plugs in oracle or test
    gradients.  A failed estimate skips the step; five consecutive failures
    abort the run.
    """
    if grad_fn is None:
        grad_fn = make_grad_fn(model, cfg)
    budget = SimBudget()
    rule = SgdRule(cfg.learning_rate) if cfg.step_rule == "sgd" else AdamRule(cfg.learning_rate)
    lam = lam0
    traj = Trajectory()
    traj.append(0, lam.values, np.nan, 0, 0.0)
    failures = 0
    step = 0
    while step < cfg.max_steps and budget.forward_evals < cfg.max_forward_evals:
        step += 1
        t0 = time.perf_counter()
        try:
            est = grad_fn(lam, budget, substream(cfg.seed, "grad", step))
        except EstimatorError:
            failures += 1
            if failures >= 5:
                raise
            continue
        failures = 0
        lam = lam.clip(lam.values + rule.step(est.gradient))
        ms = 1e3 * (time.perf_counter() - t0)
        traj.append(step, lam.values, np.linalg.norm(est.gradient), budget.forward_evals, ms)
    return traj
