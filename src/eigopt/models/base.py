"""Model abstraction: prior, base noise, forward response, tractable
likelihood, and simulation-cost accounting.

A model's sampling path factors as  y = observe(forward(theta, lam), eps)
where `forward` is the expensive part.  Cost is measured in distinct
forward evaluations: simulating many observations or likelihoods for one
(theta, design) pair costs a single forward pass.  `SimBudget` counts those
passes; callers charge it for each distinct (theta, design) pair they
evaluate.

Models are immutable after construction and shareable across threads;
budgets are per-worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import dual
from ..dual import Dual

@dataclass(frozen=True)
class Design:
    """A design vector with per-dimension box bounds."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if not (self.values.shape == self.lower.shape == self.upper.shape):
            raise ValueError("design values and bounds must share one shape")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(self.values < self.lower) or np.any(self.values > self.upper):
            raise ValueError("design values outside bounds")

    @property
    def dim(self) -> int:
        return self.values.size

    def clip(self, values) -> "Design":
        return Design(np.clip(values, self.lower, self.upper), self.lower, self.upper)


def design_values(lam) -> np.ndarray:
    """Plain value vector of a Design, Dual, or array."""
    if isinstance(lam, Design):
        return lam.values
    return dual.value_of(lam)


@dataclass
class SimBudget:
    """Counter of distinct forward-model evaluations, which only ever grows,
    with a memo of forward results that is cleared whenever the design
    changes."""

    forward_evals: int = 0
    _memo: dict = field(default_factory=dict, repr=False)

    def new_design_version(self) -> None:
        self._memo.clear()

    def charge(self, n: int = 1) -> None:
        self.forward_evals += int(n)

    def cached_forward(self, key, compute):
        """`compute()`, charged as one forward evaluation and memoized under
        `key.uid` until `new_design_version`.  No estimator calls it."""
        hit = self._memo.get(key.uid)
        if hit is not None:
            return hit
        value = compute()
        self.forward_evals += 1
        self._memo[key.uid] = value
        return value


class Model:
    """Base class for explicit models with additive Gaussian observation noise.

    Subclasses set `theta_dim`, `noise_dim`, `obs_dim`, bounds, and implement
    `forward`.  The default `observe`/likelihood assume y = f + noise_sd * eps
    with constant per-dimension noise_sd; the pharmacokinetic model overrides
    them for its mixed noise.
    """

    name = "model"
    theta_dim: int
    noise_dim: int
    obs_dim: int
    noise_sd: float

    # -- design space -----------------------------------------------------

    def design_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def design_dim(self) -> int:
        return self.design_bounds()[0].size

    def design(self, values) -> Design:
        lower, upper = self.design_bounds()
        return Design(np.asarray(values, dtype=float), lower, upper)

    def random_design(self, rng: np.random.Generator) -> Design:
        lower, upper = self.design_bounds()
        return Design(rng.uniform(lower, upper), lower, upper)

    # -- prior and noise ----------------------------------------------------

    def sample_prior_values(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` prior draws as a (size, theta_dim) array."""
        raise NotImplementedError

    def log_prior(self, theta_values) -> np.ndarray:
        """Log prior density of each row of theta_values (..., p); (...)."""
        raise NotImplementedError

    def sample_noise_values(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, self.noise_dim))

    # -- sampling path ------------------------------------------------------

    def forward(self, theta_values, lam):
        """Mean response for theta_values (..., p) at design lam; (..., n).

        lam may be a plain vector or a lifted Dual; the result then carries
        the design tangents.  Vectorized over leading axes of theta_values.
        """
        raise NotImplementedError

    def observe(self, f, eps):
        """Apply the noise structure to a forward value (default: additive)."""
        return f + self.noise_sd * np.asarray(eps, dtype=float)

    def require_finite(self, y, theta_values, lam) -> None:
        """Raise FloatingPointError naming the first theta (rows of
        theta_values) whose simulated observation y is not finite."""
        bad = ~np.all(np.isfinite(dual.value_of(y)), axis=-1)
        if np.any(bad):
            th = np.asarray(theta_values, dtype=float)
            i = int(np.argmax(bad)) if bad.ndim else ()
            raise FloatingPointError(
                f"{self.name}: non-finite observation at theta={th[i]}, "
                f"design={design_values(lam)}"
            )

    def log_likelihood(self, y, theta_values, lam):
        """log density of y given theta_values at design lam (total design
        derivative when y or lam carry tangents).  Runs one forward; the
        caller charges it."""
        return self.log_density_given_forward(y, self.forward(theta_values, lam))

    # -- likelihood kernels --------------------------------------------------

    def log_density_given_forward(self, y, f):
        """log N(y; f, noise_sd^2 I) summed over observation dimensions,
        broadcasting leading axes; works on Duals and plain arrays."""
        sd = self.noise_sd
        with np.errstate(over="ignore", invalid="ignore"):
            z = (y - f) * (1.0 / sd)
            ll = -0.5 * dual.dsum(z * z, axis=-1)
            ll = ll - self.obs_dim * (0.5 * np.log(2.0 * np.pi) + np.log(sd))
        return _sanitize_loglik(ll)

    def log_density_value_and_partials(self, y_vals, f_vals):
        """Plain-value log density plus its partials in y and f.

        Returns (ll, dll_dy, dll_df) with ll summed over the trailing
        observation axis and the partials keeping it.  Used by estimators to
        assemble design gradients without materializing per-pair tangents.
        """
        sd = self.noise_sd
        with np.errstate(over="ignore", invalid="ignore"):
            r = (y_vals - f_vals) / (sd * sd)
            ll = -0.5 * np.sum((y_vals - f_vals) * r, axis=-1)
            ll = ll - self.obs_dim * (0.5 * np.log(2.0 * np.pi) + np.log(sd))
            ll = np.where(np.isnan(ll) | np.isposinf(ll), -np.inf, ll)
        return ll, -r, r

    # -- unconstrained sampling space ----------------------------------------

    def to_sampling_space(self, theta_values) -> np.ndarray:
        return np.asarray(theta_values, dtype=float)

    def from_sampling_space(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def sampling_log_prior(self, z) -> np.ndarray:
        """Log prior density of each row of sampling-space coordinates z
        (..., p), Jacobian included.  Default: identity transform."""
        return self.log_prior(z)

    def sampling_scale(self) -> np.ndarray:
        """Per-coordinate prior scale in sampling space (slice widths)."""
        raise NotImplementedError

    def entropy_space(self, theta_values) -> np.ndarray:
        """Coordinates used for posterior-entropy scoring (reported by name
        in `entropy_space_name`)."""
        return np.asarray(theta_values, dtype=float)

    entropy_space_name = "theta"


def _sanitize_loglik(ll):
    """Map numerically invalid log densities to -inf with zero tangent."""
    val = dual.value_of(ll)
    bad = np.isnan(val) | np.isposinf(val)
    if not np.any(bad):
        return ll
    fixed = np.where(bad, -np.inf, val)
    if isinstance(ll, Dual):
        tan = np.where(bad[..., None], 0.0, ll.tangent)
        return Dual(fixed, tan)
    return fixed


def gaussian_log_density(y, mean, var):
    """log N(y; mean, var) per dimension, summed over the trailing axis.

    `var` may depend on the design (Dual); used by the mixed-noise model.
    """
    resid = y - mean
    ll = -0.5 * dual.dsum(resid * resid / var + dual.log(var), axis=-1)
    n = dual.value_of(y).shape[-1] if dual.value_of(y).ndim else 1
    return _sanitize_loglik(ll - 0.5 * n * np.log(2.0 * np.pi))
