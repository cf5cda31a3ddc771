"""Linear-Gaussian acquisition model with a closed-form information gain.

Observations follow y = D(lam) theta + noise_sd * eps with design matrix
rows [1, lam_i, lam_i^2], a standard normal prior on the three weights, and
i.i.d. Gaussian noise.  The conjugate structure gives an exact posterior
sampler and an exact expected-information-gain value/gradient, which the
rest of the package uses as ground truth.
"""

from __future__ import annotations

import numpy as np

from .. import dual
from ..dual import Dual
from .base import Model, design_values


class LinearModel(Model):
    name = "linear"
    theta_dim = 3

    def __init__(self, n_obs: int = 3, sigma2: float = 1.0, design_halfwidth: float = 1.0):
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self.obs_dim = int(n_obs)
        self.noise_dim = int(n_obs)
        self.sigma2 = float(sigma2)
        self.noise_sd = float(np.sqrt(sigma2))
        self.design_halfwidth = float(design_halfwidth)

    def design_bounds(self):
        w = self.design_halfwidth
        return -w * np.ones(self.obs_dim), w * np.ones(self.obs_dim)

    def sample_prior_values(self, rng, size):
        return rng.standard_normal((size, self.theta_dim))

    def log_prior(self, theta_values):
        th = np.asarray(theta_values, dtype=float)
        return np.vecdot(-0.5 * th, th) - 0.5 * self.theta_dim * np.log(2.0 * np.pi)

    def forward(self, theta_values, lam):
        th = np.asarray(theta_values, dtype=float)
        return th[..., 0:1] + th[..., 1:2] * lam + th[..., 2:3] * (lam * lam)

    def sampling_scale(self):
        return np.ones(self.theta_dim)

    # -- conjugate machinery ------------------------------------------------

    def _design_matrix(self, lam_values) -> np.ndarray:
        lv = np.asarray(lam_values, dtype=float)
        return np.stack([np.ones_like(lv), lv, lv * lv], axis=-1)  # (n, 3)

    def posterior_moments(self, y, lam) -> tuple[np.ndarray, np.ndarray]:
        """Exact posterior mean and covariance of theta given y."""
        D = self._design_matrix(design_values(lam))
        prec = np.eye(self.theta_dim) + D.T @ D / self.sigma2
        cov = np.linalg.inv(prec)
        mean = cov @ (D.T @ np.asarray(y, dtype=float)) / self.sigma2
        return mean, cov

    def conjugate_posterior_sample_batch(
        self, ys: np.ndarray, lam, n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact posterior draws for a batch of observations: (M, n_draws, 3)."""
        ys = np.asarray(ys, dtype=float)
        D = self._design_matrix(design_values(lam))
        prec = np.eye(self.theta_dim) + D.T @ D / self.sigma2
        cov = np.linalg.inv(prec)
        chol = np.linalg.cholesky(cov)
        means = ys @ D @ cov.T / self.sigma2  # (M, 3)
        z = rng.standard_normal((ys.shape[0], n_draws, self.theta_dim))
        return means[:, None, :] + z @ chol.T


def _logdet_lu(a: Dual) -> Dual:
    """log det of an SPD Dual matrix via LU with partial pivoting on values."""
    n = a.shape[0]
    rows = [[a[i, j] for j in range(n)] for i in range(n)]
    logdet = None
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(float(rows[i][k])))
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
        piv = rows[k][k]
        term = dual.log(dual.absolute(piv))
        logdet = term if logdet is None else logdet + term
        for i in range(k + 1, n):
            factor = rows[i][k] / piv
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] - factor * rows[k][j]
    return logdet


def linear_eig_value(lam, sigma2: float):
    """Closed-form EIG 0.5*log(|D D' + sigma2 I| / |sigma2 I|).

    Accepts a plain design vector or a lifted Dual and returns a float or a
    scalar Dual accordingly.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    lam_is_dual = isinstance(lam, Dual)
    lv = lam if lam_is_dual else np.asarray(design_values(lam), dtype=float)
    n = lv.shape[0]
    ones = np.ones(n)
    cols = [ones, lv, lv * lv]
    # Gram matrix entries (D D')_{ij} = 1 + lam_i lam_j + lam_i^2 lam_j^2.
    if lam_is_dual:
        gram = dual.stack(
            [dual.stack([_dot(cols, i, j, n) for j in range(n)]) for i in range(n)]
        )
        gram = gram + sigma2 * np.eye(n)
        return 0.5 * (_logdet_lu(gram) - n * np.log(sigma2))
    gram = np.array([[float(_dot(cols, i, j, n)) for j in range(n)] for i in range(n)])
    gram += sigma2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(gram)
    return 0.5 * (logdet - n * np.log(sigma2))


def _dot(cols, i, j, n):
    total = None
    for c in cols:
        term = c[i] * c[j]
        total = term if total is None else total + term
    return total


def linear_eig_oracle(lam, sigma2: float) -> tuple[float, np.ndarray]:
    """Exact EIG and its design gradient for the linear model."""
    lv = design_values(lam)
    value = float(linear_eig_value(lv, sigma2))
    grad = linear_eig_value(dual.lift_design(lv), sigma2).tangent
    return value, grad
