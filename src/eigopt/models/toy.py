"""Two-output algebraic test model with a scalar parameter.

The response mixes a cubic term, an exponential-of-absolute-value term, and
a quadratic design offset in each output, with a uniform prior on the
parameter and additive Gaussian noise.  Large noise (sd 0.1) gives a
small-information regime; tiny noise (sd 1e-4) a large-information one.
"""

from __future__ import annotations

import numpy as np

from .. import dual
from .base import Model


class ToyModel(Model):
    name = "toy"
    theta_dim = 1
    noise_dim = 2
    obs_dim = 2

    def __init__(self, noise_sd: float = 0.1):
        if noise_sd <= 0:
            raise ValueError("noise_sd must be positive")
        self.noise_sd = float(noise_sd)

    def design_bounds(self):
        return np.zeros(2), np.ones(2)

    def sample_prior_values(self, rng, size):
        return rng.uniform(0.0, 1.0, size=(size, self.theta_dim))

    def log_prior(self, theta_values):
        th = np.asarray(theta_values, dtype=float)
        return 0.0 if np.all((th >= 0.0) & (th <= 1.0)) else -np.inf

    def forward(self, theta_values, lam):
        th = np.asarray(theta_values, dtype=float)[..., 0:1]
        cube = 0.5 * th ** 3
        d1, d2 = lam[0], lam[1]
        f1 = cube * d1 + th * dual.exp(-dual.absolute(0.2 - 0.5 * d1)) + d1 * d1
        f2 = (
            cube * (d2 + 1.6)
            + th * dual.exp(-dual.absolute(0.6 + 0.5 * d2))
            + d2 * d2
        )
        return dual.concatenate([f1, f2], axis=-1)

    def sampling_scale(self):
        return np.full(1, 1.0 / np.sqrt(12.0))
