"""One-compartment pharmacokinetic model with mixed observation noise.

Blood-sample concentrations at the chosen sampling times follow

    c(t) = (dose / V) * ka / (ka - ke) * (exp(-ke t) - exp(-ka t))
    y_t  = c(t) * (1 + mult_sd * eps1) + add_sd * eps2

with a log-normal prior on theta = (ka, ke, V).  The two Gaussian noises
marginalize analytically, so the likelihood per sample is
N(y_t; c(t), mult_sd^2 c(t)^2 + add_sd^2) and stays tractable.  Posterior
sampling runs in log-theta space.
"""

from __future__ import annotations

import numpy as np

from .. import dual
from .base import Model, gaussian_log_density

_LOG_PRIOR_MEAN = np.log(np.array([1.0, 0.1, 20.0]))
_LOG_PRIOR_VAR = 0.05


class PKModel(Model):
    name = "pk"
    theta_dim = 3

    def __init__(
        self,
        n_times: int = 10,
        mult_sd: float = 0.1,
        add_sd: float = np.sqrt(0.1),
        dose: float = 400.0,
        max_time: float = 24.0,
    ):
        if add_sd <= 0:
            raise ValueError("add_sd must be positive (mixture variance floor)")
        if mult_sd < 0:
            raise ValueError("mult_sd must be nonnegative")
        self.obs_dim = int(n_times)
        self.noise_dim = 2 * int(n_times)
        self.mult_sd = float(mult_sd)
        self.add_sd = float(add_sd)
        self.dose = float(dose)
        self.max_time = float(max_time)

    def design_bounds(self):
        return np.zeros(self.obs_dim), np.full(self.obs_dim, self.max_time)

    def sample_prior_values(self, rng, size):
        z = rng.standard_normal((size, self.theta_dim))
        return np.exp(_LOG_PRIOR_MEAN + np.sqrt(_LOG_PRIOR_VAR) * z)

    def forward(self, theta_values, lam):
        th = np.asarray(theta_values, dtype=float)
        ka = th[..., 0:1]
        ke = th[..., 1:2]
        vol = th[..., 2:3]
        scale = (self.dose / vol) * ka / (ka - ke)
        return scale * (dual.exp(-(lam * ke)) - dual.exp(-(lam * ka)))

    def observe(self, f, eps):
        eps = np.asarray(eps, dtype=float)
        n = self.obs_dim
        e1 = eps[..., :n]
        e2 = eps[..., n:]
        return f * (1.0 + self.mult_sd * e1) + self.add_sd * e2

    def log_density_given_forward(self, y, f):
        var = (self.mult_sd * self.mult_sd) * f * f + self.add_sd * self.add_sd
        return gaussian_log_density(y, f, var)

    def log_density_value_and_partials(self, y_vals, f_vals):
        s1sq = self.mult_sd * self.mult_sd
        v = s1sq * f_vals * f_vals + self.add_sd * self.add_sd
        resid = y_vals - f_vals
        ll = -0.5 * np.sum(resid * resid / v + np.log(v), axis=-1)
        ll = ll - 0.5 * self.obs_dim * np.log(2.0 * np.pi)
        d_dy = -resid / v
        # d/df includes the variance channel: dv/df = 2 s1^2 f.
        d_df = resid / v + s1sq * f_vals * (resid * resid - v) / (v * v)
        return ll, d_dy, d_df

    # -- log-theta sampling space ---------------------------------------------

    def to_sampling_space(self, theta_values):
        return np.log(np.asarray(theta_values, dtype=float))

    def from_sampling_space(self, z):
        return np.exp(np.asarray(z, dtype=float))

    def sampling_log_prior(self, z):
        zz = np.asarray(z, dtype=float) - _LOG_PRIOR_MEAN
        out = -0.5 * zz @ zz / _LOG_PRIOR_VAR
        return float(out - 0.5 * self.theta_dim * np.log(2.0 * np.pi * _LOG_PRIOR_VAR))

    def sampling_scale(self):
        return np.full(self.theta_dim, np.sqrt(_LOG_PRIOR_VAR))

    def entropy_space(self, theta_values):
        return np.log(np.asarray(theta_values, dtype=float))

    entropy_space_name = "log-theta"
