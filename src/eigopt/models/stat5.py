"""STAT5 population dynamics driven by receptor activity, observed at
chosen measurement times.

Four coupled populations (unphosphorylated, phosphorylated monomeric,
phosphorylated dimeric, nuclear) evolve under rate constants k1, k2 and a
transport delay tau; the delayed feedback term is approximated by a linear
chain of first-order stages.  The system is integrated with the classic
3/8-rule fourth-order Runge-Kutta method on a fixed grid, and the two
measurable combinations

    y1 = s1 * (x2 + x3)          (phosphorylated STAT5)
    y2 = s2 * (x1 + x2 + x3)     (total STAT5)

are linearly interpolated at the 16 measurement times, which are the design
variables.  Observation noise is additive Gaussian.

The receptor activity curve EpoR_A(t) is experiment data, not part of the
model: load it from a CSV (columns t,value; strictly increasing t).  A
synthetic single-pulse default ships for self-tests only.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .. import dual
from ..dual import Dual
from .base import Model

_S1 = 0.33
_S2 = 0.26
_PRIOR_LOW = np.array([0.5, 0.05, 4.0])
_PRIOR_HIGH = np.array([3.0, 0.2, 10.0])

# Synthetic receptor-activity pulse: linear rise to a peak at t=10 min and
# an exponential-like piecewise-linear decay back to ~0 at t=60 min.  This
# is a placeholder for real measurements, shipped so the model is runnable
# out of the box.
SYNTHETIC_EPOR = np.array(
    [
        [0.0, 0.0],
        [2.5, 0.15],
        [5.0, 0.45],
        [7.5, 0.80],
        [10.0, 1.00],
        [15.0, 0.72],
        [20.0, 0.50],
        [25.0, 0.35],
        [30.0, 0.24],
        [40.0, 0.11],
        [50.0, 0.04],
        [60.0, 0.01],
    ]
)


class EpoRCurve:
    """Piecewise-linear receptor-activity curve with clamped extrapolation."""

    def __init__(self, times, values, label: str):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("EpoR curve needs at least 2 samples")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("EpoR curve times must be strictly increasing")
        self.times = times
        self.values = values
        self.label = label

    @classmethod
    def from_csv(cls, path: str) -> "EpoRCurve":
        with open(path, "r", encoding="utf-8") as fh:
            return cls._parse(fh, label=os.path.basename(path))

    @classmethod
    def from_text(cls, text: str, label: str = "inline") -> "EpoRCurve":
        return cls._parse(io.StringIO(text), label=label)

    @classmethod
    def _parse(cls, fh, label: str) -> "EpoRCurve":
        header = fh.readline().strip().lower().replace(" ", "")
        if header not in ("t,value", "time,value"):
            raise ValueError(f"EpoR CSV must start with a 't,value' header, got {header!r}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"EpoR CSV line {line_no}: expected 2 columns")
            rows.append((float(parts[0]), float(parts[1])))
        if len(rows) < 2:
            raise ValueError("EpoR CSV needs at least 2 data rows")
        arr = np.array(rows)
        return cls(arr[:, 0], arr[:, 1], label=label)

    @classmethod
    def synthetic_default(cls) -> "EpoRCurve":
        return cls(SYNTHETIC_EPOR[:, 0], SYNTHETIC_EPOR[:, 1], label="synthetic-pulse")

    def __call__(self, t):
        return np.interp(t, self.times, self.values)


class Stat5Model(Model):
    name = "stat5"
    theta_dim = 3

    def __init__(
        self,
        noise_sd: float = 1e-2,
        epor: EpoRCurve | None = None,
        n_times: int = 16,
        t_max: float = 60.0,
        rk_step: float = 0.25,
        chain_length: int = 8,
        x1_init: float = 3.71,
    ):
        if noise_sd <= 0:
            raise ValueError("noise_sd must be positive")
        self.noise_sd = float(noise_sd)
        self.epor = epor if epor is not None else EpoRCurve.synthetic_default()
        self.n_times = int(n_times)
        self.obs_dim = 2 * self.n_times
        self.noise_dim = self.obs_dim
        self.t_max = float(t_max)
        self.chain_length = int(chain_length)
        self.x1_init = float(x1_init)
        n_steps = int(round(self.t_max / rk_step))
        if abs(n_steps * rk_step - self.t_max) > 1e-9:
            raise ValueError("rk_step must divide the time span evenly")
        self.rk_step = float(rk_step)
        self.grid = np.linspace(0.0, self.t_max, n_steps + 1)
        # Receptor activity at the four 3/8-rule stage offsets, precomputed
        # once: the stage times never depend on theta or the design.
        h = self.rk_step
        t0 = self.grid[:-1]
        self._stage_epor = [
            self.epor(t0),
            self.epor(t0 + h / 3.0),
            self.epor(t0 + 2.0 * h / 3.0),
            self.epor(t0 + h),
        ]

    def design_bounds(self):
        return np.zeros(self.n_times), np.full(self.n_times, self.t_max)

    def sample_prior_values(self, rng, size):
        return rng.uniform(_PRIOR_LOW, _PRIOR_HIGH, size=(size, self.theta_dim))

    # -- dynamics -------------------------------------------------------------

    def _rhs(self, state, epor_t, k1, k2, rate):
        """Time derivative of [x1, x2, x3, x4, q1..qN]; qN tracks the
        delayed dimeric population."""
        x1 = state[..., 0]
        x2 = state[..., 1]
        x3 = state[..., 2]
        q = state[..., 4:]
        x3_delayed = q[..., -1]
        drive = k1 * x1 * epor_t
        x2sq = x2 * x2
        out = np.empty_like(state)
        out[..., 0] = -drive + k2 * x3_delayed
        out[..., 1] = -x2sq + drive
        out[..., 2] = -k2 * x3 + x2sq
        out[..., 3] = -k2 * x3_delayed + k2 * x3
        out[..., 4] = rate * (x3 - q[..., 0])
        out[..., 5:] = rate[..., None] * (q[..., :-1] - q[..., 1:])
        return out

    def solve_paths(self, theta_values) -> np.ndarray:
        """Integrate the system for a batch of parameters.

        Returns observable trajectories with shape (..., n_grid, 2): the
        phosphorylated and total STAT5 signals on the time grid.
        """
        th = np.asarray(theta_values, dtype=float)
        k1 = th[..., 0]
        k2 = th[..., 1]
        tau = th[..., 2]
        rate = self.chain_length / tau
        batch = th.shape[:-1]
        n_state = 4 + self.chain_length
        state = np.zeros(batch + (n_state,))
        state[..., 0] = self.x1_init
        h = self.rk_step
        n_grid = self.grid.size
        obs = np.empty(batch + (n_grid, 2))
        self._store_obs(obs, 0, state)
        e1, e2, e3, e4 = self._stage_epor
        for step in range(n_grid - 1):
            k_a = self._rhs(state, e1[step], k1, k2, rate)
            k_b = self._rhs(state + (h / 3.0) * k_a, e2[step], k1, k2, rate)
            k_c = self._rhs(state + h * (k_b - k_a / 3.0), e3[step], k1, k2, rate)
            k_d = self._rhs(state + h * (k_a - k_b + k_c), e4[step], k1, k2, rate)
            state = state + (h / 8.0) * (k_a + 3.0 * k_b + 3.0 * k_c + k_d)
            if not np.all(np.isfinite(state)):
                raise FloatingPointError(
                    f"stat5: non-finite state at t={self.grid[step + 1]:.3f} "
                    f"for theta={th}"
                )
            self._store_obs(obs, step + 1, state)
        return obs

    @staticmethod
    def _store_obs(obs, idx, state):
        x1 = state[..., 0]
        x2 = state[..., 1]
        x3 = state[..., 2]
        obs[..., idx, 0] = _S1 * (x2 + x3)
        obs[..., idx, 1] = _S2 * (x1 + x2 + x3)

    def _interp_at(self, paths, channel, lam):
        """Linearly interpolate one observable channel at design times.

        paths: (..., n_grid, 2); lam: plain or Dual vector of times.
        Returns (..., n_times) carrying design tangents when lam is a Dual.
        """
        tv = np.clip(dual.value_of(lam), 0.0, self.t_max)
        idx = np.clip(np.searchsorted(self.grid, tv, side="right") - 1, 0, self.grid.size - 2)
        t0 = self.grid[idx]
        dt = self.grid[idx + 1] - self.grid[idx]
        v0 = paths[..., idx, channel]
        v1 = paths[..., idx + 1, channel]
        w = (lam - t0) * (1.0 / dt)
        return v0 + w * (v1 - v0)

    def forward(self, theta_values, lam):
        paths = self.solve_paths(theta_values)
        y1 = self._interp_at(paths, 0, lam)
        y2 = self._interp_at(paths, 1, lam)
        return dual.concatenate([y1, y2], axis=-1)

    # -- logit sampling space (uniform box prior) ------------------------------

    def to_sampling_space(self, theta_values):
        u = (np.asarray(theta_values, dtype=float) - _PRIOR_LOW) / (
            _PRIOR_HIGH - _PRIOR_LOW
        )
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return np.log(u) - np.log1p(-u)

    def from_sampling_space(self, z):
        z = np.asarray(z, dtype=float)
        u = 1.0 / (1.0 + np.exp(-z))
        return _PRIOR_LOW + (_PRIOR_HIGH - _PRIOR_LOW) * u

    def sampling_log_prior(self, z):
        z = np.asarray(z, dtype=float)
        # Density of logit(U): product of sigmoid(z) * (1 - sigmoid(z)).
        return float(-(np.logaddexp(0.0, z) + np.logaddexp(0.0, -z)).sum())

    def sampling_scale(self):
        return np.full(self.theta_dim, np.pi / np.sqrt(3.0))
