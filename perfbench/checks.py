"""Correctness checks and the independent references they compare against.

Every reference here is computed apart from eigopt (closed forms, finite
differences of the benchmark's own formulas, a separate ODE solver) or is a
property the method must have (exact forward-evaluation counts, caps,
feasibility).  No check compares a value with stored program output.

Each check raises `CheckFailed` with a message naming what differed and
returns None when the outputs pass.
"""

from __future__ import annotations

import numpy as np

# STAT5 observable scales, from the model definition
#   y1 = s1 * (x2 + x3),  y2 = s2 * (x1 + x2 + x3).
STAT5_S1 = 0.33
STAT5_S2 = 0.26


class CheckFailed(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


# -- counts and feasibility ---------------------------------------------------


def check_evals_per_step(what: str, steps, evals, cost: int) -> None:
    """Each attempted step adds exactly `cost` forward evaluations.

    `steps` and `evals` are the trajectory's step and cumulative
    forward_evals columns; a skipped step (gap in `steps`) is charged too.
    """
    steps = np.asarray(steps, dtype=np.int64)
    evals = np.asarray(evals, dtype=np.int64)
    if evals[0] != 0:
        _fail(f"{what}: row 0 reports {evals[0]} forward evals, expected 0")
    want = cost * np.diff(steps)
    got = np.diff(evals)
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = int(bad[0])
        _fail(
            f"{what}: step {steps[k + 1]} added {got[k]} forward evals, "
            f"expected {want[k]} ({cost} per step)"
        )


def check_total_evals(what: str, total: int, attempted: int, cost: int) -> None:
    if total != attempted * cost:
        _fail(f"{what}: {total} forward evals over {attempted} steps, expected {attempted * cost}")


def check_in_box(what: str, designs, lower, upper) -> None:
    designs = np.asarray(designs, dtype=float)
    if not np.all(np.isfinite(designs)):
        _fail(f"{what}: non-finite design")
    out = (designs < np.asarray(lower)) | (designs > np.asarray(upper))
    if np.any(out):
        row = int(np.argmax(out.any(axis=1)))
        _fail(f"{what}: design row {row} {designs[row]} leaves its box [{lower}, {upper}]")


def check_cap(what: str, value: float, cap: float) -> None:
    if not value <= cap:
        _fail(f"{what}: value {value!r} exceeds its cap {cap!r}")


# -- nested Monte Carlo terms -----------------------------------------------------


def logsumexp(x, axis: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    top = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.sum(np.exp(x - top), axis=axis))


def sample_reuse_terms(ll) -> np.ndarray:
    """Unclamped sample-reuse terms log p(y_m|theta_m) - logsumexp_k
    log p(y_m|theta_k) of an (M, M) log-likelihood matrix; each is <= 0 up
    to rounding, because the inner sum holds the own term."""
    ll = np.asarray(ll, dtype=float)
    return np.diagonal(ll) - logsumexp(ll, axis=1)


def check_terms_capped(what: str, ll, terms) -> None:
    """Every unclamped term is <= 0 within 64 ulps of its inner sum."""
    ulps = 64.0 * np.spacing(np.max(np.abs(ll)))
    worst = float(np.max(terms))
    if not worst <= ulps:
        _fail(f"{what}: a term is {worst!r} > 0; the inner average misses the own sample")


# -- gradients ------------------------------------------------------------------


def central_differences(fn, x, h: float) -> np.ndarray:
    """Central-difference gradient of scalar fn at x with step h."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def check_gradient_close(what: str, grad, ref, rtol: float, atol: float) -> None:
    grad = np.asarray(grad, dtype=float)
    ref = np.asarray(ref, dtype=float)
    err = np.abs(grad - ref)
    tol = atol + rtol * np.abs(ref)
    if not np.all(err <= tol):
        k = int(np.argmax(err - tol))
        _fail(f"{what}: component {k} is {grad[k]!r}, reference {ref[k]!r} "
              f"(tolerance {tol[k]:.3g})")


def check_mean_within_se(what: str, samples, ref, n_se: float = 4.0) -> None:
    """Mean of the rows of `samples` is within n_se standard errors of ref,
    component by component."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    dev = np.abs(mean - np.asarray(ref, dtype=float))
    if not np.all(dev <= n_se * se):
        k = int(np.argmax(dev / np.maximum(se, 1e-300)))
        _fail(
            f"{what}: component {k} mean {mean[k]!r} is {dev[k] / se[k]:.1f} SE "
            f"from the reference {ref[k]!r}"
        )


# -- linear-Gaussian model ------------------------------------------------------


def linear_design_matrix(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    return np.stack([np.ones_like(lam), lam, lam * lam], axis=-1)


def linear_eig(lam, sigma2: float) -> float:
    """EIG of y = D theta + noise, theta ~ N(0, I):
    1/2 [log det(D D^T + sigma2 I) - n log sigma2]."""
    D = linear_design_matrix(lam)
    n = D.shape[0]
    _, logdet = np.linalg.slogdet(D @ D.T + sigma2 * np.eye(n))
    return 0.5 * (logdet - n * np.log(sigma2))


def linear_pce_terms(lam, sigma2: float, M: int, N: int, rng) -> np.ndarray:
    """Contrastive (PCE) terms on y = D theta + noise, theta ~ N(0, I): the
    own sample theta_0 generates y, N fresh prior draws contrast it.  The
    mean of the terms is an unbiased estimate of E[PCE_N]."""
    D = linear_design_matrix(lam)
    theta = rng.standard_normal((M, N + 1, D.shape[1]))
    mean = theta @ D.T
    y = mean[:, 0] + np.sqrt(sigma2) * rng.standard_normal((M, D.shape[0]))
    ll = -0.5 * np.sum((y[:, None, :] - mean) ** 2, axis=-1) / sigma2
    return ll[:, 0] - logsumexp(ll, axis=1) + np.log(N + 1)


def linear_posterior_entropy(lam, sigma2: float) -> float:
    """Entropy of the conjugate posterior N(., (I + D^T D / sigma2)^-1)."""
    D = linear_design_matrix(lam)
    cov = np.linalg.inv(np.eye(D.shape[1]) + D.T @ D / sigma2)
    return gaussian_entropy(cov)


def gaussian_entropy(cov) -> float:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    _, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * cov)
    return 0.5 * logdet


def kde_smoothing_bias(h, sd) -> float:
    """Entropy added by convolving a Gaussian of per-axis sd with a product
    kernel of bandwidths h: 1/2 sum log(1 + h^2 / sd^2)."""
    h = np.asarray(h, dtype=float)
    sd = np.asarray(sd, dtype=float)
    return float(0.5 * np.sum(np.log1p((h / sd) ** 2)))


def check_value_close(what: str, value: float, ref: float, tol: float) -> None:
    if not np.isfinite(value) or abs(value - ref) > tol:
        _fail(f"{what}: {value!r} differs from the reference {ref!r} by more than {tol:.3g}")


def check_finite(what: str, values) -> None:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        _fail(f"{what}: {int(np.sum(~np.isfinite(values)))} non-finite values")


# -- STAT5 reference solution -----------------------------------------------------


def stat5_rhs(t, x, k1, k2, rate, epor_t, epor_v):
    """Delay-chain STAT5 system: x = [x1, x2, x3, x4, q1..qN]."""
    x1, x2, x3 = x[0], x[1], x[2]
    q = x[4:]
    drive = k1 * x1 * np.interp(t, epor_t, epor_v)
    dx = np.empty_like(x)
    dx[0] = -drive + k2 * q[-1]
    dx[1] = -x2 * x2 + drive
    dx[2] = -k2 * x3 + x2 * x2
    dx[3] = -k2 * q[-1] + k2 * x3
    dx[4] = rate * (x3 - q[0])
    dx[5:] = rate * (q[:-1] - q[1:])
    return dx


def stat5_reference_paths(theta, grid, epor_t, epor_v, chain_length: int, x1_init: float):
    """Observables (len(grid), 2) of the STAT5 system solved by scipy's
    DOP853 at tight tolerance, restarted at every receptor-curve knot so the
    kinks of the piecewise-linear input fall on segment ends."""
    from scipy.integrate import solve_ivp

    k1, k2, tau = (float(v) for v in theta)
    rate = chain_length / tau
    x = np.zeros(4 + chain_length)
    x[0] = x1_init
    grid = np.asarray(grid, dtype=float)
    cuts = np.union1d(grid[[0, -1]], epor_t[(epor_t > grid[0]) & (epor_t < grid[-1])])
    states = np.empty((grid.size, x.size))
    states[0] = x
    for a, b in zip(cuts[:-1], cuts[1:]):
        inside = (grid > a) & (grid <= b)
        t_eval = np.union1d(grid[inside], [b])
        sol = solve_ivp(
            stat5_rhs, (a, b), x, method="DOP853", rtol=1e-11, atol=1e-13,
            t_eval=t_eval, args=(k1, k2, rate, epor_t, epor_v),
        )
        if not sol.success:
            raise RuntimeError(f"reference ODE solve failed: {sol.message}")
        states[inside] = sol.y.T[np.isin(t_eval, grid[inside])]
        x = sol.y[:, -1]
    obs = np.empty((grid.size, 2))
    obs[:, 0] = STAT5_S1 * (states[:, 1] + states[:, 2])
    obs[:, 1] = STAT5_S2 * (states[:, 0] + states[:, 1] + states[:, 2])
    return obs


def check_paths_close(what: str, paths, ref, tol: float) -> None:
    err = np.abs(np.asarray(paths, dtype=float) - np.asarray(ref, dtype=float))
    if not np.all(err <= tol):
        i, c = np.unravel_index(int(np.argmax(err)), err.shape)
        _fail(f"{what}: grid point {i} channel {c} is off by {err[i, c]:.3g} "
              f"(tolerance {tol:.3g})")
