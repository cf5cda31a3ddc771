"""The benchmark's four workloads: their inputs, one round of work, and the
correctness checks on what a round produced.

Inputs are generated from the shipped `configs/*.yaml`: the benchmark reads
each file, applies its overrides (seed, output directory, step caps), writes
the result into its output directory and hands eigopt only that file.
Every round of a run repeats the same calls on the same inputs, so the
deterministic outputs of all rounds must agree.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from eigopt import eig_est, optim, validate
from eigopt.config import ExperimentConfig
from eigopt.csvio import write_csv
from eigopt.errors import EstimatorError
from eigopt.grad_est import beeg_ap_gradient, ueeg_mcmc_gradient
from eigopt.models import LinearModel
from eigopt.rng import substream
from eigopt.samplers import SamplerConfig

import checks

perf_counter = time.perf_counter

# A step cap replaces the forward-evaluation budget for these ops; the
# budget is lifted so that the cap, not a seed-dependent chain cost, ends
# the run and every round attempts the same number of steps.
UNBOUNDED_EVALS = 10 ** 9


@dataclass
class OpResult:
    """One call into eigopt within a round."""

    name: str
    seconds: float
    evals: int | None  # forward evaluations the program reported, if any
    attempted: int
    failed: int
    csv_path: Path
    data: object = None
    degenerate_trials: int = 0  # entropy trials that hit the bandwidth floor


def csv_without_wall_time(path: Path) -> list[list[str]]:
    """The CSV's rows with the nondeterministic wall_ms column removed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [k for k, name in enumerate(rows[0]) if name != "wall_ms"]
    return [[row[k] for k in keep] for row in rows]


class Inputs:
    """Generates configs from the shipped YAML files and loads them."""

    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.load_s = 0.0

    def config(self, stem: str, fixed_seed: bool = False, **optim_overrides) -> ExperimentConfig:
        with open(self.root / "configs" / f"{stem}.yaml", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        if not fixed_seed:
            raw["seed"] = self.seed
        raw["out_dir"] = str(self.out_dir / stem)
        raw.setdefault("optim", {}).update(optim_overrides)
        path = self.out_dir / "configs" / f"{stem}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
        t0 = perf_counter()
        cfg = ExperimentConfig.from_yaml(str(path))
        self.load_s += perf_counter() - t0
        return cfg


# -- operations ---------------------------------------------------------------------


class OptimizeOp:
    """`optimize` on one generated config."""

    def __init__(self, inputs: Inputs, stem: str, max_steps: int | None = None,
                 fixed_seed: bool = False):
        overrides = {}
        if max_steps is not None:
            overrides = {"max_steps": max_steps, "max_forward_evals": UNBOUNDED_EVALS}
        self.name = stem
        self.cfg = inputs.config(stem, fixed_seed=fixed_seed, **overrides)
        self.model = self.cfg.build_model()
        self.lam0 = self.model.random_design(substream(self.cfg.seed, "init"))
        oc = self.cfg.optim
        self.estimator = oc.estimator
        if oc.estimator == "beeg_ap":
            self.cost = oc.M
        elif oc.estimator == "pce":
            self.cost = oc.M * (oc.N + 1)
        elif oc.sampler.kind == "adaptive_mh":
            # One outer simulation plus thinning * N chain proposals per
            # outer sample; the chain's kept draws are memo hits.
            self.cost = oc.M * (1 + oc.sampler.thinning * oc.N)
        else:
            self.cost = None  # slice chains: cost depends on the draws
        if max_steps is not None:
            self.attempted = max_steps
        else:
            if self.cost is None:
                raise ValueError(f"{stem}: a budget-ended run needs a fixed cost per step")
            self.attempted = math.ceil(oc.max_forward_evals / self.cost)

    def warmup(self) -> None:
        optim.optimize(self.model, self.lam0, replace(self.cfg.optim, max_steps=1))

    def run(self, out: Path) -> OpResult:
        t0 = perf_counter()
        traj = optim.optimize(self.model, self.lam0, self.cfg.optim)
        seconds = perf_counter() - t0
        path = out / self.name / "trajectory.csv"
        traj.write_csv(path)
        done = len(traj.steps) - 1
        zero = 0
        if self.estimator == "ueeg_mcmc":
            # Known fault: a chain that accepts nothing returns the
            # generating theta as every draw, and the gradient is exactly 0.
            zero = int(np.sum(np.asarray(traj.grad_norms[1:]) == 0.0))
        return OpResult(
            self.name, seconds, traj.total_forward_evals, self.attempted,
            self.attempted - done + zero, path, data=traj,
        )


class EntropyOp:
    """`posterior_entropy` at a seeded random design."""

    def __init__(self, inputs: Inputs, name: str, model_stem: str, sampler_stem: str,
                 trials: int):
        self.name = name
        self.cfg = inputs.config(model_stem)
        self.sampler = inputs.config(sampler_stem).sampler
        self.model = self.cfg.build_model()
        self.lam = self.model.random_design(substream(self.cfg.seed, "design"))
        self.trials = trials
        self.kde_n = self.cfg.validate.kde_samples

    def _call(self, trials: int, kde_n: int):
        return validate.posterior_entropy(
            self.model, self.lam, trials=trials, sampler_cfg=self.sampler, kde_n=kde_n,
            rng=substream(self.cfg.seed, "entropy", self.name),
        )

    def warmup(self) -> None:
        self._call(1, 20)

    def run(self, out: Path) -> OpResult:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            report = self._call(self.trials, self.kde_n)
            seconds = perf_counter() - t0
        path = out / self.name / "entropy.csv"
        rows = [[t, e] for t, e in enumerate(report.entropies)]
        rows += [["mean", report.mean_entropy], ["se", report.std_error]]
        rows += [[f"bandwidth_{k}", h] for k, h in enumerate(report.bandwidths)]
        write_csv(path, ["trial", "entropy"], rows)
        degenerate = sum("degenerate sample dimension" in str(w.message) for w in caught)
        return OpResult(self.name, seconds, None, self.trials, 0, path, data=report,
                        degenerate_trials=degenerate)


class NmcOp:
    """`nmc_value` at a seeded random design with the config's nmc_M, nmc_N."""

    def __init__(self, inputs: Inputs, name: str, stem: str):
        self.name = name
        self.cfg = inputs.config(stem)
        self.model = self.cfg.build_model()
        self.lam = self.model.random_design(substream(self.cfg.seed, "design"))
        self.M, self.N = self.cfg.validate.nmc_M, self.cfg.validate.nmc_N

    def _call(self, M: int, N: int):
        rng = substream(self.cfg.seed, "eig", "nmc", self.name)
        return eig_est.nmc_value(self.model, self.lam, M, N, rng)

    def warmup(self) -> None:
        self._call(50, 50)

    def run(self, out: Path) -> OpResult:
        t0 = perf_counter()
        try:
            est = self._call(self.M, self.N)
        except EstimatorError:
            est = None
        seconds = perf_counter() - t0
        path = out / self.name / "nmc.csv"
        if est is None:
            write_csv(path, ["value", "se", "forward_evals"], [["failed", "", ""]])
            return OpResult(self.name, seconds, None, 1, 1, path)
        write_csv(path, ["value", "se", "forward_evals"],
                  [[est.value, est.std_error, est.forward_evals_used]])
        return OpResult(self.name, seconds, est.forward_evals_used, 1, 0, path, data=est)


# -- workloads ----------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, inputs: Inputs):
        self.ops = self.build_ops(inputs)

    def build_ops(self, inputs: Inputs) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        for op in self.ops:
            op.warmup()

    def run_round(self, out: Path) -> list[OpResult]:
        return [op.run(out) for op in self.ops]

    def op(self, name: str):
        return next(op for op in self.ops if op.name == name)

    def check(self, results: list[OpResult], seed: int) -> None:
        """Raise checks.CheckFailed unless the round's outputs are correct."""
        raise NotImplementedError

    def _check_trajectories(self, results: list[OpResult]) -> None:
        for res in results:
            op = self.op(res.name)
            traj = res.data
            lower, upper = op.model.design_bounds()
            checks.check_in_box(res.name, np.stack(traj.designs), lower, upper)
            if op.cost is not None:
                checks.check_evals_per_step(res.name, traj.steps, traj.forward_evals, op.cost)
                checks.check_total_evals(
                    res.name, traj.total_forward_evals, op.attempted, op.cost
                )


class OptimizeBatched(Workload):
    name = "optimize-batched"

    def build_ops(self, inputs):
        return [
            OptimizeOp(inputs, "toy_large_noise_beeg"),
            OptimizeOp(inputs, "toy_small_noise_beeg"),
            OptimizeOp(inputs, "pk_small_eig_beeg"),
            OptimizeOp(inputs, "pk_small_eig_pce"),
        ]

    def check(self, results, seed):
        self._check_trajectories(results)
        for res in results:
            op = self.op(res.name)
            oc = op.cfg.optim
            lam = res.data.final_design
            rng = substream(seed, "check", "cap", res.name)
            if oc.estimator == "beeg_ap":
                srnmc_batch_check(op.model, lam, oc.M, rng, what=res.name)
            else:
                # Guards only pce_value's clamp; linear_pce_check tests the value.
                est = eig_est.pce_value(op.model, lam, oc.M, oc.N, rng)
                checks.check_cap(f"{res.name} pce_value", est.value, math.log(oc.N + 1))
        linear_pce_check(seed)
        # BEEG-AP is the gradient of the sample-reuse estimator on its batch:
        # compare it with central differences of srnmc_value on that batch.
        for name, h in (("toy_large_noise_beeg", 1e-5), ("pk_small_eig_beeg", 1e-4)):
            op = self.op(name)
            traj = next(r.data for r in results if r.name == name)
            rows = np.linspace(0, len(traj.designs) - 1, 3).astype(int)
            for row in rows:
                beeg_fd_check(op.model, traj.designs[row], op.cfg.optim.M,
                              substream(seed, "check", "fd", name, int(row)), h,
                              what=f"{name} step {traj.steps[row]}")


def beeg_fd_check(model, lam_values, M, rng, h, what, perturb=0.0):
    """BEEG-AP gradient on a fixed batch against central differences of the
    sample-reuse EIG value on the same batch.  `perturb` scales the
    gradient, so tests can show the check rejects a wrong gradient."""
    batch = (model.sample_prior_values(rng, M), model.sample_noise_values(rng, M))
    lam = model.design(lam_values)
    grad = beeg_ap_gradient(model, lam, M, rng, batch=batch).gradient * (1.0 + perturb)

    def value(x):
        return eig_est.srnmc_value(model, x, batch=batch).value

    ref = checks.central_differences(value, np.asarray(lam_values, dtype=float), h)
    scale = float(np.max(np.abs(ref)))
    checks.check_gradient_close(f"{what} BEEG-AP vs central differences", grad, ref,
                                rtol=1e-4, atol=1e-5 * scale)


def srnmc_batch_check(model, lam_values, M, rng, what, shift=0.0):
    """srnmc_value on a fixed batch against the benchmark's own sample-reuse
    sum over the program's forward and likelihood on that batch.  The
    program clamps its terms at 0, so its log M cap holds whatever it sums;
    this check caps the unclamped terms and matches the value, so an inner
    average without the own sample fails.  `shift` offsets the program's
    value, so tests can show the check rejects a wrong one."""
    thetas = model.sample_prior_values(rng, M)
    eps = model.sample_noise_values(rng, M)
    lam_values = np.asarray(lam_values, dtype=float)
    got = eig_est.srnmc_value(model, model.design(lam_values), batch=(thetas, eps)).value
    f = model.forward(thetas, lam_values)
    ll, _, _ = model.log_density_value_and_partials(model.observe(f, eps)[:, None, :],
                                                     f[None, :, :])
    terms = checks.sample_reuse_terms(ll)
    checks.check_terms_capped(f"{what} sample-reuse terms", ll, terms)
    checks.check_value_close(f"{what} srnmc_value", got + shift,
                             float(np.mean(terms)) + math.log(M), 1e-10)


def linear_pce_check(seed, estimator=eig_est.pce_value):
    """pce_value on the linear model against the mean of the benchmark's own
    PCE terms (other draws), within 4 combined SE.  At N=10 PCE sits well
    below the EIG; an inner average without the own sample is NMC, which
    sits far above it.  `estimator` stands in for pce_value in tests."""
    sigma2, M, N = 0.5, 20000, 10
    model = LinearModel(n_obs=2, sigma2=sigma2)
    lam = model.random_design(substream(seed, "check", "pce-design"))
    est = estimator(model, lam, M, N, substream(seed, "check", "pce"))
    ref = checks.linear_pce_terms(lam.values, sigma2, M, N, substream(seed, "check", "pce-ref"))
    ref_se = float(np.std(ref, ddof=1) / np.sqrt(M))
    checks.check_value_close("linear pce_value", est.value, float(np.mean(ref)),
                             4.0 * math.hypot(est.std_error, ref_se))


class OptimizeChains(Workload):
    name = "optimize-chains"

    def build_ops(self, inputs):
        return [
            OptimizeOp(inputs, "toy_large_noise_ueeg", max_steps=30),
            OptimizeOp(inputs, "toy_small_noise_ueeg", max_steps=50),
            # Fixed seed: its exactly-zero gradients (counted as failed) are
            # the same in every run, whatever the workload seed.
            OptimizeOp(inputs, "pk_large_eig_ueeg", max_steps=500, fixed_seed=True),
        ]

    def check(self, results, seed):
        self._check_trajectories(results)
        ueeg_exact_check(seed)


def ueeg_exact_check(seed, replicates=400, perturb=0.0):
    """Mean of UEEG gradients with exact posterior draws on the linear model
    against central differences of its closed-form EIG."""
    sigma2 = 0.5
    model = LinearModel(n_obs=3, sigma2=sigma2)
    lam = model.random_design(substream(seed, "check", "linear-design"))
    cfg = SamplerConfig(kind="exact", n_samples=9)
    grads = np.stack([
        ueeg_mcmc_gradient(model, lam, 10, cfg, substream(seed, "check", "ueeg", r)).gradient
        for r in range(replicates)
    ]) + perturb
    ref = checks.central_differences(lambda x: checks.linear_eig(x, sigma2), lam.values, 1e-5)
    checks.check_mean_within_se("linear UEEG-MCMC (exact sampler)", grads, ref)


class Validate(Workload):
    name = "validate"

    def build_ops(self, inputs):
        return [
            EntropyOp(inputs, "entropy_toy", "toy_large_noise_beeg", "toy_large_noise_ueeg",
                      trials=20),
            EntropyOp(inputs, "entropy_pk", "pk_small_eig_beeg", "pk_small_eig_beeg",
                      trials=20),
            NmcOp(inputs, "nmc_toy", "toy_large_noise_beeg"),
            NmcOp(inputs, "nmc_pk", "pk_small_eig_beeg"),
        ]

    def check(self, results, seed):
        for res in results:
            if isinstance(res.data, validate.EntropyReport):
                checks.check_finite(f"{res.name} entropies", res.data.entropies)
                if res.degenerate_trials:
                    raise checks.CheckFailed(
                        f"{res.name}: {res.degenerate_trials} trials hit the 1e-8 bandwidth floor"
                    )
            elif res.data is None:
                raise checks.CheckFailed(f"{res.name}: nmc_value failed")
            else:
                checks.check_finite(f"{res.name} value", [res.data.value, res.data.std_error])
        linear_nmc_check(seed)
        gaussian_kde_check(seed)
        linear_entropy_check(seed)


def linear_nmc_check(seed, shift=0.0):
    """nmc_value on the linear model against its closed-form EIG.  NMC is
    biased upward by O(1/N); 4 SE plus 2/N covers noise and bias."""
    model = LinearModel(n_obs=2, sigma2=0.5)
    lam = model.random_design(substream(seed, "check", "nmc-design"))
    M, N = 4000, 1000
    est = eig_est.nmc_value(model, lam, M, N, substream(seed, "check", "nmc"))
    ref = checks.linear_eig(lam.values, model.sigma2)
    checks.check_value_close("linear nmc_value", est.value + shift, ref,
                             4.0 * est.std_error + 2.0 / N)


def gaussian_kde_check(seed, scale=1.0):
    """kde_entropy of a Gaussian sample against 1/2 log det(2 pi e Sigma),
    allowing the kernel's smoothing bias and 4 SE of the sample mean."""
    rng = substream(seed, "check", "kde")
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    x = rng.multivariate_normal(np.zeros(2), cov, size=2000) * scale
    ent, h = validate.kde_entropy(x)
    ref = checks.gaussian_entropy(cov)
    logp = -validate.kde_log_density(x, x, h)
    se = float(np.std(logp, ddof=1) / np.sqrt(x.shape[0]))
    bias = checks.kde_smoothing_bias(h, np.sqrt(np.diag(cov)))
    checks.check_value_close("Gaussian kde_entropy", ent, ref, bias + 4.0 * se)


def linear_entropy_check(seed, shift=0.0):
    """posterior_entropy on the linear model (slice chains) against the
    conjugate posterior's Gaussian entropy, allowing the KDE's smoothing
    bias and 4 SE over trials."""
    model = LinearModel(n_obs=3, sigma2=0.1)
    lam = model.random_design(substream(seed, "check", "entropy-design"))
    cfg = SamplerConfig(kind="slice", thinning=2)
    report = validate.posterior_entropy(model, lam, trials=4, sampler_cfg=cfg, kde_n=200,
                                        rng=substream(seed, "check", "entropy"))
    ref = checks.linear_posterior_entropy(lam.values, model.sigma2)
    D = checks.linear_design_matrix(lam.values)
    post_sd = np.sqrt(np.diag(np.linalg.inv(np.eye(3) + D.T @ D / model.sigma2)))
    bias = checks.kde_smoothing_bias(report.bandwidths, post_sd)
    checks.check_value_close("linear posterior_entropy", report.mean_entropy + shift, ref,
                             bias + 4.0 * report.std_error)


class Stat5(Workload):
    name = "stat5"

    def build_ops(self, inputs):
        return [
            OptimizeOp(inputs, "stat5_small_eig_beeg", max_steps=150),
            OptimizeOp(inputs, "stat5_large_eig_ueeg", max_steps=3, fixed_seed=True),
        ]

    def check(self, results, seed):
        self._check_trajectories(results)
        for res in results:
            checks.check_in_box(f"{res.name} (0..60 min)", np.stack(res.data.designs), 0.0, 60.0)
        model = self.op("stat5_small_eig_beeg").model
        stat5_ode_check(model, model.sample_prior_values(substream(seed, "check", "ode"), 3))


STAT5_PATH_TOL = 1e-4


def stat5_ode_check(model, thetas, paths=None):
    """`solve_paths` against scipy's DOP853 on the same delay-chain ODE.
    The 3/8-rule RK4 at h=0.25 stays within 1e-5 of it over the prior box;
    1e-4 leaves a margin while a 1% rate change (~3e-3) or a one-step time
    shift (~4e-2) fails.  `paths` overrides the program's output in tests."""
    for k, theta in enumerate(thetas):
        got = model.solve_paths(theta) if paths is None else paths[k]
        ref = checks.stat5_reference_paths(theta, model.grid, model.epor.times,
                                           model.epor.values, model.chain_length,
                                           model.x1_init)
        checks.check_paths_close(f"stat5 solve_paths at theta={theta}", got, ref,
                                 STAT5_PATH_TOL)


WORKLOADS = {cls.name: cls for cls in (OptimizeBatched, OptimizeChains, Validate, Stat5)}
