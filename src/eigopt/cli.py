"""Command-line front end.

Subcommands tie models, estimators, the optimizer, and validation into
reproducible runs that leave CSV artifacts plus a run_meta.json record
(config hash, seed, versions) in the output directory.  All results are a
pure function of the config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dual
from .config import ExperimentConfig
from .csvio import fmt_cell, write_csv
from .eig_est import nmc_value, pce_value, srnmc_value
from .errors import ConfigError, EstimatorError
from .models.base import SimBudget
from .optim import make_grad_fn, optimize
from .rng import substream
from .validate import bias_study, posterior_entropy
from . import selftest as selftest_mod


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(args.config)
    return cfg.with_overrides(seed=args.seed, out_dir=args.out)


def _write_run_meta(cfg: ExperimentConfig, command: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "command": command,
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {
            "eigopt": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": cfg.raw,
    }
    with open(out / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _design_from(cfg: ExperimentConfig, model, design_arg: str | None = None,
                 trajectory_arg: str | None = None):
    """The design a command starts from: --design, else the last row of
    --trajectory, else optim.init, else a uniform draw from substream
    "design".  A design of the wrong length or outside the model's box is a
    ConfigError naming its source."""
    if design_arg is not None:
        source = "--design"
        try:
            values = [float(v) for v in design_arg.split(",")]
        except ValueError:
            raise ConfigError(f"--design: expected comma-separated numbers, "
                              f"got {design_arg!r}") from None
    elif trajectory_arg is not None:
        source = "--trajectory"
        try:
            rows = np.genfromtxt(trajectory_arg, delimiter=",", names=True)
        except OSError as exc:
            raise ConfigError(f"--trajectory: {exc}") from None
        last = rows[-1] if rows.shape else rows[()]
        values = [last[f"lambda_{k}"] for k in range(model.design_dim)]
    elif cfg.init_design is not None:
        source, values = "optim.init", cfg.init_design
    else:
        return model.random_design(substream(cfg.seed, "design"))
    try:
        return model.design(values)
    except ValueError as exc:
        lower, upper = model.design_bounds()
        raise ConfigError(
            f"{source}: {exc}; expected {model.design_dim} values between "
            f"{lower.tolist()} and {upper.tolist()}"
        ) from None


def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    out = Path(cfg.out_dir)
    _write_run_meta(cfg, "optimize", out)
    lam0 = _design_from(cfg, model)
    traj = optimize(model, lam0, cfg.optim)
    traj.write_csv(out / "trajectory.csv")
    d = lam0.dim
    write_csv(
        out / "final_design.csv",
        [f"lambda_{k}" for k in range(d)] + ["steps", "forward_evals"],
        [[*traj.final_design, traj.steps[-1], traj.total_forward_evals]],
    )
    print(f"optimize: {traj.steps[-1]} steps, {traj.total_forward_evals} forward evals")
    print("final design:", ", ".join(fmt_cell(v) for v in traj.final_design))
    return 0


def cmd_grad(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    out = Path(cfg.out_dir)
    _write_run_meta(cfg, "grad", out)
    lam = _design_from(cfg, model, args.design)
    budget = SimBudget()
    grad_fn = make_grad_fn(model, cfg.optim)
    est = grad_fn(lam, budget, substream(cfg.seed, "grad"))
    write_csv(
        out / "grad.csv",
        ["component", "lambda", "gradient"],
        [[k, lam.values[k], est.gradient[k]] for k in range(lam.dim)],
    )
    print(f"estimator: {cfg.optim.estimator} (M={est.outer_M}, N={est.inner_N})")
    print("gradient:", ", ".join(fmt_cell(g) for g in est.gradient))
    print(f"forward evals: {est.forward_evals_used}")
    return 0


def cmd_eig(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    out = Path(cfg.out_dir)
    _write_run_meta(cfg, "eig", out)
    lam = _design_from(cfg, model, args.design)
    M, N = cfg.validate.nmc_M, cfg.validate.nmc_N
    results = [
        ("nmc", nmc_value(model, lam, M, N, substream(cfg.seed, "eig", "nmc"), SimBudget())),
        ("srnmc", srnmc_value(model, lam, M, substream(cfg.seed, "eig", "srnmc"), SimBudget())),
        ("pce", pce_value(model, lam, M, N, substream(cfg.seed, "eig", "pce"), SimBudget())),
    ]
    for name, est in results:
        print(
            f"{name}: {est.value:.4f} +/- {est.std_error:.4f} "
            f"(M={est.M}, N={est.N}, forward evals {est.forward_evals_used})"
        )
    return 0


def cmd_entropy(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    out = Path(cfg.out_dir)
    _write_run_meta(cfg, "entropy", out)
    lam = _design_from(cfg, model, args.design, args.trajectory)
    report = posterior_entropy(
        model,
        lam,
        trials=cfg.validate.trials,
        sampler_cfg=cfg.sampler,
        kde_n=cfg.validate.kde_samples,
        rng=substream(cfg.seed, "entropy"),
    )
    rows = [[t, e] for t, e in enumerate(report.entropies)]
    rows.append(["mean", report.mean_entropy])
    rows.append(["se", report.std_error])
    write_csv(out / "entropy.csv", ["trial", "entropy"], rows)
    print(
        f"posterior entropy ({report.space} space): "
        f"{report.mean_entropy:.4f} +/- {report.std_error:.4f} "
        f"({report.trials} trials, {report.kde_samples} KDE samples)"
    )
    return 0


def cmd_bias_study(args) -> int:
    cfg = _load_config(args)
    if cfg.model.kind != "linear":
        raise ConfigError("bias_study: model.kind must be 'linear' (oracle required)")
    out = Path(cfg.out_dir)
    _write_run_meta(cfg, "bias-study", out)
    report = bias_study(
        sigma2=cfg.model.params["sigma2"],
        n_designs=cfg.bias_study.n_designs,
        replicates=cfg.bias_study.replicates,
        seed=cfg.seed,
        n_obs=cfg.model.params["n_obs"],
    )
    d = report.rows[0].lam.size
    header = (
        ["design_id"]
        + [f"lambda_{k}" for k in range(d)]
        + [f"oracle_grad_{k}" for k in range(d)]
        + ["est"]
        + [f"mean_grad_{k}" for k in range(d)]
        + ["bias_norm", "se"]
    )
    rows = [
        [r.design_id, *r.lam, *r.oracle_grad, r.estimator, *r.mean_grad, r.bias_norm, r.std_error]
        for r in report.rows
    ]
    write_csv(out / "bias.csv", header, rows)
    for name in dict.fromkeys(r.estimator for r in report.rows):  # table order, not hash order
        norms = [r.bias_norm for r in report.rows_for(name)]
        print(f"{name}: mean bias norm {np.mean(norms):.4f} over {len(norms)} designs")
    return 0


def cmd_selftest(args) -> int:
    return selftest_mod.run(fast=args.fast)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigopt",
        description="Gradient-based Bayesian experimental design runs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("optimize", help="run design optimization")
    common(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("grad", help="one gradient estimate at a design")
    common(p)
    p.add_argument("--design", default=None, help="comma-separated design values")
    p.set_defaults(fn=cmd_grad)

    p = sub.add_parser("eig", help="EIG value estimates at a design")
    common(p)
    p.add_argument("--design", default=None, help="comma-separated design values")
    p.set_defaults(fn=cmd_eig)

    p = sub.add_parser("entropy", help="posterior-entropy score of a design")
    common(p)
    p.add_argument("--design", default=None, help="comma-separated design values")
    p.add_argument("--trajectory", default=None, help="trajectory.csv to take the final design from")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("bias-study", help="gradient bias study on the linear model")
    common(p)
    p.set_defaults(fn=cmd_bias_study)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.add_argument("--fast", action="store_true", help="smaller sample sizes")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimatorError as exc:
        print(f"estimator error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
