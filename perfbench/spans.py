"""Span tracing of eigopt's layers from outside the package.

`Tracer.install()` replaces the functions that callers actually resolve at
call time (module globals such as `eigopt.grad_est.posterior_draws`, and
model class methods such as `PKModel.forward`) with wrappers that record a
span (name, start, end, parent) and a few counts at each layer boundary.
Spans stay in memory; `save()` writes them out once the run ends, and
`layer_metrics()` derives per-layer self time (a span's duration minus the
time its child spans cover), counts and ratios from them.

Only the benchmark's own process is patched, and `uninstall()` restores
every original, so the untraced rounds run the program as shipped.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np

from eigopt import dual, eig_est, grad_est, optim, samplers, validate
from eigopt.models import LinearModel, Model, PKModel, SimBudget, Stat5Model, ToyModel

perf_counter = time.perf_counter

# Module globals that callers resolve at call time, the span they get, and
# an optional count taken from the call's result.
_MODULE_TARGETS = [
    (optim, "optimize", "optim.optimize", lambda traj: ("optim.steps", traj.steps[-1])),
    (optim, "substream", "rng.substream", None),
    (optim, "beeg_ap_gradient", "grad_est.beeg_ap", None),
    (optim, "pce_gradient", "grad_est.pce", None),
    (optim, "ueeg_mcmc_gradient", "grad_est.ueeg_mcmc", None),
    (grad_est, "_contract", "grad_est.contract", None),
    (grad_est, "posterior_draws", "samplers.posterior_draws", None),
    (validate, "posterior_draws", "samplers.posterior_draws", None),
    (validate, "kde_entropy", "validate.kde_entropy", None),
    (validate, "posterior_entropy", "validate.posterior_entropy", None),
    (eig_est, "nmc_value", "eig_est.nmc_value",
     lambda est: ("eig_est.nmc_value.thetas", est.forward_evals_used)),
]

# Methods patched on the class that defines them; subclasses inherit the
# wrapper exactly as they inherit the original.
_LIKELIHOOD_METHODS = [
    (Model, "log_likelihood"),
    (Model, "log_density_given_forward"),
    (Model, "log_density_value_and_partials"),
    (PKModel, "log_density_given_forward"),
    (PKModel, "log_density_value_and_partials"),
]
_FORWARD_CLASSES = (LinearModel, ToyModel, PKModel, Stat5Model)


def _n_thetas(theta_values) -> int:
    shape = np.shape(theta_values)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """In-memory span recorder with patch/unpatch of eigopt's layers."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.span_name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def add(self, key: str, n) -> None:
        self.counts[key] += n

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, span, count in _MODULE_TARGETS:
            self._patch(module, attr, self._wrap_plain(getattr(module, attr), span, count))
        self._patch(samplers, "run_chain", self._wrap_run_chain(samplers.run_chain))
        for cls, attr in _LIKELIHOOD_METHODS:
            self._patch(cls, attr, self._wrap_plain(cls.__dict__[attr], "models.likelihood"))
        for cls in _FORWARD_CLASSES:
            self._patch(cls, "forward", self._wrap_forward(cls.__dict__["forward"]))
        self._patch(Stat5Model, "solve_paths", self._wrap_solve_paths(Stat5Model.solve_paths))
        self._patch(SimBudget, "cached_forward",
                    self._wrap_cached_forward(SimBudget.cached_forward))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap_plain(self, fn, span, count=None):
        call, add = self.call, self.add

        def wrapper(*args, **kwargs):
            out = call(span, fn, *args, **kwargs)
            if count is not None:
                add(*count(out))
            return out

        return wrapper

    def _wrap_forward(self, fn):
        call, add = self.call, self.add

        def forward(self_model, theta_values, lam):
            kind = "dual" if isinstance(lam, dual.Dual) else "plain"
            add(f"models.forward.{kind}.thetas", _n_thetas(theta_values))
            return call(f"models.forward.{kind}", fn, self_model, theta_values, lam)

        return forward

    def _wrap_solve_paths(self, fn):
        call, add = self.call, self.add

        def solve_paths(self_model, theta_values):
            add("models.stat5.solve_paths.thetas", _n_thetas(theta_values))
            return call("models.stat5.solve_paths", fn, self_model, theta_values)

        return solve_paths

    def _wrap_cached_forward(self, fn):
        call, add = self.call, self.add

        def cached_forward(budget, theta, compute):
            before = budget.forward_evals
            out = call("models.budget.cached_forward", fn, budget, theta, compute)
            add("models.budget.memo_misses" if budget.forward_evals > before
                else "models.budget.memo_hits", 1)
            return out

        return cached_forward

    def _wrap_run_chain(self, fn):
        call, add = self.call, self.add

        def run_chain(log_target, init, cfg, rng, widths=None):
            def target(z):
                add("samplers.target_evals", 1)
                return call("samplers.target", log_target, z)

            chain = call("samplers.run_chain", fn, target, init, cfg, rng, widths)
            steps = cfg.n_samples * cfg.thinning
            if cfg.kind == "adaptive_mh":
                add("samplers.mh.steps", steps)
                add("samplers.mh.accepted", chain.accept_rate * steps)
            elif cfg.kind == "slice":
                add("samplers.slice.updates", steps * np.size(init))
                add("samplers.slice.evals", chain.n_target_evals)
            return chain

        return run_chain

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self time in s)."""
        if not self.start:
            return {}
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        ids = np.asarray(self.span_name)
        calls = np.bincount(ids, minlength=len(self.names))
        selfs = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: (int(calls[k]), float(selfs[k])) for k, n in enumerate(self.names)}

    def layer_metrics(self, rounds: int, config_load_s: float, overhead_s: float) -> dict:
        """Per-round layer metrics, keyed as in BENCHMARK.json's per_layer."""
        st = self.self_times()
        c = self.counts

        def calls(span):
            return st.get(span, (0, 0.0))[0] / rounds

        def self_s(span):
            return st.get(span, (0, 0.0))[1] / rounds

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {}
        for kind in ("dual", "plain"):
            span = f"models.forward.{kind}"
            thetas = c[f"{span}.thetas"] / rounds
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.thetas"] = thetas
            out[f"{span}.self_s"] = self_s(span)
            out[f"{span}.us_per_theta"] = ratio(self_s(span), thetas, 1e6)
        out["models.stat5.solve_paths.thetas"] = c["models.stat5.solve_paths.thetas"] / rounds
        out["models.stat5.solve_paths.self_s"] = self_s("models.stat5.solve_paths")
        out["models.likelihood.calls"] = calls("models.likelihood")
        out["models.likelihood.self_s"] = self_s("models.likelihood")
        out["models.budget.memo_hits"] = c["models.budget.memo_hits"] / rounds
        out["models.budget.memo_misses"] = c["models.budget.memo_misses"] / rounds
        for layer in ("contract", "beeg_ap", "pce", "ueeg_mcmc"):
            out[f"grad_est.{layer}.calls"] = calls(f"grad_est.{layer}")
            out[f"grad_est.{layer}.self_s"] = self_s(f"grad_est.{layer}")
        for layer in ("posterior_draws", "run_chain", "target"):
            out[f"samplers.{layer}.self_s"] = self_s(f"samplers.{layer}")
        target_evals = c["samplers.target_evals"] / rounds
        out["samplers.target_evals"] = target_evals
        # Sampler cost per target evaluation beyond the forward and the
        # likelihood: chain bookkeeping plus the target's own glue.
        out["samplers.us_per_target_eval"] = ratio(
            out["samplers.run_chain.self_s"] + out["samplers.target.self_s"], target_evals, 1e6
        )
        out["samplers.mh.accept_rate"] = ratio(c["samplers.mh.accepted"], c["samplers.mh.steps"])
        out["samplers.slice.evals_per_update"] = ratio(
            c["samplers.slice.evals"], c["samplers.slice.updates"]
        )
        out["eig_est.nmc_value.thetas"] = c["eig_est.nmc_value.thetas"] / rounds
        out["eig_est.nmc_value.self_s"] = self_s("eig_est.nmc_value")
        out["validate.kde_entropy.calls"] = calls("validate.kde_entropy")
        out["validate.kde_entropy.self_s"] = self_s("validate.kde_entropy")
        out["validate.posterior_entropy.self_s"] = self_s("validate.posterior_entropy")
        out["optim.optimize.self_s"] = self_s("optim.optimize")
        out["optim.steps"] = c["optim.steps"] / rounds
        out["rng.substream.calls"] = calls("rng.substream")
        out["rng.substream.self_s"] = self_s("rng.substream")
        out["config.load_s"] = config_load_s
        out["trace.spans"] = len(self.start) / rounds
        out["trace.overhead_s"] = overhead_s
        return out

    def save(self, path: Path) -> None:
        """Write every recorded span (name, start, end, parent) to an .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
        )
