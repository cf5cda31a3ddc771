"""The tracer restores what it patches, derives self time correctly and
leaves the program's outputs unchanged; the runner refuses to run without
the program's sources."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spans
from eigopt import PKModel, grad_est, optim, samplers
from eigopt.config import ExperimentConfig
from eigopt.models import Model
from eigopt.rng import substream

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.span_name = [0, 1, 1]
    tracer.start = [0.0, 1.0, 4.0]
    tracer.end = [10.0, 3.0, 5.0]
    tracer.parent = [-1, 0, 0]
    st = tracer.self_times()
    assert st["outer"] == (1, pytest.approx(7.0))
    assert st["inner"] == (2, pytest.approx(3.0))


def test_nested_calls_record_their_parent():
    tracer = spans.Tracer()
    out = tracer.call("outer", lambda: tracer.call("inner", lambda: 42))
    assert out == 42
    assert [tracer.names[i] for i in tracer.span_name] == ["outer", "inner"]
    assert tracer.parent == [-1, 0]
    assert tracer.end[1] <= tracer.end[0]


def test_uninstall_restores_every_original():
    before = (optim.optimize, grad_est._contract, samplers.run_chain,
              PKModel.__dict__["forward"], Model.__dict__["log_likelihood"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert optim.optimize is not before[0]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = (optim.optimize, grad_est._contract, samplers.run_chain,
             PKModel.__dict__["forward"], Model.__dict__["log_likelihood"])
    assert after == before


@pytest.mark.parametrize("stem,steps", [("toy_large_noise_beeg", 5), ("toy_small_noise_ueeg", 2)])
def test_traced_optimize_matches_untraced(stem, steps):
    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / f"{stem}.yaml"))
    model = cfg.build_model()
    lam0 = model.random_design(substream(cfg.seed, "init"))
    oc = replace(cfg.optim, max_steps=steps)
    plain = optim.optimize(model, lam0, oc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = optim.optimize(model, lam0, oc)
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(np.stack(plain.designs), np.stack(traced.designs))
    assert plain.forward_evals == traced.forward_evals
    assert plain.grad_norms[1:] == traced.grad_norms[1:]
    layer = tracer.layer_metrics(1, 0.0, 0.0)
    import run

    assert set(layer) == set(run.per_layer_units())
    assert layer["optim.steps"] == steps
    assert layer["models.budget.memo_misses"] + layer["models.forward.dual.thetas"] > 0


def test_benchmark_json_matches_the_runner():
    import run
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in bench["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
