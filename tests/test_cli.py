"""CLI and configuration: determinism, artifacts, validation diagnostics."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigopt import linear_eig_oracle
from eigopt.cli import main
from eigopt.config import ExperimentConfig
from eigopt.errors import ConfigError
from eigopt.validate import BIAS_STUDY_ESTIMATORS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY_CFG = """\
model:
  kind: toy
  noise_sd: 0.1
seed: {seed}
out_dir: {out}
optim:
  estimator: beeg_ap
  M: 25
  step_rule: adam
  learning_rate: 0.05
  max_forward_evals: 500
"""

LINEAR_CFG = """\
model:
  kind: linear
  n_obs: 1
  sigma2: 1.0
seed: 11
out_dir: {out}
validate:
  nmc_M: 2000
  nmc_N: 2000
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_unknown_keys_rejected_with_path(self, tmp_path):
        p = write_cfg(tmp_path, "model:\n  kind: toy\n  typo_field: 3\n")
        with pytest.raises(ConfigError, match="typo_field"):
            ExperimentConfig.from_yaml(p)

    def test_missing_model_section(self, tmp_path):
        p = write_cfg(tmp_path, "seed: 3\n")
        with pytest.raises(ConfigError, match="model"):
            ExperimentConfig.from_yaml(p)

    def test_bad_numeric_field_named(self, tmp_path):
        p = write_cfg(
            tmp_path, "model:\n  kind: toy\noptim:\n  learning_rate: -2\n"
        )
        with pytest.raises(ConfigError, match="optim.learning_rate"):
            ExperimentConfig.from_yaml(p)

    @pytest.mark.parametrize(
        "text, path",
        [
            ("optim:\n  M: 2.5\n", "optim.M"),
            ("sampler:\n  thinning: 1.9\n", "sampler.thinning"),
            ("seed: 1.5\n", "seed"),
            ("optim:\n  fixed_atoms: 'false'\n", "optim.fixed_atoms"),
            ("seed: abc\n", "seed"),
            ("sampler: 3\n", "sampler"),
        ],
        ids=["M=2.5", "thinning=1.9", "seed=1.5", "fixed_atoms='false'", "seed=abc", "sampler=3"],
    )
    def test_malformed_scalar_named_and_exits_2(self, tmp_path, text, path):
        p = write_cfg(tmp_path, "model:\n  kind: toy\n" + text)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            ExperimentConfig.from_yaml(p)
        assert main(["grad", "--config", p, "--out", str(tmp_path / "g")]) == 2

    def test_exponent_without_dot_parses(self, tmp_path):
        # PyYAML reads 1e-2 as a string.
        p = write_cfg(tmp_path, "model:\n  kind: toy\noptim:\n  learning_rate: 1e-2\n")
        assert ExperimentConfig.from_yaml(p).optim.learning_rate == 0.01

    @pytest.mark.parametrize("section, key", [("sampler", "n_samples"), ("bias_study", "sigma2")])
    def test_removed_keys_rejected(self, tmp_path, section, key):
        p = write_cfg(tmp_path, f"model:\n  kind: linear\n{section}:\n  {key}: 3\n")
        with pytest.raises(ConfigError, match=f"^{section}: unknown keys \\['{key}'\\]"):
            ExperimentConfig.from_yaml(p)

    @pytest.mark.parametrize(
        "text, path",
        [
            ("out_dir: 2024-01-01\n", "out_dir"),
            ("optim:\n  init: [0.4, 2024-01-01]\n", "optim.init[1]"),
        ],
        ids=["out_dir", "optim.init"],
    )
    def test_value_json_cannot_hold_named_and_exits_2(self, tmp_path, capsys, text, path):
        # an unquoted date is a datetime.date, which run_meta.json cannot hold
        p = write_cfg(tmp_path, "model:\n  kind: toy\n" + text)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: .*date"):
            ExperimentConfig.from_yaml(p)
        assert main(["grad", "--config", p, "--out", str(tmp_path / "g")]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_missing_epor_csv_reported(self, tmp_path):
        p = write_cfg(tmp_path, "model:\n  kind: stat5\n  epor_csv: nope.csv\n")
        with pytest.raises(ConfigError, match="epor_csv"):
            ExperimentConfig.from_yaml(p)

    def test_overrides_change_hash_only_when_fields_change(self, tmp_path):
        p = write_cfg(tmp_path, TOY_CFG.format(seed=1, out=tmp_path / "a"))
        cfg = ExperimentConfig.from_yaml(p)
        assert cfg.with_overrides().config_hash() == cfg.config_hash()
        assert cfg.with_overrides(seed=2).config_hash() != cfg.config_hash()

    def test_stat5_epor_csv_is_used(self, tmp_path):
        curve = tmp_path / "epor.csv"
        curve.write_text("t,value\n0,0\n30,1\n60,0\n")
        p = write_cfg(
            tmp_path, f"model:\n  kind: stat5\n  epor_csv: {curve}\n"
        )
        model = ExperimentConfig.from_yaml(p).build_model()
        assert model.epor.label == "epor.csv"


class TestCliRuns:
    def test_optimize_writes_artifacts_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        p1 = write_cfg(tmp_path, TOY_CFG.format(seed=7, out=out1), "a.yaml")
        p2 = write_cfg(tmp_path, TOY_CFG.format(seed=7, out=out2), "b.yaml")
        assert main(["optimize", "--config", p1]) == 0
        assert main(["optimize", "--config", p2]) == 0
        rows1 = read_rows(out1 / "trajectory.csv")
        rows2 = read_rows(out2 / "trajectory.csv")
        assert rows1[0] == [
            "step", "lambda_0", "lambda_1", "grad_norm", "forward_evals", "wall_ms"
        ]
        # identical modulo the wall-clock column
        strip = lambda rows: [r[:-1] for r in rows]
        assert strip(rows1) == strip(rows2)
        meta = json.loads((out1 / "run_meta.json").read_text())
        assert meta["seed"] == 7 and "config_sha256" in meta
        assert (out1 / "final_design.csv").exists()

    def test_optimize_respects_seed_override(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        p = write_cfg(tmp_path, TOY_CFG.format(seed=7, out=out1))
        assert main(["optimize", "--config", p]) == 0
        assert main(["optimize", "--config", p, "--seed", "8", "--out", str(out2)]) == 0
        r1 = read_rows(out1 / "trajectory.csv")
        r2 = read_rows(out2 / "trajectory.csv")
        assert r1[1:] != r2[1:]

    def test_eig_covers_closed_form(self, tmp_path, capsys):
        p = write_cfg(tmp_path, LINEAR_CFG.format(out=tmp_path / "eig"))
        assert main(["eig", "--config", p, "--design", "0"]) == 0
        outp = capsys.readouterr().out
        nmc_line = next(l for l in outp.splitlines() if l.startswith("nmc:"))
        value, se = float(nmc_line.split()[1]), float(nmc_line.split()[3])
        assert abs(value - 0.5 * np.log(2.0)) < 3 * se

    def test_optimize_starts_where_grad_looks(self, tmp_path):
        p = write_cfg(tmp_path, TOY_CFG.format(seed=4, out=tmp_path / "o"))
        assert main(["optimize", "--config", p]) == 0
        assert main(["grad", "--config", p, "--out", str(tmp_path / "g")]) == 0
        start = read_rows(tmp_path / "o" / "trajectory.csv")[1][1:3]
        assert start == [row[1] for row in read_rows(tmp_path / "g" / "grad.csv")[1:]]

    @pytest.mark.parametrize(
        "args, init, source",
        [
            (["--design", "0.4"], "", "--design"),
            (["--design", "0.4,1.5"], "", "--design"),
            ([], "  init: [0.4, 0.5, 0.6]\n", "optim.init"),
            ([], "  init: [0.4, -0.5]\n", "optim.init"),
        ],
        ids=["design-length", "design-box", "init-length", "init-box"],
    )
    def test_bad_design_named_and_exits_2(self, tmp_path, capsys, args, init, source):
        p = write_cfg(tmp_path, TOY_CFG.format(seed=3, out=tmp_path / "g") + init)
        assert main(["grad", "--config", p, *args]) == 2
        assert f"config error: {source}: design values" in capsys.readouterr().err

    def test_grad_writes_csv(self, tmp_path):
        out = tmp_path / "g"
        p = write_cfg(tmp_path, TOY_CFG.format(seed=3, out=out))
        assert main(["grad", "--config", p, "--design", "0.4,0.6"]) == 0
        rows = read_rows(out / "grad.csv")
        assert rows[0] == ["component", "lambda", "gradient"]
        assert len(rows) == 3

    def test_entropy_writes_footer(self, tmp_path):
        out = tmp_path / "e"
        cfg = TOY_CFG.format(seed=3, out=out) + "validate:\n  trials: 4\n  kde_samples: 60\n"
        p = write_cfg(tmp_path, cfg)
        assert main(["entropy", "--config", p, "--design", "0.4,0.9"]) == 0
        rows = read_rows(out / "entropy.csv")
        assert rows[0] == ["trial", "entropy"]
        assert rows[-2][0] == "mean" and rows[-1][0] == "se"
        assert len(rows) == 1 + 4 + 2

    def test_entropy_accepts_trajectory(self, tmp_path):
        out = tmp_path / "t"
        cfg = TOY_CFG.format(seed=3, out=out) + "validate:\n  trials: 2\n  kde_samples: 50\n"
        p = write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", p]) == 0
        assert (
            main(
                ["entropy", "--config", p, "--trajectory", str(out / "trajectory.csv")]
            )
            == 0
        )

    def test_missing_trajectory_named_and_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TOY_CFG.format(seed=3, out=tmp_path / "t"))
        missing = tmp_path / "nope.csv"
        assert main(["entropy", "--config", p, "--trajectory", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "config error: --trajectory: " in err and str(missing) in err

    def test_bias_study_summary_in_table_order(self, tmp_path):
        # The summary lines must not depend on string hashing.
        cfg = (
            f"model:\n  kind: linear\n  n_obs: 2\n  sigma2: 0.5\nseed: 5\n"
            f"out_dir: {tmp_path / 'b'}\nbias_study:\n  n_designs: 1\n  replicates: 2\n"
        )
        p = write_cfg(tmp_path, cfg)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-m", "eigopt.cli", "bias-study", "--config", p],
                                 env=env, capture_output=True, text=True, check=True)
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        names = [line.split(":")[0] for line in outs[0].splitlines()]
        assert names == list(BIAS_STUDY_ESTIMATORS)

    def test_import_leaves_out_scipy(self):
        # scipy is a test dependency only; importing the package must not load it.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, eigopt, eigopt.config, eigopt.cli; print('scipy' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "False"

    def test_bias_study_csv_schema(self, tmp_path):
        out = tmp_path / "b"
        cfg = (
            f"model:\n  kind: linear\n  n_obs: 3\n  sigma2: 0.5\nseed: 5\n"
            f"out_dir: {out}\nbias_study:\n  n_designs: 2\n  replicates: 3\n"
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["bias-study", "--config", p]) == 0
        rows = read_rows(out / "bias.csv")
        assert rows[0] == [
            "design_id", "lambda_0", "lambda_1", "lambda_2",
            "oracle_grad_0", "oracle_grad_1", "oracle_grad_2", "est",
            "mean_grad_0", "mean_grad_1", "mean_grad_2", "bias_norm", "se",
        ]
        assert len(rows) == 1 + 2 * 4

    def test_bias_study_uses_model_sigma2(self, tmp_path):
        out = tmp_path / "b"
        cfg = (
            f"model:\n  kind: linear\n  n_obs: 2\n  sigma2: 0.5\nseed: 5\n"
            f"out_dir: {out}\nbias_study:\n  n_designs: 2\n  replicates: 2\n"
        )
        assert main(["bias-study", "--config", write_cfg(tmp_path, cfg)]) == 0
        rows = read_rows(out / "bias.csv")
        for row in rows[1:]:
            _, oracle = linear_eig_oracle(np.array([float(v) for v in row[1:3]]), 0.5)
            np.testing.assert_allclose([float(v) for v in row[3:5]], oracle, rtol=1e-12)

    def test_bias_study_requires_linear(self, tmp_path):
        p = write_cfg(tmp_path, TOY_CFG.format(seed=1, out=tmp_path / "x"))
        assert main(["bias-study", "--config", p]) == 2

    def test_config_error_exit_code(self, tmp_path):
        p = write_cfg(tmp_path, "model:\n  kind: warp\n")
        assert main(["optimize", "--config", p]) == 2

    def test_selftest_fast(self):
        assert main(["selftest", "--fast"]) == 0

    def test_csv_full_precision(self, tmp_path):
        out = tmp_path / "p"
        p = write_cfg(tmp_path, TOY_CFG.format(seed=9, out=out))
        assert main(["optimize", "--config", p]) == 0
        rows = read_rows(out / "trajectory.csv")
        val = rows[2][1]
        assert float(val) != round(float(val), 6) or len(val.split(".")[-1]) >= 1

    def test_example_configs_parse(self):
        paths = sorted(CONFIGS.glob("*.yaml"))
        for cfg in paths:
            ExperimentConfig.from_yaml(str(cfg))
        assert len(paths) == 11
