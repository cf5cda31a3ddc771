"""Gradient-based Bayesian experimental design.

Estimate the gradient of expected information gain with respect to design
variables, optimize designs by projected stochastic gradient ascent under a
simulation budget, and validate the results with nested Monte Carlo EIG
estimates and posterior-entropy scores.
"""

from . import dual
from .dual import Dual, grad_check, lift_design
from .eig_est import EIGEstimate, nmc_value, pce_value, srnmc_value
from .errors import ConfigError, EstimatorError
from .grad_est import GradEstimate, beeg_ap_gradient, pce_gradient, ueeg_mcmc_gradient
from .models import (
    Design,
    EpoRCurve,
    LinearModel,
    Model,
    PKModel,
    SimBudget,
    Stat5Model,
    ToyModel,
    linear_eig_oracle,
)
from .optim import OptimConfig, Trajectory, optimize
from .rng import substream
from .samplers import Chain, SamplerConfig, posterior_draws, run_chain
from .validate import bias_study, kde_entropy, posterior_entropy

__version__ = "0.1.0"

__all__ = [
    "Dual",
    "lift_design",
    "grad_check",
    "dual",
    "Design",
    "SimBudget",
    "Model",
    "LinearModel",
    "ToyModel",
    "PKModel",
    "Stat5Model",
    "EpoRCurve",
    "linear_eig_oracle",
    "SamplerConfig",
    "Chain",
    "run_chain",
    "posterior_draws",
    "GradEstimate",
    "ueeg_mcmc_gradient",
    "beeg_ap_gradient",
    "pce_gradient",
    "EIGEstimate",
    "nmc_value",
    "srnmc_value",
    "pce_value",
    "OptimConfig",
    "Trajectory",
    "optimize",
    "posterior_entropy",
    "kde_entropy",
    "bias_study",
    "EstimatorError",
    "ConfigError",
    "substream",
    "__version__",
]
