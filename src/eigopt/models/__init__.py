"""Model registry: the shared interface plus the four shipped models."""

from .base import Design, Model, SimBudget, design_values
from .linear import LinearModel, linear_eig_oracle, linear_eig_value
from .pk import PKModel
from .stat5 import EpoRCurve, Stat5Model
from .toy import ToyModel

__all__ = [
    "Design",
    "Model",
    "SimBudget",
    "design_values",
    "LinearModel",
    "linear_eig_oracle",
    "linear_eig_value",
    "PKModel",
    "Stat5Model",
    "EpoRCurve",
    "ToyModel",
]
