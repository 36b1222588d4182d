"""Gaussian-state simulation for arrays of coupled nonlinear waveguides.

The package models parametric down-conversion in evanescently coupled
chi(2) waveguides at the covariance-matrix level: symplectic propagators
in the individual, linear-supermode and nonlinear-supermode bases,
homodyne measurement statistics, multipartite-entanglement and
cluster-state certification, and evolution-strategy synthesis of pump
and detection profiles.
"""

__version__ = "0.1.0"

from . import entanglement, measurement, model, optimize, symplectic
from .symplectic import *
from .model import *
from .measurement import *
from .entanglement import *
from .optimize import *
from .config import ScenarioConfig, load_config, parse_config

__all__ = [
    "__version__",
    *symplectic.__all__,
    *model.__all__,
    *measurement.__all__,
    *entanglement.__all__,
    *optimize.__all__,
    "ScenarioConfig",
    "load_config",
    "parse_config",
]
