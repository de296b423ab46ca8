"""Simulator for crosspoint resistive feedback circuits that solve Ax = b.

The library models the closed-loop dynamics of an analog crosspoint array
with operational-amplifier feedback, its device-level conductance
quantization and noise, the computing-time law that follows from the
loop's eigenvalues, and a set of reproducible experiment scenarios with
CSV outputs and a command line front end.

Each module's __all__ is its public surface, and the package re-exports
all of them but cli's, so that importing the package does not import yaml.
"""

from . import baselines, devices, dynamics, errors, experiments, generators, spectral
from .baselines import *
from .devices import *
from .dynamics import *
from .errors import *
from .experiments import *
from .generators import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *devices.__all__,
    *spectral.__all__,
    *dynamics.__all__,
    *generators.__all__,
    *baselines.__all__,
    *experiments.__all__,
]
