"""Causal direction inference for (nearly) deterministic relations.

The package decides between x -> y and y -> x from observational samples
alone, exploiting the asymmetry that a mechanism independent of its input
distribution leaves different irregularity footprints in the two marginals.
See igci.estimators for scalar pairs, igci.trace for linear multivariate
relations, and igci.simulation for the synthetic benchmark harness.
"""

# Each module's __all__ is its public API; the package re-exports all six.
from .core import *
from .errors import *
from .estimators import *
from .io import *
from .simulation import *
from .trace import *

__version__ = "0.1.0"
