"""Numerical laboratory for sublinear expectations under volatility
uncertainty: expectations via a monotone scheme for the nonlinear heat
equation, backward lattice solutions of the associated BSDEs, worst-case
tree oracles, and convexity / Jensen-inequality experiments.

The package exports the names in each module's ``__all__``.
"""

from .core import *
from .expr import *
from .gheat import *
from .gbsde import *
from .oracle import *
from .convexity import *

__version__ = "0.1.0"
