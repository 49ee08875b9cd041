"""High-precision Jensen polynomial toolkit.

Computes Taylor coefficients of the completed Riemann zeta function, their
saddle-point asymptotics, Jensen polynomials of zeta/partition/modular-form
sequences, renormalized limits toward Hermite polynomials, and certified
hyperbolicity (real-rootedness) verdicts — with a CLI for tables, sweeps,
and a persistent value cache.
"""

from . import asymptotics, jensen, sequences, zeta_core
from .zeta_core import *
from .asymptotics import *
from .sequences import *
from .jensen import *

__version__ = "1.0.0"

# Each layer declares its public names once, in its own ``__all__``.
__all__ = [*zeta_core.__all__, *asymptotics.__all__, *sequences.__all__,
           *jensen.__all__, "__version__"]
