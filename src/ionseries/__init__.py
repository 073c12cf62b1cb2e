"""Terminated coherent-state series spectra for a laser-driven trapped ion.

The package solves, beyond the rotating-wave approximation, the eigenvalue
problem of a single trapped ion coupled to two lasers: writing the
eigenfunctions in the coherent-state (Bargmann) representation turns the
stationary equation into coupled series recurrences, and on special parameter
manifolds the series terminate, giving exact energies E = N + branch*eps.
Closed forms are provided for termination orders 1 and 2, a numeric solver for
higher orders, rotating-wave reference spectra for comparison, a
displaced-even-coherent ("cat") state constructor, and an independent
truncated-basis diagonalization oracle that validates every analytic claim.
"""

from . import errors, model, oracle, rwa, series, states
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .rwa import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's ``__all__`` is its share of the public API
__all__ = ["__version__"] + [
    name for module in (errors, model, series, rwa, oracle, states) for name in module.__all__
]
