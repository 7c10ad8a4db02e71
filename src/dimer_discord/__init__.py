"""Quantum discord and friends for the spin-1/2 Heisenberg dimer.

The thermal state of an isolated exchange-coupled pair is fixed by a single
number, the spin-spin correlator G, so every correlation measure — mutual
information, classical correlation, discord, concurrence, entanglement of
formation — is a closed-form function of G, and G itself can be pulled out
of three different lab measurements: inelastic neutron scattering, magnetic
specific heat, or bulk susceptibility.  This package does both directions,
plus the material presets and the command line glue (``dimer-discord``).

The package's public names are the ``__all__`` of each library module; any
name listed there can be imported from the package itself.
"""

from . import cli, dataio, dimer_core, numerics, thermo
from .dataio import *
from .dimer_core import *
from .errors import *
from .numerics import *
from .thermo import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
