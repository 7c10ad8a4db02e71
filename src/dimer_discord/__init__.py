"""Quantum discord and friends for the spin-1/2 Heisenberg dimer.

The thermal state of an isolated exchange-coupled pair is fixed by a single
number, the spin-spin correlator G, so every correlation measure — mutual
information, classical correlation, discord, concurrence, entanglement of
formation — is a closed-form function of G, and G itself can be pulled out
of three different lab measurements: inelastic neutron scattering, magnetic
specific heat, or bulk susceptibility.  This package does both directions,
plus the material presets and the command line glue (``dimer-discord``).
"""

from . import cli, dataio, dimer_core, numerics, thermo
from .dataio import (
    MaterialPreset,
    MeasurementSeries,
    PRESETS,
    ResultRecord,
    load_series,
    parse_value_with_uncertainty,
    preset,
    result_from_correlator,
    write_results,
)
from .dimer_core import (
    CorrelationSet,
    DimerParameters,
    classical_correlation,
    concurrence,
    correlation_set,
    correlator_from_temperature,
    discord,
    entanglement_death_temperature,
    entanglement_of_formation,
    measures_from_correlator,
    mutual_information,
    powder_g,
    temperature_from_correlator,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DataError,
    DataWarning,
    DimerDiscordError,
    DomainError,
    InconsistencyError,
    NoSolutionError,
    PropagationWarning,
)
from .numerics import (
    FitResult,
    TailModel,
    ValueWithUncertainty,
    fit_bleaney_bowers,
    find_crossing,
    find_root,
    integrate_series_with_tail,
    lambert_w,
    maximize_scalar,
    propagate_uncertainty,
)
from .thermo import (
    CODATA,
    correlator_from_internal_energy,
    correlator_from_specific_heat,
    correlator_from_susceptibility,
    internal_energy,
    internal_energy_from_specific_heat,
    schottky_maximum,
    specific_heat,
    specific_heat_from_correlator,
    susceptibility,
    susceptibility_maximum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
