"""The accuracy ledger: each public measure, each closed form and inversion of the
thermal channels, and the numerical helpers, against its oracle over its whole domain,
band by band.

Each row holds a function, its oracle (``tests/oracles.py``, whose working digits grow as
the value shrinks), its sample points and its bands, and per band two bounds that every
point meets: an error in ulp of the oracle's value, or, where the function has no digit
of the value right (|error| >= |value|), an absolute error.  A bound of 0 says that no
point takes that way.  The correlator is sampled on both branches, |G| log-spaced from
the top of the branch down to 1e-300 (ten points a decade down to 1e-16, one a decade
below), and toward the ground states G -> -1 and G -> 1/3; the concurrence of E from
1e-300 to 1.  The thermal rows take J = -1 and J = +1 (antiferro and ferro), T/|J| ten
points a decade, banded by decade: G(T) and the Bleaney-Bowers curve from 1e-3 (cells
frozen into the ground state) to 1e12, c_m/R from 1e-2 to 1e6; so do u/R and the
inversion of the correctly rounded Bleaney-Bowers chi at g = 2.  T(G) and the inversion of
u/R (at J = -2.56 and 35.4, whose 3J is not a double) take the correlators above on both
branches.  The Schottky inversion takes each of its four flanks
from 1e-300 of the peak height c* up to the peak, against 50-digit bisection; on the cold
flanks a second row holds the small 1 + G (antiferro) or 1/3 - G (ferro).  ``powder_g``
takes a tensor scaled from 1e-153 to 1e153, ``lambert_w`` its argument from the branch
point -1/e to 1e300, and ``integrate_series_with_tail`` a c_m/R record of 2 to 10,000
points, against the exact sum of its doubles.

The bounds are what the code meets today, rounded up to the next of 1, 2 and 5 times a
power of ten, not what it should meet: a change that makes a measure more exact
tightens its row.  Each row whose function also takes an array checks that its float and
array forms give the same bits.  Three more tests hold the bounds that
``temperature_from_correlator``, ``correlator_from_specific_heat`` and ``lambert_w`` state
in their docstrings.  Print today's worst error per band with

    PYTHONPATH=src python tests/test_accuracy_ledger.py
"""

import functools
import math
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest

import oracles
from dimer_discord.dimer_core import (
    CODATA,
    DimerParameters,
    bleaney_bowers,
    classical_correlation,
    correlator_from_temperature,
    discord,
    entanglement_of_formation,
    mutual_information,
    powder_g,
    temperature_from_correlator,
)
from dimer_discord.numerics import TailModel, integrate_series_with_tail, lambert_w
from dimer_discord.thermo import (
    CM_PEAK_ANTIFERRO,
    CM_PEAK_FERRO,
    correlator_from_internal_energy,
    correlator_from_specific_heat,
    correlator_from_susceptibility,
    internal_energy,
    specific_heat,
    specific_heat_from_correlator,
)

# |x| from 1e-300 to 10**-0.1: one point a decade below 1e-16, where a measure is 0 or of
# order x**2, and ten a decade above, where it has digits to lose
_DECADES = [10.0**-k for k in range(300, 16, -1)] + [10.0 ** (-k / 10) for k in range(160, 0, -1)]
_BULK = [float(x) for x in np.linspace(0.1, 1.0, 19)]
_EDGES = [10.0**-k for k in range(16, 2, -1)]  # distances to a ground state, up to 1e-3

CORRELATORS = sorted({
    *(-x for x in _DECADES + _BULK if x < 1.0 - 1e-3), *(-1.0 + d for d in _EDGES), -1.0,
    *(x for x in _DECADES + _BULK if x < 1.0 / 3.0 - 1e-3), *(1.0 / 3.0 - d for d in _EDGES),
    1.0 / 3.0,
})
CONCURRENCES = sorted({*_DECADES, *_BULK, *(1.0 - d for d in _EDGES)})

_DECADE_BANDS = ((0.1, 1.0), (1e-3, 0.1), (1e-8, 1e-3), (1e-16, 1e-8), (0.0, 1e-16))
G_BANDS = {  # the edges first; a decade band holds the points off both
    "1 + G <= 1e-3": lambda g: 1.0 + g <= 1e-3,
    "1/3 - G <= 1e-3": lambda g: 1.0 / 3.0 - g <= 1e-3,
    **{
        f"{branch} |G| in [{lo:g}, {hi:g})":
            lambda g, s=sign, lo=lo, hi=hi: lo <= s * g < hi and min(1 + g, 1 / 3 - g) > 1e-3
        for branch, sign in (("antiferro", -1.0), ("ferro", 1.0))
        for lo, hi in _DECADE_BANDS
    },
}
C_BANDS = {
    "1 - c <= 1e-3": lambda c: 1.0 - c <= 1e-3,
    **{f"c in [{lo:g}, {hi:g})": lambda c, lo=lo, hi=hi: lo <= c < hi and 1.0 - c > 1e-3
       for lo, hi in _DECADE_BANDS},
}


# T/|J| ten points a decade, from 1e-3 to 1e12
TEMPERATURES = [10.0 ** (k / 10) for k in range(-30, 121)]


def _decade_bands(lo: int, hi: int) -> dict[str, Callable[[float], bool]]:
    """T/|J| by decade from 10**lo up to 10**hi, the top decade closed."""
    def decade(k):
        top = k + 1 == hi
        return lambda t: 10.0**k <= t < 10.0 ** (k + 1) or top and t == 10.0**hi

    return {f"T/|J| in [{10.0**k:g}, {10.0 ** (k + 1):g}{']' if k + 1 == hi else ')'}": decade(k)
            for k in range(lo, hi)}


T_BANDS = _decade_bands(-3, 12)
CM_TEMPERATURES = [t for t in TEMPERATURES if 1e-2 <= t <= 1e6]
CM_T_BANDS = _decade_bands(-2, 6)

# heights c of a Schottky flank as shares of its peak c*: every 20 decades from 1e-300,
# two points a decade from 1e-16 (off the band edges), then 3 * 10**-k below the peak
HEIGHT_SHARES = sorted({
    *(10.0**-k for k in range(300, 16, -20)), *(10.0 ** (-k / 2 - 0.25) for k in range(32)),
    *(1.0 - 3.0 * 10.0**-k for k in range(2, 17)), 1.0,
})


def _height_bands(peak: float) -> dict[str, Callable[[float], bool]]:
    """The heights c of a flank of peak c* by decade of c/c*, and near the peak of 1 - c/c*."""
    def share(lo, hi):
        return lambda c: lo <= c / peak < hi

    return {
        "c/c* in [0, 1e-16)": share(0.0, 1e-16),
        "c/c* in [1e-16, 1e-08)": share(1e-16, 1e-8),
        "c/c* in [1e-08, 0.001)": share(1e-8, 1e-3),
        "c/c* in [0.001, 0.1)": share(1e-3, 0.1),
        "c/c* in [0.1, 0.9)": share(0.1, 0.9),
        "1 - c/c* in (0.001, 0.1]": share(0.9, 0.999),
        "1 - c/c* in (1e-08, 0.001]": share(0.999, 1.0 - 1e-8),
        "1 - c/c* in (0, 1e-08]": share(1.0 - 1e-8, 1.0),
        "c = c*": lambda c: c == peak,
    }


HEIGHT_BANDS = _height_bands(1.0)  # the band names, which both couplings share


class Row(NamedTuple):
    function: Callable
    oracle: Callable
    points: list[float]
    bands: dict[str, Callable[[float], bool]]
    bounds: dict[str, tuple[float, float]]  # per band: (ulp, absolute where no digit is right)
    name: str = ""  # the row's name, where it is not its function's
    array: bool = True  # whether the function takes an array too


LEDGER = [
    Row(mutual_information, oracles.mutual_information, CORRELATORS, G_BANDS, {
        "1 + G <= 1e-3": (2, 0),
        "1/3 - G <= 1e-3": (20, 0),
        "antiferro |G| in [0.1, 1)": (10, 0),
        "antiferro |G| in [0.001, 0.1)": (1e5, 0),
        "antiferro |G| in [1e-08, 0.001)": (2e15, 0),
        "antiferro |G| in [1e-16, 1e-08)": (1e16, 1e-16),
        "antiferro |G| in [0, 1e-16)": (0, 5e-34),
        "ferro |G| in [0.1, 1)": (50, 0),
        "ferro |G| in [0.001, 0.1)": (5e5, 0),
        "ferro |G| in [1e-08, 0.001)": (5e15, 0),
        "ferro |G| in [1e-16, 1e-08)": (1e16, 2e-16),
        "ferro |G| in [0, 1e-16)": (0, 5e-34),
    }),
    Row(classical_correlation, oracles.classical, CORRELATORS, G_BANDS, {
        "1 + G <= 1e-3": (5, 0),
        "1/3 - G <= 1e-3": (10, 0),
        "antiferro |G| in [0.1, 1)": (100, 0),
        "antiferro |G| in [0.001, 0.1)": (1e6, 0),
        "antiferro |G| in [1e-08, 0.001)": (5e14, 1e-16),
        "antiferro |G| in [1e-16, 1e-08)": (2e15, 1e-16),
        "antiferro |G| in [0, 1e-16)": (0, 1e-34),
        "ferro |G| in [0.1, 1)": (100, 0),
        "ferro |G| in [0.001, 0.1)": (1e6, 0),
        "ferro |G| in [1e-08, 0.001)": (5e14, 1e-16),
        "ferro |G| in [1e-16, 1e-08)": (2e15, 1e-16),
        "ferro |G| in [0, 1e-16)": (0, 1e-34),
    }),
    Row(discord, oracles.discord, CORRELATORS, G_BANDS, {
        "1 + G <= 1e-3": (5, 0),
        "1/3 - G <= 1e-3": (20, 0),
        "antiferro |G| in [0.1, 1)": (50, 0),
        "antiferro |G| in [0.001, 0.1)": (2e5, 0),
        "antiferro |G| in [1e-08, 0.001)": (2e15, 0),
        "antiferro |G| in [1e-16, 1e-08)": (5e15, 1e-16),
        "antiferro |G| in [0, 1e-16)": (0, 2e-34),
        "ferro |G| in [0.1, 1)": (10, 0),
        "ferro |G| in [0.001, 0.1)": (2e5, 0),
        "ferro |G| in [1e-08, 0.001)": (1e15, 0),
        "ferro |G| in [1e-16, 1e-08)": (5e15, 5e-17),
        "ferro |G| in [0, 1e-16)": (0, 2e-34),
    }),
    Row(entanglement_of_formation, oracles.eof, CONCURRENCES, C_BANDS, {
        "1 - c <= 1e-3": (2, 0),
        "c in [0.1, 1)": (200, 0),
        "c in [0.001, 0.1)": (2e6, 0),
        "c in [1e-08, 0.001)": (5e15, 5e-15),
        "c in [1e-16, 1e-08)": (0, 1e-15),
        "c in [0, 1e-16)": (0, 5e-33),
    }),
]


def _on(j: float, function: Callable) -> Callable[[float], float]:
    """``function`` of a dimer of coupling ``j``, as a function of its one number."""
    params = DimerParameters(j)
    return lambda x: function(params, x)


BRANCH_CORRELATORS = [g for g in CORRELATORS if g not in (-1.0, 1.0 / 3.0)]  # T finite


def _exact_temperature(g: float) -> mp.mpf:
    """T(G) at 50 digits, J = -1 on the antiferro branch and +1 on the ferro one."""
    return oracles.t_of_g(-1.0 if g < 0.0 else 1.0, g)


@functools.cache
def _cm_x(cm: float, antiferro: bool, side: str) -> mp.mpf:
    # a bisection costs ~6 ms: each height's is taken once, for its G and 1 + G (1/3 - G) rows
    return oracles.cm_inversion_x(cm, antiferro, side)


def _cm_rows(antiferro: bool, side: str, bounds: dict, gap_bounds: dict | None) -> list[Row]:
    """The Schottky inversion on one flank, and on a cold one the small 1 + G (1/3 - G)."""
    peak = CM_PEAK_ANTIFERRO if antiferro else CM_PEAK_FERRO
    params = DimerParameters(-1.0 if antiferro else 1.0)
    flank = f"{'antiferro' if antiferro else 'ferro'} {side}"

    def invert(c):
        return correlator_from_specific_heat(params, c, side=side)

    def exact(c):
        return float(oracles.g_of_x(_cm_x(c, antiferro, side), antiferro))

    def gap(c):  # 1.0 + g is exact on the antiferro cold flank
        g = invert(c)
        return 1.0 + g if antiferro else float(mp.mpf(1) / 3 - g)

    def exact_gap(c):
        return float(oracles.ground_gap(_cm_x(c, antiferro, side), antiferro))

    heights, bands = [peak * r for r in HEIGHT_SHARES], _height_bands(peak)
    rows = [Row(invert, exact, heights, bands, bounds, f"correlator_from_specific_heat {flank}",
                False)]
    if gap_bounds is not None:
        name = f"{'1 + G' if antiferro else '1/3 - G'} of the {flank} inversion"
        rows.append(Row(gap, exact_gap, heights, bands, gap_bounds, name, False))
    return rows


def _in_ulp(bands: dict, *ulps: float) -> dict[str, tuple[float, float]]:
    """A row's bounds in ulp, one per band in order, where no point loses every digit."""
    return dict(zip(bands, [(ulp, 0) for ulp in ulps], strict=True))


LEDGER += [
    Row(_on(-1.0, correlator_from_temperature), lambda t: oracles.g_of_t(-1.0, t),
        TEMPERATURES, T_BANDS, _in_ulp(T_BANDS, 0, 0, 0, 10, 100, 1000, 1e4, 2e5, 2e6, 2e7, 2e8,
                                       1e9, 5e9, 2e11, 5e11),
        "correlator_from_temperature antiferro"),
    Row(_on(1.0, correlator_from_temperature), lambda t: oracles.g_of_t(1.0, t),
        TEMPERATURES, T_BANDS, _in_ulp(T_BANDS, 2, 2, 5, 20, 200, 2000, 1e4, 1e5, 1e6, 5e6, 1e8,
                                       1e9, 5e9, 2e11, 5e11),
        "correlator_from_temperature ferro"),
    Row(_on(-1.0, specific_heat), lambda t: oracles.cm_of_t(-1.0, t), CM_TEMPERATURES,
        CM_T_BANDS, _in_ulp(CM_T_BANDS, 100, 10, 5, 2, 5, 5, 2, 5),
        "specific_heat antiferro", False),
    Row(_on(1.0, specific_heat), lambda t: oracles.cm_of_t(1.0, t), CM_TEMPERATURES,
        CM_T_BANDS, _in_ulp(CM_T_BANDS, 200, 10, 2, 5, 5, 5, 2, 5),
        "specific_heat ferro", False),
    Row(lambda g: temperature_from_correlator(DimerParameters(-1.0 if g < 0.0 else 1.0), g),
        lambda g: float(_exact_temperature(g)), BRANCH_CORRELATORS, G_BANDS,
        _in_ulp(G_BANDS, 2, 2, 2, 2, 5, 5, 0, 5, 2, 5, 5, 2),
        "temperature_from_correlator", False),
    Row(lambda t: bleaney_bowers(-1.0, 2.0, t),
        lambda t: oracles.bleaney_bowers(-1.0, 2.0, t, CODATA.curie_prefactor),
        TEMPERATURES, T_BANDS, _in_ulp(T_BANDS, 500, 100, 10, 2, 2, 2, 2, 5, 5, 2, 2, 2, 2, 2, 2),
        "bleaney_bowers antiferro"),
    Row(lambda t: bleaney_bowers(1.0, 2.0, t),
        lambda t: oracles.bleaney_bowers(1.0, 2.0, t, CODATA.curie_prefactor),
        TEMPERATURES, T_BANDS, _in_ulp(T_BANDS, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 0, 0, 0),
        "bleaney_bowers ferro"),
    # the peak's own rounding moves G by its square root: up to 3e-9 within 1e-8 of it
    *_cm_rows(True, "hot", _in_ulp(HEIGHT_BANDS, 5, 5, 5, 2, 2, 5, 2000, 5e7, 2), None),
    *_cm_rows(True, "cold", _in_ulp(HEIGHT_BANDS, 0, 0, 0, 0, 0, 5, 5000, 5e7, 2), {
        "c/c* in [0, 1e-16)": (0, 5e-24),  # G is -1: 1 + G is 0
        "c/c* in [1e-16, 1e-08)": (5e15, 1e-16),
        "c/c* in [1e-08, 0.001)": (2e9, 0),
        "c/c* in [0.001, 0.1)": (1e4, 0),
        "c/c* in [0.1, 0.9)": (50, 0),
        "1 - c/c* in (0.001, 0.1]": (20, 0),
        "1 - c/c* in (1e-08, 0.001]": (2e4, 0),
        "1 - c/c* in (0, 1e-08]": (1e8, 0),
        "c = c*": (5, 0),
    }),
    *_cm_rows(False, "hot", _in_ulp(HEIGHT_BANDS, 2, 5, 5, 2, 2, 10, 2000, 2e7, 2e7), None),
    *_cm_rows(False, "cold", _in_ulp(HEIGHT_BANDS, 0, 0, 2, 2, 2, 5, 2000, 2e7, 2e7), {
        "c/c* in [0, 1e-16)": (0, 2e-17),  # G is the double nearest 1/3
        "c/c* in [1e-16, 1e-08)": (2e15, 2e-17),
        "c/c* in [1e-08, 0.001)": (5e10, 0),
        "c/c* in [0.001, 0.1)": (5000, 0),
        "c/c* in [0.1, 0.9)": (100, 0),
        "1 - c/c* in (0.001, 0.1]": (50, 0),
        "1 - c/c* in (1e-08, 0.001]": (1e4, 0),
        "1 - c/c* in (0, 1e-08]": (2e8, 0),
        "c = c*": (2e8, 0),
    }),
]


# the energy inversion at couplings whose 3J is not a double: J = -2.56 K on the antiferro
# branch, 35.4 K on the ferro one
def _energy_coupling(g: float) -> float:
    return -2.56 if g < 0.0 else 35.4


def _energy_of(g: float) -> float:
    """u/R = -(3/2) J G of the correlator ``g``, as a double."""
    return -1.5 * _energy_coupling(g) * g


@functools.cache
def _chi(j: float, t: float) -> float:
    """The Bleaney-Bowers chi at g = 2, correctly rounded: the point the inversion reads."""
    return oracles.bleaney_bowers(j, 2.0, t, CODATA.curie_prefactor)


def _chi_row(j: float, *bounds: float) -> Row:
    return Row(lambda t: correlator_from_susceptibility(DimerParameters(j, 2.0), _chi(j, t), t),
               lambda t: oracles.g_of_chi(2.0, _chi(j, t), t, CODATA.curie_prefactor),
               TEMPERATURES, T_BANDS, _in_ulp(T_BANDS, *bounds),
               f"correlator_from_susceptibility {'antiferro' if j < 0.0 else 'ferro'}", False)


# powder_g of the tensor x (1.9, 2.05, 2.3): one x a decade from 1e-153 to 1e153, where the
# squares stay normal, and ten a decade from 0.1 to 10
POWDER_SCALES = sorted({*(10.0**k for k in range(-153, 154)),
                        *(10.0 ** (k / 10) for k in range(-10, 10))})
POWDER_BANDS = {
    "x in [1e-153, 1e-100)": lambda x: x < 1e-100,
    "x in [1e-100, 1e100)": lambda x: 1e-100 <= x < 1e100,
    "x in [1e100, 1e153]": lambda x: 1e100 <= x,
}


def _tensor(x: float) -> tuple[float, float, float]:
    return 1.9 * x, 2.05 * x, 2.3 * x


# W(x) from the branch point -1/e, where W'(x) diverges, to 1e300: x + 1/e from 1e-16 to
# 1e-3, the correlators' decades below zero, and above zero one point a decade from 1e-300
# and ten a decade from 1e-3 to 1e3
LAMBERT_POINTS = sorted({
    *(float(-1 / mp.e + d) for d in _EDGES),
    *(-x for x in _DECADES + _BULK if x < 1.0 / math.e - 1e-3),
    *(10.0**k for k in range(-300, 301)), *(10.0 ** (k / 10) for k in range(-30, 31)),
})
_BRANCH = float(-1 / mp.e)
LAMBERT_BANDS = {
    "x + 1/e <= 1e-3": lambda x: x <= _BRANCH + 1e-3,
    "x in (-1/e + 1e-3, -1e-8)": lambda x: _BRANCH + 1e-3 < x < -1e-8,
    "x in [-1e-8, 0)": lambda x: -1e-8 <= x < 0.0,
    "x in (0, 1e-8)": lambda x: 0.0 < x < 1e-8,
    "x in [1e-8, 1)": lambda x: 1e-8 <= x < 1.0,
    "x in [1, 1e8)": lambda x: 1.0 <= x < 1e8,
    "x in [1e8, 1e300]": lambda x: 1e8 <= x,
}

# the c_m/R record of the antiferro dimer at J = -1 on n log-spaced points from T = 0.01 to
# 100, with its tail c_m/R = 0.75/T^2 from the last point on
SERIES_LENGTHS = [2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000]
SERIES_BANDS = {
    "n in [2, 10)": lambda n: n < 10,
    "n in [10, 1000)": lambda n: 10 <= n < 1000,
    "n in [1000, 10000]": lambda n: 1000 <= n,
}
_TAIL = TailModel(0.75, 100.0)


@functools.cache
def _record(n: int) -> tuple[list[float], list[float]]:
    t = np.geomspace(0.01, 100.0, n)
    return t.tolist(), specific_heat_from_correlator(
        correlator_from_temperature(DimerParameters(-1.0), t)).tolist()


LEDGER += [
    Row(_on(-1.0, internal_energy), lambda t: oracles.u_of_t(-1.0, t), TEMPERATURES, T_BANDS,
        _in_ulp(T_BANDS, 0, 0, 1, 10, 200, 1000, 1e4, 2e5, 5e6, 2e7, 2e8, 1e9, 1e10, 2e11,
                1e12),
        "internal_energy antiferro", False),
    Row(_on(1.0, internal_energy), lambda t: oracles.u_of_t(1.0, t), TEMPERATURES, T_BANDS,
        _in_ulp(T_BANDS, 1, 2, 5, 20, 200, 1000, 1e4, 2e5, 1e6, 1e7, 1e8, 5e8, 1e10, 2e11,
                1e12),
        "internal_energy ferro", False),
    Row(lambda g: correlator_from_internal_energy(
            DimerParameters(_energy_coupling(g)), _energy_of(g)),
        lambda g: oracles.g_of_u(_energy_coupling(g), _energy_of(g)), CORRELATORS, G_BANDS,
        _in_ulp(G_BANDS, *[1] * 12), "correlator_from_internal_energy", False),
    # the cold antiferro chi underflows to 0 or holds 1 + G exactly; the hot end cancels
    _chi_row(-1.0, 0, 0, 0, 5, 100, 1000, 5000, 5e4, 5e5, 1e7, 1e8, 1e9, 1e10, 2e11, 1e12),
    _chi_row(1.0, 1, 2, 2, 5, 100, 500, 1e4, 1e5, 2e6, 1e7, 1e8, 1e9, 1e10, 2e11, 1e12),
    Row(lambda x: powder_g(*_tensor(x)), lambda x: oracles.powder_g(*_tensor(x)),
        POWDER_SCALES, POWDER_BANDS, _in_ulp(POWDER_BANDS, 1, 1, 1), "powder_g", False),
    # Halley stops at a residual of 1e-12 |x|, an error in W that grows as W'(x) toward -1/e
    Row(lambert_w, oracles.lambert_w, LAMBERT_POINTS, LAMBERT_BANDS,
        _in_ulp(LAMBERT_BANDS, 5e7, 2e4, 1e4, 5000, 5000, 500, 200), array=False),
    Row(lambda n: integrate_series_with_tail(*_record(n), _TAIL),
        lambda n: float(oracles.series_integral(*_record(n), *_TAIL)), SERIES_LENGTHS,
        SERIES_BANDS, _in_ulp(SERIES_BANDS, 0, 1, 2), "integrate_series_with_tail", False),
]
IDS = [row.name or row.function.__name__ for row in LEDGER]


def _error(value: float, exact: float) -> tuple[float | None, float, float]:
    """``(ulp error, absolute error, relative error)`` of ``value``; the first is None where
    no digit of ``exact`` is right."""
    error = abs(value - exact)
    if error == 0.0:
        return 0.0, 0.0, 0.0
    if error >= abs(exact):
        return None, error, error / abs(exact) if exact else math.inf
    return error / math.ulp(exact), error, error / abs(exact)


def ledger(row: Row) -> dict[str, list[tuple[float, float | None, float, float]]]:
    """Per band: ``(x, ulp error, absolute error, relative error)`` at each of its points."""
    return {
        band: [(x, *_error(row.function(x), row.oracle(x))) for x in row.points if member(x)]
        for band, member in row.bands.items()
    }


def _report(row: Row, table: dict) -> str:
    """Per band: its points, the worst ulp error where a digit is right, the worst
    absolute error where none is, and the worst relative error."""
    lines = [f"{row.name or row.function.__name__}:"]
    for band, points in table.items():
        ulp = max((u for _, u, _, _ in points if u is not None), default=None)
        error = max((e for _, u, e, _ in points if u is None), default=None)
        relative = max(r for _, _, _, r in points)
        ulp_text = "-" if ulp is None else f"{ulp:.3g} ulp"
        error_text = "-" if error is None else f"{error:.3g}"
        lines.append(f"  {band:32s} n = {len(points):3d}  worst {ulp_text:>12s}  "
                     f"no digit right: {error_text:>9s}  relative: {relative:.3g}")
    return "\n".join(lines)


@pytest.mark.parametrize("row", [row for row in LEDGER if row.array],
                         ids=[i for row, i in zip(LEDGER, IDS) if row.array])
def test_the_float_and_array_forms_agree_in_bits(row):
    floats = [row.function(x) for x in row.points]
    array = row.function(np.array(row.points)).tolist()
    assert [x.hex() for x in array] == [x.hex() for x in floats]


@pytest.mark.parametrize("row", LEDGER, ids=IDS)
def test_every_point_meets_its_band_bound(row):
    table = ledger(row)
    print(_report(row, table))
    assert list(table) == list(row.bounds)
    for band, points in table.items():
        ulp_bound, absolute_bound = row.bounds[band]
        assert points, band
        for x, ulp, error, _ in points:
            assert (ulp is not None and ulp <= ulp_bound) or error <= absolute_bound, (band, x)


def test_temperature_from_correlator_within_5e_16_relative():
    # its docstring's bound, on both branches, against the 50-digit T
    for g in BRANCH_CORRELATORS:
        exact = _exact_temperature(g)
        t = temperature_from_correlator(DimerParameters(-1.0 if g < 0.0 else 1.0), g)
        assert abs(t - exact) <= 5e-16 * exact, g


@pytest.mark.parametrize("antiferro, side", [(True, "hot"), (True, "cold"), (False, "hot"),
                                             (False, "cold")])
def test_correlator_from_specific_heat_within_its_stated_bound(antiferro, side):
    # its docstring: a relative error of about 2e-16/sqrt(1 - c/c*) toward the peak and
    # ~1e-15 far from it; both hold as 1e-15/sqrt(1 - c/c*), below the peak itself
    peak = CM_PEAK_ANTIFERRO if antiferro else CM_PEAK_FERRO
    params = DimerParameters(-1.0 if antiferro else 1.0)
    for c in [c for c in (peak * r for r in HEIGHT_SHARES) if c < peak]:
        exact = oracles.g_of_x(_cm_x(c, antiferro, side), antiferro)
        g = correlator_from_specific_heat(params, c, side=side)
        assert abs(g - exact) <= 1e-15 / mp.sqrt(1 - mp.mpf(c) / peak) * abs(exact), c


def test_lambert_w_meets_its_residual_target():
    # its docstring: Halley stops once |w e^w - x| is within 1e-12 |x|, held here at 50 digits
    for x in LAMBERT_POINTS:
        w = mp.mpf(lambert_w(x))
        assert abs(w * mp.e**w - x) <= 1e-12 * abs(x), x


def test_the_thermal_oracles_keep_their_value_at_twice_their_digits():
    # the oracles themselves, not the package: G(T) cancels 12 of its 50 digits at
    # T/|J| = 1e12, and a cold Schottky root sits at x ~ 700 (the series sum is a Fraction,
    # exact at any digits)
    temperatures = TEMPERATURES[::5]
    shares = [1e-300, 1e-3, 0.5, 1.0 - 3e-8]

    def values():
        return [
            *(oracles.g_of_t(j, t) for j in (-1.0, 1.0) for t in temperatures),
            *(oracles.cm_of_t(j, t) for j in (-1.0, 1.0) for t in CM_TEMPERATURES[::5]),
            *(float(_exact_temperature(g)) for g in BRANCH_CORRELATORS[::10]),
            *(oracles.bleaney_bowers(j, 2.0, t, CODATA.curie_prefactor)
              for j in (-1.0, 1.0) for t in temperatures),
            *(float(oracles.cm_inversion(peak * r, peak == CM_PEAK_ANTIFERRO, side))
              for peak in (CM_PEAK_ANTIFERRO, CM_PEAK_FERRO) for side in ("hot", "cold")
              for r in shares),
            *(oracles.u_of_t(j, t) for j in (-1.0, 1.0) for t in temperatures),
            *(oracles.g_of_u(_energy_coupling(g), _energy_of(g)) for g in CORRELATORS[::10]),
            *(oracles.g_of_chi(2.0, _chi(j, t), t, CODATA.curie_prefactor)
              for j in (-1.0, 1.0) for t in temperatures),
            *(oracles.powder_g(*_tensor(x)) for x in POWDER_SCALES[::10]),
            *map(oracles.lambert_w, LAMBERT_POINTS[::10]),
        ]

    at_50 = values()
    with mp.workdps(100):
        assert values() == at_50


@pytest.mark.parametrize("row", LEDGER, ids=IDS)
def test_each_point_falls_in_one_band(row):
    for x in row.points:
        assert sum(member(x) for member in row.bands.values()) == 1, x


if __name__ == "__main__":
    for row in LEDGER:
        print(_report(row, ledger(row)))
