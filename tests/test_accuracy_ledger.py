"""The accuracy ledger of the measures: each public measure against its oracle over its
whole domain, band by band.

Each row holds a function, its oracle (``tests/oracles.py``, whose working digits grow as
the value shrinks), its sample points and its bands, and per band two bounds that every
point meets: an error in ulp of the oracle's value, or, where the function has no digit
of the value right (|error| >= |value|), an absolute error.  A bound of 0 says that no
point takes that way.  The correlator is sampled on both branches, |G| log-spaced from
the top of the branch down to 1e-300 (ten points a decade down to 1e-16, one a decade
below), and toward the ground states G -> -1 and G -> 1/3; the concurrence of E from
1e-300 to 1.

The bounds are what the code meets today, rounded up to the next of 1, 2 and 5 times a
power of ten, not what it should meet: a change that makes a measure more exact
tightens its row.  Each row also checks that the float and the array form of the function
give the same bits.  Print today's worst error per band with

    PYTHONPATH=src python tests/test_accuracy_ledger.py
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import oracles
from dimer_discord.dimer_core import (
    classical_correlation,
    discord,
    entanglement_of_formation,
    mutual_information,
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


class Row(NamedTuple):
    function: Callable
    oracle: Callable
    points: list[float]
    bands: dict[str, Callable[[float], bool]]
    bounds: dict[str, tuple[float, float]]  # per band: (ulp, absolute where no digit is right)


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
IDS = [row.function.__name__ for row in LEDGER]


def _error(value: float, exact: float) -> tuple[float | None, float]:
    """``(ulp error, absolute error)`` of ``value``; the first is None where no digit of
    ``exact`` is right."""
    error = abs(value - exact)
    if error == 0.0:
        return 0.0, 0.0
    if error >= abs(exact):
        return None, error
    return error / math.ulp(exact), error


def ledger(row: Row) -> dict[str, list[tuple[float, float | None, float]]]:
    """Per band: ``(x, ulp error, absolute error)`` at each of its points."""
    return {
        band: [(x, *_error(row.function(x), row.oracle(x))) for x in row.points if member(x)]
        for band, member in row.bands.items()
    }


def _report(row: Row, table: dict) -> str:
    """Per band: its points, the worst ulp error where a digit is right, and the worst
    absolute error where none is."""
    lines = [f"{row.function.__name__}:"]
    for band, points in table.items():
        ulp = max((u for _, u, _ in points if u is not None), default=None)
        error = max((e for _, u, e in points if u is None), default=None)
        ulp_text = "-" if ulp is None else f"{ulp:.3g} ulp"
        error_text = "-" if error is None else f"{error:.3g}"
        lines.append(f"  {band:32s} n = {len(points):3d}  worst {ulp_text:>12s}  "
                     f"no digit right: {error_text}")
    return "\n".join(lines)


@pytest.mark.parametrize("row", LEDGER, ids=IDS)
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
        for x, ulp, error in points:
            assert (ulp is not None and ulp <= ulp_bound) or error <= absolute_bound, (band, x)


if __name__ == "__main__":
    for row in LEDGER:
        print(_report(row, ledger(row)))
