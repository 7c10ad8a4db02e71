"""The paper's claim through the command line: three lab channels give one discord.

A copper nitrate dimer at the ``copper-nitrate-magnetometric`` preset (J/k_B = -2.56 K,
g = 2.11) has its correlator G, its c_m/R and its chi written at 17 digits from the
forward maps, for T from 0.5 to 100 K.  ``from-neutron --input`` reads the G file,
``from-chi`` the chi file, and ``from-cm --route invert`` each (T, c_m/R) point, so the
file loader, the three inversions and the CSV writer all stand between the forward maps
and the three Q columns.

Each Q must agree with the neutron one within the bound that the accuracy ledger's rows
give the two chains (``tests/test_accuracy_ledger.py``, looked up by row name and band):
|Q'(G)| times the sum of the chains' G errors, plus twice Q's own error.  A chain's G
error is its inversion's row, plus the error of its forward map carried through the
inversion: G(T)'s row for the neutron file, the Bleaney-Bowers row for chi (a relative
error of chi is one of 1 + G), and the c_m/R row divided by |dc_m/dG| for c_m.
"""

import math

import pytest

import test_accuracy_ledger as ledger
from dimer_discord import dataio, dimer_core, thermo
from test_cli_fuzz import _invoke

PRESET = dataio.preset("copper-nitrate-magnetometric")
PARAMS = PRESET.parameters
TEMPERATURES = [0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0,
                50.0, 70.0, 100.0]


def _error(name: str, x: float, value: float) -> float:
    """The error the ledger row ``name`` allows a ``value`` computed at the point ``x``."""
    row = next(r for r in ledger.LEDGER if (r.name or r.function.__name__) == name)
    (band,) = [band for band, holds in row.bands.items() if holds(x)]
    ulps, absolute = row.bounds[band]
    return ulps * math.ulp(value) + absolute


def _slopes(g: float) -> tuple[float, float]:
    """dQ/dG and dc_m/dG at ``g`` (antiferro), in closed form."""
    p, q = 1.0 + g, 1.0 - 3.0 * g
    log = math.log(p / q)
    dq = (0.75 * log - math.atanh(g)) / math.log(2.0)  # I' - C', C odd in G
    dcm = 3.0 / 16.0 * ((q - 3.0 * p) * log**2 + 2.0 * log * (q + 3.0 * p))
    return dq, dcm


def _table(argv: list[str]) -> list[dict[str, str]]:
    code, out, err = _invoke(argv, "17")
    assert code == 0, (argv, err)
    header, *rows = out.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.fixture(scope="module")
def channels(tmp_path_factory):
    """The neutron, magnetometric and calorimetric result rows, one per temperature."""
    directory = tmp_path_factory.mktemp("three-channels")
    files = {}
    for name, column, forward in (("G", "G", dimer_core.correlator_from_temperature),
                                  ("chi", "chi_emu_per_mol", thermo.susceptibility)):
        files[name] = directory / f"{name}.csv"
        files[name].write_text(f"T_K,{column}\n" + "".join(
            f"{t!r},{forward(PARAMS, t)!r}\n" for t in TEMPERATURES))
    neutron = _table(["from-neutron", f"--input={files['G']}"])
    magnetometric = _table(["from-chi", f"--preset={PRESET.name}", f"--input={files['chi']}"])
    calorimetric = [
        _table(["from-cm", "--route=invert", f"--preset={PRESET.name}", f"--T={t!r}",
                f"--cm-over-R={thermo.specific_heat(PARAMS, t)!r}"])[0]
        for t in TEMPERATURES
    ]
    return neutron, magnetometric, calorimetric


def test_three_channels_give_one_discord(channels):
    neutron, magnetometric, calorimetric = channels
    t_peak = thermo.schottky_maximum(PARAMS)[0]
    assert [float(row["T_K"]) for row in neutron] == TEMPERATURES
    for t, n, x, c in zip(TEMPERATURES, neutron, magnetometric, calorimetric):
        assert float(x["T_K"]) == float(c["T_K"]) == t
        tau, g, q = t / abs(PARAMS.j_over_kb), float(n["G"]), float(n["Q"])
        dq, dcm = _slopes(g)
        cm = thermo.specific_heat(PARAMS, t)
        errors = {
            "neutron": _error("correlator_from_temperature antiferro", tau, g),
            "magnetometric": _error("correlator_from_susceptibility antiferro", tau, g)
            + (1.0 + g) * _error("bleaney_bowers antiferro", tau, 1.0),
            "calorimetric": _error(
                f"correlator_from_specific_heat antiferro {'hot' if t >= t_peak else 'cold'}",
                cm, g) + _error("specific_heat antiferro", tau, cm) / abs(dcm),
        }
        own = 2.0 * _error("discord", g, q)
        for channel, row in (("magnetometric", x), ("calorimetric", c)):
            bound = abs(dq) * (errors["neutron"] + errors[channel]) + own
            assert abs(float(row["Q"]) - q) <= bound, (t, channel, row["Q"], q, bound)
    assert round(float(neutron[TEMPERATURES.index(4.0)]["Q"]), 5) == 0.17025

