import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_dimer_core import assert_same_bits

import oracles
from dimer_discord import dataio, dimer_core, numerics, thermo
from dimer_discord.dimer_core import (
    G_MAX,
    G_MIN,
    DimerParameters,
    bleaney_bowers,
    correlator_from_temperature,
    powder_g,
    temperature_from_correlator,
)
from dimer_discord.errors import (
    DataError,
    DataWarning,
    DomainError,
    InconsistencyError,
    NoSolutionError,
)
from dimer_discord.numerics import TailModel, maximize_scalar
from dimer_discord.thermo import (
    CHI_PEAK_W,
    CM_PEAK_ANTIFERRO,
    CM_PEAK_FERRO,
    CM_PEAK_G_ANTIFERRO,
    CM_PEAK_G_FERRO,
    CODATA,
    clamp_measured_correlator,
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

CAL = DimerParameters(-2.59)
MAG = DimerParameters(-2.56, 2.11)
AFM = DimerParameters(-1.0)
FM = DimerParameters(1.0)


def test_curie_prefactor_frozen():
    # N_A mu_B^2 / k_B from CODATA-2018, 50-digit arithmetic
    assert_allclose(CODATA.curie_prefactor, 0.375148096121, rtol=1e-11)


def test_powder_average():
    assert_allclose(powder_g(2.0, 2.0, 2.4), 2.1416504538945347, rtol=1e-14)
    assert powder_g(2.1, 2.1, 2.1) == pytest.approx(2.1)
    with pytest.raises(DomainError):
        powder_g(2.0, -2.0, 2.0)


class TestInternalEnergy:
    def test_matches_oracle(self):
        for j in (-2.59, -204.0, 35.4):
            p = DimerParameters(j)
            for t in (1.0, 4.0, 50.0, 300.0):
                assert_allclose(internal_energy(p, t), oracles.u_of_t(j, t), rtol=1e-12)

    def test_inversion_round_trip(self):
        for t in np.geomspace(0.6, 40.0, 30):
            u = internal_energy(CAL, float(t))
            g = correlator_from_internal_energy(CAL, u)
            assert_allclose(g, correlator_from_temperature(CAL, float(t)), rtol=1e-12)

    def test_frozen_inversions(self):
        assert_allclose(
            correlator_from_internal_energy(CAL, -1.63), -0.41956241956242, rtol=1e-13
        )
        assert_allclose(
            correlator_from_internal_energy(CAL, -1.65), -0.424710424710425, rtol=1e-13
        )

    def test_overshoot_clamped_with_warning(self):
        # a hair more negative than the ground state still reads as G = -1
        u_ground = -1.5 * CAL.j_over_kb * G_MIN  # u(0)/R of the singlet
        with pytest.warns(DataWarning):
            g = correlator_from_internal_energy(CAL, u_ground * 1.001)
        assert g == G_MIN

    def test_gross_overshoot_rejected(self):
        with pytest.raises(InconsistencyError):
            correlator_from_internal_energy(CAL, -5.0)


class TestSpecificHeat:
    def test_two_forms_agree(self):
        # closed form in T against the closed form in G, both branches
        for p in (CAL, FM, DimerParameters(-204.0), DimerParameters(35.4)):
            for t in np.geomspace(0.3 * abs(p.j_over_kb), 30 * abs(p.j_over_kb), 40):
                g = correlator_from_temperature(p, float(t))
                assert_allclose(
                    specific_heat(p, float(t)),
                    specific_heat_from_correlator(g),
                    rtol=1e-11,
                    atol=1e-300,
                )

    def test_two_forms_agree_deep_in_the_tail(self):
        # near the ground state 1+G is a difference of close doubles, so the
        # correlator route keeps only ~8 relative digits here
        t = 0.1 * 2.59
        g = correlator_from_temperature(CAL, t)
        assert_allclose(
            specific_heat(CAL, t), specific_heat_from_correlator(g), rtol=1e-7
        )

    def test_matches_oracle(self):
        for t in (0.5, 1.0, 1.8, 4.0, 20.0):
            assert_allclose(specific_heat(CAL, t), oracles.cm_of_t(-2.59, t), rtol=1e-12)

    def test_frozen_value(self):
        assert_allclose(
            specific_heat_from_correlator(-0.42), 0.45464693727888138, rtol=1e-13
        )

    def test_vanishes_at_domain_edges(self):
        assert specific_heat_from_correlator(G_MIN) == 0.0
        assert specific_heat_from_correlator(G_MAX) == 0.0
        assert specific_heat_from_correlator(0.0) == 0.0

    def test_extreme_temperatures_underflow_cleanly(self):
        assert specific_heat(DimerParameters(-300.0), 1e-3) == 0.0
        assert specific_heat(DimerParameters(300.0), 1e-3) == 0.0
        assert specific_heat(CAL, 1e9) < 1e-15


class TestSpecificHeatOfCorrelatorColumn:
    @settings(max_examples=200, deadline=None)
    @given(
        g=st.lists(
            st.one_of(
                st.floats(G_MIN, G_MAX),
                st.sampled_from([G_MIN, G_MAX, 0.0, -0.0, G_MIN - 1e-9, G_MAX + 1e-9]),
                st.floats(G_MIN - 1e-9, G_MIN),
                st.floats(G_MAX, G_MAX + 1e-9),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(g=[G_MIN, G_MAX, CM_PEAK_G_ANTIFERRO, CM_PEAK_G_FERRO])
    def test_equals_the_float_form_bit_for_bit(self, g):
        column = specific_heat_from_correlator(np.array(g))
        expected = [specific_heat_from_correlator(x) for x in g]
        assert column.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


class TestSpecificHeatInversion:
    def test_peak_constants_are_stationary(self):
        # the frozen split points solve (1+3g) ln((1+g)/(1-3g)) = 4
        for g_star in (CM_PEAK_G_ANTIFERRO, CM_PEAK_G_FERRO):
            lhs = (1 + 3 * g_star) * math.log((1 + g_star) / (1 - 3 * g_star))
            assert_allclose(lhs, 4.0, rtol=1e-13)
        assert_allclose(
            specific_heat_from_correlator(CM_PEAK_G_ANTIFERRO), CM_PEAK_ANTIFERRO, rtol=1e-13
        )
        assert_allclose(
            specific_heat_from_correlator(CM_PEAK_G_FERRO), CM_PEAK_FERRO, rtol=1e-13
        )

    def test_round_trip_all_four_flanks(self):
        for p, g_star in ((CAL, CM_PEAK_G_ANTIFERRO), (FM, CM_PEAK_G_FERRO)):
            lo = G_MIN if p.antiferro else g_star
            hi = g_star if p.antiferro else G_MAX
            cold = np.linspace(lo + 1e-3, hi - 1e-3, 25)
            lo2 = g_star if p.antiferro else 0.0
            hi2 = 0.0 if p.antiferro else g_star
            hot = np.linspace(lo2 + 1e-3, hi2 - 1e-3, 25)
            for g in cold:
                cm = specific_heat_from_correlator(float(g))
                back = correlator_from_specific_heat(p, cm, side="cold")
                assert_allclose(back, g, atol=1e-8)
            for g in hot:
                cm = specific_heat_from_correlator(float(g))
                back = correlator_from_specific_heat(p, cm, side="hot")
                assert_allclose(back, g, atol=1e-8)

    def test_peak_height_inverts_to_the_peak_itself(self):
        # a height at the peak to rounding returns x* without a step: G within an ulp of G*
        for j, cm, side, g, g_star in (
            (-1.0, CM_PEAK_ANTIFERRO, "hot", -0.8019936160953928, CM_PEAK_G_ANTIFERRO),
            (1.0, CM_PEAK_FERRO, "cold", 0.28397164067231206, CM_PEAK_G_FERRO),
        ):
            p = DimerParameters(j)
            assert thermo._schottky_x(cm, p.antiferro, side == "hot") == (
                thermo._CM_PEAK_X_ANTIFERRO if p.antiferro else thermo._CM_PEAK_X_FERRO
            )
            back = correlator_from_specific_heat(p, cm, side=side)
            assert back == g
            assert abs(back - g_star) <= math.ulp(g_star)

    def test_frozen_hot_side_point(self):
        g = correlator_from_specific_heat(CAL, 0.4125, side="hot")
        assert_allclose(g, -0.39707922480075277, atol=1e-10)

    def test_zero_height_edges(self):
        assert correlator_from_specific_heat(CAL, 0.0, side="hot") == 0.0
        assert correlator_from_specific_heat(CAL, 0.0, side="cold") == G_MIN
        assert correlator_from_specific_heat(FM, 0.0, side="cold") == G_MAX

    def test_above_peak(self):
        with pytest.raises(NoSolutionError):
            correlator_from_specific_heat(CAL, CM_PEAK_ANTIFERRO + 1e-3)
        with pytest.warns(DataWarning):
            g = correlator_from_specific_heat(CAL, CM_PEAK_ANTIFERRO + 1e-7)
        assert g == CM_PEAK_G_ANTIFERRO

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            correlator_from_specific_heat(CAL, -0.1)
        with pytest.raises(DomainError):
            correlator_from_specific_heat(CAL, 0.5, side="warm")


# the four flanks of the Schottky curve, as (antiferro, side)
FLANKS = [(True, "hot"), (True, "cold"), (False, "hot"), (False, "cold")]
FLANK_IDS = ["antiferro-hot", "antiferro-cold", "ferro-hot", "ferro-cold"]


def _unit_and_peak(antiferro):
    return (AFM, CM_PEAK_ANTIFERRO) if antiferro else (FM, CM_PEAK_FERRO)


class TestSpecificHeatNewton:
    """The bracketed Newton in x = |a| against 50 digits, on every flank."""

    @pytest.mark.parametrize("antiferro, side", FLANKS, ids=FLANK_IDS)
    @settings(max_examples=40, deadline=None)
    @given(decades=st.floats(-323.0, math.log10(0.999)))
    @example(decades=math.log10(0.999))
    @example(decades=-323.0)  # a subnormal height
    def test_within_1e_13_of_the_oracle_up_to_999_permille_of_the_peak(
        self, antiferro, side, decades
    ):
        params, peak = _unit_and_peak(antiferro)
        cm = peak * 10.0**decades
        g = correlator_from_specific_heat(params, cm, side=side)
        exact = oracles.cm_inversion(cm, antiferro, side)
        assert abs(g - exact) <= 1e-13 * abs(exact), (cm, g, exact)

    @pytest.mark.parametrize("antiferro, side", FLANKS, ids=FLANK_IDS)
    @settings(max_examples=60, deadline=None)
    @given(decades=st.floats(-300.0, math.log10(0.999)), gap=st.floats(-12.0, 0.0))
    def test_monotone_in_the_height(self, antiferro, side, decades, gap):
        # heights closer than the 1e-13 accuracy above may come back in
        # either order (a few ulp apart they do); past it the order holds
        params, peak = _unit_and_peak(antiferro)
        low = peak * 10.0**decades
        high = low * (1.0 + 10.0**gap)
        assume(high <= 0.999 * peak)
        g_low = correlator_from_specific_heat(params, low, side=side)
        g_high = correlator_from_specific_heat(params, high, side=side)
        # toward the peak G rises on the antiferro cold and ferro hot flanks
        rising = antiferro == (side == "cold")
        assert (g_low <= g_high) if rising else (g_low >= g_high)

    @pytest.mark.parametrize("antiferro", [True, False], ids=["antiferro", "ferro"])
    @settings(max_examples=100, deadline=None)
    @given(decades=st.floats(-2.0, 6.0))
    @example(decades=-2.0)
    @example(decades=6.0)
    def test_temperature_round_trips_in_x(self, antiferro, decades):
        # T -> c_m/R -> x -> 2|J|/x over T/|J| in [1e-2, 1e6]; x is the
        # coordinate the inversion solves in (G itself is -1 or 1/3 in
        # doubles below T/|J| ~ 0.05).  The bound carries the conditioning
        # 1/|s| of the curve, s = d ln c_m / d ln x, which is 0 at the peak.
        params, peak = _unit_and_peak(antiferro)
        t = 10.0**decades
        cm = specific_heat(params, t)
        assume(cm <= peak)  # within an ulp or so of the peak it reads as the peak
        x = thermo._schottky_x(cm, antiferro, t > schottky_maximum(params)[0])
        e = math.exp(-2.0 / t)
        s = 2.0 - 2.0 / t + (6.0 * e / (1.0 + 3.0 * e) if antiferro else 2.0 * e / (3.0 + e)) * 2.0 / t
        assert abs(2.0 / x - t) <= (1e-14 + 2e-15 / abs(s)) * t

    @pytest.mark.parametrize("antiferro, side", FLANKS, ids=FLANK_IDS)
    def test_few_evaluations_up_to_the_peak(self, antiferro, side, monkeypatch):
        # near the peak f is quadratic in x - x* and Newton only halves the
        # distance each step: from the quadratic's root, stopped where f is
        # rounding, no height 10**-k below the peak takes more than 10
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setattr(thermo, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
        _, peak = _unit_and_peak(antiferro)
        for k in range(1, 16):
            for cm in (peak * (1.0 - 10.0**-k), peak * (1.0 - 1.9 * 10.0**-k)):
                calls.clear()
                thermo._schottky_x(cm, antiferro, side == "hot")
                assert len(calls) <= 10, (k, cm, len(calls))

    @pytest.mark.parametrize("antiferro, side", FLANKS, ids=FLANK_IDS)
    def test_ends_without_its_stopping_tests(self, antiferro, side, monkeypatch):
        # with neither the step test nor the rounding test able to stop it, the search
        # still ends, once its bracket is two adjacent doubles, and on the same root
        _, peak = _unit_and_peak(antiferro)
        heights = [1e-300, 1e-3 * peak, 0.3 * peak, 0.999 * peak]
        roots = [thermo._schottky_x(cm, antiferro, side == "hot") for cm in heights]
        monkeypatch.setattr(thermo, "_X_RTOL", 0.0)
        monkeypatch.setattr(thermo, "_F_NOISE", 0.0)
        for cm, x in zip(heights, roots):
            assert thermo._schottky_x(cm, antiferro, side == "hot") == pytest.approx(x, rel=1e-13)

    def test_cold_end_of_copper_nitrate(self):
        # J/k_B = -204 K (the Cu(NO3)2 2.5 D2O-scale coupling of the
        # landmarks), cold flank: T -> c_m/R -> G -> T
        params = DimerParameters(-204.0)
        for t, bound in ((15.0, 2e-6), (20.0, 1e-9)):
            g = correlator_from_specific_heat(params, specific_heat(params, t), side="cold")
            assert abs(temperature_from_correlator(params, g) - t) <= bound * t
        # 1 + G = 6.9e-15 here: the inversion keeps it off -1
        g = correlator_from_specific_heat(params, specific_heat(params, 12.0), side="cold")
        assert g > G_MIN
        assert temperature_from_correlator(params, g) > 0.0


def _root(lo, hi, tol):
    return numerics.find_root(lambda x: x - 0.3, lo, hi, tol=tol)


def _crossing(lo, hi):
    return numerics.find_crossing(lambda x: x, lambda x: 0.3, lo, hi)


def _maximum(lo, hi):
    return maximize_scalar(lambda x: -abs(x - 0.3), lo, hi)


def _u_from_cm(u0):
    return internal_energy_from_specific_heat([1.0, 2.0], [0.1, 0.2], u0_over_r=u0)


def _record(t):
    return dataio.result_from_correlator(t, numerics.ValueWithUncertainty(-0.5, 0.01), "neutron")


_CORRELATOR = {0: "correlator"}
_T = {1: "temperature"}
_G21 = DimerParameters(-2.0, 2.1)
# Every public scalar entry, with arguments and, at each scalar position probed, the name its
# errors give that input.  The first nine cases were the numpy-scalar probe's.
SCALAR_ENTRIES = [
    ("bleaney-bowers", bleaney_bowers, (1e300, 0.59, 1e-300),
     {0: "j_over_kb", 1: "g factor", 2: "temperature"}),
    ("specific-heat", thermo.specific_heat, (DimerParameters(-1e300), 1e-10), _T),
    ("chi-at-hot-t", correlator_from_susceptibility, (_G21, 0.06, 1e308),
     {1: "susceptibility", 2: "temperature"}),
    ("huge-chi", correlator_from_susceptibility, (_G21, 1e308, 4.0), {1: "susceptibility"}),
    ("chi", correlator_from_susceptibility, (_G21, 0.06, 4.0),
     {1: "susceptibility", 2: "temperature"}),
    ("negative-chi", correlator_from_susceptibility, (_G21, -1.0, 4.0), {1: "susceptibility"}),
    ("huge-u", correlator_from_internal_energy, (_G21, 1e308), {1: "internal energy"}),
    ("u", correlator_from_internal_energy, (_G21, -1.5), {1: "internal energy"}),
    ("infinite-u", correlator_from_internal_energy, (_G21, math.inf), {1: "internal energy"}),
    ("parameters", DimerParameters, (-2.0, 2.1), {0: "j_over_kb", 1: "g factor"}),
    ("g-tensor", lambda gx: DimerParameters(-2.0, (gx, 2.0, 2.2)), (2.1,),
     {0: "g tensor components"}),
    ("validate", dimer_core.validate_correlator, (-0.5,), _CORRELATOR),
    ("g-of-t", correlator_from_temperature, (MAG, 3.0), _T),
    ("t-of-g", temperature_from_correlator, (MAG, -0.5), {1: "correlator"}),
    ("i", dimer_core.mutual_information, (-0.5,), _CORRELATOR),
    ("c", dimer_core.classical_correlation, (-0.5,), _CORRELATOR),
    ("q", dimer_core.discord, (-0.5,), _CORRELATOR),
    ("concurrence", dimer_core.concurrence, (-0.5, True), _CORRELATOR),
    ("e", dimer_core.entanglement_of_formation, (0.5,), {0: "concurrence"}),
    ("powder-g", powder_g, (2.0, 2.1, 2.2), dict.fromkeys(range(3), "g tensor components")),
    ("ppt", dimer_core.ppt_eigenvalues, (-0.5,), _CORRELATOR),
    ("measures", dimer_core.measures_from_correlator, (-0.5,), _CORRELATOR),
    ("correlation-set", dimer_core.correlation_set, (MAG, 3.0), _T),
    ("clamp", clamp_measured_correlator, (-0.5,), _CORRELATOR),
    ("internal-energy", internal_energy, (MAG, 3.0), _T),
    ("u-of-cm", _u_from_cm, (-3.0,), {0: "u0_over_r"}),
    ("cm-of-g", specific_heat_from_correlator, (-0.5,), _CORRELATOR),
    ("g-of-cm", correlator_from_specific_heat, (MAG, 0.5), {1: "c_m/R"}),
    ("susceptibility", susceptibility, (MAG, 3.0), _T),
    ("value", numerics.ValueWithUncertainty, (-0.54, 0.09), {0: "value", 1: "sigma"}),
    ("tail", TailModel, (6.6, 4.0), {0: "tail coefficient", 1: "tail start"}),
    ("lambert-w", numerics.lambert_w, (1.0,), {0: "lambert_w argument"}),
    ("root", _root, (0.0, 1.0, 1e-12), {0: "lo", 1: "hi", 2: "tol"}),
    ("crossing", _crossing, (0.0, 1.0), {0: "lo", 1: "hi"}),
    ("maximum", _maximum, (0.0, 1.0), {0: "lo", 1: "hi"}),
    ("record", _record, (4.0,), {0: "temperature"}),
]
# the fuzz's edge values as floats, and ints, each with the float it reads as
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
INTS = [0, 1, -1, 3, 10**308]
# inputs that are no real number but mean something else there: a list is a g tensor, and None
# is no g factor, no temperature or no ground state energy
OTHER_MEANING = {(DimerParameters, 1, list), (DimerParameters, 1, type(None)),
                 (_record, 0, type(None)), (_u_from_cm, 0, type(None))}


def _result(x):
    """A result, its floats as their exact text and every number tagged with its type."""
    if isinstance(x, np.ndarray):  # an array result, such as the PPT spectrum
        x = x.tolist()
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [_result(v) for v in x]
    if isinstance(x, (float, int)):
        return type(x).__name__, float(x).hex()
    return x


def _outcome(fn, args):
    try:
        return _result(fn(*args))
    except Exception as exc:  # warnings are errors here too
        return type(exc), str(exc)


@pytest.mark.parametrize("fn, args, names", [e[1:] for e in SCALAR_ENTRIES],
                         ids=[e[0] for e in SCALAR_ENTRIES])
def test_numpy_scalars_compute_as_floats(fn, args, names):
    # every scalar input is read one way (dimer_core._real): an int or an np.float64 gives the
    # float call's float, or its error class and text, with no warning; anything else that is
    # not a real number, or an int past the largest double, the one DomainError naming it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(fn, args)
        numpy_args = [np.float64(x) if i in names else x for i, x in enumerate(args)]
        assert _outcome(fn, numpy_args) == expected
        for i, name in names.items():
            def at(x):
                return [x if j == i else a for j, a in enumerate(args)]

            for x in [args[i], *EDGE_FLOATS]:
                got = _outcome(fn, at(x))
                assert "float64" not in repr(got) and "'int'" not in repr(got), (x, got)
                assert _outcome(fn, at(np.float64(x))) == got, x
            for n in INTS:
                assert _outcome(fn, at(n)) == _outcome(fn, at(float(n))), n
            for bad in (repr(args[i]), [args[i]], None, 1j):
                if (fn, i, type(bad)) not in OTHER_MEANING:
                    text = f"{name} must be a real number, got {bad!r}"
                    assert _outcome(fn, at(bad)) == (DomainError, text)
            for huge in (10**400, -(10**400)):
                assert _outcome(fn, at(huge)) == (
                    DomainError, f"{name} lies beyond the range of a double"
                )


# the entries that take a numpy array as well as a float, each at every position it probes
ARRAY_ENTRIES = {"bleaney-bowers", "validate", "g-of-t", "i", "c", "q", "concurrence", "e",
                 "measures", "correlation-set", "internal-energy", "cm-of-g"}


@pytest.mark.parametrize("fn, args, names",
                         [e[1:] for e in SCALAR_ENTRIES if e[0] not in ARRAY_ENTRIES],
                         ids=[e[0] for e in SCALAR_ENTRIES if e[0] not in ARRAY_ENTRIES])
def test_float_only_entries_refuse_an_array(fn, args, names):
    # temperature_from_correlator raised a bare ValueError for two cells, and ppt_eigenvalues
    # returned a 4x1 array for one
    for i, name in names.items():
        for bad in (np.array([args[i]]), np.array([args[i], args[i]])):
            got = _outcome(fn, [bad if j == i else a for j, a in enumerate(args)])
            assert got == (DomainError, f"{name} must be a real number, got {bad!r}")


class TestSchottky:
    def test_frozen_maxima(self):
        t, cm = schottky_maximum(AFM)
        assert_allclose(t, 0.70299042414308937, rtol=1e-13)
        assert_allclose(cm, 1.0234905543865051, rtol=1e-13)
        t, cm = schottky_maximum(FM)
        assert_allclose(t, 0.92595746100846805, rtol=1e-13)
        assert_allclose(cm, 0.16632055381487849, rtol=1e-13)

    def test_scales_with_coupling(self):
        t, _ = schottky_maximum(CAL)
        assert_allclose(t, 2.59 * 0.70299042414308937, rtol=1e-13)

    def test_agrees_with_numeric_maximization(self):
        for p in (CAL, FM):
            t_star, cm_star = schottky_maximum(p)
            t_num, cm_num = maximize_scalar(
                lambda t: specific_heat(p, t), 0.3 * t_star, 3.0 * t_star
            )
            assert_allclose(t_num, t_star, rtol=1e-6)
            assert_allclose(cm_num, cm_star, rtol=1e-10)


class TestSusceptibility:
    def test_frozen_value(self):
        assert_allclose(susceptibility(MAG, 3.193), 0.131255232519837, rtol=1e-12)

    def test_matches_oracle(self):
        for t in (2.0, 4.0, 10.0, 77.0):
            assert_allclose(
                susceptibility(MAG, t),
                oracles.chi_of_t(-2.56, 2.11, t, CODATA.curie_prefactor),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("j, g_factor", [(-2.56, 2.11), (-204.0, 2.13), (35.4, 2.13)])
    def test_matches_exact_oracle_cold_to_hot(self, j, g_factor):
        # the cold antiferro end is where forming 1 + G would cancel
        params = DimerParameters(j, g_factor)
        for t in np.geomspace(0.02, 20.0, 300) * abs(j):
            assert_allclose(
                susceptibility(params, float(t)),
                oracles.bleaney_bowers(j, g_factor, float(t), CODATA.curie_prefactor),
                rtol=1e-12,
            )

    @pytest.mark.parametrize(
        "j, t",
        [(-2.0, 4.0 / 705.0), (-1e-300, 2e-300 / 745.0), (-1e-200, 2e-200 / 750.0),
         (-2.0, 1e-300), (-2.0, 5e-324)],
    )
    def test_matches_exact_oracle_past_the_exponent_cap(self, j, t):
        # a = 2|J|/T > 700, where e^a is capped for the fit: chi still falls as
        # e^-a, to 0 where that underflows (it stayed near 2C g^2 e^-700/T)
        chi = bleaney_bowers(j, 2.11, t)
        exact = oracles.bleaney_bowers(j, 2.11, t, CODATA.curie_prefactor)
        assert_allclose(chi, exact, rtol=1e-12, atol=0.0)
        assert_same_bits(bleaney_bowers(j, 2.11, np.array([t, 1.0]))[:1], [chi])

    @pytest.mark.parametrize("a", [-750.0, -700.0, -3.0, 0.5, 699.0, 700.0])
    def test_capped_range_keeps_its_formula(self, a):
        j = -0.5 * a  # at T = 1 K
        e = math.exp(max(a, -700.0))
        expected = 2.11 * 2.11 * (2.0 * CODATA.curie_prefactor / (1.0 * (3.0 + e)))
        assert bleaney_bowers(j, 2.11, 1.0) == expected

    def test_needs_g_factor(self):
        with pytest.raises(DomainError):
            susceptibility(CAL, 4.0)

    def test_tensor_is_powder_averaged(self):
        iso = DimerParameters(-2.56, 2.1416504538945347)
        tens = DimerParameters(-2.56, (2.0, 2.0, 2.4))
        assert_allclose(susceptibility(tens, 4.0), susceptibility(iso, 4.0), rtol=1e-14)

    def test_inversion_round_trip(self):
        for t in np.geomspace(0.8, 40.0, 30):
            chi = susceptibility(MAG, float(t))
            g = correlator_from_susceptibility(MAG, chi, float(t))
            assert_allclose(g, correlator_from_temperature(MAG, float(t)), atol=1e-8)

    def test_frozen_inversions(self):
        assert_allclose(
            correlator_from_susceptibility(MAG, 0.126, 4.0), -0.396478321225677, rtol=1e-12
        )
        ferro = DimerParameters(35.4, 2.13)
        assert_allclose(
            correlator_from_susceptibility(ferro, 0.89 / 300.0, 300.0),
            0.0458226628084168,
            rtol=1e-11,
        )

    def test_zero_susceptibility_is_the_singlet(self):
        assert correlator_from_susceptibility(MAG, 0.0, 1.0) == G_MIN

    def test_inconsistent_chi_rejected(self):
        # far above the triplet ceiling
        with pytest.raises(InconsistencyError):
            correlator_from_susceptibility(MAG, 1.0, 300.0)

    def test_slight_overshoot_clamped(self):
        chi_ceiling = CODATA.curie_prefactor * 2.11**2 * (1 + G_MAX) / (2 * 300.0)
        with pytest.warns(DataWarning):
            g = correlator_from_susceptibility(MAG, chi_ceiling * 1.001, 300.0)
        assert g == G_MAX


@pytest.mark.parametrize("j", [-2.0, 2.0])
def test_forward_maps_below_the_smallest_temperature_scale(j):
    # at T = 5e-324 K, 2|J|/T overflows a double: every map takes its T -> 0
    # limit, with no NaN and no numpy warning, and a column agrees with the
    # float bit for bit (the ferro chi ~ 1/T overflows in truth: left aside)
    p = DimerParameters(j, 2.11)
    t = np.array([5e-324, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = correlator_from_temperature(p, 5e-324)
        assert g == (G_MIN if j < 0.0 else G_MAX)
        assert_same_bits(correlator_from_temperature(p, t)[:1], [g])
        assert internal_energy(p, 5e-324) == -1.5 * j * g
        assert specific_heat(p, 5e-324) == 0.0
        if j < 0.0:
            chi = susceptibility(p, 5e-324)
            assert math.isfinite(chi)
            assert_same_bits(bleaney_bowers(j, 2.11, t)[:1], [chi])


class TestSusceptibilityMaximum:
    def test_frozen_constants(self):
        t_max, chi_max = susceptibility_maximum(MAG)
        assert_allclose(t_max / 2.56, 1.2472360162167386, rtol=1e-12)
        reduced = chi_max * 2.56 / (CODATA.curie_prefactor * 2.11**2)
        assert_allclose(reduced, 0.20118191317861200, rtol=1e-12)

    def test_agrees_with_numeric_maximization(self):
        t_max, chi_max = susceptibility_maximum(MAG)
        t_num, chi_num = maximize_scalar(
            lambda t: susceptibility(MAG, t), 0.5 * t_max, 2.0 * t_max
        )
        assert_allclose(t_num, t_max, rtol=1e-6)
        assert_allclose(chi_num, chi_max, rtol=1e-10)

    def test_ferro_has_none(self):
        with pytest.raises(DomainError):
            susceptibility_maximum(DimerParameters(35.4, 2.13))

    def test_matches_mpmath_where_three_j_overflows(self):
        # 3|J| overflows above ~6e307, so chi_max is divided by 3 first there
        mp = oracles.mp
        t_max, chi_max = susceptibility_maximum(DimerParameters(-9e307, 2.0))
        w = mp.lambertw(3 / mp.e)
        exact = mp.mpf(CODATA.curie_prefactor) * 4 * w / (3 * mp.mpf(9e307))
        assert abs(chi_max - float(exact)) <= 5e-324  # a subnormal: one step
        reduced = chi_max * 9e307 / (CODATA.curie_prefactor * 4.0)
        assert_allclose(reduced, float(w / 3), rtol=1e-14)
        assert_allclose(t_max, float(2 * mp.mpf(9e307) / (1 + w)), rtol=1e-15)

    @pytest.mark.parametrize("j", [-1e-300, -2.56, -204.0, -5.9e307])
    def test_ordinary_couplings_keep_their_bits(self, j):
        _, chi_max = susceptibility_maximum(DimerParameters(j, 2.11))
        assert chi_max == CODATA.curie_prefactor * 2.11**2 * CHI_PEAK_W / (3.0 * -j)


class TestEnergyFromRecord:
    def test_tail_only_anchors_at_infinity(self):
        t_end, u = internal_energy_from_specific_heat(
            [], [], tail=TailModel(6.6, 4.0), u0_over_r=-3.885
        )
        assert t_end == 4.0
        assert_allclose(u, -1.65, rtol=1e-14)
        # the same without any u0: identical by construction
        _, u2 = internal_energy_from_specific_heat([], [], tail=TailModel(6.6, 4.0))
        assert u2 == u

    def test_series_with_exact_u0(self):
        # dense exact record: u(t_end) = u0 + integral reproduces theory
        t = np.linspace(0.05, 12.0, 4000)
        v = np.array([specific_heat(CAL, float(x)) for x in t])
        t_end, u = internal_energy_from_specific_heat(
            t, v, u0_over_r=-1.5 * CAL.j_over_kb * G_MIN
        )
        assert_allclose(u, internal_energy(CAL, 12.0), atol=2e-4)

    def test_estimated_u0_pins_the_infinite_t_limit(self):
        # estimating u0 from the record anchors u(inf) = 0, which makes
        # u(t_end) = -tail regardless of the data below it
        t = np.linspace(0.05, 12.0, 400)
        v = np.array([specific_heat(CAL, float(x)) for x in t])
        _, u = internal_energy_from_specific_heat(t, v, tail=TailModel(5.03, 12.0))
        assert_allclose(u, -5.03 / 12.0, rtol=1e-12)

    def test_estimated_u0_without_tail_warns(self):
        t = np.linspace(0.05, 12.0, 200)
        v = np.array([specific_heat(CAL, float(x)) for x in t])
        with pytest.warns(DataWarning):
            internal_energy_from_specific_heat(t, v)

    def test_empty_record_rejected(self):
        with pytest.raises(DataError):
            internal_energy_from_specific_heat([], [])

    def test_tail_below_data_rejected(self):
        with pytest.raises(DataError):
            internal_energy_from_specific_heat(
                [1.0, 5.0], [0.1, 0.1], tail=TailModel(1.0, 4.0)
            )


class TestClampMeasured:
    def test_interior_untouched(self):
        assert clamp_measured_correlator(-0.54) == -0.54

    def test_edges_inclusive(self):
        assert clamp_measured_correlator(G_MIN) == G_MIN
        assert clamp_measured_correlator(G_MAX) == G_MAX

    def test_tolerant_clamp(self):
        with pytest.warns(DataWarning):
            assert clamp_measured_correlator(-1.009) == G_MIN
        with pytest.warns(DataWarning):
            assert clamp_measured_correlator(G_MAX + 0.009) == G_MAX

    def test_beyond_tolerance(self):
        with pytest.raises(InconsistencyError):
            clamp_measured_correlator(-1.02)
        with pytest.raises(InconsistencyError):
            clamp_measured_correlator(0.35)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: specific_heat(CAL, 0.0), DomainError, "temperature must be positive, got 0.0"),
        (lambda: susceptibility(MAG, -4.0), DomainError, "temperature must be positive, got -4.0"),
        (
            lambda: correlator_from_susceptibility(MAG, 0.1, 0.0),
            DomainError,
            "temperature must be positive, got 0.0",
        ),
        (
            lambda: clamp_measured_correlator(math.nan),
            InconsistencyError,
            "measured value implies a non-finite correlator",
        ),
        (
            lambda: correlator_from_internal_energy(CAL, math.nan),
            DomainError,
            "internal energy must be finite, got nan",
        ),
        (
            lambda: internal_energy_from_specific_heat([1.0, 2.0], [0.1, 0.2], u0_over_r=math.nan),
            DomainError,
            "u0_over_r must be finite, got nan",
        ),
    ],
    ids=[
        "specific-heat-at-zero-T",
        "susceptibility-at-negative-T",
        "chi-inversion-at-zero-T",
        "clamp-nan",
        "energy-inversion-nan",
        "u0-nan",
    ],
)
def test_bad_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
