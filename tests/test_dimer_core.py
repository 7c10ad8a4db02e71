import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from dimer_discord import dimer_core, thermo
from dimer_discord.dimer_core import (
    CE_CROSSING_G,
    DEATH_TEMPERATURE_SCALE,
    G_MAX,
    G_MIN,
    QE_CROSSING_G,
    CorrelationSet,
    DimerParameters,
    bleaney_bowers,
    classical_correlation,
    concurrence,
    correlation_set,
    correlator_from_temperature,
    discord,
    entanglement_death_temperature,
    entanglement_of_formation,
    measures_from_correlator,
    mutual_information,
    ppt_eigenvalues,
    temperature_from_correlator,
    validate_correlator,
)
from dimer_discord.errors import DomainError

AFM = DimerParameters(-1.0)
FM = DimerParameters(1.0)

# a reproducible spread of correlators covering both branches
RNG = np.random.default_rng(20260819)
G_GRID = np.concatenate(
    [
        np.linspace(G_MIN, G_MAX, 801),
        RNG.uniform(G_MIN, G_MAX, 400),
    ]
)


class TestParameters:
    def test_antiferro_flag(self):
        assert AFM.antiferro
        assert not FM.antiferro

    def test_rejects_zero_and_nonfinite_coupling(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                DimerParameters(bad)

    def test_g_tensor_coerced_to_tuple(self):
        p = DimerParameters(-1.0, [2.0, 2.0, 2.4])
        assert p.g_factor == (2.0, 2.0, 2.4)

    def test_rejects_a_g_tensor_of_two_values(self):
        with pytest.raises(DomainError, match="g tensor needs exactly three principal values"):
            DimerParameters(-1.0, (2.0, 2.1))

    def test_rejects_nonpositive_g(self):
        with pytest.raises(DomainError):
            DimerParameters(-1.0, -2.1)
        with pytest.raises(DomainError):
            DimerParameters(-1.0, (2.0, 0.0, 2.0))

    @pytest.mark.parametrize(
        "g_factor, text",
        [
            (1e200, "g factor 1e+200 is too large: its square overflows"),
            (1.35e154, "g factor 1.35e+154 is too large: its square overflows"),
            ((1e200, 1.0, 1.0),
             "g tensor (1e+200, 1.0, 1.0) is too large: the sum of its squares overflows"),
            ((1e154, 1e154, 1e154),
             "g tensor (1e+154, 1e+154, 1e+154) is too large: the sum of its squares overflows"),
        ],
    )
    def test_rejects_a_g_whose_square_overflows(self, g_factor, text):
        # every use of g takes its square (the Curie constant), so it must be a double
        with pytest.raises(DomainError) as info:
            DimerParameters(-1.0, g_factor)
        assert str(info.value) == text

    def test_keeps_the_largest_g_whose_square_is_finite(self):
        g = math.sqrt(sys.float_info.max)
        assert DimerParameters(-1.0, g).g_factor == g
        assert math.isfinite(DimerParameters(-1.0, (g, 1.0, 1.0)).scalar_g ** 2)
        assert math.isfinite(thermo.susceptibility_maximum(DimerParameters(-1.0, g))[1])

    @pytest.mark.parametrize(
        "g_factor, text",
        [
            (1e-200, "g factor 1e-200 is too small: its square underflows"),
            (1.49e-154, "g factor 1.49e-154 is too small: its square underflows"),
            ((1e-200, 1e-200, 1e-200),
             "g tensor (1e-200, 1e-200, 1e-200) is too small: its square underflows"),
            ((2e-154, 1e-200, 1e-200),
             "g tensor (2e-154, 1e-200, 1e-200) is too small: its square underflows"),
        ],
    )
    def test_rejects_a_g_whose_square_underflows(self, g_factor, text):
        # a subnormal g^2 carries fewer digits into every chi, and 0 divides the inversion
        with pytest.raises(DomainError) as info:
            DimerParameters(-1.0, g_factor)
        assert str(info.value) == text
        with pytest.raises(DomainError, match="too small: its square underflows"):
            thermo.correlator_from_susceptibility(DimerParameters(-2.0, g_factor), 0.06, 4.0)

    @pytest.mark.parametrize(
        "tensor, text",
        [
            ((1e308, 2.0, 2.0),
             "g tensor (1e+308, 2.0, 2.0) is too large: the sum of its squares overflows"),
            ((1e-200, 1e-200, 1e-200),
             "g tensor (1e-200, 1e-200, 1e-200) is too small: its square underflows"),
        ],
    )
    def test_powder_g_refuses_the_tensors_the_parameters_refuse(self, tensor, text):
        # powder_g answered inf and 0.0 for these, with no error
        for make in (lambda: dimer_core.powder_g(*tensor), lambda: DimerParameters(-1.0, tensor)):
            with pytest.raises(DomainError) as info:
                make()
            assert str(info.value) == text

    def test_keeps_the_smallest_g_whose_square_is_normal(self):
        g = math.sqrt(sys.float_info.min)
        g = g if g * g >= sys.float_info.min else math.nextafter(g, 1.0)
        assert DimerParameters(-1.0, g).g_factor == g
        assert DimerParameters(-1.0, (1.0, 1e-200, 1e-200)).scalar_g ** 2 >= sys.float_info.min
        assert thermo.susceptibility(DimerParameters(-1.0, g), 1.0) > 0.0

    def test_frozen(self):
        with pytest.raises(Exception):
            AFM.j_over_kb = 2.0

    def test_a_record_is_a_tuple_of_its_fields(self):
        p = DimerParameters(-1.0, [2.0, 2.0, 2.4])
        assert p == (-1.0, (2.0, 2.0, 2.4)) and p[0] == -1.0 and len(p) == 2
        assert hash(p) == hash(DimerParameters(-1.0, (2.0, 2.0, 2.4)))
        assert repr(AFM) == "DimerParameters(j_over_kb=-1.0, g_factor=None)"
        m = measures_from_correlator(-0.5)
        assert tuple(m) == (m.mutual_information, m.classical, m.discord, m.concurrence,
                            m.entanglement)

    def test_replace_validates_again(self):
        with pytest.raises(DomainError, match="j_over_kb must be finite and nonzero"):
            AFM._replace(j_over_kb=0.0)
        assert AFM._replace(g_factor=[2.0, 2.0, 2.4]).g_factor == (2.0, 2.0, 2.4)

    @pytest.mark.parametrize(
        "j, g_factor",
        [
            (np.float32(-2.59), np.float64(2.1)),
            (np.int64(-2), np.float32(2.1)),
            (-2, 2),
            (np.float64(35.4), (np.float32(2.0), np.int64(2), 2.4)),
        ],
    )
    def test_numbers_are_stored_as_floats(self, j, g_factor):
        # any real number is a float here, numpy scalars included
        p = DimerParameters(j, g_factor)
        assert type(p.j_over_kb) is float and p.j_over_kb == float(j)
        given = g_factor if isinstance(g_factor, tuple) else (g_factor,)
        stored = p.g_factor if isinstance(p.g_factor, tuple) else (p.g_factor,)
        assert [type(x) for x in stored] == [float] * len(given)
        assert stored == tuple(map(float, given))

    @pytest.mark.parametrize(
        "fields, name",
        [
            (("-2.0",), "j_over_kb"),
            ((None,), "j_over_kb"),
            ((1j,), "j_over_kb"),
            ((-2.0, "2.1"), "g factor"),
            ((-2.0, ("2.0", 2.0, 2.1)), "g tensor components"),
        ],
    )
    def test_rejects_a_field_that_is_not_a_number(self, fields, name):
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
            DimerParameters(*fields)


class TestValidateCorrelator:
    def test_interior_passthrough(self):
        assert validate_correlator(-0.54) == -0.54

    def test_float_fuzz_clamped(self):
        assert validate_correlator(G_MIN - 1e-10) == G_MIN
        assert validate_correlator(G_MAX + 1e-10) == G_MAX

    def test_rejects_beyond_fuzz(self):
        with pytest.raises(DomainError):
            validate_correlator(-1.001)
        with pytest.raises(DomainError):
            validate_correlator(0.34)
        with pytest.raises(DomainError):
            validate_correlator(math.nan)


class TestCorrelatorOfTemperature:
    def test_matches_gibbs_state(self):
        # exp(-H/T) of the real 4x4 Hamiltonian, no closed form involved
        for j in (-2.59, -1.0, -204.0, 1.0, 35.4):
            for t in (0.5, 1.0, 4.0, 77.0, 300.0):
                assert_allclose(
                    correlator_from_temperature(DimerParameters(j), t),
                    oracles.gibbs_correlator(j, t),
                    rtol=1e-12,
                )

    def test_frozen_values(self):
        # frozen from a 50-digit evaluation of -1 + 4/(3 + e^(-2j/t))
        assert_allclose(
            correlator_from_temperature(DimerParameters(-2.59), 4.0),
            -0.39858631465846724,
            rtol=1e-13,
        )
        assert_allclose(
            correlator_from_temperature(DimerParameters(-2.56), 3.193),
            -0.49814543086792072,
            rtol=1e-13,
        )
        assert_allclose(
            correlator_from_temperature(DimerParameters(-204.0), 400.0),
            -0.30714272364972019,
            rtol=1e-13,
        )

    def test_zero_temperature_limits(self):
        # far below the gap the exponential would overflow; exact limits instead
        assert correlator_from_temperature(DimerParameters(-1000.0), 1e-3) == G_MIN
        assert correlator_from_temperature(DimerParameters(1000.0), 1e-3) == G_MAX

    def test_high_temperature_tail(self):
        # G ~ -j/(2T) as T -> infinity; frozen: G(1e9; j=-1) * 1e9.
        # the subtraction -1 + 4/(3+e^x) cancels ~9 digits here, so the
        # double result only carries about eps/|G| ~ 4e-7 relative accuracy
        g = correlator_from_temperature(AFM, 1e9)
        assert_allclose(g * 1e9, -0.50000000025, rtol=1e-6)

    def test_branch_ranges(self):
        for t in np.geomspace(0.01, 100, 50):
            assert G_MIN <= correlator_from_temperature(AFM, float(t)) < 0.0
            assert 0.0 < correlator_from_temperature(FM, float(t)) <= G_MAX

    def test_rejects_bad_temperature(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                correlator_from_temperature(AFM, bad)


class TestTemperatureOfCorrelator:
    def test_round_trip_both_branches(self):
        # below ~0.14 |j| the correlator pins to the ground state to double
        # precision and the inverse has nothing left to resolve
        for params in (AFM, FM, DimerParameters(-204.0), DimerParameters(35.4)):
            for t in np.geomspace(0.2 * abs(params.j_over_kb), 50 * abs(params.j_over_kb), 60):
                g = correlator_from_temperature(params, float(t))
                assert_allclose(temperature_from_correlator(params, g), t, rtol=1e-10)

    def test_rejects_wrong_branch(self):
        with pytest.raises(DomainError):
            temperature_from_correlator(AFM, 0.2)
        with pytest.raises(DomainError):
            temperature_from_correlator(FM, -0.2)

    def test_rejects_unreachable_endpoints(self):
        # G = 0 is the infinite-temperature limit, never attained
        with pytest.raises(DomainError):
            temperature_from_correlator(AFM, 0.0)

    @pytest.mark.parametrize("j", [-2.0, -204.0, -1e-250, -1e250, 35.4, 1e-250, 1e250])
    def test_within_5e_16_of_the_oracle_on_the_whole_branch(self, j):
        # |G| log-spaced from 1e-300 (where the hot end's 1 - 3G and 1 + G round to 1) to
        # the far end, and the cold end approached from 1e-16 of it
        params = DimerParameters(j)
        end = G_MIN if j < 0.0 else G_MAX
        gs = [*(end * np.geomspace(1e-300 / abs(end), 1.0, 600))[:-1],
              *(end - end * np.geomspace(3e-16, 0.5, 200)), 5e-324 * np.sign(end)]
        for g in map(float, gs):
            t, exact = temperature_from_correlator(params, g), oracles.t_of_g(j, g)
            if exact > sys.float_info.max:
                assert t == math.inf, g
            else:
                assert abs(t - exact) <= 5e-16 * exact, g

    def test_raises_only_a_domain_error(self):
        for params in (AFM, FM):
            for g in (0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, G_MIN, G_MAX, -2.0, 0.5,
                      math.nan, math.inf, -math.inf):
                try:
                    t = temperature_from_correlator(params, g)
                except DomainError:
                    continue
                assert 0.0 < t <= math.inf


class TestMeasures:
    def test_singlet(self):
        assert_allclose(mutual_information(-1.0), 2.0, rtol=1e-14)
        assert_allclose(classical_correlation(-1.0), 1.0, rtol=1e-14)
        assert_allclose(discord(-1.0), 1.0, rtol=1e-14)

    def test_frozen_interior_values(self):
        # frozen from the 50-digit closed forms
        assert_allclose(mutual_information(-1 / 3), 0.207518749639422, rtol=1e-13)
        assert_allclose(classical_correlation(-1 / 3), 0.0817041659455105, rtol=1e-13)
        assert_allclose(discord(-1 / 3), 0.125814583693911, rtol=1e-13)
        assert_allclose(mutual_information(-0.54), 0.523664751071975, rtol=1e-13)
        assert_allclose(classical_correlation(-0.54), 0.221988696453462, rtol=1e-13)
        assert_allclose(discord(-0.54), 0.301676054618512, rtol=1e-13)
        assert_allclose(discord(-0.63), 0.39904479622909, rtol=1e-13)
        assert_allclose(discord(-0.45), 0.216956576455751, rtol=1e-13)

    def test_ferro_ground_state(self):
        assert_allclose(mutual_information(G_MAX), 0.415037499278844, rtol=1e-13)
        assert_allclose(discord(G_MAX), 1 / 3, rtol=1e-14)

    def test_uncorrelated_point(self):
        assert mutual_information(0.0) == 0.0
        assert classical_correlation(0.0) == 0.0
        assert discord(0.0) == 0.0

    def test_against_high_precision_grid(self):
        for g in G_GRID[:: 7]:
            g = float(g)
            assert_allclose(mutual_information(g), oracles.mutual_information(g), atol=1e-14)
            assert_allclose(classical_correlation(g), oracles.classical(g), atol=1e-14)

    def test_the_measure_oracles_keep_their_value_at_twice_their_digits(self, monkeypatch):
        # the oracles themselves, not the package: near zero their terms cancel to order
        # G**2 (c**2 for EoF), so 50 fixed digits gave 4.8e-52 for a discord of 1.4e-92
        xs = np.geomspace(1e-300, 0.3, 61).tolist()
        signed = [sign * x for sign in (-1.0, 1.0) for x in xs]
        measures = [(oracles.mutual_information, signed), (oracles.classical, signed),
                    (oracles.discord, signed), (oracles.eof, xs)]
        values = [list(map(f, points)) for f, points in measures]
        digits = oracles.digits
        monkeypatch.setattr(oracles, "digits", lambda x: 2 * digits(x))
        assert [list(map(f, points)) for f, points in measures] == values
        assert min(map(min, values)) >= 0.0

    def test_additivity_identity(self):
        for g in G_GRID:
            g = float(g)
            assert abs(mutual_information(g) - classical_correlation(g) - discord(g)) < 1e-12

    def test_discord_exceeds_classical_off_origin(self):
        # the quantum part dominates strictly everywhere except the trivial
        # point and the singlet, where Q = C = 1 exactly
        for g in G_GRID:
            g = float(g)
            if g in (0.0, G_MIN):
                continue
            assert discord(g) > classical_correlation(g)

    def test_entropy_route_agrees(self):
        # I(G) against S(A) + S(B) - S(AB) of the actual density matrix
        for g in np.linspace(-0.999, G_MAX - 1e-3, 97):
            rho = oracles.density_matrix(float(g))
            assert_allclose(
                mutual_information(float(g)),
                oracles.mutual_information_from_state(rho),
                atol=1e-10,
            )


class TestConcurrence:
    def test_threshold(self):
        assert concurrence(-1 / 3, antiferro=True) == 0.0
        assert concurrence(-1 / 3 - 1e-9, antiferro=True) > 0.0
        assert concurrence(-1.0, antiferro=True) == 1.0

    def test_ferro_always_zero(self):
        for g in np.linspace(0.0, G_MAX, 20):
            assert concurrence(float(g), antiferro=False) == 0.0

    def test_branch_mismatch_rejected(self):
        with pytest.raises(DomainError):
            concurrence(0.2, antiferro=True)
        with pytest.raises(DomainError):
            concurrence(-0.2, antiferro=False)

    def test_matches_oracle(self):
        for g in np.linspace(G_MIN, 0.0, 101):
            assert_allclose(
                concurrence(float(g), antiferro=True), oracles.concurrence(float(g)), atol=1e-14
            )


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert_allclose(entanglement_of_formation(1.0), 1.0, rtol=1e-14)

    def test_frozen_midpoint(self):
        assert_allclose(entanglement_of_formation(0.5), 0.35457890266526988, rtol=1e-13)

    def test_monotone_in_concurrence(self):
        grid = np.linspace(0, 1, 200)
        vals = [entanglement_of_formation(float(c)) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", [0.0, 1e-9, 1e-12])
    def test_separable_limit_is_positive_zero(self, c):
        # the entropy rounds to zero below c ~ 1e-8; no -0 may reach the output
        for e in (entanglement_of_formation(c), entanglement_of_formation(np.array([c]))[0]):
            assert e == 0.0 and math.copysign(1.0, e) == 1.0

    def test_fuzz_clamped_and_rejected(self):
        assert entanglement_of_formation(-1e-12) == 0.0
        assert_allclose(entanglement_of_formation(1.0 + 1e-12), 1.0, rtol=1e-12)
        with pytest.raises(DomainError):
            entanglement_of_formation(1.1)


class TestDeathTemperature:
    def test_scale_constant(self):
        assert_allclose(DEATH_TEMPERATURE_SCALE, 1.8204784532536748, rtol=1e-14)

    def test_kelvin_values(self):
        assert_allclose(entanglement_death_temperature(DimerParameters(-204.0)), 371.377604464, rtol=1e-10)
        assert_allclose(entanglement_death_temperature(DimerParameters(-216.0)), 393.223345903, rtol=1e-10)

    def test_is_where_entanglement_dies(self):
        t_e = entanglement_death_temperature(AFM)
        assert correlation_set(AFM, t_e * (1 - 1e-6)).entanglement > 0.0
        assert correlation_set(AFM, t_e * (1 + 1e-6)).entanglement == 0.0

    def test_ferro_rejected(self):
        with pytest.raises(DomainError):
            entanglement_death_temperature(FM)


@pytest.mark.parametrize(
    "frozen, exact",
    [
        (QE_CROSSING_G, lambda: oracles.entanglement_crossing("discord")),
        (CE_CROSSING_G, lambda: oracles.entanglement_crossing("classical")),
        (thermo.CHI_PEAK_W, lambda: oracles.mp.lambertw(3 / oracles.mp.e)),
        (DEATH_TEMPERATURE_SCALE, lambda: 2 / oracles.mp.log(3)),
        (
            thermo.CHI_PEAK_TEMPERATURE_SCALE,
            lambda: 2 / (1 + oracles.mp.lambertw(3 / oracles.mp.e)),
        ),
        # each landmark scale k_B T/|J|, held as an exact decimal ratio
        (dimer_core._DEATH_TEMPERATURE, lambda: 2 / oracles.mp.log(3)),
        (
            thermo._CHI_PEAK_TEMPERATURE,
            lambda: 2 / (1 + oracles.mp.lambertw(3 / oracles.mp.e)),
        ),
        (dimer_core._QE_CROSSING_TEMPERATURE, lambda: oracles.crossing_temperature_scale("discord")),
        (
            dimer_core._CE_CROSSING_TEMPERATURE,
            lambda: oracles.crossing_temperature_scale("classical"),
        ),
        (
            thermo._SCHOTTKY[True].t_peak,
            lambda: oracles.schottky_peak_temperature_scale(True),
        ),
        (thermo._SCHOTTKY[False].t_peak, lambda: oracles.schottky_peak_temperature_scale(False)),
    ],
    ids=[
        "QE_CROSSING_G", "CE_CROSSING_G", "CHI_PEAK_W", "DEATH_TEMPERATURE_SCALE",
        "CHI_PEAK_TEMPERATURE_SCALE", "DEATH_TEMPERATURE", "CHI_PEAK_TEMPERATURE",
        "QE_CROSSING_SCALE", "CE_CROSSING_SCALE", "CM_PEAK_T_ANTIFERRO", "CM_PEAK_T_FERRO",
    ],
)
def test_frozen_landmark_constant_is_correctly_rounded(frozen, exact):
    x = exact()  # 50 digits
    if isinstance(frozen, tuple):  # a scale: 40 decimal places, correctly rounded at |J| = 1
        assert abs(oracles.mp.mpf(frozen[0]) / frozen[1] - x) <= 1e-40 * x
        frozen = dimer_core._scaled_abs(frozen, 1.0)
    assert frozen == float(x)
    assert abs(oracles.mp.mpf(frozen) - x) <= math.ulp(frozen) / 2


@settings(max_examples=300, deadline=None)
@given(j=st.floats(-5.0, 5.0).map(lambda decades: 10.0**decades))
@example(j=2.59)
@example(j=2.56)
@example(j=204.0)
@example(j=216.0)
@example(j=1e-320)
@example(j=9e307)
def test_landmark_temperatures_are_correctly_rounded(j):
    t_death = entanglement_death_temperature(DimerParameters(-j))
    t_chi = thermo.susceptibility_maximum(DimerParameters(-j, 2.0))[0]
    assert t_death == float(2 * oracles.mp.mpf(j) / oracles.mp.log(3))
    assert t_chi == float(2 * oracles.mp.mpf(j) / (1 + oracles.mp.lambertw(3 / oracles.mp.e)))
    # the crossings, as landmarks forms them, and the Schottky peak on both branches
    for scale, measure in (
        (dimer_core._QE_CROSSING_TEMPERATURE, "discord"),
        (dimer_core._CE_CROSSING_TEMPERATURE, "classical"),
    ):
        exact = oracles.mp.mpf(j) * oracles.crossing_temperature_scale(measure)
        assert dimer_core._scaled_abs(scale, -j) == float(exact)
    for antiferro in (True, False):
        t_peak = thermo.schottky_maximum(DimerParameters(-j if antiferro else j))[0]
        exact = oracles.mp.mpf(j) * oracles.schottky_peak_temperature_scale(antiferro)
        assert t_peak == float(exact)


def test_landmark_temperature_past_the_largest_double():
    with pytest.raises(DomainError, match="death temperature overflows a double"):
        entanglement_death_temperature(DimerParameters(-1e308))
    assert thermo.susceptibility_maximum(DimerParameters(-1.5e308, 2.0))[0] == math.inf


class TestDensityMatrix:
    # the oracle state that the entropy and partial-transpose checks build on
    def test_state_properties(self):
        for g in np.linspace(G_MIN, G_MAX, 41):
            rho = oracles.density_matrix(float(g))
            assert_allclose(np.trace(rho), 1.0, rtol=1e-14)
            assert_allclose(rho, rho.T, atol=1e-15)
            w = np.linalg.eigvalsh(rho)
            assert w.min() > -1e-14

    def test_spectrum(self):
        g = -0.54
        w = np.sort(np.linalg.eigvalsh(oracles.density_matrix(g)))
        expected = np.sort([(1 - 3 * g) / 4, (1 + g) / 4, (1 + g) / 4, (1 + g) / 4])
        assert_allclose(w, expected, atol=1e-14)

    def test_reduced_states_maximally_mixed(self):
        ra, rb = oracles.reduced_states(oracles.density_matrix(-0.7))
        assert_allclose(ra, np.eye(2) / 2, atol=1e-15)
        assert_allclose(rb, np.eye(2) / 2, atol=1e-15)


class TestPPT:
    def test_matches_numeric_partial_transpose(self):
        for g in G_GRID[::17]:
            g = float(g)
            rho_pt = oracles.partial_transpose(oracles.density_matrix(g))
            numeric = np.sort(np.linalg.eigvalsh(rho_pt))
            assert_allclose(ppt_eigenvalues(g), numeric, atol=1e-14)

    def test_negativity_iff_entangled(self):
        for g in G_GRID:
            g = float(g)
            negative = ppt_eigenvalues(g)[0] < 0.0
            entangled = (
                concurrence(g, antiferro=True) > 0.0 if g <= 0 else False
            )
            assert negative == entangled


class TestBundles:
    def test_bundle_consistent_with_scalars(self):
        m = measures_from_correlator(-0.54)
        assert isinstance(m, CorrelationSet)
        assert m.mutual_information == mutual_information(-0.54)
        assert m.classical == classical_correlation(-0.54)
        assert m.discord == discord(-0.54)
        assert m.concurrence == concurrence(-0.54, antiferro=True)
        assert m.entanglement == entanglement_of_formation(m.concurrence)

    @pytest.mark.parametrize("g", [-0.54, np.array([-0.54, -1e-300, 0.0, 1.0 / 3.0])])
    def test_the_term_at_one_plus_g_is_taken_once(self, g, monkeypatch):
        # I and C share x log2 x at 1 + G: Q takes three terms, the bundle five (two for E)
        terms = []
        xlog2 = dimer_core._xlog2
        monkeypatch.setattr(dimer_core, "_xlog2", lambda x: terms.append(x) or xlog2(x))
        discord(g)
        assert len(terms) == 3
        terms.clear()
        measures_from_correlator(g)
        assert len(terms) == 5

    def test_correlation_set_composes(self):
        m = correlation_set(AFM, 0.5880)
        # frozen: Q and E just below the point where they cross
        assert_allclose(m.discord, 0.746292201818687, rtol=1e-12)
        assert_allclose(m.entanglement, 0.746308755697027, rtol=1e-12)

    def test_ferro_sweep_never_entangled(self):
        for t in np.geomspace(0.01, 100, 200):
            m = correlation_set(FM, float(t))
            assert m.concurrence == 0.0
            assert m.entanglement == 0.0


# ---------------------------------------------------------------------------
# columns: every kernel takes an array and equals its float form bit for bit


def assert_same_bits(column, floats):
    """``column`` holds exactly ``floats``, signs of zero included."""
    column = np.asarray(column)
    assert column.dtype == np.float64
    assert column.view(np.uint64).tolist() == np.array(floats, dtype=float).view(np.uint64).tolist()


# T/|J| from 1e-4, where exp() would overflow and G takes its T = 0 limit
# (|2J/T| > 700 below T/|J| = 1/350), to 1e6
REDUCED_T = st.floats(-4.0, 6.0).map(lambda e: 10.0**e)
COUPLINGS = st.sampled_from([-216.0, -204.0, -2.56, -1.0, 1.0, 35.4])
# the physical range, its endpoints and -1/3, and the 1e-9 fuzz clamped onto the ends
CORRELATORS = st.one_of(
    st.floats(G_MIN, G_MAX),
    st.sampled_from([G_MIN, G_MAX, -1.0 / 3.0, 0.0, -0.0, G_MIN - 1e-9, G_MAX + 1e-9]),
    st.floats(G_MIN - 1e-9, G_MIN),
    st.floats(G_MAX, G_MAX + 1e-9),
)
COLUMNS = dict(min_size=1, max_size=40)


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(j=COUPLINGS, tau=st.lists(REDUCED_T, **COLUMNS))
    @example(j=35.4, tau=[1e-4, 1.0 / 350.0, 2.0 / 700.0, 3e-3, 1e-2, 1e6])
    @example(j=-1.0, tau=[1e-4, 2.0 / 700.0, 2.0 / 700.000001, 1.0])
    def test_correlator_of_temperature(self, j, tau):
        params = DimerParameters(j)
        t = np.array(tau) * abs(j)
        column = correlator_from_temperature(params, t)
        assert_same_bits(column, [correlator_from_temperature(params, x) for x in t.tolist()])
        m = correlation_set(params, t)
        for name in ("mutual_information", "classical", "discord", "concurrence", "entanglement"):
            expected = [getattr(correlation_set(params, x), name) for x in t.tolist()]
            assert_same_bits(getattr(m, name), expected)

    @settings(max_examples=200, deadline=None)
    @given(j=COUPLINGS, g_factor=st.floats(1.5, 2.5), tau=st.lists(REDUCED_T, **COLUMNS))
    @example(j=-1.0, g_factor=2.11, tau=[1e-4, 2.0 / 700.0, 2.0 / 700.000001, 1.0])
    # cells either side of a = 700, and ferro cells where a < -700 caps e at e^-700
    @example(j=-204.0, g_factor=2.13, tau=[2.0 / 699.999999, 2.0 / 700.000001, 1e-4])
    @example(j=35.4, g_factor=2.13, tau=[1e-4, 2.0 / 700.000001, 2.0 / 699.999999, 1.0])
    def test_bleaney_bowers(self, j, g_factor, tau):
        # one formula for floats and arrays: t or j an array, or both
        t = np.array(tau) * abs(j)
        floats = [bleaney_bowers(j, g_factor, x) for x in t.tolist()]
        assert_same_bits(bleaney_bowers(j, g_factor, t), floats)
        assert_same_bits(bleaney_bowers(np.full(t.shape, j), g_factor, t), floats)
        for x, expected in zip(t.tolist(), floats):
            assert_same_bits(bleaney_bowers(np.array([j, j]), g_factor, x), [expected] * 2)
        params = DimerParameters(j, g_factor)
        assert_same_bits([thermo.susceptibility(params, x) for x in t.tolist()], floats)

    @pytest.mark.parametrize("j", [-1.0, -204.0, 35.4])
    @pytest.mark.parametrize("tau", [1e-4, 2.0 / 700.000001, 2.0 / 699.999999, 1.0])
    def test_bleaney_bowers_of_a_0d_temperature(self, j, tau):
        # a 0-d t takes the array path: the kernel gives a numpy scalar where
        # warm and a 0-d array where a > 700 takes the cold form, and the
        # curve a numpy scalar, each of the float's bits
        t = tau * abs(j)
        k, _ = dimer_core._unit_susceptibility(j, np.array(t))
        assert type(k) is (np.ndarray if -2.0 * j / t > 700.0 else np.float64)
        got = bleaney_bowers(j, 2.11, np.array(t))
        assert type(got) is np.float64
        assert_same_bits([got], [bleaney_bowers(j, 2.11, t)])

    def test_bleaney_bowers_past_the_largest_double_is_zero_unwarned(self):
        # T (3 + e) overflows at T = 1e308, where K is 0: numpy, like a float, says nothing
        t = [1.0, 3.0, 1e308]
        floats = [*map(float.fromhex, ("0x1.a0660abf188a6p-5", "0x1.4c9ed8fa1e5f6p-6")), 0.0]
        assert_same_bits([bleaney_bowers(-0.38, 0.59, x) for x in t], floats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = bleaney_bowers(-0.38, 0.59, np.array(t))
            scalars = [bleaney_bowers(-0.38, 0.59, np.float64(x)) for x in t]
            swept = bleaney_bowers(np.array([-0.38, 0.59]), 0.59, 1e308)
        assert_same_bits(column, floats)
        assert_same_bits(scalars, floats)
        assert [type(x) for x in scalars] == [float] * 3  # a numpy scalar computes as a float
        assert_same_bits(swept, [0.0, 0.0])

    @pytest.mark.parametrize(
        "j, t", [(-2.0, 0.0), (1e300, -5e-324), (-2.0, -1.0), (-2.0, math.nan), (-2.0, math.inf)]
    )
    def test_bleaney_bowers_reads_t_by_the_temperature_rule(self, j, t):
        # it raised ZeroDivisionError or ValueError, or answered a negative chi; an array
        # gave numpy warnings first.  A float, an array whose bad element is not its first
        # and a 0-d array each raise correlator_from_temperature's error.
        for x in (t, np.array([1.0, t, 0.0]), np.array(t)):
            with pytest.raises(DomainError) as info:
                bleaney_bowers(j, 2.1, x)
            assert str(info.value) == f"temperature must be positive, got {t!r}"

    def test_bleaney_bowers_of_a_nan_coupling_is_nan(self):
        assert math.isnan(bleaney_bowers(math.nan, 2.11, 3.0))
        assert np.isnan(bleaney_bowers(np.array([math.nan, -1.0]), 2.11, 3.0)).tolist() == [
            True, False,
        ]

    @settings(max_examples=200, deadline=None)
    @given(g=st.lists(CORRELATORS, **COLUMNS))
    def test_measures_of_correlator(self, g):
        column = np.array(g)
        for f in (validate_correlator, mutual_information, classical_correlation, discord):
            assert_same_bits(f(column), [f(x) for x in g])
        m = measures_from_correlator(column)
        for name in ("mutual_information", "classical", "discord", "concurrence", "entanglement"):
            assert_same_bits(getattr(m, name), [getattr(measures_from_correlator(x), name) for x in g])
        for antiferro, branch in ((True, column[column <= 0.0]), (False, column[column >= 0.0])):
            expected = [concurrence(x, antiferro) for x in branch.tolist()]
            assert_same_bits(concurrence(branch, antiferro), expected)

    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(-1e-9, 1.0 + 1e-9)), **COLUMNS))
    @example(c=[0.0, -0.0, 1e-9, 1e-300, 1.0, 1.0 + 1e-9, -1e-9])
    def test_entanglement_of_formation(self, c):
        expected = [entanglement_of_formation(x) for x in c]
        assert_same_bits(entanglement_of_formation(np.array(c)), expected)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 700.0, -700.0, 700.5, -700.5])
    def test_boltzmann_caps_the_exponent_alike_for_a_float_and_an_array(self, a):
        # a = -2J/T for J = -a/2 at T = 1; a NaN goes to the lower bound on both paths
        j = -0.5 * a
        a_float, e_float = dimer_core._boltzmann(j, 1.0)
        a_array, e_array = dimer_core._boltzmann(j, np.array([1.0]))
        assert_same_bits(e_array, [e_float])
        assert_same_bits(a_array, [a_float])
        capped = -700.0 if math.isnan(a) else min(700.0, max(-700.0, a))
        assert e_float == math.exp(capped)

    @settings(max_examples=200, deadline=None)
    @given(g=st.lists(CORRELATORS, **COLUMNS))
    @example(g=[G_MIN, G_MAX, -1.0 / 3.0, 1.0 / 3.0, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])
    def test_classical_is_the_abs_form_bit_for_bit(self, g):
        # C is even in G: 1 - (-g) is 1 + g exactly, so the form without abs swaps two terms
        def abs_form(x):
            a = abs(x)
            return 0.5 * (dimer_core._xlog2(1.0 + a) + dimer_core._xlog2(1.0 - a))

        g = validate_correlator(np.array(g))
        assert_same_bits(classical_correlation(g), abs_form(g))
        assert_same_bits([classical_correlation(x) for x in g.tolist()],
                         [abs_form(x) for x in g.tolist()])

    def test_any_shape(self):
        g = np.linspace(G_MIN, G_MAX, 12).reshape(3, 4)
        q = discord(g)
        assert q.shape == (3, 4)
        assert_same_bits(q.ravel(), [discord(x) for x in g.ravel().tolist()])

    def test_bad_element_raises_as_the_float_does(self):
        cases = [
            (validate_correlator, [-0.5, 0.34, math.nan], 0.34),
            (validate_correlator, [-0.5, math.nan], math.nan),
            (lambda t: correlator_from_temperature(AFM, t), [1.0, -2.0, 0.0], -2.0),
            (lambda t: correlator_from_temperature(AFM, t), [1.0, math.inf], math.inf),
            (entanglement_of_formation, [0.5, 1.1], 1.1),
            (lambda g: concurrence(g, True), [-0.5, 0.2, 0.3], 0.2),
            (lambda g: concurrence(g, False), [0.2, -0.5], -0.5),
        ]
        for f, column, bad in cases:
            with pytest.raises(DomainError) as expected:
                f(bad)
            with pytest.raises(DomainError) as got:
                f(np.array(column))
            assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# dispatch: numpy scalars are floats, arrays of any shape take the array path


COLUMN_FORMS = [
    (validate_correlator, -0.5),
    (mutual_information, -0.5),
    (classical_correlation, -0.5),
    (discord, 0.2),
    (lambda g: concurrence(g, True), -0.5),
    (entanglement_of_formation, 0.5),
    (lambda t: correlator_from_temperature(AFM, t), 2.0),
]
# and one function that takes floats only
DISPATCHED = [*COLUMN_FORMS, (lambda g: temperature_from_correlator(FM, g), 0.2)]
# the name each one's error gives its input
INPUT_NAME = dict(
    zip(DISPATCHED, [*["correlator"] * 5, "concurrence", "temperature", "correlator"])
)
# each array input of the closed forms, and the kind of cell it takes
ARRAY_INPUTS = {
    "validate_correlator": (validate_correlator, "correlator"),
    "mutual_information": (mutual_information, "correlator"),
    "classical_correlation": (classical_correlation, "correlator"),
    "discord": (discord, "correlator"),
    "concurrence": (lambda g: concurrence(g, True), "correlator"),
    "entanglement_of_formation": (entanglement_of_formation, "c"),
    "correlator_from_temperature": (lambda t: correlator_from_temperature(AFM, t), "t"),
    "bleaney_bowers-j": (lambda j: bleaney_bowers(j, 2.1, 4.0), "j"),
    "bleaney_bowers-g": (lambda g: bleaney_bowers(-2.0, g, 4.0), "g"),
    "bleaney_bowers-t": (lambda t: bleaney_bowers(-2.0, 2.1, t), "t"),
}
# valid cells of each kind as numpy holds them: bools, int64s, uint8s and Fraction objects
EXACT_CELLS = {
    "correlator": ([False, False], [-1, 0], [0, 0], [Fraction(-1, 2), Fraction(-1, 3)]),
    "c": ([False, True], [0, 1], [1, 0], [Fraction(1, 2), Fraction(1, 3)]),
    "t": ([True, True], [1, 7], [2, 255], [Fraction(1, 2), Fraction(7, 3)]),
    "j": ([True, False], [-2, 3], [0, 200], [Fraction(-5, 2), Fraction(1, 3)]),
    "g": ([True, True], [2, 3], [2, 1], [Fraction(21, 10), 2]),
}


class TestDispatch:
    @pytest.mark.parametrize("f, x", DISPATCHED)
    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_numpy_scalar_takes_the_float_path(self, f, x, scalar):
        got = f(scalar(x))
        assert type(got) is float
        assert got == f(float(scalar(x)))

    @pytest.mark.parametrize("f, x", COLUMN_FORMS)
    def test_arrays_of_any_shape_take_the_array_path(self, f, x):
        zero_d = f(np.asarray(x))
        # numpy arithmetic on a 0-d array gives a numpy scalar, not a Python float
        assert type(zero_d) is np.float64
        assert_same_bits([zero_d], [f(x)])
        column = np.full((2, 3), x)
        got = f(column)
        assert type(got) is np.ndarray and got.shape == (2, 3)
        assert_same_bits(got.ravel(), [f(x)] * 6)

    @pytest.mark.parametrize("f, x", DISPATCHED)
    def test_a_list_is_refused(self, f, x):
        # a list is not a real number: the one DomainError of every scalar input
        with pytest.raises(DomainError) as info:
            f([x, x])
        assert str(info.value) == f"{INPUT_NAME[f, x]} must be a real number, got {[x, x]!r}"

    @pytest.mark.parametrize("dtype", [None, object], ids=["own-dtype", "object"])
    @pytest.mark.parametrize("bad", ["string", "complex", "big-int"])
    @pytest.mark.parametrize("entry", ARRAY_INPUTS)
    def test_an_array_cell_that_is_not_a_real_number_raises_as_the_scalar_does(
        self, entry, bad, dtype
    ):
        # a string cell was read as its number, a complex one by its real part with only a
        # ComplexWarning, and an int past the largest double or a string coupling let a bare
        # OverflowError or UFuncTypeError out
        f, kind = ARRAY_INPUTS[entry]
        x = float(EXACT_CELLS[kind][3][0])
        cell = {"string": str(x), "complex": complex(x, 1.0), "big-int": 10**400}[bad]
        column = np.array([x, cell], dtype=dtype)
        first = next(c for c in column.tolist() if type(c) is not float)  # the cell it reads first
        with pytest.raises(DomainError) as expected:
            f(first)
        with pytest.raises(DomainError) as got:
            f(column)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))

    @pytest.mark.parametrize("entry", ARRAY_INPUTS)
    def test_bool_int_fraction_and_float32_arrays_compute_as_their_floats(self, entry):
        # a float32 coupling or g factor of bleaney_bowers was computed in single precision,
        # and a Fraction g factor gave an object array
        f, kind = ARRAY_INPUTS[entry]
        fractions = EXACT_CELLS[kind][3]
        for dtype, cells in zip(
            [bool, np.int64, np.uint8, object, np.float32], [*EXACT_CELLS[kind], fractions]
        ):
            column = np.array(cells, dtype=dtype)
            floats = np.array([float(c) for c in column.tolist()])
            assert_same_bits(f(column), f(floats))
            assert_same_bits([f(column[:1].reshape(()))], [f(floats[0])])

    def test_first_array_loads_numpy_in_a_fresh_process(self):
        script = (
            "import sys\n"
            "from dimer_discord import dimer_core\n"
            "q = dimer_core.discord(-0.5)\n"
            "assert 'numpy' not in sys.modules\n"
            "lam = dimer_core.ppt_eigenvalues(-0.5)\n"
            "assert 'numpy' in sys.modules and lam.shape == (4,)\n"
            "import numpy\n"
            "column = dimer_core.discord(numpy.array([-0.5, 0.2]))\n"
            "assert column[0] == q and column[1] == dimer_core.discord(0.2)\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=False
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
