import inspect
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, least_squares

import oracles
from test_golden_stdout import CHI8
from dimer_discord import thermo
from dimer_discord.dimer_core import CODATA, DimerParameters, bleaney_bowers, correlation_set
from dimer_discord.errors import (
    BracketError,
    ConvergenceError,
    DataError,
    DataWarning,
    DomainError,
    InconsistencyError,
    PropagationWarning,
)
from dimer_discord.numerics import (
    FitResult,
    TailModel,
    ValueWithUncertainty,
    find_crossing,
    find_root,
    fit_bleaney_bowers,
    integrate_series_with_tail,
    lambert_w,
    maximize_scalar,
    propagate_uncertainty,
)


class TestLambertW:
    def test_known_points(self):
        assert lambert_w(0.0) == 0.0
        assert_allclose(lambert_w(math.e), 1.0, rtol=1e-14)
        assert_allclose(lambert_w(-1.0 / math.e), -1.0, atol=1e-7)
        # frozen 50-digit value; this argument is the one the susceptibility
        # maximum runs through
        assert_allclose(lambert_w(3.0 / math.e), 0.60354573953583601, rtol=1e-13)

    def test_defining_equation_residual(self):
        # w e^w = x to 1e-12 relative across ten orders of magnitude
        xs = np.concatenate(
            [
                np.linspace(-1 / math.e + 1e-12, -1e-6, 250),
                np.geomspace(1e-6, 1e6, 750),
            ]
        )
        for x in xs:
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_monotone(self):
        xs = np.geomspace(1e-8, 1e8, 300)
        ws = [lambert_w(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_rounding_below_branch_point_is_the_branch_point(self):
        # within 1e-15 below -1/e the argument is clamped onto it, where W = -1
        assert lambert_w(math.nextafter(-1.0 / math.e, -math.inf)) == -1.0

    def test_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)
        with pytest.raises(DomainError):
            lambert_w(math.nan)


class TestFindRoot:
    def test_simple_root(self):
        r = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert_allclose(r, math.sqrt(2.0), rtol=1e-12)

    def test_endpoint_zero_returned(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-12},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_iter": 0},
            {"max_iter": -3},
        ],
    )
    def test_bad_tolerance_rejected(self, kwargs):
        with pytest.raises(DomainError):
            find_root(lambda x: x * x - 2.0, 0.0, 2.0, **kwargs)

    def test_nan_value_rejected(self):
        with pytest.raises(DomainError, match="NaN"):
            find_root(lambda x: math.nan if 0.0 < x < 2.0 else x - 1.0, 0.0, 2.0)

    def test_budget_exhausted(self):
        with pytest.raises(ConvergenceError):
            find_root(lambda x: x * x - 2.0, 0.0, 2.0, max_iter=1)

    def test_negative_zero_is_an_exact_zero(self):
        # at an endpoint, and at an iterate (the first secant step lands on 0.5)
        assert find_root(lambda x: -x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: -(x - 1.0), 0.0, 1.0) == 1.0
        assert find_root(lambda x: -(x - 0.5), 0.0, 1.0) == 0.5

    def test_each_endpoint_evaluated_once(self):
        seen = []

        def f(x):
            seen.append(x)
            return x * x - 2.0

        find_root(f, 0.0, 2.0)
        assert seen.count(0.0) == 1 and seen.count(2.0) == 1
        # brentq's own count includes the endpoints that find_root had
        # already evaluated once to check the bracket
        _, info = brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12, full_output=True)
        assert len(seen) == info.function_calls

    def test_an_inverse_quadratic_step_whose_denominator_underflows_bisects(self):
        # dblk * dpre * (fblk - fpre) underflowed to 0 and raised a bare ZeroDivisionError;
        # brentq divides by it too, gets inf or nan, and bisects
        def f(x):
            return (x**3 - 0.3) * 1e-310

        root = find_root(f, 0.0, 1.0)
        assert root == brentq(f, 0.0, 1.0, xtol=1e-12) == 0.6694329500821276

    def test_bit_identical_to_brentq(self):
        """Same roots as scipy's brentq, to the last bit, on a seeded family."""
        rng = np.random.default_rng(20110)
        cases = []
        # c_m/R on both Schottky flanks of both branches, from 1e-15 to the peak
        flanks = [
            (thermo.CM_PEAK_ANTIFERRO, (thermo.CM_PEAK_G_ANTIFERRO, 0.0)),
            (thermo.CM_PEAK_ANTIFERRO, (-1.0, thermo.CM_PEAK_G_ANTIFERRO)),
            (thermo.CM_PEAK_FERRO, (0.0, thermo.CM_PEAK_G_FERRO)),
            (thermo.CM_PEAK_FERRO, (thermo.CM_PEAK_G_FERRO, 1.0 / 3.0)),
        ]
        for peak, (lo, hi) in flanks:
            for c in peak * 10.0 ** -rng.uniform(0.0, 15.0, 60):
                cases.append(
                    (lambda g, c=c: thermo.specific_heat_from_correlator(g) - c, lo, hi, 1e-12)
                )
        # the discord/EoF and classical/EoF crossings that `landmarks` solves
        for j in (-2.56, -2.59, -204.0, -216.0, -rng.uniform(0.5, 500.0)):
            params = DimerParameters(j)
            for name, top in (("discord", 1.0), ("classical", 1.2)):
                def diff(t, name=name, params=params):
                    s = correlation_set(params, t)
                    return getattr(s, name) - s.entanglement

                cases.append((diff, 0.2 * abs(j), top * abs(j), 1e-12))
        # odd powers x**k - a on lopsided brackets, at assorted tolerances
        for _ in range(1000):
            a = rng.uniform(-5.0, 5.0)
            k = int(rng.choice([1, 3, 5]))
            tol = float(rng.choice([1e-15, 1e-12, 1e-8, 1e-3]))
            cases.append((lambda x, a=a, k=k: x**k - a, -7.0, rng.uniform(5.5, 9.0), tol))

        for f, lo, hi, tol in cases:
            expected = brentq(f, lo, hi, xtol=tol, maxiter=100)
            assert find_root(f, lo, hi, tol=tol, max_iter=100) == expected, (lo, hi, tol)


class TestFindCrossing:
    def test_lines(self):
        x, y = find_crossing(lambda t: 2 * t, lambda t: t + 1.0, 0.0, 5.0)
        assert_allclose(x, 1.0, atol=1e-12)
        assert_allclose(y, 2.0, atol=1e-12)

    def test_coincident_curves_rejected(self):
        f = lambda t: t * t
        with pytest.raises(BracketError):
            find_crossing(f, f, 0.0, 1.0)

    def test_non_crossing_rejected(self):
        with pytest.raises(BracketError):
            find_crossing(lambda t: t + 2.0, lambda t: t, 0.0, 1.0)

    def test_endpoints_evaluated_once(self):
        # the copper-acetate Q/E crossing that `landmarks` reports: the root
        # finder is served the endpoint differences already computed
        params = DimerParameters(-204.0)
        calls = []

        def q(t):
            calls.append(t)
            return correlation_set(params, t).discord

        def e(t):
            return correlation_set(params, t).entanglement

        lo, hi = 0.2 * 204.0, 204.0
        x, y = find_crossing(q, e, lo, hi)
        # 13 differences and the value at the root; 16 when find_root
        # evaluated both endpoints again
        assert len(calls) == 14
        assert len(set(calls)) == 13
        assert x == find_root(lambda t: q(t) - e(t), lo, hi)
        assert y == q(x)


class TestMaximize:
    def test_parabola(self):
        x, v = maximize_scalar(lambda t: -(t - 0.37) ** 2 + 5.0, 0.0, 1.0)
        assert_allclose(x, 0.37, atol=1e-8)
        assert_allclose(v, 5.0, atol=1e-14)

    def test_sine(self):
        x, v = maximize_scalar(math.sin, 0.0, math.pi)
        assert_allclose(x, math.pi / 2, atol=1e-8)
        assert_allclose(v, 1.0, rtol=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            maximize_scalar(math.sin, 1.0, 1.0)

    def test_a_bracket_of_two_adjacent_doubles_does_not_shrink(self):
        # both golden points round onto the ends of a one-ulp bracket, and with the
        # maximum at its top end the search steps back and forth between them
        with pytest.raises(ConvergenceError):
            maximize_scalar(lambda x: x, 1e10, math.nextafter(1e10, math.inf))


@pytest.mark.parametrize(
    "solver, parameters",
    [
        (lambert_w, ["x"]),
        (find_crossing, ["f", "g", "lo", "hi"]),
        (maximize_scalar, ["f", "lo", "hi"]),
    ],
    ids=["lambert_w", "find_crossing", "maximize_scalar"],
)
def test_solvers_take_no_tolerance_options(solver, parameters):
    assert list(inspect.signature(solver).parameters) == parameters


class TestIntegrate:
    def test_linear_through_origin_is_exact(self):
        # ramp + trapezoid are both exact for f = c t, so the whole
        # (0, t_n] integral comes out closed-form
        t = np.linspace(0.5, 4.0, 8)
        v = 3.0 * t
        assert_allclose(integrate_series_with_tail(t, v), 3.0 * 4.0**2 / 2.0, rtol=1e-14)

    def test_tail_contribution(self):
        t = np.array([1.0, 2.0])
        v = np.array([0.0, 0.0])
        total = integrate_series_with_tail(t, v, TailModel(6.6, 4.0))
        assert_allclose(total, 6.6 / 4.0, rtol=1e-14)

    def test_tail_only(self):
        assert_allclose(
            integrate_series_with_tail([], [], TailModel(0.75, 50.0)), 0.015, rtol=1e-14
        )

    def test_second_order_convergence(self):
        # halving h must cut the trapezoid error by ~4; the ramp below the
        # first sample is held fixed so only the panel error varies
        f = lambda x: math.sin(x) + 2.0
        a, b = 1.0, 3.0
        exact = (math.cos(a) - math.cos(b)) + 2.0 * (b - a)
        ref = 0.5 * a * f(a) + exact

        def err(n):
            t = np.linspace(a, b, n + 1)
            v = np.array([f(x) for x in t])
            return abs(integrate_series_with_tail(t, v) - ref)

        ratio = err(200) / err(400)
        assert 3.9 < ratio < 4.1

    def test_negative_values_clamped_with_warning(self):
        t = np.array([1.0, 2.0, 3.0])
        v = np.array([1.0, -0.001, 1.0])
        with pytest.warns(DataWarning):
            total = integrate_series_with_tail(t, v)
        clean = integrate_series_with_tail(t, np.array([1.0, 0.0, 1.0]))
        assert total == clean

    def test_rejects_disorder(self):
        with pytest.raises(DataError):
            integrate_series_with_tail([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(DataError):
            integrate_series_with_tail([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DataError):
            integrate_series_with_tail([1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "t, v, message",
        [
            ([1.0, 2.0], [1.0], "temperatures and values must be 1-d arrays of equal length"),
            ([1.0, 2.0], [1.0, math.nan], "series contains non-finite entries"),
        ],
        ids=["shape-mismatch", "non-finite"],
    )
    def test_bad_series_rejected(self, t, v, message):
        with pytest.raises(DataError, match=message):
            integrate_series_with_tail(t, v)

    def test_tail_must_start_past_data(self):
        with pytest.raises(DataError):
            integrate_series_with_tail([1.0, 5.0], [1.0, 1.0], TailModel(1.0, 4.0))

    def test_tail_model_validation(self):
        with pytest.raises(DomainError):
            TailModel(-1.0, 4.0)
        with pytest.raises(DomainError):
            TailModel(1.0, 0.0)


class TestPropagate:
    @pytest.mark.parametrize("x", [-0.4, (-0.4, 0.01)])
    def test_a_plain_number_or_tuple_is_refused_by_name(self, x):
        text = f"propagate_uncertainty takes a ValueWithUncertainty, got {x!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            propagate_uncertainty(math.sqrt, x)

    def test_linear_is_exact(self):
        out = propagate_uncertainty(lambda x: 3.0 * x - 1.0, ValueWithUncertainty(2.0, 0.5))
        assert_allclose(out.value, 5.0, rtol=1e-14)
        assert_allclose(out.sigma, 1.5, rtol=1e-14)

    def test_constant(self):
        out = propagate_uncertainty(lambda x: 7.0, ValueWithUncertainty(1.0, 2.0))
        assert out.sigma == 0.0

    def test_zero_sigma_short_circuit(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x

        out = propagate_uncertainty(f, ValueWithUncertainty(3.0, 0.0))
        assert out.sigma == 0.0
        assert calls == [3.0]

    def test_one_sided_fallback_warns(self):
        # sqrt's domain edge sits inside the error bar
        with pytest.warns(PropagationWarning):
            out = propagate_uncertainty(math.sqrt, ValueWithUncertainty(0.04, 0.1))
        assert_allclose(out.value, 0.2, rtol=1e-14)
        # one-sided: |f(x+s) - f(x)|
        assert_allclose(out.sigma, math.sqrt(0.14) - 0.2, rtol=1e-12)

    def test_both_sides_failing_rejected(self):
        def only_center(x):
            if x != 1.0:
                raise ValueError("nope")
            return x

        with pytest.raises(DomainError):
            propagate_uncertainty(only_center, ValueWithUncertainty(1.0, 0.5))

    def test_value_validation(self):
        with pytest.raises(DomainError):
            ValueWithUncertainty(math.nan, 0.0)
        with pytest.raises(DomainError):
            ValueWithUncertainty(1.0, -0.1)

    def test_records_are_validated_tuples(self):
        x = ValueWithUncertainty(-0.54, 0.09)
        assert x == (-0.54, 0.09) and ValueWithUncertainty(2.0) == (2.0, 0.0)
        assert ValueWithUncertainty(sigma=0.5, value=1.0) == (1.0, 0.5)
        with pytest.raises(AttributeError):
            x.sigma = 0.0
        with pytest.raises(DomainError, match="sigma must be finite and >= 0"):
            x._replace(sigma=-1.0)
        with pytest.raises(DomainError, match="tail start must be positive"):
            TailModel(6.6, 4.0)._replace(t_start=0.0)

    def test_records_store_numbers_as_floats(self):
        # any real number is a float here, numpy scalars included
        f32 = np.float32
        for record, expected in (
            (ValueWithUncertainty(f32(-0.54), f32(0.09)), (float(f32(-0.54)), float(f32(0.09)))),
            (ValueWithUncertainty(np.int64(2)), (2.0, 0.0)),
            (TailModel(f32(6.6), np.int64(4)), (float(f32(6.6)), 4.0)),
            (TailModel(1, 4), (1.0, 4.0)),
        ):
            assert [type(x) for x in record] == [float, float] and record == expected

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: ValueWithUncertainty("-0.54"), "value"),
            (lambda: ValueWithUncertainty(-0.54, "0.09"), "sigma"),
            (lambda: ValueWithUncertainty(None), "value"),
            (lambda: TailModel("6.6", 4.0), "tail coefficient"),
            (lambda: TailModel(6.6, 4j), "tail start"),
        ],
    )
    def test_records_reject_a_field_that_is_not_a_number(self, make, name):
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
            make()


class TestFit:
    def _chi(self, params, t):
        from dimer_discord.thermo import susceptibility

        return np.array([susceptibility(params, float(x)) for x in t])

    def test_noiseless_round_trip(self):
        truth = DimerParameters(-204.0, 2.13)
        t = np.linspace(90.0, 400.0, 40)
        chi = self._chi(truth, t)
        res = fit_bleaney_bowers(t, chi, DimerParameters(-150.0, 2.0))
        assert isinstance(res, FitResult)
        assert res.converged
        assert_allclose(res.parameters.j_over_kb, -204.0, rtol=1e-6)
        assert_allclose(res.parameters.g_factor, 2.13, rtol=1e-6)
        assert res.residual_norm < 1e-10
        # flat aliases mirror the wrapped parameters
        assert res.j_over_kb == res.parameters.j_over_kb
        assert res.g_factor == res.parameters.g_factor
        assert res.evaluations > 0

    def test_ferro_round_trip(self):
        truth = DimerParameters(35.4, 2.13)
        t = np.linspace(50.0, 350.0, 30)
        chi = self._chi(truth, t)
        res = fit_bleaney_bowers(t, chi, DimerParameters(20.0, 2.0))
        assert res.converged
        assert_allclose(res.parameters.j_over_kb, 35.4, rtol=1e-6)
        assert_allclose(res.parameters.g_factor, 2.13, rtol=1e-6)

    def test_weights_pull_toward_tight_points(self):
        truth = DimerParameters(-100.0, 2.1)
        t = np.linspace(60.0, 300.0, 25)
        chi = self._chi(truth, t)
        chi_off = chi.copy()
        chi_off[0] *= 1.5  # one wild point
        sigma = np.full_like(t, 1e-4)
        sigma[0] = 1.0  # declared junk
        res = fit_bleaney_bowers(t, chi_off, DimerParameters(-80.0, 2.0), sigma=sigma)
        assert res.converged
        assert_allclose(res.parameters.j_over_kb, -100.0, rtol=1e-4)

    def test_powder_tensor_start(self):
        truth = DimerParameters(-50.0, 2.1416504538945347)
        t = np.linspace(30.0, 200.0, 20)
        chi = self._chi(truth, t)
        res = fit_bleaney_bowers(t, chi, DimerParameters(-40.0, (2.0, 2.0, 2.4)))
        assert_allclose(res.parameters.g_factor, 2.1416504538945347, rtol=1e-6)

    def test_golden_fixture_reaches_the_50_digit_optimum(self):
        # the copper-nitrate file of the golden fit cases; J, g and the
        # residual norm at the minimum of its weighted cost, found with
        # mpmath at 50 digits
        data = np.loadtxt(io.StringIO(CHI8), delimiter=",", skiprows=1)
        res = fit_bleaney_bowers(
            data[:, 0], data[:, 1], DimerParameters(-2.0, 2.0), sigma=data[:, 2]
        )
        assert res.converged
        assert_allclose(res.j_over_kb, -2.5588731653237643242, rtol=1e-12)
        assert_allclose(res.g_factor, 2.1096194595009593915, rtol=1e-12)
        assert_allclose(res.residual_norm, 1.0809472530720374609, rtol=1e-12)

    def test_cost_no_higher_than_scipy_least_squares(self):
        # the weighted cost of both answers at 50 digits: a sum of n squares
        # ranks two points only to n units of roundoff
        rng = np.random.default_rng(20261018)
        for _ in range(12):
            j = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 2.5)
            n = int(rng.integers(5, 40))
            t = np.sort(rng.uniform(0.2, 10.0, n) * abs(j))
            chi_true = bleaney_bowers(j, rng.uniform(1.9, 2.3), t)
            sigma = chi_true * 10.0 ** rng.uniform(-4.0, -2.0)
            chi = chi_true + rng.normal(size=n) * sigma
            init = DimerParameters(j * rng.uniform(0.7, 1.3), 2.0)
            res = fit_bleaney_bowers(t, chi, init, sigma=sigma)
            assert res.converged
            lsq = least_squares(
                lambda p: (bleaney_bowers(p[0], p[1], t) - chi) / sigma,
                [init.j_over_kb, 2.0], method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            data = (t, chi, sigma, CODATA.curie_prefactor)
            ours = oracles.fit_cost(res.j_over_kb, res.g_factor, *data)
            assert ours <= oracles.fit_cost(*lsq.x, *data) * (1 + n * 2.0**-53)

    def test_negative_susceptibility_is_inconsistent(self):
        t = np.linspace(2.0, 8.0, 12)
        chi = -bleaney_bowers(-10.0, 2.0, t)
        for j0 in (-5.0, 5.0):
            with pytest.raises(InconsistencyError, match=r"best g\^2 is -"):
                fit_bleaney_bowers(t, chi, DimerParameters(j0, 2.0))

    def test_no_minimum_on_the_guess_branch(self):
        # below its peak an antiferro curve rises with T, which no ferro
        # curve does: the walk ends at |J| = 350 T_min unconverged
        t = np.linspace(2.0, 8.0, 12)
        chi = bleaney_bowers(-10.0, 2.0, t)
        res = fit_bleaney_bowers(t, chi, DimerParameters(5.0, 2.0))
        assert not res.converged
        assert_allclose(res.j_over_kb, 350.0 * 2.0, rtol=1e-14)
        # a guess past that end starts there
        far = fit_bleaney_bowers(t, chi, DimerParameters(1e4, 2.0))
        assert far == FitResult(res.parameters, res.residual_norm, 1, False)
        # and a guess on the right branch, however far off, converges
        for j0 in (-1e4, -1e-9):
            res = fit_bleaney_bowers(t, chi, DimerParameters(j0, 2.0))
            assert res.converged
            assert_allclose(res.j_over_kb, -10.0, rtol=1e-12)
            assert_allclose(res.g_factor, 2.0, rtol=1e-12)

    def test_a_curve_whose_squares_underflow_fits_as_its_scaled_copy(self):
        # chi of 1e-160: wy @ wy underflowed, and the solver divided by 0; scaled by a power of
        # two the curve fits to the same J bit for bit, and g scales by its square root
        t = [1.0, 2.0, 3.0, 4.0]
        chi = np.array([1e-160, 2e-160, 1.5e-160, 1e-160])
        res = fit_bleaney_bowers(t, chi, DimerParameters(-1.0))
        assert res.converged
        assert_allclose(res.j_over_kb, -1.50859, rtol=1e-5)
        assert_allclose(res.g_factor, 5.88319e-80, rtol=1e-5)
        scaled = fit_bleaney_bowers(t, chi * 2.0**500, DimerParameters(-1.0))
        assert scaled.j_over_kb == res.j_over_kb and scaled.evaluations == res.evaluations
        assert scaled.g_factor == res.g_factor * 2.0**250
        assert scaled.residual_norm == res.residual_norm * 2.0**500
        # and as a curve of ordinary size, 1e150 times larger
        ordinary = fit_bleaney_bowers(t, chi * 1e150, DimerParameters(-1.0))
        assert_allclose(ordinary.j_over_kb, res.j_over_kb, rtol=1e-12)
        assert_allclose(ordinary.g_factor, res.g_factor * 1e75, rtol=1e-12)

    def test_a_curie_curve_at_the_largest_temperatures_ends_at_its_curie_edge(self):
        # chi = C/T at T ~ 1e306: wy @ wy underflowed, the slope read 0 at the guess, and the
        # fit said converged after one evaluation, with J the guess and g = 1.34142.  A Curie
        # law is the limit |J| -> 0 at g = sqrt(2), the lowest |J| searched, 1e-6 T_min
        t = np.array([1e306, 2e306, 4e306, 8e306])
        res = fit_bleaney_bowers(t, 0.3751481 / t, DimerParameters(3e305))
        assert not res.converged
        assert_allclose(res.j_over_kb, 1e-6 * 1e306, rtol=1e-12)
        assert_allclose(res.g_factor, math.sqrt(2.0), rtol=1e-6)

    def test_underdetermined_rejected(self):
        with pytest.raises(DataError):
            fit_bleaney_bowers([1.0, 2.0], [0.1, 0.2], DimerParameters(-1.0, 2.0))
        with pytest.raises(DataError):
            fit_bleaney_bowers(
                [2.0, 2.0, 2.0], [0.1, 0.1, 0.1], DimerParameters(-1.0, 2.0)
            )

    @pytest.mark.parametrize(
        "t, chi, message",
        [
            ([1.0, 2.0, 3.0], [0.1, 0.2], "temperatures and chi must be 1-d arrays of equal length"),
            ([1.0, 2.0, 3.0], [0.1, math.inf, 0.3], "series contains non-finite entries"),
            ([0.0, 2.0, 3.0], [0.1, 0.2, 0.3], "temperatures must be positive"),
            ([-1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "temperatures must be positive"),
        ],
        ids=["shape-mismatch", "non-finite", "zero-T", "negative-T"],
    )
    def test_bad_series_rejected(self, t, chi, message):
        with pytest.raises(DataError, match=message):
            fit_bleaney_bowers(t, chi, DimerParameters(-1.0, 2.0))

    def test_non_finite_before_too_few_points(self):
        # a series with both faults is named for its non-finite cell, as the integral names it
        with pytest.raises(DataError, match="series contains non-finite entries"):
            fit_bleaney_bowers([1.0, 2.0], [0.1, math.nan], DimerParameters(-1.0))

    def test_complex_chi_is_not_read_by_its_real_part(self):
        # the exact curve plus 1j once fitted J = -4 and g = 2.1, with only a ComplexWarning
        t = np.linspace(1.0, 50.0, 50)
        chi = bleaney_bowers(-4.0, 2.1, t)
        with pytest.raises(DataError, match="^chi must hold real numbers only$"):
            fit_bleaney_bowers(t, chi + 1j, DimerParameters(-4.0))

    def test_reads_no_g_factor_of_the_guess(self):
        # variable projection solves for g^2: no g, a scalar g and a tensor fit alike
        t = np.linspace(2.0, 8.0, 12)
        chi = bleaney_bowers(-10.0, 2.1, t)
        no_g, scalar, tensor = (
            fit_bleaney_bowers(t, chi, DimerParameters(-7.0, g), sigma=0.01 * chi)
            for g in (None, 2.0, (1.9, 2.0, 2.3))
        )
        assert no_g == scalar == tensor
        assert no_g.converged
        assert_allclose(no_g.g_factor, 2.1, rtol=1e-12)

    @pytest.mark.parametrize("t_min", [5e-324, 1e-310, 2e-302])
    def test_temperature_too_low_to_search_is_a_data_error(self, t_min):
        # |J| from 1e-6 T_min would underflow: log(0) raised ValueError, a subnormal T gave NaN
        t = [t_min, 2.0, 3.0]
        with pytest.raises(DataError, match=f"lowest temperature {t_min:g} K is too low to fit"):
            fit_bleaney_bowers(t, [0.1, 0.2, 0.3], DimerParameters(-1.0))

    @pytest.mark.parametrize(
        "chi, sigma",
        [([0.02, 1e308, 0.13], None), ([0.02, 0.1, 0.13], [1e-3, 1e-3, 5e-324]),
         ([0.02, 0.1, 0.0], [1e-3, 1e-3, 5e-324])],
        ids=["huge-chi", "subnormal-sigma", "zero-over-subnormal"],
    )
    def test_cost_that_overflows_is_a_data_error(self, chi, sigma):
        # the cost of g = 0 bounds every cost the search meets; past a double it printed
        # residual_norm = inf with converged = true, or numpy warnings and "best g^2 is nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(DataError, match="chi/sigma too large to fit"):
                fit_bleaney_bowers([1.0, 2.0, 3.0], chi, DimerParameters(35.4), sigma=sigma)

    def test_bad_sigma_rejected(self):
        t = [1.0, 2.0, 3.0]
        with pytest.raises(DataError):
            fit_bleaney_bowers(t, [0.1, 0.2, 0.3], DimerParameters(-1.0, 2.0), sigma=[1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# series cells: each a real number, as dimer_core._real reads a scalar

CELLS = [1.0, 2.0, 3.0]
SERIES_ENTRIES = {
    # each reads CELLS and one column given, and names that column
    "integral-temperatures": (lambda x: integrate_series_with_tail(x, CELLS), "temperatures"),
    "integral-values": (lambda x: integrate_series_with_tail(CELLS, x), "values"),
    "energy-values": (lambda x: thermo.internal_energy_from_specific_heat(CELLS, x), "values"),
    "fit-chi": (lambda x: fit_bleaney_bowers(CELLS, x, DimerParameters(-4.0)), "chi"),
    "fit-sigma": (
        lambda x: fit_bleaney_bowers(CELLS, CELLS, DimerParameters(-4.0), sigma=x), "sigma"
    ),
}


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize(
    "cell",
    ["a", "2.0", None, 2.0 + 1j, 10**400],
    ids=["string", "numeric-string", "none", "complex", "big-int"],
)
@pytest.mark.parametrize("entry", SERIES_ENTRIES)
def test_a_cell_that_is_not_a_real_number_is_refused(entry, cell, as_array):
    # a string raised a bare ValueError, a complex list a TypeError, None read as NaN, a
    # complex array was read by its real part, and an int past the largest double raised a
    # bare OverflowError
    call, name = SERIES_ENTRIES[entry]
    column = [1.0, cell, 3.0]
    with pytest.raises(DataError) as info:
        call(np.array(column) if as_array else column)
    assert str(info.value) == f"{name} must hold real numbers only"


@pytest.mark.parametrize(
    "series", [(1.0, 2.0), (np.array(1.0), np.array(2.0)), ((), 2.0)],
    ids=["floats", "0-d-arrays", "empty-and-float"],
)
@pytest.mark.parametrize(
    "entry", [integrate_series_with_tail, thermo.internal_energy_from_specific_heat],
    ids=["integral", "energy"],
)
def test_a_scalar_is_no_series(entry, series):
    # the energy took len() of its inputs first and let a bare TypeError out
    with pytest.raises(
        DataError, match="^temperatures and values must be 1-d arrays of equal length$"
    ):
        entry(*series)


def test_cells_are_read_before_any_other_check_of_the_series():
    # a short, non-finite column is still named for its string
    with pytest.raises(DataError, match="^values must hold real numbers only$"):
        integrate_series_with_tail([1.0, 2.0, 3.0], [math.nan, "a"])


def test_every_real_number_is_a_cell():
    # bools, ints, Fractions and numpy scalars read as the floats they equal
    for t, v in (
        ([Fraction(1, 2), 1, np.float32(2.0)], [True, False, Fraction(1, 2)]),
        (np.array([Fraction(1, 2), 1, 2], dtype=object), np.array([True, False, True])),
        (np.array([1, 2, 4], dtype=np.uint8), np.array([3, 0, 1], dtype=np.int64)),
    ):
        floats = [float(x) for x in t], [float(x) for x in v]
        assert integrate_series_with_tail(t, v) == integrate_series_with_tail(*floats)
