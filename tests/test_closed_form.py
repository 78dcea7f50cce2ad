import math
import warnings

import numpy as np
import pytest

from signalprice import ModelParams, validate
from signalprice import closed_form as cf

from conftest import assert_same_output, value_input_cases
from highprec import highprec_uninformed_strategy


def make_params(**overrides):
    base = dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
                x0=0.0, y0=0.0, s0=10.0, t_end=1.0)
    base.update(overrides)
    return validate(ModelParams(**base))


class TestStableHyperbolics:
    @pytest.mark.parametrize("x", np.linspace(0.0, 20.0, 9).tolist())
    def test_log_cosh_matches_naive(self, x):
        assert cf.log_cosh(x) == pytest.approx(math.log(math.cosh(x)), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 2.0, 20.0])
    def test_stable_tanh_matches_naive(self, x):
        assert cf.stable_tanh(x) == pytest.approx(math.tanh(x), rel=1e-15, abs=1e-18)

    def test_large_arguments_do_not_overflow(self):
        assert cf.log_cosh(5000.0) == pytest.approx(5000.0 - math.log(2.0), rel=1e-12)
        assert cf.stable_tanh(500.0) == 1.0

    def test_utility_range(self):
        # finite up to log(DBL_MAX) ~ 709.78, -inf beyond it without a warning
        assert cf.utility_from_exponent(705.0) == -math.exp(705.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cf.utility_from_exponent(710.0) == -math.inf
        assert cf.utility_from_exponent(0.0) == -1.0


class TestSinglePeriod:
    def test_zero_signal_noise_means_zero_price(self):
        sol = cf.single_period_solve(make_params(sigma_y=0.0))
        assert sol.c_hat == 0.0

    def test_reference_price(self, params):
        # frozen from the quadrature + bisection oracle (agrees to <1e-10)
        sol = cf.single_period_solve(params)
        assert sol.c_hat == pytest.approx(8.047189562170502, rel=1e-12)

    def test_indifference_identity(self, params):
        sol = cf.single_period_solve(params)
        charged = sol.v_informed * math.exp(params.gamma * sol.c_hat)
        assert charged == pytest.approx(sol.v_uninformed, rel=1e-12)

    def test_positions(self, params):
        sol = cf.single_period_solve(params)
        assert sol.phi_informed_coeff == pytest.approx(1.0 / (0.1 * 0.05**2), rel=1e-15)
        assert sol.phi_uninformed == pytest.approx(0.05 / (0.1 * (0.1**2 + 0.05**2)), rel=1e-15)

    def test_charge_lowers_informed_value(self, params):
        sol = cf.single_period_solve(params)
        assert sol.v_informed * math.exp(params.gamma * 1.0) < sol.v_informed < 0.0

    def test_price_scales_inversely_with_gamma(self, params):
        base = cf.single_period_solve(params).c_hat
        doubled = cf.single_period_solve(make_params(gamma=0.2)).c_hat
        assert doubled * 2.0 == base  # exact: power-of-two rescale

    def test_price_nonnegative_lattice(self):
        for sy in (0.0, 0.05, 0.3):
            for sz in (0.02, 0.1):
                sol = cf.single_period_solve(make_params(sigma_y=sy, sigma_z=sz))
                assert sol.c_hat >= 0.0
                assert (sol.c_hat == 0.0) == (sy == 0.0)


class TestHjbCoefficients:
    def test_terminal_conditions_zero(self, params):
        for fn in (cf.coeff_a_informed, cf.coeff_b_informed,
                   cf.coeff_a_uninformed, cf.coeff_b_uninformed):
            assert fn(params, params.t_end) == 0.0

    def test_a_coefficients_nonpositive(self, params):
        t = np.linspace(0.0, 1.0, 101)
        assert np.all(cf.coeff_a_informed(params, t) <= 0.0)
        assert np.all(cf.coeff_a_uninformed(params, t) <= 0.0)

    def test_matches_naive_formulas(self, params):
        a = params.sigma_y / params.sigma_z
        T = params.t_end
        for t in (0.0, 0.3, 0.77, 1.0):
            np.testing.assert_allclose(
                cf.coeff_a_informed(params, t),
                -np.tanh(a * (T - t)) / (2 * params.sigma_y * params.sigma_z),
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                cf.coeff_a_uninformed(params, t),
                -np.sinh(a * (T - t)) * np.cosh(a * t)
                / (2 * params.sigma_y * params.sigma_z * np.cosh(a * T)),
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                cf.coeff_b_uninformed(params, t),
                (params.sigma_y / (4 * params.sigma_z)) * (T - t) * np.tanh(a * T)
                + 0.5 * np.log(np.cosh(a * t) / np.cosh(a * T))
                + np.sinh(a * (T - t)) * np.sinh(a * t) / (4 * np.cosh(a * T)),
                rtol=1e-12, atol=1e-15,
            )

    def test_small_sigma_y_limit(self):
        # A_I -> -(T-t)/(2 sigma_z^2) as sigma_y -> 0
        p_small = make_params(sigma_y=1e-10)
        p_zero = make_params(sigma_y=0.0)
        t = np.array([0.0, 0.4, 0.9])
        limit = -(1.0 - t) / (2 * 0.05**2)
        np.testing.assert_allclose(cf.coeff_a_informed(p_small, t), limit, rtol=1e-12)
        np.testing.assert_allclose(cf.coeff_a_informed(p_zero, t), limit, rtol=0)
        np.testing.assert_allclose(cf.coeff_a_uninformed(p_zero, t), limit, rtol=0)
        assert np.all(cf.coeff_b_informed(p_zero, t) == 0.0)
        assert np.all(cf.coeff_b_uninformed(p_zero, t) == 0.0)

    def test_extreme_noise_ratio_stays_finite(self):
        p = make_params(sigma_y=20.0)  # sigma_y T / sigma_z = 400
        t = np.linspace(0.0, 1.0, 11)
        for fn in (cf.coeff_a_informed, cf.coeff_b_informed,
                   cf.coeff_a_uninformed, cf.coeff_b_uninformed):
            assert np.all(np.isfinite(fn(p, t)))


class TestStrategies:
    def test_informed_zero_at_minus_mu(self, params):
        assert cf.informed_strategy(params, 0.3, -params.mu) == 0.0

    def test_informed_reference_position(self, params):
        assert cf.informed_strategy(params, 0.0, 0.0) == pytest.approx(200.0, rel=1e-14)

    def test_informed_time_independent(self, params):
        vals = [cf.informed_strategy(params, t, 0.02) for t in (0.0, 0.5, 1.0)]
        assert vals[0] == vals[1] == vals[2]

    def test_informed_gamma_scaling(self, params):
        half = cf.informed_strategy(make_params(gamma=0.2), 0.0, 0.02)
        assert 2.0 * half == cf.informed_strategy(params, 0.0, 0.02)

    def test_uninformed_terminal_is_myopic(self, params):
        got = cf.uninformed_strategy(params, 1.0, 0.02)
        myopic = (params.mu + 0.02) / (params.gamma * params.sigma_z**2)
        assert got == pytest.approx(myopic, rel=1e-14)

    def test_uninformed_at_start_matches_informed(self, params):
        got = cf.uninformed_strategy(params, 0.0, params.y0)
        assert got == pytest.approx(cf.informed_strategy(params, 0.0, params.y0), rel=1e-14)

    def test_uninformed_against_high_precision(self, params):
        got = float(cf.uninformed_strategy(params, 0.5, 0.0))
        want = highprec_uninformed_strategy(params, 0.5, 0.0)
        assert got == pytest.approx(want, rel=1e-14)


class TestValueFunctions:
    def test_terminal_values(self, params):
        for x in (-1.0, 0.0, 2.5):
            assert cf.value_informed(params, 1.0, x, 0.3) == -math.exp(-params.gamma * x)
            assert cf.value_uninformed(params, 1.0, x, 0.3) == -math.exp(-params.gamma * x)

    def test_reference_informed_value(self, params):
        want = -math.exp(-(0.05**2 / (2 * 0.005)) * math.tanh(2.0)
                         - 0.5 * math.log(math.cosh(2.0)))
        assert float(cf.value_informed(params, 0.0, 0.0, 0.0)) == pytest.approx(want, rel=1e-13)

    def test_strictly_negative_and_increasing_in_wealth(self, params):
        xs = np.linspace(-5.0, 5.0, 21)
        vi = cf.value_informed(params, 0.3, xs, 0.1)
        vu = cf.value_uninformed(params, 0.3, xs, 0.1)
        assert np.all(vi < 0.0) and np.all(vu < 0.0)
        assert np.all(np.diff(vi) > 0.0) and np.all(np.diff(vu) > 0.0)

    def test_charge_enters_at_time_zero(self, params):
        free = cf.value_informed(params, 0.0, 1.0, 0.0, charge=0.0)
        paid = cf.value_informed(params, 0.0, 1.0, 0.0, charge=1.0)
        shifted = cf.value_informed(params, 0.0, 0.0, 0.0, charge=0.0)
        assert paid == shifted
        assert paid < free

    def test_information_never_hurts(self):
        for sy in (0.0, 0.05, 0.1, 0.3):
            p = make_params(sigma_y=sy)
            for y in (-0.2, 0.0, 0.15):
                vi = float(cf.value_informed(p, 0.0, 0.0, y, 0.0))
                vu = float(cf.value_uninformed(p, 0.0, 0.0, y))
                if sy == 0.0:
                    assert vi == vu
                else:
                    assert vi > vu

    def test_overflow_guard_flags_floor(self, params):
        assert cf.value_informed(params, 0.5, -1e5, 0.0) == -math.inf
        assert cf.value_uninformed(params, 0.5, -1e5, 0.0) == -math.inf

    @pytest.mark.parametrize("y", [1e200, math.inf, -math.inf])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_huge_signal_writes_no_warning(self, params, y, t):
        # (mu + y)^2 overflows; before the horizon A(t) < 0 sends the value to
        # -0.0, and at it A(T) = 0 times inf is nan (the suite fails on a warning)
        for got in (cf.value_informed(params, t, 0.0, y), cf.value_uninformed(params, t, 0.0, y)):
            if t < params.t_end:
                assert got == 0.0 and math.copysign(1.0, got) == -1.0
            else:
                assert math.isnan(got)

    def test_indifference_between_value_functions(self, params):
        # informed paying the lump price at t=0 ties the filtered-only value
        c_hat = cf.continuous_price(params).c_hat_0T
        vi = cf.value_informed(params, 0.0, params.x0, params.y0, charge=c_hat)
        vu = cf.value_uninformed(params, 0.0, params.x0, params.y0)
        assert float(vi) == pytest.approx(float(vu), rel=1e-13)


def _frozen_value(p, coeff_a, coeff_b, t, x, y_t):
    """closed_form._value as one plain expression, before its exponent was
    formed in owned buffers."""
    y = np.asarray(y_t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -p.gamma * x + coeff_a(p, t) * (p.mu + y) ** 2 + coeff_b(p, t)
    return cf.utility_from_exponent(exponent)


def _frozen_informed(p, t, x_t, y_t, charge=0.0):
    x = np.asarray(x_t, dtype=float) - charge
    return _frozen_value(p, cf.coeff_a_informed, cf.coeff_b_informed, t, x, y_t)


def _frozen_uninformed(p, t, x_t, y_hat_t):
    x = np.asarray(x_t, dtype=float)
    return _frozen_value(p, cf.coeff_a_uninformed, cf.coeff_b_uninformed, t, x, y_hat_t)


_VALUE_CALLS = {  # name: (value function, frozen expression), both (p, t, x, y)
    "informed": (cf.value_informed, _frozen_informed),
    "informed_charged": (lambda p, t, x, y: cf.value_informed(p, t, x, y, charge=0.37),
                         lambda p, t, x, y: _frozen_informed(p, t, x, y, charge=0.37)),
    "uninformed": (cf.value_uninformed, _frozen_uninformed),
}
_VALUE_CASES = value_input_cases(mu=0.05, t_end=1.0)


class TestValueBuffers:
    """The value functions give the plain expression's bytes, dtype and type
    for every input shape, and only read their inputs."""

    @pytest.mark.parametrize("label, t, x, y", _VALUE_CASES, ids=[c[0] for c in _VALUE_CASES])
    @pytest.mark.parametrize("name", sorted(_VALUE_CALLS))
    def test_matches_frozen_expression(self, name, label, t, x, y):
        p = make_params()
        value, frozen = _VALUE_CALLS[name]
        before = [np.array(a) for a in (t, x, y)]
        got = value(p, t, x, y)
        assert_same_output(got, frozen(p, t, x, y))
        for a, b in zip((t, x, y), before):
            assert np.asarray(a).tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(_VALUE_CALLS))
    def test_huge_signal_matches_frozen_expression(self, name):
        # (mu + 1e160)^2 overflows: -0.0 before the horizon, nan at it, no warning
        p = make_params()
        value, frozen = _VALUE_CALLS[name]
        huge = np.full(6, 1e160)
        for t, x, y in ((0.5, 0.0, 1e160), (1.0, 0.0, 1e160), (0.5, np.zeros(6), huge),
                        (1.0, np.zeros(6), huge), (np.linspace(0.0, 1.0, 6), 0.0, huge)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = value(p, t, x, y)
            assert_same_output(got, frozen(p, t, x, y))
            t_b = np.broadcast_to(t, np.shape(got))
            assert np.all(np.where(t_b < 1.0, np.signbit(got) & (got == 0.0), np.isnan(got)))


class TestContinuousPrice:
    def test_zero_signal_noise(self):
        res = cf.continuous_price(make_params(sigma_y=0.0))
        assert res.c_hat_0T == 0.0 and res.c_bar == 0.0

    def test_reference_value(self, params):
        res = cf.continuous_price(params)
        assert res.c_hat_0T == pytest.approx(5.0 * math.tanh(2.0), rel=1e-14)
        assert res.c_bar_bound == pytest.approx(5.0, rel=1e-14)
        assert res.c_bar <= res.c_bar_bound

    def test_lump_is_rate_times_horizon(self):
        for T in (0.5, 1.0, 3.0):
            res = cf.continuous_price(make_params(t_end=T))
            assert res.c_hat_0T == res.c_bar * T

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.4])
    @pytest.mark.parametrize("sigma_z", [0.02, 0.05, 0.2])
    def test_monotone_in_sigma_y(self, gamma, sigma_z):
        prices = [
            cf.continuous_price(make_params(sigma_y=sy, gamma=gamma, sigma_z=sigma_z)).c_hat_0T
            for sy in (0.0, 0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    @pytest.mark.parametrize("sigma_y", [0.05, 0.1, 0.3])
    def test_antimonotone_in_gamma_and_sigma_z(self, sigma_y):
        by_gamma = [cf.continuous_price(make_params(sigma_y=sigma_y, gamma=g)).c_hat_0T
                    for g in (0.05, 0.1, 0.2, 0.8)]
        assert all(a > b for a, b in zip(by_gamma, by_gamma[1:]))
        by_sz = [cf.continuous_price(make_params(sigma_y=sigma_y, sigma_z=sz)).c_hat_0T
                 for sz in (0.02, 0.05, 0.1, 0.4)]
        assert all(a > b for a, b in zip(by_sz, by_sz[1:]))

    def test_exact_inverse_gamma_scaling(self, params):
        base = cf.continuous_price(params).c_hat_0T
        for k in (2.0, 4.0, 0.5):
            scaled = cf.continuous_price(make_params(gamma=k * params.gamma)).c_hat_0T
            assert scaled * k == base
        # non-dyadic factor: exact up to rounding
        third = cf.continuous_price(make_params(gamma=3.0 * params.gamma)).c_hat_0T
        assert third * 3.0 == pytest.approx(base, rel=1e-14)

    def test_rate_bound_gap(self, params):
        near = cf.continuous_price(make_params(sigma_y=1.0))  # sigma_y T / sigma_z = 20
        assert near.c_bar <= near.c_bar_bound
        assert near.c_bar_bound - near.c_bar < 1e-12 * near.c_bar_bound
        far = cf.continuous_price(params)  # ratio 2: visibly below the bound
        assert far.c_bar_bound - far.c_bar > 1e-3


def _partials(v, t, x, y, h):
    """Central finite differences of a scalar field v(t, x, y)."""
    vt = (v(t + h, x, y) - v(t - h, x, y)) / (2 * h)
    vx = (v(t, x + h, y) - v(t, x - h, y)) / (2 * h)
    vxx = (v(t, x + h, y) - 2 * v(t, x, y) + v(t, x - h, y)) / h**2
    vy = (v(t, x, y + h) - v(t, x, y - h)) / (2 * h)
    vyy = (v(t, x, y + h) - 2 * v(t, x, y) + v(t, x, y - h)) / h**2
    vxy = (v(t, x + h, y + h) - v(t, x + h, y - h)
           - v(t, x - h, y + h) + v(t, x - h, y - h)) / (4 * h**2)
    return vt, vx, vxx, vy, vyy, vxy


class TestPdeResiduals:
    """The closed-form values satisfy their dynamic-programming PDEs.

    Substituting finite-difference partials leaves a residual that must
    vanish at second order in the stencil width.
    """

    POINTS = [(0.25, 0.3, 0.02), (0.5, -0.4, -0.1), (0.8, 1.0, 0.12)]

    def _residual_informed(self, p, t, x, y, h):
        v = lambda t_, x_, y_: float(cf.value_informed(p, t_, x_, y_))
        vt, vx, vxx, _, vyy, _ = _partials(v, t, x, y, h)
        return vt + 0.5 * p.sigma_y**2 * vyy - (p.mu + y) ** 2 * vx**2 / (2 * p.sigma_z**2 * vxx)

    def _residual_uninformed(self, p, t, x, y, h):
        v = lambda t_, x_, y_: float(cf.value_uninformed(p, t_, x_, y_))
        vt, vx, vxx, _, vyy, vxy = _partials(v, t, x, y, h)
        hh = math.tanh(p.sigma_y * t / p.sigma_z)
        drive = p.sigma_y * p.sigma_z * hh * vxy + (p.mu + y) * vx
        return vt + 0.5 * p.sigma_y**2 * hh**2 * vyy - drive**2 / (2 * p.sigma_z**2 * vxx)

    @pytest.mark.parametrize("point", POINTS)
    def test_informed_residual_second_order(self, params, point):
        r_coarse = abs(self._residual_informed(params, *point, h=2e-3))
        r_fine = abs(self._residual_informed(params, *point, h=1e-3))
        assert r_fine < 5e-4
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.35)

    @pytest.mark.parametrize("point", POINTS)
    def test_uninformed_residual_second_order(self, params, point):
        r_coarse = abs(self._residual_uninformed(params, *point, h=2e-3))
        r_fine = abs(self._residual_uninformed(params, *point, h=1e-3))
        assert r_fine < 5e-4
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.35)
