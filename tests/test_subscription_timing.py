import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from signalprice import DomainError, ModelParams, make_grid, subscribe_at, validate
from signalprice import closed_form as cf
from signalprice import path_sim as ps
from signalprice import subscription_timing as st
from signalprice.subscription_timing import RateSchedule, ScheduleDomainError

from conftest import assert_same_output, value_input_cases


def make_params(**overrides):
    base = dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
                x0=0.0, y0=0.0, s0=10.0, t_end=1.0)
    base.update(overrides)
    return validate(ModelParams(**base))


@pytest.fixture(scope="module")
def schedules(params, grid):
    c_bar = cf.continuous_price(params).c_bar
    return {
        "constant": RateSchedule.constant(c_bar, 1.0),
        "indifference": st.indifference_schedule(params, grid),
        "bump": st.bumped_schedule(params, grid, 0.2, 0.8, 2.0, 2.0),
    }


class TestRateSchedule:
    def test_constant(self):
        s = RateSchedule.constant(3.0, 2.0)
        assert s(0.0) == s(1.3) == s(2.0) == 3.0
        assert s.integral(0.5, 2.0) == pytest.approx(4.5, rel=1e-15)

    def test_linear_interpolation(self):
        s = RateSchedule(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert s(0.5) == 1.0 and s(1.5) == 1.0

    def test_integral_exact_for_piecewise_linear(self):
        s = RateSchedule(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert s.integral(0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert s.integral(0.5, 1.5) == pytest.approx(1.5, rel=1e-15)
        # vectorized lower limits
        np.testing.assert_allclose(
            s.integral(np.array([0.0, 1.0]), 2.0), [2.0, 1.0], rtol=1e-15
        )

    @pytest.mark.parametrize("knots,values,match", [
        ([0.0, 1.0], [1.0, -0.1], "rates"),
        ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "increasing"),
        ([0.1, 1.0], [1.0, 1.0], "start"),
        ([0.0], [1.0], "points"),
        ([0.0, math.nan], [1.0, 1.0], "finite"),
    ])
    def test_invalid_construction(self, knots, values, match):
        with pytest.raises(ScheduleDomainError, match=match):
            RateSchedule(np.array(knots, dtype=float), np.array(values, dtype=float))

    def test_csv_roundtrip_bitwise(self, schedules, tmp_path):
        path = tmp_path / "sched.csv"
        schedules["bump"].to_csv(path)
        back = RateSchedule.from_csv(path)
        assert np.array_equal(back.knots, schedules["bump"].knots)
        assert np.array_equal(back.values, schedules["bump"].values)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,rate\n0,1\n1,1\n")
        with pytest.raises(ScheduleDomainError, match="header"):
            RateSchedule.from_csv(path)

    def test_csv_rejects_extra_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,c\n0,1,9\n")
        with pytest.raises(ScheduleDomainError, match="two columns"):
            RateSchedule.from_csv(path)


class TestRateCurves:
    def test_ell_endpoint_identities(self, params):
        c_bar = cf.continuous_price(params).c_bar
        assert float(st.ell(params, 0.0)) == c_bar
        assert float(st.ell(params, 1.0)) == -c_bar
        assert float(st.ell(params, 0.5)) == 0.0

    def test_ell_odd_about_midpoint(self, params):
        assert float(st.ell(params, 0.25)) == -float(st.ell(params, 0.75))

    def test_indifference_rate_endpoints(self, params):
        c_bar = cf.continuous_price(params).c_bar
        assert float(st.indifference_rate(params, 0.0)) == 0.0
        assert float(st.indifference_rate(params, 0.5)) == c_bar
        assert float(st.indifference_rate(params, 1.0)) == 2.0 * c_bar

    def test_indifference_rate_nonnegative(self, params):
        t = np.linspace(0.0, 1.0, 401)
        assert np.all(np.asarray(st.indifference_rate(params, t)) >= 0.0)

    def test_indifference_rate_integrates_to_lump_price(self, params):
        from scipy.integrate import quad
        total, _ = quad(lambda t: float(st.indifference_rate(params, t)), 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12)
        assert total == pytest.approx(cf.continuous_price(params).c_hat_0T, rel=1e-10)

    def test_ell_matches_naive_formula(self, params):
        a = params.sigma_y / params.sigma_z
        for t in (0.1, 0.4, 0.6, 0.93):
            naive = params.sigma_y * math.sinh(a * (1.0 - 2 * t)) / (
                4 * params.gamma * params.sigma_z * math.cosh(a)
            )
            assert float(st.ell(params, t)) == pytest.approx(naive, rel=1e-13)


class TestTimingSolver:
    def test_constant_rate_unique_midpoint(self, params, grid, schedules):
        r = st.earliest_time(params, schedules["constant"], grid)
        assert r.tau_e == r.tau_l == 0.5
        assert list(r.indifference_set) == [0.5]

    def test_indifference_rate_full_window(self, params, grid, schedules):
        r = st.earliest_time(params, schedules["indifference"], grid)
        assert r.tau_e == 0.0 and r.tau_l == 1.0
        assert np.array_equal(r.indifference_set, grid.t)

    def test_bump_window(self, params, grid, schedules):
        r = st.earliest_time(params, schedules["bump"], grid)
        assert r.tau_e == pytest.approx(0.2, abs=grid.dt)
        assert r.tau_l == pytest.approx(0.8, abs=grid.dt)
        assert np.array_equal(
            r.indifference_set, grid.t[grid.index_of(0.2): grid.index_of(0.8) + 1]
        )

    def test_latest_time_matches_earliest_result(self, params, grid, schedules):
        for sched in schedules.values():
            r = st.earliest_time(params, sched, grid)
            assert r.tau_e == r.indifference_set[0] and r.tau_l == r.indifference_set[-1]
            assert 0.0 <= r.tau_e <= r.tau_l <= 1.0
            assert r.tau_e in r.indifference_set and r.tau_l in r.indifference_set

    def test_flat_rate_shift_never_earlier(self, params, grid, schedules):
        for sched in schedules.values():
            base = st.earliest_time(params, sched, grid).tau_e
            for delta in (0.1, 1.0):
                shifted = RateSchedule(sched.knots.copy(), sched.values + delta)
                assert st.earliest_time(params, shifted, grid).tau_e >= base

    def test_deterministic(self, params, grid, schedules):
        a = st.earliest_time(params, schedules["bump"], grid)
        b = st.earliest_time(params, schedules["bump"], grid)
        assert a.tau_e == b.tau_e and a.tau_l == b.tau_l
        assert np.array_equal(a.indifference_set, b.indifference_set)

    def test_stopping_rule_excludes_outside_window(self, params, grid, schedules):
        for sched in schedules.values():
            r = st.earliest_time(params, sched, grid)
            profile = st.profile(params, sched, grid)
            gap = np.abs(profile[grid.index_of(r.tau_l)] - profile)
            outside = (grid.t < r.tau_e) | (grid.t > r.tau_l)
            assert np.all(gap[outside] > r.tol)
            members = np.isin(np.round(grid.t, 12), np.round(r.indifference_set, 12))
            assert np.all(gap[members] <= r.tol)

    def test_double_peak_gives_gapped_indifference_set(self, params, grid):
        # rate sits below the indifference rate on two separated stretches, so
        # the profile has two equal-height peaks with a dip between them
        values = np.asarray(st.indifference_rate(params, grid.t)).copy()
        values[:100] += 1.0
        values[100:200] -= 0.5
        values[200:300] += 0.5
        values[300:] -= 1.0
        r = st.earliest_time(params, st.RateSchedule(grid.t.copy(), values), grid)
        assert r.tau_e < r.tau_l
        member_idx = np.nonzero(
            np.isin(np.round(grid.t, 12), np.round(r.indifference_set, 12))
        )[0]
        assert np.any(np.diff(member_idx) > 1)  # the dip is excluded
        assert r.tau_e in r.indifference_set and r.tau_l in r.indifference_set

    def test_schedule_must_cover_horizon(self, params, grid):
        short = RateSchedule(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ScheduleDomainError):
            st.earliest_time(params, short, grid)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("solve", [st.earliest_time], ids=["earliest_time"])
    def test_unusable_tol_rejected(self, params, grid, schedules, solve, tol):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            solve(params, schedules["constant"], grid, tol)

    @pytest.mark.parametrize("call,cover", [
        (lambda p, grid, sched: ps.mc_multi(p, grid, 4, 3, [ps.Arm(subscribe_at(0.25), sched)]),
         "[0.25, 1.0]"),
        (lambda p, grid, sched: ps.run_strategy(
            p, grid, next(ps.simulate_paths(p, grid, 1, 3)), subscribe_at(0.25), sched),
         "[0.25, 1.0]"),
        (lambda p, grid, sched: st.profile(p, sched, grid), "[0.0, 1.0]"),
        (lambda p, grid, sched: st.earliest_time(p, sched, grid), "[0.0, 1.0]"),
        (lambda p, grid, sched: st.value_committed(p, 0.25, sched, grid), "[0.25, 1.0]"),
    ], ids=["mc_multi", "run_strategy", "profile", "earliest_time", "value_committed"])
    def test_short_schedule_is_a_domain_error(self, params, coarse_grid, call, cover):
        # the message prints plain floats, not numpy scalar reprs
        short = RateSchedule(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError) as info:
            call(params, coarse_grid, short)
        assert str(info.value) == f"schedule domain [0.0, 0.5] does not cover {cover}"

    @pytest.mark.parametrize("call", [
        lambda p, grid, sched: st.profile(p, sched, grid),
        lambda p, grid, sched: st.earliest_time(p, sched, grid),
        lambda p, grid, sched: st.value_committed(p, 0.5, sched, grid),
        lambda p, grid, sched: st.value_flexible(p, 0.0, 0.0, 0.0, sched, grid),
    ], ids=["profile", "earliest_time", "value_committed", "value_flexible"])
    def test_overflowing_profile_is_a_domain_error(self, params, coarse_grid, call):
        # the trapezoid sum 0.5 (g_k + g_k+1) dt overflows at a rate of 1e308
        huge = RateSchedule(np.array([0.0, 1.0]), np.array([1.0, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(st.ScheduleDomainError) as info:
                call(params, coarse_grid, huge)
        assert str(info.value) == (
            "schedule rates up to 1e+308 are too large: the timing profile F is not finite"
        )

    def test_profile_is_finite_below_the_overflow(self, params, coarse_grid):
        large = RateSchedule(np.array([0.0, 1.0]), np.array([1.0, 1e307]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = st.profile(params, large, coarse_grid)
            result = st.earliest_time(params, large, coarse_grid)
        assert np.all(np.isfinite(F)) and F[-1] > 1e305
        assert result.tau_e == result.tau_l == 1.0

    def test_late_start_names_a_plain_float(self):
        with pytest.raises(DomainError) as info:
            RateSchedule(np.array([0.1, 1.0]), np.array([1.0, 1.0]))
        assert str(info.value) == "schedule must start at t = 0, got 0.1"

    def test_flexible_value_past_tau_l_names_a_plain_float(self, params, grid, schedules):
        # tau_l = T/2 under the flat c_bar rate
        with pytest.raises(DomainError) as info:
            st.value_flexible(params, 0.6, 0.0, 0.0, schedules["constant"], grid)
        assert str(info.value) == "t beyond the latest purchase time 0.5"

    def test_bump_interval_must_be_interior(self, params, grid):
        with pytest.raises(ScheduleDomainError):
            st.bumped_schedule(params, grid, 0.0, 0.8, 1.0, 1.0)


_TIMED_VALUES = {  # name: value function of (p, t, schedule, grid)
    "informed": lambda p, t, sched, grid: cf.value_informed(p, t, 0.0, 0.0),
    "uninformed": lambda p, t, sched, grid: cf.value_uninformed(p, t, 0.0, 0.0),
    "prepurchase": lambda p, t, sched, grid: st.value_prepurchase(p, t, 0.0, 0.0, sched),
    "committed": lambda p, t, sched, grid: st.value_committed(p, t, sched, grid),
    "flexible": lambda p, t, sched, grid: st.value_flexible(p, t, 0.0, 0.0, sched, grid),
}


class TestTimeDomain:
    """Every value function takes its time in [0, T] only, and names a time
    outside it (nan included) before any coefficient is formed.  The committed
    value's purchase time snaps to the grid, as the engine's does, so the grid
    names its off-grid times."""

    @pytest.mark.parametrize("where", ["before_start", "past_horizon", "nan"])
    @pytest.mark.parametrize("name", sorted(_TIMED_VALUES))
    def test_time_outside_the_horizon_is_a_domain_error(self, params, coarse_grid,
                                                        schedules, name, where):
        dt = coarse_grid.dt
        t = {"before_start": -dt, "past_horizon": params.t_end + dt, "nan": math.nan}[where]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                _TIMED_VALUES[name](params, t, schedules["bump"], coarse_grid)
        assert type(info.value) is DomainError
        assert str(info.value) == (f"time {t!r} is off the grid [0.0, 1.0]" if name == "committed"
                                   else f"t must be in [0, t_end] = [0.0, 1.0], got {t!r}")

    @pytest.mark.parametrize("name", ["informed", "uninformed", "prepurchase", "flexible"])
    def test_names_the_first_time_outside(self, params, coarse_grid, schedules, name):
        value = _TIMED_VALUES[name]
        for t, bad in (([0.0, 0.1, math.nan, -0.5], "nan"), ([0.2, -0.5, math.nan], "-0.5")):
            with pytest.raises(DomainError, match=f"got {bad}$"):
                value(params, np.array(t), schedules["bump"], coarse_grid)

    @pytest.mark.parametrize("name", sorted(_TIMED_VALUES))
    def test_horizon_ends_are_inside(self, params, coarse_grid, name):
        # at the flat c_bar rate tau_l = T/2, so value_flexible is defined at 0 only
        value = _TIMED_VALUES[name]
        flat = RateSchedule.constant(cf.continuous_price(params).c_bar, 1.0)
        ends = (0.0,) if name == "flexible" else (0.0, params.t_end)
        for t in ends:
            assert math.isfinite(value(params, t, flat, coarse_grid))
        if name != "committed":
            assert np.all(np.isfinite(value(params, np.array(ends), flat, coarse_grid)))


class TestPrepurchaseValue:
    def test_terminal_value(self, params, schedules):
        for sched in schedules.values():
            for x in (-0.5, 0.0, 1.0):
                got = float(st.value_prepurchase(params, 1.0, x, 0.2, sched))
                assert got == -math.exp(-params.gamma * x)

    def test_zero_schedule_at_start_equals_informed_value(self, params):
        # the signal is known at t=0, so buying free information changes nothing
        zero = RateSchedule.constant(0.0, 1.0)
        got = float(st.value_prepurchase(params, 0.0, 0.3, params.y0, zero))
        want = float(cf.value_informed(params, 0.0, 0.3, params.y0, 0.0))
        assert got == pytest.approx(want, rel=1e-13)

    def test_stated_exponent_identity_at_start(self, params):
        # value = V_UI * exp{-B_UI(0) + log(1/cosh(aT))/2} for a zero schedule
        zero = RateSchedule.constant(0.0, 1.0)
        a = params.sigma_y / params.sigma_z
        v_ui = float(cf.value_uninformed(params, 0.0, 0.0, 0.0))
        correction = math.exp(
            -float(cf.coeff_b_uninformed(params, 0.0)) + 0.5 * math.log(1.0 / math.cosh(a))
        )
        got = float(st.value_prepurchase(params, 0.0, 0.0, 0.0, zero))
        assert got == pytest.approx(v_ui * correction, rel=1e-13)

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("y_hat", [-0.1, 0.0, 0.12])
    def test_conditional_expectation_of_informed_value(self, params, schedules, t, y_hat):
        """Quadrature oracle: the pre-purchase value is E[informed value | filtered state].

        Conditionally on the price history, the signal is Gaussian around the
        filtered value with the Riccati variance sigma_y sigma_z tanh(at), and
        the informed value carries the remaining subscription cost.
        """
        sched = schedules["bump"]
        x_t = 0.4
        var = params.sigma_y * params.sigma_z * math.tanh(
            params.sigma_y * t / params.sigma_z
        )
        nodes, weights = hermgauss(64)
        y_nodes = y_hat + math.sqrt(2.0 * var) * nodes
        cost = sched.integral(t, 1.0)
        informed = cf.value_informed(params, t, x_t - cost, y_nodes, 0.0)
        want = float(np.dot(weights, informed) / math.sqrt(math.pi))
        got = float(st.value_prepurchase(params, t, x_t, y_hat, sched))
        assert got == pytest.approx(want, rel=1e-12)

    def test_schedule_coverage_required(self, params):
        short = RateSchedule(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ScheduleDomainError):
            st.value_prepurchase(params, 0.2, 0.0, 0.0, short)

    @pytest.mark.parametrize("y_hat", [1e200, math.inf, -math.inf])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_huge_signal_writes_no_warning(self, params, schedules, y_hat, t):
        # as closed_form.value_uninformed: -0.0 before the horizon, nan at it
        got = st.value_prepurchase(params, t, 0.0, y_hat, schedules["constant"])
        if t < params.t_end:
            assert got == 0.0 and math.copysign(1.0, got) == -1.0
        else:
            assert math.isnan(got)

    def test_tower_property_over_filtered_state_buckets(self, params, grid, schedules):
        """MC oracle: bucket-averages of the informed value match the formula.

        The pre-purchase value is the conditional expectation of the informed
        value (with remaining subscription cost) given the price history, so
        averaging the per-path difference over any bucket of the filtered
        state must give zero within MC error.
        """
        from signalprice import UNINFORMED, path_sim as ps

        sched = schedules["bump"]
        t_check = 0.5
        run = ps.mc_multi(params, grid, 100_000, 31, [ps.Arm(UNINFORMED)],
                          snapshot_times=(t_check,))[0]
        snap = run.snapshots[grid.index_of(t_check)]
        x, y, y_hat = snap["x"], snap["y"], snap["y_hat"]
        cost = sched.integral(t_check, 1.0)
        informed = np.asarray(cf.value_informed(params, t_check, x - cost, y))
        formula = np.asarray(st.value_prepurchase(params, t_check, x, y_hat, sched))
        diff = informed - formula
        edges = np.quantile(y_hat, np.linspace(0.0, 1.0, 6))
        edges[-1] += 1e-9
        for lo, hi in zip(edges[:-1], edges[1:]):
            bucket = diff[(y_hat >= lo) & (y_hat < hi)]
            se = np.std(bucket, ddof=1) / math.sqrt(bucket.size)
            assert abs(np.mean(bucket)) <= 3.0 * se


class TestFlexibleValue:
    def test_boundary_equals_prepurchase_exactly(self, params, grid, schedules):
        for sched in schedules.values():
            tau_l = st.earliest_time(params, sched, grid).tau_l
            vf = float(st.value_flexible(params, tau_l, 0.1, 0.05, sched, grid))
            vh = float(st.value_prepurchase(params, tau_l, 0.1, 0.05, sched))
            assert vf == vh

    def test_constant_rate_equality_only_at_midpoint(self, params, grid, schedules):
        sched = schedules["constant"]
        ts = grid.t[:: 50][grid.t[::50] <= 0.5]
        vf = np.asarray(st.value_flexible(params, ts, 0.0, 0.0, sched, grid))
        vh = np.asarray(st.value_prepurchase(params, ts, 0.0, 0.0, sched))
        gaps = vf - vh
        assert np.all(gaps[:-1] > 0.0)
        assert gaps[-1] == pytest.approx(0.0, abs=1e-12)

    def test_indifference_rate_equal_everywhere(self, params, grid, schedules):
        sched = schedules["indifference"]
        ts = grid.t[::100]
        vf = np.asarray(st.value_flexible(params, ts, 0.0, 0.0, sched, grid))
        vh = np.asarray(st.value_prepurchase(params, ts, 0.0, 0.0, sched))
        np.testing.assert_allclose(vf, vh, rtol=1e-9)

    def test_obstacle_property(self, params, grid, schedules):
        for sched in schedules.values():
            tau_l = st.earliest_time(params, sched, grid).tau_l
            ts = np.linspace(0.0, tau_l, 101)
            for y_hat in (-0.2, 0.0, 0.2):
                vf = np.asarray(st.value_flexible(params, ts, 0.0, y_hat, sched, grid))
                vh = np.asarray(st.value_prepurchase(params, ts, 0.0, y_hat, sched))
                slack = 2.0 * params.gamma * 1e-9 * np.abs(vh)
                assert np.all(vf >= vh - slack)

    @pytest.mark.parametrize("name", ["constant", "indifference", "bump"])
    def test_window_ends_at_the_default_tau_l(self, params, grid, schedules, name):
        # value_flexible takes no tol: its tau_l is earliest_time's at st.TOL, the
        # default (a tol of 1e-3 moves tau_l on "constant", one of 0 on "indifference")
        sched = schedules[name]
        tau_l = st.earliest_time(params, sched, grid).tau_l
        assert st.earliest_time(params, sched, grid, st.TOL).tau_l == tau_l
        st.value_flexible(params, tau_l, 0.0, 0.0, sched, grid)
        if tau_l < grid.t_end:
            with pytest.raises(DomainError, match=f"latest purchase time {tau_l!r}$"):
                st.value_flexible(params, tau_l + grid.dt, 0.0, 0.0, sched, grid)

    def test_rejects_time_beyond_window(self, params, grid, schedules):
        with pytest.raises(DomainError):
            st.value_flexible(params, 0.9, 0.0, 0.0, schedules["bump"], grid)


def _frozen_prepurchase_exponent(p, t, x_t, y_hat_t, schedule):
    """subscription_timing._prepurchase_exponent as one plain expression,
    before it was formed in owned buffers."""
    a = cf.noise_ratio(p)
    t = np.asarray(t, dtype=float)
    remaining_cost = schedule.integral(t, p.t_end)
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            -p.gamma * np.asarray(x_t, dtype=float)
            + cf.coeff_a_uninformed(p, t) * (p.mu + np.asarray(y_hat_t, dtype=float)) ** 2
            + p.gamma * remaining_cost
            + 0.5 * (cf.log_cosh(a * t) - cf.log_cosh(a * p.t_end))
        )


def _frozen_flexible(p, t, x_t, y_hat_t, schedule, grid):
    t = np.asarray(t, dtype=float)
    F, k_l, _ = st._solve(p, schedule, grid, st.TOL)
    gap = F[k_l] - np.interp(t, grid.t, F)
    exponent = _frozen_prepurchase_exponent(p, t, x_t, y_hat_t, schedule) - p.gamma * gap
    return cf.utility_from_exponent(exponent)


def _buffer_calls():
    """name: (value function, frozen expression, last t, cases); the two
    functions take (p, t, x, y).

    value_flexible takes t up to tau_l of the flat c_bar schedule, about T/2,
    where the gap F(tau_l) - F(t) is not zero: its cases end there."""
    p, grid = make_params(), make_grid(1.0, 1000)
    flat = RateSchedule.constant(cf.continuous_price(p).c_bar, 1.0)
    bump = st.bumped_schedule(p, grid, 0.2, 0.8, 2.0, 2.0)
    tau_l = st.earliest_time(p, flat, grid).tau_l
    return {
        "prepurchase": (lambda p, t, x, y: st.value_prepurchase(p, t, x, y, bump),
                        lambda p, t, x, y: cf.utility_from_exponent(
                            _frozen_prepurchase_exponent(p, t, x, y, bump)),
                        p.t_end, value_input_cases(p.mu, p.t_end)),
        "flexible": (lambda p, t, x, y: st.value_flexible(p, t, x, y, flat, grid),
                     lambda p, t, x, y: _frozen_flexible(p, t, x, y, flat, grid),
                     tau_l, value_input_cases(p.mu, tau_l)),
    }


_BUFFER_CALLS = _buffer_calls()
_BUFFER_CASES = [(name, *case) for name, (*_, cases) in sorted(_BUFFER_CALLS.items())
                 for case in cases]


class TestValueBuffers:
    """value_prepurchase and value_flexible give the plain expression's bytes,
    dtype and type for every input shape, and only read their inputs."""

    @pytest.mark.parametrize("name, label, t, x, y", _BUFFER_CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in _BUFFER_CASES])
    def test_matches_frozen_expression(self, name, label, t, x, y):
        p = make_params()
        value, frozen, _, _ = _BUFFER_CALLS[name]
        before = [np.array(a) for a in (t, x, y)]
        got = value(p, t, x, y)
        assert_same_output(got, frozen(p, t, x, y))
        for a, b in zip((t, x, y), before):
            assert np.asarray(a).tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(_BUFFER_CALLS))
    def test_huge_signal_matches_frozen_expression(self, name):
        # (mu + 1e160)^2 overflows: -0.0 before the horizon, nan at it, no warning
        p = make_params()
        value, frozen, t_end, _ = _BUFFER_CALLS[name]
        huge = np.full(6, 1e160)
        t_row = np.linspace(0.0, t_end, 6)
        for t, x, y in ((0.5 * t_end, 0.0, 1e160), (t_end, 0.0, 1e160),
                        (0.5 * t_end, np.zeros(6), huge), (t_end, np.zeros(6), huge),
                        (t_row, 0.0, huge)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = value(p, t, x, y)
            assert_same_output(got, frozen(p, t, x, y))
            t_b = np.broadcast_to(t, np.shape(got))
            assert np.all(np.where(t_b < 1.0, np.signbit(got) & (got == 0.0), np.isnan(got)))


class TestCommittedValue:
    def test_latest_time_is_the_flexible_value(self, params, grid, schedules):
        for sched in schedules.values():
            tau_l = st.earliest_time(params, sched, grid).tau_l
            vc = st.value_committed(params, tau_l, sched, grid)
            vf = float(st.value_flexible(params, 0.0, params.x0, params.y0, sched, grid))
            assert vc == pytest.approx(vf, rel=1e-12)

    @pytest.mark.parametrize("t_star", [1.0, 0.9])
    def test_finite_past_the_exp_range_of_the_profile(self, t_star):
        # the value of buying at 0 underflows to -0.0 and exp(-gamma F(1))
        # overflows, but their product is in range at x0 = -7400
        p = make_params(sigma_y=3.0, sigma_z=1e-3, x0=-7400.0)
        grid = make_grid(1.0, 10)
        sched = RateSchedule.constant(0.0, 1.0)
        f_star = st.profile(p, sched, grid)[grid.index_of(t_star)]
        assert st.value_prepurchase(p, 0.0, p.x0, p.y0, sched) == 0.0
        with mpmath.workdps(50):
            a_t = mpmath.mpf(p.sigma_y) / mpmath.mpf(p.sigma_z) * mpmath.mpf(p.t_end)
            pre0 = (-mpmath.mpf(p.gamma) * mpmath.mpf(p.x0)
                    - mpmath.tanh(a_t) * mpmath.mpf(p.mu + p.y0) ** 2
                    / (2 * mpmath.mpf(p.sigma_y) * mpmath.mpf(p.sigma_z))
                    - mpmath.log(mpmath.cosh(a_t)) / 2)
            want = float(-mpmath.exp(pre0 - mpmath.mpf(p.gamma) * mpmath.mpf(f_star)))
        got = st.value_committed(p, t_star, sched, grid)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_no_purchase_time_beats_the_flexible_value(self, params, grid, schedules):
        for sched in schedules.values():
            vf = float(st.value_flexible(params, 0.0, params.x0, params.y0, sched, grid))
            vc = np.array([st.value_committed(params, t, sched, grid) for t in grid.t])
            assert np.all(vc <= vf)
