import json
import math

import numpy as np
import pytest

from signalprice import (
    INFORMED_FROM_START,
    ModelParams,
    UNINFORMED,
    make_grid,
    validate,
)
from signalprice import closed_form as cf
from signalprice import path_sim as ps
from signalprice import verify_oracles as vo

from highprec import highprec_uninformed_strategy


def make_params(**overrides):
    base = dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
                x0=0.0, y0=0.0, s0=10.0, t_end=1.0)
    base.update(overrides)
    return validate(ModelParams(**base))


def fast_reports_named(p, prefix):
    """The reports of ``verify --suite fast`` whose names start with ``prefix``."""
    return [r for r in vo.fast_reports(p) if r.name.startswith(prefix)]


class TestFastReports:
    def test_names_in_output_order(self, params):
        assert [r.name for r in vo.fast_reports(params)] == [
            "ode_a_informed", "ode_b_informed", "ode_a_uninformed", "ode_b_uninformed",
            "single_period_price", "single_period_position", "kernel_identity",
        ]


class TestOracleReport:
    def test_passed_iff_within_tolerance(self):
        ok = vo._report("x", 1.0, 1.005, 0.01, "abs")
        bad = vo._report("x", 1.0, 1.05, 0.01, "abs")
        assert ok.passed and not bad.passed

    @pytest.mark.parametrize("fields", [
        (math.nan, 0.0, 3.0), (-1e304, -math.inf, math.inf), (0.0, 0.0, math.inf),
        (-math.inf, -math.inf, 1.0),
    ])
    def test_non_finite_never_passes(self, fields):
        assert not vo._report("x", *fields, "abs").passed

    def test_json_roundtrip(self):
        r = vo._report("check", 0.5, 0.5, 1e-9, "absolute")
        blob = json.dumps(r.as_dict())
        back = json.loads(blob)
        assert back["name"] == "check" and back["passed"] is True
        assert back["observed"] == 0.5 and back["tolerance"] == 1e-9


class TestSinglePeriodOracle:
    def test_agrees_with_closed_form(self, params):
        oracle = vo.single_period_oracle(params)
        sol = cf.single_period_solve(params)
        assert oracle.c_hat == pytest.approx(sol.c_hat, rel=1e-8)
        assert oracle.phi_ui == pytest.approx(sol.phi_uninformed, rel=1e-8)
        assert oracle.v_ui == pytest.approx(sol.v_uninformed, rel=1e-10)

    def test_zero_signal_noise_gives_zero_price(self):
        oracle = vo.single_period_oracle(make_params(sigma_y=0.0))
        assert abs(oracle.c_hat) <= 1e-10

    def test_nontrivial_initial_state(self):
        p = make_params(x0=1.5, y0=0.1)
        oracle = vo.single_period_oracle(p)
        sol = cf.single_period_solve(p)
        assert oracle.c_hat == pytest.approx(sol.c_hat, rel=1e-8)
        assert oracle.phi_ui == pytest.approx(sol.phi_uninformed, rel=1e-8)

    def test_report_bundle_passes(self, params):
        reports = fast_reports_named(params, "single_period_")
        assert len(reports) == 2 and all(r.passed for r in reports)


class TestOdeOracle:
    def test_reference_grid_accuracy(self, params):
        errs = vo.ode_oracle(params, make_grid(1.0, 2001))
        assert set(errs) == {"a_informed", "b_informed", "a_uninformed", "b_uninformed"}
        assert all(err < 1e-8 for err in errs.values())

    def test_fourth_order_convergence(self, params):
        coarse = vo.ode_oracle(params, make_grid(1.0, 250))
        fine = vo.ode_oracle(params, make_grid(1.0, 500))
        for name in ("a_informed", "a_uninformed"):
            assert 10.0 < coarse[name] / fine[name] < 24.0

    def test_zero_signal_noise_exact(self):
        errs = vo.ode_oracle(make_params(sigma_y=0.0), make_grid(1.0, 100))
        assert errs["b_informed"] == 0.0 and errs["b_uninformed"] == 0.0
        assert errs["a_informed"] < 1e-13 and errs["a_uninformed"] < 1e-13

    def test_report_bundle_passes(self, params):
        reports = fast_reports_named(params, "ode_")
        assert len(reports) == 4 and all(r.passed for r in reports)


class TestKernelOracle:
    def test_reference_residual(self, params):
        assert vo.kernel_identity_residual(params, n_lattice=10) < 1e-6

    def test_report(self, params):
        (r,) = fast_reports_named(params, "kernel_identity")
        assert r.passed and r.expected == 0.0


@pytest.fixture(scope="module")
def verify_reports(params, grid):
    return vo.mc_reports(params, grid, 20_000, 12)


class TestMcValueCheck:
    """The value and martingale reports of ``mc_reports``."""

    def test_uninformed_passes(self, verify_reports):
        assert [r.name for r in verify_reports] == [
            "mc_value_uninformed", "mc_martingale_uninformed",
            "mc_value_informed", "mc_martingale_informed", "mc_indifference_price",
        ]
        assert all(r.passed for r in verify_reports[:2])

    def test_informed_passes(self, verify_reports):
        assert all(r.passed for r in verify_reports[2:4])


class TestIndifferenceLogRatio:
    def test_brackets_closed_form(self, params):
        grid = make_grid(1.0, 500)
        c_mc, half = vo.indifference_log_ratio(params, grid, 30_000, 5)
        closed = cf.continuous_price(params).c_hat_0T
        assert abs(c_mc - closed) <= 3.0 * half

    def test_zero_signal_noise_gives_zero(self, coarse_grid):
        p = make_params(sigma_y=0.0)
        c_mc, _ = vo.indifference_log_ratio(p, coarse_grid, 2_000, 5)
        assert c_mc == 0.0

    def test_halves_when_gamma_doubles(self, params):
        grid = make_grid(1.0, 500)
        c_base, half_base = vo.indifference_log_ratio(params, grid, 30_000, 5)
        c_2g, half_2g = vo.indifference_log_ratio(make_params(gamma=0.2), grid, 30_000, 5)
        band = 3.0 * math.hypot(half_base, 2.0 * half_2g)
        assert abs(2.0 * c_2g - c_base) <= band

    def test_report(self, params):
        grid = make_grid(1.0, 500)
        r = vo.mc_reports(params, grid, 30_000, 5)[-1]
        assert r.name == "mc_indifference_price" and r.passed

    def test_is_the_root_of_the_utility_gap(self, params, coarse_grid):
        # the charge C* that makes E[U_I] exp(gamma C*) = E[U_UI], as a bisection finds it
        c_star, _ = vo.indifference_log_ratio(params, coarse_grid, 2_000, 5)
        informed, uninformed = ps.mc_multi(
            params, coarse_grid, 2_000, 5,
            [ps.Arm(INFORMED_FROM_START), ps.Arm(UNINFORMED)], antithetic=True,
        )
        ratio = np.mean(informed.utilities) * math.exp(params.gamma * c_star)
        assert ratio / np.mean(uninformed.utilities) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("x0, rel", [(-7050.0, 1e-9), (-1e6, 1e-6)])
    def test_initial_wealth_cancels(self, params, x0, rel):
        # gamma x0 = -705 puts the utilities near the top of the float range;
        # at -1e6 they are far past it, but the exponents stay finite
        grid = make_grid(1.0, 200)
        base = vo.indifference_log_ratio(params, grid, 4096, 12)
        shifted = make_params(x0=x0)
        c_mc, half = vo.indifference_log_ratio(shifted, grid, 4096, 12)
        assert c_mc == pytest.approx(base[0], rel=rel)
        assert half == pytest.approx(base[1], rel=rel)
        assert vo.mc_reports(shifted, grid, 4096, 12)[-1].passed

    def test_shared_draw_matches_separate_runs(self, params, coarse_grid, monkeypatch):
        shared = vo.indifference_log_ratio(params, coarse_grid, 2_000, 5)
        engine = ps.mc_multi

        def separate_runs(p, grid, n_paths, seed, arms, **kwargs):
            # one antithetic single-arm mc_multi call per arm, each drawing its own paths
            return [engine(p, grid, n_paths, seed, [arm], **kwargs)[0] for arm in arms]

        monkeypatch.setattr(ps, "mc_multi", separate_runs)
        assert vo.indifference_log_ratio(params, coarse_grid, 2_000, 5) == shared


class TestLogRatio:
    @pytest.mark.parametrize("arm", ["informed", "uninformed"])
    def test_nan_exponent_gives_a_nan_price(self, params, arm):
        # max(0.0, nan) is 0.0, which would report a nan run as a zero price
        exponents = {"informed": np.linspace(-1.0, 1.0, 8), "uninformed": np.linspace(-2.0, 0.5, 8)}
        exponents[arm][3] = np.nan
        c_star, half = vo._log_ratio(params, exponents["informed"], exponents["uninformed"])
        assert math.isnan(c_star) and math.isnan(half)

    def test_price_is_clamped_at_zero(self, params):
        c_star, _ = vo._log_ratio(params, np.full(4, 1.0), np.full(4, -1.0))
        assert c_star == 0.0 and math.copysign(1.0, c_star) == 1.0


class TestMcReports:
    """One engine call of n keys, the first n/2 also mirrored, gives the value
    reports of a plain run of n paths and the price report of
    ``indifference_log_ratio(n)``."""

    @pytest.mark.parametrize("n_paths, n_steps, chunk_size, x0", [
        (1000, 50, None, 0.0),     # one chunk in every run
        (10_000, 20, None, 0.0),   # several chunks in every run
        (30, 20, 7, 0.0),          # tiny chunks of at most 7 columns
        (4096, 200, None, -7050.0),  # utilities past the float range: non-finite fields
    ])
    def test_equals_the_separate_runs(self, monkeypatch, n_paths, n_steps, chunk_size, x0):
        p, grid, seed = make_params(x0=x0), make_grid(1.0, n_steps), 3
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        plain = ps.mc_multi(p, grid, n_paths, seed, arms)
        c_mc, half = vo.indifference_log_ratio(p, grid, n_paths, seed)
        if chunk_size is not None:
            monkeypatch.setattr(ps, "_COLUMNS", chunk_size)
        reports = {r.name: r for r in vo.mc_reports(p, grid, n_paths, seed)}
        for label, run in zip(("uninformed", "informed"), plain):
            est = run.estimate()
            value = reports[f"mc_value_{label}"]
            np.testing.assert_equal((value.observed, value.tolerance),
                                    (est.mean, 3.0 * est.std_err))
        price = reports["mc_indifference_price"]
        np.testing.assert_equal((price.observed, price.tolerance), (c_mc, 3.0 * half))
        if x0 != 0.0:
            assert any(not math.isfinite(r.tolerance) for r in reports.values())


class TestHighPrecisionStrategy:
    def test_matches_closed_form(self, params):
        got = highprec_uninformed_strategy(params, 0.37, 0.05)
        want = float(cf.uninformed_strategy(params, 0.37, 0.05))
        assert got == pytest.approx(want, rel=1e-13)

    def test_independent_of_float_path(self, params):
        # the mpmath route agrees with itself at higher precision
        a = highprec_uninformed_strategy(params, 0.5, 0.0, dps=30)
        b = highprec_uninformed_strategy(params, 0.5, 0.0, dps=60)
        assert a == pytest.approx(b, rel=1e-15)
