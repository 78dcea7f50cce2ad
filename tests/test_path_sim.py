import math

import numpy as np
import pytest

from signalprice import (
    DomainError,
    INFORMED_FROM_START,
    UNINFORMED,
    make_grid,
    subscribe_at,
)
from signalprice import closed_form as cf
from signalprice import path_sim as ps
from signalprice.subscription_timing import RateSchedule, ScheduleDomainError

from conftest import dyadic_params


class TestSimulatePaths:
    def test_no_noise_is_pure_drift(self):
        # zero increments leave only the drift; dyadic values make the Euler
        # accumulation exact
        p = dyadic_params(mu=0.5, y0=0.0)
        grid = make_grid(1.0, 4)
        rows = [(0.0, 0.0)] * grid.n_steps
        steps = list(ps._integrate(p, grid, rows, float(p.y0), float(p.s0)))
        y = np.array([y_k for y_k, _, _ in steps])
        s = np.array([s_k for _, s_k, _ in steps])
        assert np.array_equal(s, 1.0 + 0.5 * grid.t)
        assert np.all(y == 0.0)

    def test_bit_identical_replay(self, params, coarse_grid):
        first = list(ps.simulate_paths(params, coarse_grid, 3, 42))
        second = list(ps.simulate_paths(params, coarse_grid, 3, 42))
        for a, b in zip(first, second):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.s, b.s)
            assert np.array_equal(a.by_incr, b.by_incr)

    def test_seed_and_index_change_paths(self, params, coarse_grid):
        base = next(ps.simulate_paths(params, coarse_grid, 1, 42))
        other_seed = next(ps.simulate_paths(params, coarse_grid, 1, 43))
        second_index = list(ps.simulate_paths(params, coarse_grid, 2, 42))[1]
        assert not np.array_equal(base.s, other_seed.s)
        assert not np.array_equal(base.s, second_index.s)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_draws_are_fresh_generators(self, seed):
        # one drawer re-keyed in turn, after draws that leave part of Philox's
        # output buffer unread, gives each key the draws of a fresh generator
        drawer = ps._SubstreamDrawer(seed)
        for index in (0, 1, 2**63 + 3, 2**64 - 1, 1):
            for size in (3, 8):
                key = np.array([seed, index], dtype=np.uint64)
                fresh = np.random.Generator(np.random.Philox(key=key))
                got = drawer.normals(index, np.empty(size))
                assert np.array_equal(got, fresh.standard_normal(size))

    def test_initial_values(self, params, coarse_grid):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 1))
        assert b.y[0] == params.y0 and b.s[0] == params.s0

    def test_terminal_signal_variance(self, params):
        grid = make_grid(1.0, 50)
        arm = ps.Arm(UNINFORMED, policy=lambda t, y, yh, inf: 0.0)
        run = ps.mc_multi(params, grid, 100_000, 5, [arm], snapshot_times=(1.0,))[0]
        y_T = run.snapshots[grid.n_steps]["y"]
        assert np.var(y_T, ddof=1) == pytest.approx(params.sigma_y**2 * 1.0, rel=0.03)


class TestRunStrategy:
    def test_zero_policy_keeps_wealth_flat(self, params, coarse_grid):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        x = ps.run_strategy(params, coarse_grid, b, UNINFORMED,
                            policy=lambda t, y, yh, inf: 0.0)
        assert np.all(x == params.x0)

    def test_subscribe_at_horizon_matches_uninformed(self, params, coarse_grid):
        zero_rate = RateSchedule.constant(0.0, 1.0)
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        x_sub = ps.run_strategy(params, coarse_grid, b, subscribe_at(1.0), charge=zero_rate)
        x_uni = ps.run_strategy(params, coarse_grid, b, UNINFORMED)
        assert np.array_equal(x_sub, x_uni)

    def test_lump_charge_at_start(self, params, coarse_grid):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        x = ps.run_strategy(params, coarse_grid, b, INFORMED_FROM_START, charge=2.5)
        assert x[0] == params.x0 - 2.5

    def test_lump_charge_at_purchase_time(self, params, coarse_grid):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        half = subscribe_at(0.5)
        x_paid = ps.run_strategy(params, coarse_grid, b, half, charge=2.5)
        x_free = ps.run_strategy(params, coarse_grid, b, half, charge=0.0)
        k_star = coarse_grid.index_of(0.5)
        gap = x_free - x_paid
        assert np.all(gap[:k_star] == 0.0)
        assert gap[k_star] == 2.5

    def test_schedule_must_cover_subscription(self, params, coarse_grid):
        short = RateSchedule(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        with pytest.raises(ScheduleDomainError):
            ps.run_strategy(params, coarse_grid, b, subscribe_at(0.25), charge=short)

    def test_schedule_cost_accrues_left_point(self, params):
        # flat rate c: total cost over [t*, T) is c * dt * (#subscribed steps)
        grid = make_grid(1.0, 4)
        p = dyadic_params(mu=0.0, sigma_y=0.0, sigma_z=0.5, y0=0.0)
        b = next(ps.simulate_paths(p, grid, 1, 3))
        flat = RateSchedule.constant(2.0, 1.0)
        x_sub = ps.run_strategy(p, grid, b, subscribe_at(0.5), charge=flat,
                                policy=lambda t, y, yh, inf: 0.0)
        assert x_sub[-1] == -2.0 * grid.dt * 2  # steps at t=0.5 and t=0.75

    def test_subscribe_beyond_horizon_rejected(self, params, coarse_grid):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        with pytest.raises(DomainError):
            ps.run_strategy(params, coarse_grid, b, subscribe_at(1.5))

    @pytest.mark.parametrize("charge", [math.nan, math.inf, -math.inf])
    def test_non_finite_lump_charge_rejected(self, params, coarse_grid, charge):
        b = next(ps.simulate_paths(params, coarse_grid, 1, 7))
        with pytest.raises(DomainError, match="charge must be finite"):
            ps.run_strategy(params, coarse_grid, b, INFORMED_FROM_START, charge=charge)


class TestEngineConsistency:
    def test_engine_matches_per_path_api(self, params, coarse_grid):
        # the engine applies numpy's exp; math.exp differs in the last bit
        runs = ps.mc_multi(
            params, coarse_grid, 64, 42,
            [ps.Arm(INFORMED_FROM_START), ps.Arm(UNINFORMED), ps.Arm(subscribe_at(0.5))],
        )
        for i, b in enumerate(ps.simulate_paths(params, coarse_grid, 64, 42)):
            for run, mode in zip(runs, (INFORMED_FROM_START, UNINFORMED, subscribe_at(0.5))):
                x = ps.run_strategy(params, coarse_grid, b, mode)
                assert -np.exp(-params.gamma * x[-1]) == run.utilities[i]

    def test_purchase_time_snaps_to_the_nearest_grid_point(self, params):
        # on a 4-step grid t* = 0.375 ties between 0.25 and 0.5 and goes earlier
        grid = make_grid(1.0, 4)
        tie, earlier, later = (
            ps.mc_multi(params, grid, 20, 9, [ps.Arm(subscribe_at(t), charge=1.0)])[0].utilities
            for t in (0.375, 0.25, 0.5)
        )
        assert np.array_equal(tie, earlier)
        assert not np.array_equal(tie, later)

    def test_chunk_size_invariance(self, params, coarse_grid):
        a = ps.mc_multi(params, coarse_grid, 10, 9, [ps.Arm(UNINFORMED)], chunk_size=3)[0]
        b = ps.mc_multi(params, coarse_grid, 10, 9, [ps.Arm(UNINFORMED)], chunk_size=10)[0]
        assert np.array_equal(a.utilities, b.utilities)

    def test_antithetic_mirrors_pairs(self, params, coarse_grid):
        arm = ps.Arm(UNINFORMED, policy=lambda t, y, yh, inf: 0.0)
        run = ps.mc_multi(params, coarse_grid, 4, 9, [arm], antithetic=True,
                          snapshot_times=(1.0,))[0]
        y_T = run.snapshots[coarse_grid.n_steps]["y"]
        assert y_T[1] == -y_T[0] and y_T[3] == -y_T[2]

    @pytest.mark.parametrize("chunk_size", [6, 8192])
    def test_even_antithetic_paths_are_the_plain_run(self, params, coarse_grid, chunk_size):
        # path 2j is keyed draw j with a + sign, stepped elementwise like plain path j
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        plain = ps.mc_multi(params, coarse_grid, 50, 9, arms, snapshot_times=(0.5, 1.0))
        mirrored = ps.mc_multi(params, coarse_grid, 100, 9, arms, antithetic=True,
                               snapshot_times=(0.5, 1.0), chunk_size=chunk_size)
        for a, b in zip(plain, mirrored):
            assert np.array_equal(a.exponents, b.exponents[0::2])
            for k, snap in a.snapshots.items():
                for name, values in snap.items():
                    assert np.array_equal(values, b.snapshots[k][name][0::2]), (k, name)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_two_arm_call_equals_one_arm_calls(self, params, coarse_grid, antithetic):
        # arms share paths without touching each other's state
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        run = lambda arms: ps.mc_multi(params, coarse_grid, 200, 12, arms,
                                       antithetic=antithetic, snapshot_times=(0.5, 1.0))
        both = run(arms)
        for arm, shared in zip(arms, both):
            (alone,) = run([arm])
            assert np.array_equal(shared.exponents, alone.exponents)
            assert shared.snapshots.keys() == alone.snapshots.keys()
            for k, snap in alone.snapshots.items():
                for name, values in snap.items():
                    if values is not None:  # an informed arm alone runs no filter
                        assert np.array_equal(shared.snapshots[k][name], values), (k, name)

    @pytest.mark.parametrize("charge", [math.nan, math.inf])
    def test_non_finite_lump_charge_rejected(self, params, coarse_grid, charge):
        arm = ps.Arm(INFORMED_FROM_START, charge=charge)
        with pytest.raises(DomainError, match="charge must be finite"):
            ps.mc_multi(params, coarse_grid, 10, 9, [arm])

    def test_antithetic_requires_even_paths(self, params, coarse_grid):
        with pytest.raises(DomainError, match="n_paths must be even"):
            ps.mc_multi(params, coarse_grid, 5, 9, [ps.Arm()], antithetic=True)

    @pytest.mark.parametrize("n_paths", [0, 2])
    def test_antithetic_needs_two_pairs(self, params, coarse_grid, n_paths):
        # one pair leaves the paired standard error no degree of freedom
        message = f"n_paths must be >= 4 in antithetic runs, got {n_paths}"
        with pytest.raises(DomainError, match=message):
            ps.mc_multi(params, coarse_grid, n_paths, 9, [ps.Arm()], antithetic=True)

    def test_minimum_path_count(self, params, coarse_grid):
        with pytest.raises(DomainError):
            ps.mc_multi(params, coarse_grid, 1, 9, [ps.Arm()])

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, params, coarse_grid, seed):
        with pytest.raises(DomainError, match="seed"):
            ps.mc_multi(params, coarse_grid, 2, seed, [ps.Arm()])
        with pytest.raises(DomainError, match="seed"):
            next(ps.simulate_paths(params, coarse_grid, 1, seed))

    def test_largest_seed_accepted(self, params, coarse_grid):
        top, zero = (ps.mc_multi(params, coarse_grid, 2, seed, [ps.Arm()])[0].utilities
                     for seed in (2**64 - 1, 0))
        assert not np.array_equal(top, zero)


class TestExpectedUtility:
    def test_zero_policy_degenerate(self, params, coarse_grid):
        arm = ps.Arm(UNINFORMED, policy=lambda t, y, yh, inf: 0.0)
        est = ps.mc_multi(params, coarse_grid, 50, 3, [arm])[0].estimate()
        assert est.mean == -math.exp(-params.gamma * params.x0) == -1.0
        assert est.std_err == 0.0

    def test_zero_policy_degenerate_any_wealth_and_aversion(self, coarse_grid):
        p = dyadic_params(mu=0.25, sigma_y=0.5, sigma_z=0.5, gamma=2.0, x0=1.5)
        arm = ps.Arm(UNINFORMED, policy=lambda t, y, yh, inf: 0.0)
        est = ps.mc_multi(p, coarse_grid, 20, 3, [arm])[0].estimate()
        assert est.mean == -math.exp(-2.0 * 1.5)
        assert est.std_err == 0.0

    def test_matches_closed_forms_at_t0(self, params):
        grid = make_grid(1.0, 500)
        runs = ps.mc_multi(params, grid, 40_000, 12,
                           [ps.Arm(INFORMED_FROM_START), ps.Arm(UNINFORMED)],
                           antithetic=True)
        vi = float(cf.value_informed(params, 0.0, 0.0, 0.0, 0.0))
        vu = float(cf.value_uninformed(params, 0.0, 0.0, 0.0))
        for run, closed in zip(runs, (vi, vu)):
            est = run.estimate()
            assert abs(est.mean - closed) <= 3.0 * est.std_err

    def test_information_ordering(self, params):
        grid = make_grid(1.0, 500)
        runs = ps.mc_multi(
            params, grid, 20_000, 21,
            [ps.Arm(INFORMED_FROM_START), ps.Arm(subscribe_at(0.5)), ps.Arm(UNINFORMED)],
            antithetic=True,
        )
        informed, mid, uninformed = (r.estimate() for r in runs)
        band = 3.0 * math.hypot(informed.std_err, mid.std_err)
        assert informed.mean > mid.mean - band
        assert informed.mean - uninformed.mean > band
        assert mid.mean > uninformed.mean + band

    def test_indifference_at_closed_form_charge(self, params):
        grid = make_grid(1.0, 1000)
        c_hat = cf.continuous_price(params).c_hat_0T
        runs = ps.mc_multi(
            params, grid, 60_000, 4,
            [ps.Arm(INFORMED_FROM_START, charge=c_hat), ps.Arm(UNINFORMED)],
            antithetic=True,
        )
        paid, free = (r.estimate() for r in runs)
        pooled = math.hypot(paid.std_err, free.std_err)
        assert abs(paid.mean - free.mean) <= 3.0 * pooled

    def test_weak_error_shrinks_with_step_count(self, params):
        vu = float(cf.value_uninformed(params, 0.0, 0.0, 0.0))
        errors = []
        for steps in (8, 32, 128):
            grid = make_grid(1.0, steps)
            est = ps.mc_multi(params, grid, 60_000, 3, [ps.Arm(UNINFORMED)],
                              antithetic=True)[0].estimate()
            errors.append(abs(est.mean - vu))
        assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("mean,std_err,reference,expected", [
    (1.5, 0.25, 1.0, 2.0),            # finite positive spread
    (1.0, 0.0, 1.0, 0.0),             # nothing moved
    (1.5, 0.0, 1.0, math.nan),        # no spread but a gap
    (1.5, math.inf, 1.0, math.nan),   # spread not computable
])
def test_z_score_rule(mean, std_err, reference, expected):
    z = ps.z_score(mean, std_err, reference)
    assert z == expected or (math.isnan(z) and math.isnan(expected))


class TestPathCsv:
    def test_format_and_roundtrip(self, params, tmp_path):
        grid = make_grid(1.0, 8)
        b = next(ps.simulate_paths(params, grid, 1, 0))
        y_hat = ps.filtered_signal(params, grid, b)
        x_i = ps.run_strategy(params, grid, b, INFORMED_FROM_START)
        x_u = ps.run_strategy(params, grid, b, UNINFORMED)
        out = tmp_path / "path_00000.csv"
        ps.write_path_csv(out, grid.t, b.y, y_hat, b.s,
                          {"informed": x_i, "uninformed": x_u})
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y,y_hat,s,x_informed,x_uninformed"
        assert len(lines) == grid.n_steps + 2
        cells = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(cells[:, 0], grid.t)       # 17 digits round-trip
        assert np.array_equal(cells[:, 1], b.y)
        assert np.array_equal(cells[:, 4], x_i)

    def test_subscribe_column_optional(self, params, tmp_path):
        grid = make_grid(1.0, 4)
        b = next(ps.simulate_paths(params, grid, 1, 0))
        y_hat = ps.filtered_signal(params, grid, b)
        x_s = ps.run_strategy(params, grid, b, subscribe_at(0.5))
        out = tmp_path / "p.csv"
        ps.write_path_csv(out, grid.t, b.y, y_hat, b.s,
                          {"informed": b.y, "uninformed": b.y, "subscribe": x_s})
        assert out.read_text().splitlines()[0] == (
            "t,y,y_hat,s,x_informed,x_uninformed,x_subscribe"
        )
