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
from signalprice import signal_filter as sf
from signalprice import subscription_timing as st
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
        run = ps.mc_multi(params, grid, 100_000, 5, [ps.Arm(UNINFORMED)],
                          snapshot_times=(1.0,))[0]
        y_T = run.snapshots[grid.n_steps]["y"]
        assert np.var(y_T, ddof=1) == pytest.approx(params.sigma_y**2 * 1.0, rel=0.03)


class TestRunStrategy:
    def test_zero_policy_keeps_wealth_flat(self, coarse_grid):
        # with no drift and no signal both rules hold exactly zero positions
        p = dyadic_params(mu=0.0, sigma_y=0.0, y0=0.0)
        b = next(ps.simulate_paths(p, coarse_grid, 1, 7))
        for mode in (UNINFORMED, INFORMED_FROM_START):
            x = ps.run_strategy(p, coarse_grid, b, mode)
            assert np.all(x == p.x0)

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
        x_sub = ps.run_strategy(p, grid, b, subscribe_at(0.5), charge=flat)
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

    def test_chunk_size_invariance(self, params, coarse_grid, monkeypatch):
        monkeypatch.setattr(ps, "_COLUMNS", 3)
        a = ps.mc_multi(params, coarse_grid, 10, 9, [ps.Arm(UNINFORMED)])[0]
        monkeypatch.setattr(ps, "_COLUMNS", 10)
        b = ps.mc_multi(params, coarse_grid, 10, 9, [ps.Arm(UNINFORMED)])[0]
        assert np.array_equal(a.utilities, b.utilities)

    def test_antithetic_mirrors_pairs(self, params, coarse_grid):
        run = ps.mc_multi(params, coarse_grid, 4, 9, [ps.Arm(UNINFORMED)], antithetic=True,
                          snapshot_times=(1.0,))[0]
        y_T = run.snapshots[coarse_grid.n_steps]["y"]
        assert y_T[1] == -y_T[0] and y_T[3] == -y_T[2]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_arms_share_one_read_only_path_state(self, params, coarse_grid, antithetic):
        # y and y_hat belong to the paths: one array per time for every arm
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START),
                ps.Arm(subscribe_at(0.5), charge=0.3)]
        runs = ps.mc_multi(params, coarse_grid, 40, 9, arms, antithetic=antithetic,
                           snapshot_times=(0.0, 0.5, 1.0))
        for k, snap in runs[0].snapshots.items():
            for name in ("y", "y_hat"):
                assert all(run.snapshots[k][name] is snap[name] for run in runs), (k, name)
                with pytest.raises(ValueError, match="read-only"):
                    snap[name][0] = 0.0
            assert len({id(run.snapshots[k]["x"]) for run in runs}) == len(arms)

    @pytest.mark.parametrize("time,index", [
        (math.nan, None), (math.inf, None), (-0.1, None), (1.5, None), (1.04, 10),
    ])
    def test_off_grid_times_rejected_before_any_draw(self, params, monkeypatch, time, index):
        # a time more than dt/2 outside [0, T] is an error, not snapped to an end
        grid = make_grid(1.0, 10)
        bundle = next(ps.simulate_paths(params, grid, 1, 9))

        def fill(self, first, z):
            raise AssertionError("drew paths")

        monkeypatch.setattr(ps._SubstreamDrawer, "fill", fill)
        schedule = RateSchedule.constant(0.1, 1.0)
        engine = [lambda: ps.mc_multi(params, grid, 10, 9, [ps.Arm()], snapshot_times=(time,))]
        one_path = [lambda: st.value_committed(params, time, schedule, grid)]
        if 0.0 <= time < math.inf:  # a purchase time too, checked once by the grid
            engine.append(lambda: ps.mc_multi(params, grid, 10, 9, [ps.Arm(subscribe_at(time))]))
            one_path.append(lambda: ps.run_strategy(params, grid, bundle, subscribe_at(time)))
        if index is not None:
            assert grid.index_of(time) == index
            for call in engine:
                with pytest.raises(AssertionError, match="drew paths"):
                    call()
            for call in one_path:
                call()
            return
        for call in engine + one_path:
            with pytest.raises(DomainError, match=f"time {time!r} is off the grid"):
                call()

    @pytest.mark.parametrize("chunk_size", [6, 8192])
    def test_even_antithetic_paths_are_the_plain_run(self, params, coarse_grid, monkeypatch,
                                                     chunk_size):
        # path 2j is keyed draw j with a + sign, stepped elementwise like plain path j
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        plain = ps.mc_multi(params, coarse_grid, 50, 9, arms, snapshot_times=(0.5, 1.0))
        monkeypatch.setattr(ps, "_COLUMNS", chunk_size)
        mirrored = ps.mc_multi(params, coarse_grid, 100, 9, arms, antithetic=True,
                               snapshot_times=(0.5, 1.0))
        for a, b in zip(plain, mirrored):
            assert np.array_equal(a.exponents, b.exponents[0::2])
            for k, snap in a.snapshots.items():
                for name, values in snap.items():
                    assert np.array_equal(values, b.snapshots[k][name][0::2]), (k, name)

    # n/2 = 15 and 25 are odd; chunks of 3, 7 and 8 columns split inside the
    # mirror block and where it ends
    @pytest.mark.parametrize("n_paths", [30, 50])
    @pytest.mark.parametrize("chunk_size", [3, 7, 8, 8192])
    def test_mirrored_prefix_is_the_plain_and_the_antithetic_run(
            self, params, coarse_grid, monkeypatch, n_paths, chunk_size):
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START),
                ps.Arm(subscribe_at(0.5), charge=0.3)]
        times = (0.0, 0.5, 1.0)
        plain = ps.mc_multi(params, coarse_grid, n_paths, 9, arms, snapshot_times=times)
        anti = ps.mc_multi(params, coarse_grid, n_paths, 9, arms, antithetic=True,
                           snapshot_times=times)
        integrate, stepped = ps._integrate, []

        def counted(p, grid, rows, y, *args):
            stepped.append(y.shape[0])
            return integrate(p, grid, rows, y, *args)

        monkeypatch.setattr(ps, "_integrate", counted)
        monkeypatch.setattr(ps, "_COLUMNS", chunk_size)
        got = ps._step_columns(params, coarse_grid, 9, arms, n_paths, n_paths // 2, times)
        assert sum(stepped) == n_paths + n_paths // 2
        assert max(stepped) <= chunk_size
        for got_runs, want_runs in zip(got, (plain, anti)):
            assert len(got_runs) == len(arms)
            for run, want in zip(got_runs, want_runs):
                assert run.antithetic == want.antithetic
                assert run.exponents.tobytes() == want.exponents.tobytes()
                assert run.snapshots.keys() == want.snapshots.keys()
                for k, snap in want.snapshots.items():
                    for name, values in snap.items():
                        assert run.snapshots[k][name].tobytes() == values.tobytes(), (k, name)

    @staticmethod
    def _chunks(monkeypatch):
        """Record (first key, keys, buffer keys) of every chunk's draw."""
        fill, seen = ps._SubstreamDrawer.fill, []

        def recorded(self, first, z):
            seen.append((first, z.shape[0], z.base.shape[0]))
            return fill(self, first, z)

        monkeypatch.setattr(ps._SubstreamDrawer, "fill", recorded)
        return seen

    # 1000 keys at 100 steps draw 1.6 MB: one chunk by default, and chunks of
    # _KEYS = 256 keys once the bound is 1 byte
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_draw_byte_bound_keeps_every_bit(self, params, coarse_grid, monkeypatch,
                                             antithetic):
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START),
                ps.Arm(subscribe_at(0.5), charge=0.3)]
        n_paths = 2000 if antithetic else 1000
        run = lambda: ps.mc_multi(params, coarse_grid, n_paths, 9, arms, antithetic=antithetic,
                                  snapshot_times=(0.0, 0.5, 1.0))
        seen = self._chunks(monkeypatch)
        whole = run()
        assert seen == [(0, 1000, 1000)]
        monkeypatch.setattr(ps, "_DRAW_BYTES", 1)
        seen.clear()
        split = run()
        assert seen == [(0, 256, 256), (256, 256, 256), (512, 256, 256), (768, 232, 256)]
        for a, b in zip(whole, split):
            assert a.exponents.tobytes() == b.exponents.tobytes()
            assert a.snapshots.keys() == b.snapshots.keys()
            for k, snap in a.snapshots.items():
                for name, values in snap.items():
                    assert values.tobytes() == b.snapshots[k][name].tobytes(), (k, name)

    def test_draw_byte_bound_splits_mirrors_without_changing_a_bit(
            self, params, coarse_grid, monkeypatch):
        # 600 keys with 300 mirrors: the bound splits the first chunk inside
        # the mirror block, the second where it ends
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        step = lambda: ps._step_columns(params, coarse_grid, 9, arms, 600, 300, (0.5, 1.0))
        seen = self._chunks(monkeypatch)
        whole = step()
        monkeypatch.setattr(ps, "_DRAW_BYTES", 16 * coarse_grid.n_steps * 100)
        seen.clear()
        split = step()
        assert seen == [(0, 256, 256), (256, 256, 256), (512, 88, 256)]
        for got, want in zip(split[0] + split[1], whole[0] + whole[1]):
            assert got.exponents.tobytes() == want.exponents.tobytes()
            for k, snap in want.snapshots.items():
                for name, values in snap.items():
                    assert got.snapshots[k][name].tobytes() == values.tobytes(), (k, name)

    def test_long_grid_chunk_keeps_one_key_tile(self, params, monkeypatch):
        # at 10 000 steps 32 MiB holds 209 keys; a chunk still takes _KEYS = 256
        grid = make_grid(1.0, 10_000)
        assert ps._DRAW_BYTES // (16 * grid.n_steps) < ps._KEYS == 256
        seen = self._chunks(monkeypatch)
        ps._step_columns(params, grid, 9, [ps.Arm(INFORMED_FROM_START)], 300, 0)
        assert seen == [(0, 256, 256), (256, 44, 256)]

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


def _count_row_builds(monkeypatch) -> dict:
    """Count the calls that build the filter gains and the position factors."""
    calls = {"filter_gain": 0, "_cosh_cosh_over_cosh": 0}
    for module, name in ((sf, "filter_gain"), (ps, "_cosh_cosh_over_cosh")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestStepRows:
    """Each call builds the filter gains and the filtered-signal position
    factors of its (p, grid) at most once, and only the rows it reads."""

    @pytest.mark.parametrize("modes, gains, factors", [
        ([UNINFORMED, INFORMED_FROM_START, subscribe_at(0.5)], 1, 1),
        ([INFORMED_FROM_START], 0, 0),  # no arm reads the filter
    ])
    def test_engine(self, params, coarse_grid, monkeypatch, modes, gains, factors):
        calls = _count_row_builds(monkeypatch)
        ps.mc_multi(params, coarse_grid, 8, 9, [ps.Arm(mode, 0.3) for mode in modes],
                    snapshot_times=(0.5,))
        assert calls == {"filter_gain": gains, "_cosh_cosh_over_cosh": factors}

    def test_one_path_draws_build_only_the_gains(self, params, coarse_grid, monkeypatch):
        calls = _count_row_builds(monkeypatch)
        assert len(list(ps.simulate_paths(params, coarse_grid, 4, 9))) == 4
        assert calls == {"filter_gain": 1, "_cosh_cosh_over_cosh": 0}

    @pytest.mark.parametrize("mode, factors", [
        (UNINFORMED, 1), (subscribe_at(0.5), 1), (INFORMED_FROM_START, 0),
    ])
    def test_strategy_builds_only_the_position_factors(self, params, coarse_grid,
                                                        monkeypatch, mode, factors):
        bundle = next(ps.simulate_paths(params, coarse_grid, 1, 9))
        calls = _count_row_builds(monkeypatch)
        ps.run_strategy(params, coarse_grid, bundle, mode, 0.3)
        assert calls == {"filter_gain": 0, "_cosh_cosh_over_cosh": factors}


class TestExpectedUtility:
    # with no drift and no signal both rules hold exactly zero positions
    def test_zero_policy_degenerate(self, coarse_grid):
        p = dyadic_params(mu=0.0, sigma_y=0.0, y0=0.0)
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        for run in ps.mc_multi(p, coarse_grid, 50, 3, arms):
            est = run.estimate()
            assert est.mean == -math.exp(-p.gamma * p.x0) == -1.0
            assert est.std_err == 0.0

    def test_zero_policy_degenerate_any_wealth_and_aversion(self, coarse_grid):
        p = dyadic_params(mu=0.0, sigma_y=0.0, sigma_z=0.5, gamma=2.0, x0=1.5, y0=0.0)
        arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
        for run in ps.mc_multi(p, coarse_grid, 20, 3, arms):
            est = run.estimate()
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
