"""The fused step loop against a frozen copy of the staged recursions it replaced.

``mc_multi``, ``simulate_paths`` and ``run_strategy`` once drew time-major
increments for a whole chunk, integrated signal and price into (n+1, m)
matrices, filtered the whole price matrix, then integrated each arm's wealth
over it.  Those stages are kept below verbatim (the draws use a fresh Philox
generator per key instead of the re-keyed one).  Increments, signal, price
and filtered signal of the step loop must equal theirs bit for bit.

The step loop now pays each arm phi_k dS_k from the price increment it forms
once per step, where the frozen wealth stage adds phi_k (mu + Y_k) dt and
sigma_z phi_k dB^Z_k, so wealth differs from it at the rounding level: it is
held to ``_assert_rounding_close``, and to a staged phi dS recursion on the
same matrices bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from signalprice import INFORMED_FROM_START, UNINFORMED, make_grid, subscribe_at
from signalprice import closed_form as cf
from signalprice import path_sim as ps
from signalprice import verify_oracles as vo
from signalprice.closed_form import _cosh_cosh_over_cosh, noise_ratio
from signalprice.signal_filter import filter_gain
from signalprice.subscription_timing import RateSchedule

SEED = 11
EXPONENT_CAP = 700.0  # the staged engine clamped utility exponents here


# --- frozen staged oracle ---

def _staged_increments(seed, start, m, n_steps, dt, antithetic):
    keys = range(start // 2, (start + m) // 2) if antithetic else range(start, start + m)
    z = np.empty((len(keys), 2, n_steps))
    for j, index in enumerate(keys):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        z[j] = gen.standard_normal((2, n_steps))
    sqdt = math.sqrt(dt)
    by = sqdt * z[:, 0, :].T
    bz = sqdt * z[:, 1, :].T
    if antithetic:
        by, bz = (np.stack([h, -h], axis=2).reshape(n_steps, m) for h in (by, bz))
    return by, bz


def _integrate_signal_price(p, t, by, bz):
    n = t.shape[0] - 1
    dt = t[1] - t[0]
    y = np.empty((n + 1,) + by.shape[1:], dtype=float)
    s = np.empty_like(y)
    y[0] = p.y0
    s[0] = p.s0
    for k in range(n):
        y[k + 1] = y[k] + p.sigma_y * by[k]
        s[k + 1] = s[k] + (p.mu + y[k]) * dt + p.sigma_z * bz[k]
    return y, s


def _filter_prices(p, t, s):
    n = t.shape[0] - 1
    dt = t[1] - t[0]
    gains = filter_gain(p, t[:-1])
    y_hat = np.empty_like(s)
    y_hat[0] = p.y0
    for k in range(n):
        ds = s[k + 1] - s[k]
        db_hat = (ds - (p.mu + y_hat[k]) * dt) / p.sigma_z
        y_hat[k + 1] = y_hat[k] + gains[k] * db_hat
    return y_hat


def _integrate_wealth(p, t, y, y_hat, bz, k_star, lump, sched_rates, policy=None,
                      keep_path=True, snapshot_idx=()):
    n = t.shape[0] - 1
    dt = t[1] - t[0]
    gs = p.gamma * p.sigma_z**2
    a = noise_ratio(p)
    tk = t[:-1]
    ufac = _cosh_cosh_over_cosh(a * (p.t_end - tk), a * tk) / gs

    x = np.full(y.shape[1:], p.x0, dtype=float)
    if k_star == 0:
        x = x - lump
    snapshots = {}
    if 0 in snapshot_idx:
        snapshots[0] = x.copy()
    path = None
    if keep_path:
        path = np.empty_like(y)
        path[0] = x

    for k in range(n):
        informed = k_star is not None and k >= k_star
        if policy is not None:
            yh_k = None if y_hat is None else y_hat[k]
            phi = policy(tk[k], y[k], yh_k, informed)
        elif informed:
            phi = (p.mu + y[k]) / gs
        else:
            phi = (p.mu + y_hat[k]) * ufac[k]
        x = x + phi * (p.mu + y[k]) * dt + p.sigma_z * phi * bz[k]
        if sched_rates is not None and informed:
            x = x - sched_rates[k] * dt
        if k_star is not None and k + 1 == k_star:
            x = x - lump
        if keep_path:
            path[k + 1] = x
        if (k + 1) in snapshot_idx:
            snapshots[k + 1] = x.copy()
    return (path if keep_path else x), snapshots


# --- staged phi dS recursion: the wealth order of the step loop ---

def _integrate_wealth_ds(p, t, y, y_hat, bz, k_star, lump, sched_rates,
                         keep_path=True, snapshot_idx=(), phi_scale=1.0, price_noise=True):
    """``_integrate_wealth`` with the gain phi_k dS_k, dS formed as one (n, m)
    matrix.  ``phi_scale`` and ``price_noise`` exist to plant faults."""
    n = t.shape[0] - 1
    dt = t[1] - t[0]
    gs = p.gamma * p.sigma_z**2
    a = noise_ratio(p)
    tk = t[:-1]
    ufac = _cosh_cosh_over_cosh(a * (p.t_end - tk), a * tk) / gs
    ds = (p.mu + y[:-1]) * dt
    if price_noise:
        ds = ds + p.sigma_z * bz

    x = np.full(y.shape[1:], p.x0, dtype=float)
    if k_star == 0:
        x = x - lump
    snapshots = {0: x.copy()} if 0 in snapshot_idx else {}
    path = np.empty_like(y) if keep_path else None
    if keep_path:
        path[0] = x
    for k in range(n):
        informed = k_star is not None and k >= k_star
        phi = (p.mu + y[k]) / gs if informed else (p.mu + y_hat[k]) * ufac[k]
        x = x + (phi * phi_scale) * ds[k]
        if sched_rates is not None and informed:
            x = x - sched_rates[k] * dt
        if k_star is not None and k + 1 == k_star:
            x = x - lump
        if keep_path:
            path[k + 1] = x
        if (k + 1) in snapshot_idx:
            snapshots[k + 1] = x.copy()
    return (path if keep_path else x), snapshots


def _assert_rounding_close(got, want, n_steps):
    """|got - want| <= 8 n_steps eps max(1, max |want|): the rounding of n steps
    of a few operations each, relative to the largest compared value."""
    got, want = np.asarray(got), np.asarray(want)
    bound = 8 * n_steps * np.finfo(float).eps * max(1.0, float(np.max(np.abs(want))))
    assert np.all(np.abs(got - want) <= bound), float(np.max(np.abs(got - want))) / bound


def _staged_mc_multi(p, grid, n_paths, seed, arms, antithetic, snapshot_times, chunk_size,
                     integrate_wealth=_integrate_wealth):
    resolved = [ps._resolve_charges(p, grid, arm.mode, arm.charge) for arm in arms]
    needs_filter = any(k_star is None or k_star > 0 for k_star, _, _ in resolved)
    snap_idx = tuple(sorted({grid.index_of(s) for s in snapshot_times}))
    out = [{"e": np.empty(n_paths), "u": np.empty(n_paths), "snap": {k: {"x": np.empty(n_paths), "y": np.empty(n_paths),
                                                   "y_hat": np.empty(n_paths)} for k in snap_idx}}
           for _ in arms]
    if antithetic:
        chunk_size += chunk_size % 2
    for start in range(0, n_paths, chunk_size):
        m = min(chunk_size, n_paths - start)
        by, bz = _staged_increments(seed, start, m, grid.n_steps, grid.dt, antithetic)
        y, s = _integrate_signal_price(p, grid.t, by, bz)
        y_hat = _filter_prices(p, grid.t, s) if needs_filter else None
        for res, (k_star, lump, sched_rates) in zip(out, resolved):
            x_T, snap_x = integrate_wealth(
                p, grid.t, y, y_hat, bz, k_star, lump, sched_rates,
                keep_path=False, snapshot_idx=snap_idx,
            )
            res["e"][start : start + m] = -p.gamma * x_T
            res["u"][start : start + m] = -np.exp(np.minimum(-p.gamma * x_T, EXPONENT_CAP))
            for k in snap_idx:
                res["snap"][k]["x"][start : start + m] = snap_x[k]
                res["snap"][k]["y"][start : start + m] = y[k]
                if needs_filter:
                    res["snap"][k]["y_hat"][start : start + m] = y_hat[k]
                else:
                    res["snap"][k]["y_hat"] = None
    return out


# --- the step loop must reproduce it ---

def _arms(params):
    flat = RateSchedule.constant(cf.continuous_price(params).c_bar, params.t_end)
    return [
        ps.Arm(UNINFORMED),
        ps.Arm(INFORMED_FROM_START, charge=0.7),          # lump at k* = 0
        ps.Arm(subscribe_at(0.5), charge=0.3),            # lump at k* > 0
        ps.Arm(subscribe_at(0.25), charge=flat),          # rate schedule
        ps.Arm(subscribe_at(1.0), charge=flat),           # subscribes at the horizon
    ]


def _bits(a):
    return None if a is None else np.asarray(a).tobytes()


def _assert_runs_match(runs, staged, staged_ds, n_steps):
    """Engine runs against the frozen stages: signal and filter bit for bit,
    wealth and exponents within rounding, and the phi dS stages bit for bit."""
    for run, want, want_ds in zip(runs, staged, staged_ds):
        _assert_rounding_close(run.exponents, want["e"], n_steps)
        assert _bits(run.exponents) == _bits(want_ds["e"])
        assert _bits(run.utilities) == _bits(want_ds["u"])
        for k, snap in run.snapshots.items():
            for name in ("y", "y_hat"):
                assert _bits(snap[name]) == _bits(want["snap"][k][name]), (k, name)
            _assert_rounding_close(snap["x"], want["snap"][k]["x"], n_steps)
            assert _bits(snap["x"]) == _bits(want_ds["snap"][k]["x"]), k


# 70 steps: two full blocks of 32 and a partial one; 600 paths in one chunk
# span several key tiles.
@pytest.mark.parametrize("n_steps", [5, 70])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("n_paths,chunk_size", [(30, 3), (30, 8), (600, 8192)])
def test_engine_matches_staged_oracle(params, monkeypatch, n_steps, antithetic, n_paths,
                                      chunk_size):
    grid = make_grid(1.0, n_steps)
    arms = _arms(params)
    snapshot_times = (0.0, 0.3, 1.0)  # grid indices 0, interior and n
    monkeypatch.setattr(ps, "_COLUMNS", chunk_size)
    runs = ps.mc_multi(params, grid, n_paths, SEED, arms, antithetic=antithetic,
                       snapshot_times=snapshot_times)
    staged, staged_ds = (
        _staged_mc_multi(params, grid, n_paths, SEED, arms, antithetic, snapshot_times,
                         chunk_size, integrate_wealth)
        for integrate_wealth in (_integrate_wealth, _integrate_wealth_ds)
    )
    assert sorted(runs[0].snapshots) == [0, grid.index_of(0.3), n_steps]
    _assert_runs_match(runs, staged, staged_ds, n_steps)


def test_engine_without_filter_matches_staged_oracle(params, monkeypatch):
    # informed-only arms skip the filter; snapshots then carry no y_hat
    grid = make_grid(1.0, 40)
    arms = [ps.Arm(INFORMED_FROM_START), ps.Arm(INFORMED_FROM_START, charge=1.5)]
    monkeypatch.setattr(ps, "_COLUMNS", 8)
    runs = ps.mc_multi(params, grid, 50, SEED, arms, snapshot_times=(0.0, 1.0))
    staged, staged_ds = (
        _staged_mc_multi(params, grid, 50, SEED, arms, False, (0.0, 1.0), 8, integrate_wealth)
        for integrate_wealth in (_integrate_wealth, _integrate_wealth_ds)
    )
    for run, want in zip(runs, staged):
        for k, snap in run.snapshots.items():
            assert snap["y_hat"] is None and want["snap"][k]["y_hat"] is None
    _assert_runs_match(runs, staged, staged_ds, grid.n_steps)


def test_per_path_api_matches_staged_oracle(params):
    grid = make_grid(1.0, 70)
    for index, bundle in enumerate(ps.simulate_paths(params, grid, 4, SEED)):
        by, bz = (b[:, 0] for b in _staged_increments(SEED, index, 1, grid.n_steps, grid.dt, False))
        y, s = _integrate_signal_price(params, grid.t, by, bz)
        y_hat = _filter_prices(params, grid.t, s)
        for got, want in ((bundle.by_incr, by), (bundle.bz_incr, bz), (bundle.y, y),
                          (bundle.s, s), (ps.filtered_signal(params, grid, bundle), y_hat)):
            assert got.shape == want.shape and _bits(got) == _bits(want)
        for arm in _arms(params):
            k_star, lump, rates = ps._resolve_charges(params, grid, arm.mode, arm.charge)
            needs_filter = k_star is None or k_star > 0
            args = (params, grid.t, y, y_hat if needs_filter else None, bz, k_star, lump, rates)
            want, _ = _integrate_wealth(*args)
            want_ds, _ = _integrate_wealth_ds(*args)
            got = ps.run_strategy(params, grid, bundle, arm.mode, arm.charge)
            assert got.shape == want.shape
            _assert_rounding_close(got, want, grid.n_steps)
            assert _bits(got) == _bits(want_ds)


@pytest.mark.parametrize("fault", [{"phi_scale": 1 + 1e-9}, {"price_noise": False}])
def test_rounding_bound_catches_a_wealth_fault(params, fault):
    # the bound admits the phi dS order and rejects a position off by 1e-9
    # relative or a gain without the price noise, on every arm
    grid = make_grid(1.0, 70)
    by, bz = _staged_increments(SEED, 0, 600, grid.n_steps, grid.dt, False)
    y, s = _integrate_signal_price(params, grid.t, by, bz)
    y_hat = _filter_prices(params, grid.t, s)
    for arm in _arms(params):
        k_star, lump, rates = ps._resolve_charges(params, grid, arm.mode, arm.charge)
        args = (params, grid.t, y, y_hat, bz, k_star, lump, rates)
        want, _ = _integrate_wealth(*args)
        _assert_rounding_close(_integrate_wealth_ds(*args)[0], want, grid.n_steps)
        with pytest.raises(AssertionError):
            _assert_rounding_close(_integrate_wealth_ds(*args, **fault)[0], want, grid.n_steps)


def test_engine_holds_no_path_matrix(params):
    # A chunk holds its draws (keys, 2, n) plus one block; the staged engine
    # also held (n+1, m) signal, price, filter and increment matrices.
    grid = make_grid(1.0, 1000)
    m = 512
    draws_bytes = m * 2 * grid.n_steps * 8
    path_matrix_bytes = (grid.n_steps + 1) * m * 8
    arms = [ps.Arm(UNINFORMED), ps.Arm(INFORMED_FROM_START)]
    tracemalloc.start()
    try:
        ps.mc_multi(params, grid, m, SEED, arms, snapshot_times=(0.5, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < draws_bytes + path_matrix_bytes


def test_verify_checks_hold_one_bounded_draw_buffer(params):
    # verify --suite all at 4096 paths and 1000 steps steps 4096 keys plus
    # 2048 mirrors; its draws stay within one _DRAW_BYTES buffer (the 6144
    # columns in one chunk drew 65.5 MB)
    grid = make_grid(1.0, 1000)
    tracemalloc.start()
    try:
        vo.mc_reports(params, grid, 4096, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ps._DRAW_BYTES + 16 * 2**20


def test_six_arm_call_holds_the_path_state_once(params):
    # the subscribe_arms call: 20000 paths, 100 steps, six arms, four
    # snapshots.  Each time's y and y_hat are held once for all arms and a
    # chunk takes 4096 columns: about 15 MiB traced, where a y and y_hat per
    # arm and 8192-column chunks take about 30 MiB
    grid = make_grid(1.0, 100)
    schedule = RateSchedule.constant(cf.continuous_price(params).c_bar, params.t_end)
    arms = [ps.Arm(UNINFORMED)] + [ps.Arm(subscribe_at(t), charge=schedule)
                                   for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    tracemalloc.start()
    try:
        ps.mc_multi(params, grid, 20000, SEED, arms, snapshot_times=(0.25, 0.5, 0.75, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
