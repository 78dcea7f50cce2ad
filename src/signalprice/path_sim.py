"""Seeded simulation of (signal, price) paths and strategy wealth.

Euler-Maruyama on a uniform grid with left-point strategy evaluation (no
lookahead):

    Y[k+1] = Y[k] + sigma_y * dB^Y_k
    S[k+1] = S[k] + (mu + Y[k]) dt + sigma_z * dB^Z_k
    X[k+1] = X[k] + phi_k (mu + Y[k]) dt + sigma_z phi_k dB^Z_k - charges

Randomness is counter-based: path ``i`` of a run with seed ``s`` (an integer
in [0, 2**64)) draws from a Philox stream keyed by (s, i), so every path is a
pure function of (seed, index) regardless of chunk size or evaluation order.
Antithetic mode derives paths 2j and 2j+1 from the same keyed draw with
opposite signs.

Internals hold path chunks time-major (step axis first) so the per-step
recursions touch contiguous memory.  The one-path ``PathBundle`` API and the
chunked Monte-Carlo engine share one draw routine
(``_SubstreamDrawer.increments``) and the same integration kernels, so the
two agree bit for bit.  ``mc_multi`` evaluates several (mode, charge) arms on
one shared set of paths: common random numbers for indifference comparisons.
``mean_std_err`` is the one standard-error rule, pairing antithetic values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import signal_filter
from .closed_form import EXPONENT_CAP, _cosh_cosh_over_cosh, noise_ratio
from .model_core import (
    DomainError,
    InformationMode,
    ModelParams,
    TimeGrid,
    UNINFORMED,
)
from .subscription_timing import RateSchedule

# position hook signature: (t_k, y_k, y_hat_k | None, informed) -> positions
Policy = Callable[[float, np.ndarray, np.ndarray | None, bool], np.ndarray]


class _SubstreamDrawer:
    """Draws from per-path Philox substreams keyed by (seed, index).

    One Philox is re-keyed in place per path (counter and buffer reset), which
    yields exactly the draws of a fresh generator with that key, without
    building one per path.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self._bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def normals(self, index: int, shape) -> np.ndarray:
        st = self._state
        st["state"]["key"][1] = index
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen.standard_normal(shape)

    def increments(self, start: int, m: int, n_steps: int, dt: float, antithetic: bool = False):
        """Time-major (dB^Y, dB^Z), each (n_steps, m) with variance dt, for paths
        ``start .. start + m - 1``.

        Antithetic paths 2j and 2j+1 take keyed draw j with opposite signs, so
        ``start`` and ``m`` must be even.
        """
        keys = range(start // 2, (start + m) // 2) if antithetic else range(start, start + m)
        z = np.empty((len(keys), 2, n_steps))
        for j, index in enumerate(keys):
            z[j] = self.normals(index, (2, n_steps))
        sqdt = math.sqrt(dt)
        by = sqdt * z[:, 0, :].T  # column j bit-equal to a one-path draw of key j
        bz = sqdt * z[:, 1, :].T
        if antithetic:
            by, bz = (np.stack([h, -h], axis=2).reshape(n_steps, m) for h in (by, bz))
        return by, bz


@dataclass
class PathBundle:
    """One simulated scenario.

    ``y_hat`` is filled lazily (first call to ``filtered_signal``).
    Increments have variance dt and are reproducible from (seed, index).
    """

    t: np.ndarray
    by_incr: np.ndarray
    bz_incr: np.ndarray
    y: np.ndarray
    s: np.ndarray
    y_hat: np.ndarray | None = None


def filtered_signal(p: ModelParams, grid: TimeGrid, bundle: PathBundle) -> np.ndarray:
    """Filtered signal along the bundle's price path (cached on the bundle)."""
    if bundle.y_hat is None:
        bundle.y_hat = signal_filter.filter_path(p, grid, bundle.s).y_hat
    return bundle.y_hat


def _integrate_signal_price(p: ModelParams, t: np.ndarray, by: np.ndarray, bz: np.ndarray):
    """Signal and price paths from time-major increments of shape (n, ...)."""
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


def simulate_paths(
    p: ModelParams, grid: TimeGrid, n_paths: int, seed: int
) -> Iterator[PathBundle]:
    """Yield ``n_paths`` independent scenarios, one per (seed, index) substream."""
    drawer = _SubstreamDrawer(seed)
    for index in range(n_paths):
        by, bz = (b[:, 0] for b in drawer.increments(index, 1, grid.n_steps, grid.dt))
        y, s = _integrate_signal_price(p, grid.t, by, bz)
        yield PathBundle(t=grid.t, by_incr=by, bz_incr=bz, y=y, s=s)


def _resolve_charges(
    p: ModelParams,
    grid: TimeGrid,
    mode: InformationMode,
    charge: float | RateSchedule,
):
    """(k_star, lump, per-step schedule rates) for a mode/charge combination."""
    if mode.subscribe_time is not None and mode.subscribe_time > grid.t_end + 0.5 * grid.dt:
        raise DomainError(
            f"subscribe time {mode.subscribe_time!r} is beyond the horizon {grid.t_end!r}"
        )
    mode = mode.snapped_to(grid)
    k_star = None if mode.subscribe_time is None else grid.index_of(mode.subscribe_time)
    lump = 0.0
    sched_rates = None
    if isinstance(charge, RateSchedule):
        if k_star is not None:
            charge.require_cover(grid.t[k_star], grid.t_end)
            sched_rates = charge(grid.t[:-1])
    else:
        lump = float(charge)
    return k_star, lump, sched_rates


def _integrate_wealth(
    p: ModelParams,
    t: np.ndarray,
    y: np.ndarray,
    y_hat: np.ndarray | None,
    bz: np.ndarray,
    k_star: int | None,
    lump: float,
    sched_rates: np.ndarray | None,
    policy: Policy | None = None,
    keep_path: bool = True,
    snapshot_idx: tuple[int, ...] = (),
):
    """Wealth along time-major paths of shape (n+1, ...).

    Returns (wealth, snapshots): the full path when ``keep_path`` else the
    terminal slice, and a dict of requested grid indices to wealth there.
    """
    n = t.shape[0] - 1
    dt = t[1] - t[0]
    gs = p.gamma * p.sigma_z**2
    a = noise_ratio(p)
    tk = t[:-1]
    # deterministic part of the filtered-signal position, one value per step
    ufac = _cosh_cosh_over_cosh(a * (p.t_end - tk), a * tk) / gs

    x = np.full(y.shape[1:], p.x0, dtype=float)
    if k_star == 0:
        x = x - lump
    snapshots: dict[int, np.ndarray] = {}
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


def run_strategy(
    p: ModelParams,
    grid: TimeGrid,
    bundle: PathBundle,
    mode: InformationMode,
    charge: float | RateSchedule = 0.0,
    policy: Policy | None = None,
) -> np.ndarray:
    """Wealth path of one scenario under a mode's optimal position rule.

    The position at t_k uses only information available at t_k: the true
    signal once subscribed, the filtered signal otherwise.  A lump ``charge``
    is deducted at the purchase time; a RateSchedule accrues c(t_k) dt per
    subscribed step.  ``policy`` overrides the position rule (test hook).
    """
    k_star, lump, sched_rates = _resolve_charges(p, grid, mode, charge)
    needs_filter = policy is not None or k_star is None or k_star > 0
    y_hat = filtered_signal(p, grid, bundle) if needs_filter else None
    x, _ = _integrate_wealth(
        p, grid.t, bundle.y, y_hat, bundle.bz_incr, k_star, lump, sched_rates, policy
    )
    return x


def mean_std_err(values: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Sample mean and its standard error over paths (axis 0).

    Antithetic values (paths 2j, 2j+1 mirrored) are averaged in pairs first,
    and the standard error is that of the independent pair means.
    """
    samples = values.reshape(-1, 2).mean(axis=1) if antithetic else values
    se = np.std(samples, ddof=1) / math.sqrt(samples.shape[0])
    return float(np.mean(values)), float(se)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error.

    ``n_saturated`` counts paths whose utility exponent exceeded the overflow
    cap and was floored at -exp(cap); a nonzero count flags an unreliable
    mean rather than silently clipping.
    """

    mean: float
    std_err: float
    n_paths: int
    n_saturated: int = 0


@dataclass
class McRun:
    """Raw per-path utilities plus optional state snapshots at grid indices."""

    utilities: np.ndarray
    n_saturated: int
    antithetic: bool
    snapshots: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def estimate(self) -> McEstimate:
        mean, se = mean_std_err(self.utilities, self.antithetic)
        return McEstimate(mean, se, self.utilities.shape[0], self.n_saturated)


@dataclass(frozen=True)
class Arm:
    """One (mode, charge, policy) evaluation sharing the common paths."""

    mode: InformationMode = UNINFORMED
    charge: float | RateSchedule = 0.0
    policy: Policy | None = None


def mc_multi(
    p: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    arms: list[Arm],
    antithetic: bool = False,
    snapshot_times: tuple[float, ...] = (),
    chunk_size: int = 8192,
) -> list[McRun]:
    """Terminal utilities -exp(-gamma X_T) for several arms on shared paths.

    All arms see identical (seed, index) scenarios (common random numbers);
    only the position rule and charges differ.  Snapshot times are snapped to
    the grid; each snapshot stores per-path wealth, signal, and (when
    computed) filtered signal for martingale-style checks.
    """
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    if antithetic and n_paths % 2:
        raise DomainError(f"antithetic runs need an even path count, got {n_paths}")
    resolved = [_resolve_charges(p, grid, arm.mode, arm.charge) for arm in arms]
    needs_filter = any(
        arm.policy is not None or k_star is None or k_star > 0
        for arm, (k_star, _, _) in zip(arms, resolved)
    )
    snap_idx = tuple(sorted({grid.index_of(s) for s in snapshot_times}))

    runs = [
        McRun(
            utilities=np.empty(n_paths, dtype=float),
            n_saturated=0,
            antithetic=antithetic,
            snapshots={
                k: {
                    "x": np.empty(n_paths),
                    "y": np.empty(n_paths),
                    "y_hat": np.empty(n_paths) if needs_filter else None,
                }
                for k in snap_idx
            },
        )
        for _ in arms
    ]
    if antithetic:
        chunk_size += chunk_size % 2

    drawer = _SubstreamDrawer(seed)
    for start in range(0, n_paths, chunk_size):
        m = min(chunk_size, n_paths - start)
        by, bz = drawer.increments(start, m, grid.n_steps, grid.dt, antithetic)
        y, s = _integrate_signal_price(p, grid.t, by, bz)
        y_hat = signal_filter._filter_prices(p, grid.t, s)[0] if needs_filter else None
        for run, arm, (k_star, lump, sched_rates) in zip(runs, arms, resolved):
            x_T, snap_x = _integrate_wealth(
                p, grid.t, y, y_hat, bz, k_star, lump, sched_rates, arm.policy,
                keep_path=False, snapshot_idx=snap_idx,
            )
            z_exp = -p.gamma * x_T
            run.n_saturated += int(np.count_nonzero(z_exp > EXPONENT_CAP))
            run.utilities[start : start + m] = -np.exp(np.minimum(z_exp, EXPONENT_CAP))
            for k in snap_idx:
                run.snapshots[k]["x"][start : start + m] = snap_x[k]
                run.snapshots[k]["y"][start : start + m] = y[k]
                if needs_filter:
                    run.snapshots[k]["y_hat"][start : start + m] = y_hat[k]
    return runs


def mc_run(
    p: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    mode: InformationMode = UNINFORMED,
    charge: float | RateSchedule = 0.0,
    antithetic: bool = False,
    policy: Policy | None = None,
    snapshot_times: tuple[float, ...] = (),
    chunk_size: int = 8192,
) -> McRun:
    """Single-arm version of ``mc_multi``."""
    return mc_multi(
        p, grid, n_paths, seed, [Arm(mode, charge, policy)],
        antithetic=antithetic, snapshot_times=snapshot_times, chunk_size=chunk_size,
    )[0]


def expected_utility(
    p: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    mode: InformationMode = UNINFORMED,
    charge: float | RateSchedule = 0.0,
    antithetic: bool = False,
    policy: Policy | None = None,
) -> McEstimate:
    """Monte-Carlo estimate of E[-exp(-gamma X_T)] under a mode."""
    run = mc_run(
        p, grid, n_paths, seed, mode=mode, charge=charge,
        antithetic=antithetic, policy=policy,
    )
    return run.estimate()


def write_path_csv(path, t, y, y_hat, s, wealth_columns: dict[str, np.ndarray]) -> None:
    """One scenario as CSV: t,y,y_hat,s,x_<label> columns, 17 significant digits."""
    header = "t,y,y_hat,s," + ",".join(f"x_{label}" for label in wealth_columns)
    cols = [t, y, y_hat, s, *wealth_columns.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


__all__ = [
    "PathBundle",
    "McEstimate",
    "McRun",
    "Arm",
    "mean_std_err",
    "simulate_paths",
    "filtered_signal",
    "run_strategy",
    "mc_multi",
    "mc_run",
    "expected_utility",
    "write_path_csv",
]
