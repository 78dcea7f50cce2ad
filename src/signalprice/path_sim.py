"""Seeded simulation of (signal, price) paths and strategy wealth.

Euler-Maruyama on a uniform grid with left-point strategy evaluation (no
lookahead):

    Y[k+1] = Y[k] + sigma_y * dB^Y_k
    S[k+1] = S[k] + dS_k,   dS_k = (mu + Y[k]) dt + sigma_z * dB^Z_k
    X[k+1] = X[k] + phi_k dS_k - charges,   dS_k formed once per step

Randomness is counter-based: path ``i`` of a run with seed ``s`` (an integer
in [0, 2**64)) draws from a Philox stream keyed by (s, i), so every path is a
pure function of (seed, index) regardless of chunk size or evaluation order.
Antithetic mode derives paths 2j and 2j+1 from the same keyed draw with
opposite signs.

A chunk's draws are held path-major (keys, 2, n), as the keyed streams
produce them, in one buffer that every chunk of a run reuses.  A chunk takes
at most ``_COLUMNS`` (4096) columns and ``_DRAW_BYTES`` (32 MiB) of draws, but
never fewer than ``_KEYS`` (256) keys: within 32 MiB on grids up to 8192
steps.  The engine steps columns [+ keys 0 .. K-1 | - keys 0 .. M-1]
(``_step_columns``), so the mirrors are one contiguous negation, and hands
back the plain runs over the + columns and, with M > 0, the paired runs of
the first M keys and their mirrors in antithetic path order: ``mc_multi``
takes M = 0 or M = K (antithetic).  One step loop (``_integrate``,
with ``_Wealth`` for the arms) advances signal, price, filtered signal and
every arm's wealth a step at a time on (m,) rows, updated in place.  It reads
the increments in blocks of a few dozen steps, scaled and transposed into one
reused time-major buffer, so a chunk holds its draws plus one block and no
(n+1, m) path matrix.  The one-path API runs the same step code on floats:
``simulate_paths`` is the case without arms, filter included, and
``run_strategy`` steps one arm's wealth along a bundle, so the engine and the
API agree bit for bit.  ``_Wealth`` is the one place that resolves arms
(purchase index, charges, whether the filter is needed) for both.  Every arm
holds one of the two closed-form position rules at each step: the true-signal
rule once subscribed, the filtered-signal rule before.
``mc_multi`` evaluates several (mode, charge) arms on one shared set of
paths: common random numbers for indifference comparisons; a snapshot's
signal and filtered signal are one read-only row for every arm.
``mean_std_err`` is the one standard-error rule, pairing antithetic values,
and ``z_score`` the one rule for a z against a reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import signal_filter
from .closed_form import _cosh_cosh_over_cosh, noise_ratio, utility_from_exponent
from .model_core import (
    DomainError,
    InformationMode,
    ModelParams,
    TimeGrid,
    UNINFORMED,
    write_csv,
)
from .subscription_timing import RateSchedule

class _SubstreamDrawer:
    """Draws from per-path Philox substreams keyed by (seed, index).

    One Philox is re-keyed in place per path (zero counter, empty buffer), which
    yields exactly the draws of a fresh generator with that key, without
    building one per path.  The state is kept as plain Python ints, which the
    state setter reads about 4x faster than numpy arrays.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self._bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._key = [seed, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def normals(self, index: int, out: np.ndarray) -> np.ndarray:
        """Fill C-contiguous float ``out`` with the standard normals of key ``index``."""
        self._key[1] = index
        self._bitgen.state = self._state
        return self._gen.standard_normal(out=out)

    def fill(self, first: int, z: np.ndarray) -> np.ndarray:
        """Fill path-major ``z`` (keys, 2, n_steps) with keys ``first``, ``first + 1``, ...

        Row 0 of a key drives dB^Y and row 1 dB^Z.  Antithetic paths 2j and
        2j+1 share key j with opposite signs.
        """
        for j in range(z.shape[0]):
            self.normals(first + j, z[j])
        return z


# Increments are scaled and transposed in blocks of _BLOCK steps into one
# reused (2, _BLOCK, m) buffer, _KEYS keys at a time, so that the strided reads
# of one copy touch few pages.  A chunk draws 16 bytes per key and step.
_BLOCK = 32
_KEYS = 256
_DRAW_BYTES = 32 * 2**20
# At most this many columns per chunk (paths, antithetic mirrors included)
_COLUMNS = 4096

# One float64 array holds at most this many elements; numpy refuses larger
# shapes with a message that names no input.
MAX_PATHS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# The most steps whose draws for one key fit in _DRAW_BYTES: 2,097,152.
MAX_STEPS = _DRAW_BYTES // 16


def _increment_rows(z: np.ndarray, dt: float, n_mirrors: int) -> Iterator[tuple]:
    """(dB^Y_k, dB^Z_k) for k = 0 .. n-1, each an (m,) row with variance dt.

    ``z`` holds path-major draws (keys, 2, n).  Each block of ``_BLOCK`` steps
    is scaled and transposed into one reused C-contiguous (2, _BLOCK, m)
    buffer, so a chunk holds its draws plus one block, and every row is
    contiguous.  The columns are [+ keys | - first ``n_mirrors`` keys], so
    m = keys + n_mirrors.  A yielded row is overwritten by the next block.
    """
    keys, _, n = z.shape
    sqdt = math.sqrt(dt)
    block = np.empty((2, _BLOCK, keys + n_mirrors))
    drawn = block[:, :, :keys]
    for k0 in range(0, n, _BLOCK):
        b = min(_BLOCK, n - k0)
        for j in range(0, keys, _KEYS):
            tile = z[j : j + _KEYS, :, k0 : k0 + b].transpose(1, 2, 0)
            np.multiply(tile, sqdt, out=drawn[:, :b, j : j + _KEYS])
        if n_mirrors:
            np.negative(drawn[:, :b, :n_mirrors], out=block[:, :b, keys:])
        for j in range(b):
            yield block[0, j], block[1, j]


def _filter_gains(p: ModelParams, grid: TimeGrid) -> list:
    """Filter gain g(t_k) of each step k < n, as floats."""
    return signal_filter.filter_gain(p, grid.t[:-1]).tolist()


def _position_factors(p: ModelParams, grid: TimeGrid) -> list:
    """Deterministic part of the filtered-signal position at t_k, k < n, as floats."""
    tk = grid.t[:-1]
    a = noise_ratio(p)
    return (_cosh_cosh_over_cosh(a * (p.t_end - tk), a * tk) / (p.gamma * p.sigma_z**2)).tolist()


class _Wealth:
    """Every arm's wealth on shared paths, advanced one step at a time.

    Built once per run: each ``Arm`` is resolved to (k_star, lump, per-step
    schedule rates), and ``needs_filter`` says whether any arm reads the
    filtered signal.  ``start(m)`` sets the initial wealth, one float per arm
    for a single path (``m`` None) or one (m,) array per arm, updated in
    place.  An arm holds the true-signal rule once subscribed and the
    filtered-signal rule before, so each step forms each rule's gain at most
    once, whatever the number of arms.
    """

    def __init__(self, p: ModelParams, grid: TimeGrid, arms: list[Arm]):
        self.x0 = p.x0
        self.dt = grid.dt
        self.gs = p.gamma * p.sigma_z**2
        self.arms = []
        for arm in arms:
            k_star, lump, rates = _resolve_charges(p, grid, arm.mode, arm.charge)
            # an arm that never subscribes gets k_star = n + 1: never informed, never charged
            self.arms.append((grid.n_steps + 1 if k_star is None else k_star, lump,
                              None if rates is None else rates.tolist()))
        # only arms informed from the start never read the filter or its position factors
        self.needs_filter = any(k_star > 0 for k_star, _, _ in self.arms)
        self.ufac = _position_factors(p, grid) if self.needs_filter else None
        self.x = []

    def start(self, m: int | None) -> None:
        """Initial wealth x0, less a lump paid at t = 0: floats, or (m,) rows."""
        fresh = lambda: float(self.x0) if m is None else np.full(m, self.x0)
        self.x = [fresh() - lump if k_star == 0 else fresh() for k_star, lump, _ in self.arms]

    def step(self, k: int, my, mh, ds) -> None:
        """Step k: positions from information at t_k (``my`` is mu + y and
        ``mh`` mu + y_hat), the trading gain phi dS over [t_k, t_k+1), then
        schedule and lump charges."""
        dt, x = self.dt, self.x
        gains = [None, None]  # of the filtered-signal and the true-signal rule
        for i, (k_star, lump, rates) in enumerate(self.arms):
            informed = k >= k_star
            gain = gains[informed]
            if gain is None:
                gain = my / self.gs if informed else mh * self.ufac[k]
                gain *= ds
                gains[informed] = gain
            x_i = x[i]
            x_i += gain
            if rates is not None and informed:
                x_i -= rates[k] * dt
            if k + 1 == k_star:
                x_i -= lump
            x[i] = x_i


def _integrate(p: ModelParams, grid: TimeGrid, rows, y, s, y_hat=None, gains=None,
               wealth=None):
    """Yield (y, s, y_hat) at grid indices 0 .. n, one Euler step per increment row.

    The state is floats (one path) or (m,) arrays, which are updated in place:
    a consumer copies what it keeps before asking for the next step.
    ``y_hat`` None skips the filter, else ``gains`` holds the filter gain of
    each step (``_filter_gains``); ``wealth`` advances with the same rows.  The
    filter step is ``signal_filter.filter_path``'s recursion evaluated in the
    same order, so the two agree bit for bit.
    """
    mu, sigma_y, sigma_z = p.mu, p.sigma_y, p.sigma_z
    dt = grid.dt
    mh = None
    yield y, s, y_hat
    for k, (by, bz) in enumerate(rows):
        # s_next = (my dt + s) + sigma_z bz and, from its two products, dS; the
        # operands of every rounding stay the same (IEEE sums and products
        # commute), so the bits do.
        my = mu + y
        ds = my * dt
        noise = sigma_z * bz
        s_next = ds + s
        s_next += noise
        if y_hat is not None:
            # y_hat + g_k (s_next - s - mh dt) / sigma_z
            mh = mu + y_hat
            innovation = s_next - s
            innovation -= mh * dt
            innovation /= sigma_z
            innovation *= gains[k]
            y_hat += innovation
        if wealth is not None:
            ds += noise
            wealth.step(k, my, mh, ds)
        y += sigma_y * by
        s = s_next
        yield y, s, y_hat


@dataclass
class PathBundle:
    """One simulated scenario: increments, signal, price and filtered signal.

    ``y_hat`` comes from the same step loop as ``y`` and ``s``.  Increments
    have variance dt and are reproducible from (seed, index).
    """

    t: np.ndarray
    by_incr: np.ndarray
    bz_incr: np.ndarray
    y: np.ndarray
    s: np.ndarray
    y_hat: np.ndarray


def filtered_signal(p: ModelParams, grid: TimeGrid, bundle: PathBundle) -> np.ndarray:
    """Filtered signal along the bundle's price path, as the step loop computed it."""
    return bundle.y_hat


def simulate_paths(
    p: ModelParams, grid: TimeGrid, n_paths: int, seed: int
) -> Iterator[PathBundle]:
    """Yield ``n_paths`` independent scenarios, one per (seed, index) substream."""
    drawer = _SubstreamDrawer(seed)
    sqdt = math.sqrt(grid.dt)
    start = float(p.y0), float(p.s0), float(p.y0), _filter_gains(p, grid)
    for index in range(n_paths):
        by, bz = sqdt * drawer.normals(index, np.empty((2, grid.n_steps)))
        # a memoryview yields the floats of .tolist() without holding a list
        states = _integrate(p, grid, zip(memoryview(by), memoryview(bz)), *start)
        y, s, y_hat = np.fromiter(itertools.chain.from_iterable(states), float,
                                  3 * (grid.n_steps + 1)).reshape(-1, 3).T.copy()
        yield PathBundle(t=grid.t, by_incr=by, bz_incr=bz, y=y, s=s, y_hat=y_hat)


def _resolve_charges(
    p: ModelParams,
    grid: TimeGrid,
    mode: InformationMode,
    charge: float | RateSchedule,
):
    """(k_star, lump, per-step schedule rates) for a mode/charge combination.

    t* is snapped to the nearest grid index, ties toward the earlier point.
    """
    k_star = None if mode.subscribe_time is None else grid.index_of(mode.subscribe_time)
    lump = 0.0
    sched_rates = None
    if isinstance(charge, RateSchedule):
        if k_star is not None:
            charge.require_cover(grid.t[k_star], grid.t_end)
            sched_rates = charge(grid.t[:-1])
    else:
        lump = float(charge)
        if not math.isfinite(lump):
            raise DomainError(f"charge must be finite, got {charge!r}")
    return k_star, lump, sched_rates


def run_strategy(
    p: ModelParams,
    grid: TimeGrid,
    bundle: PathBundle,
    mode: InformationMode,
    charge: float | RateSchedule = 0.0,
) -> np.ndarray:
    """Wealth path of one scenario under a mode's optimal position rule.

    The position at t_k uses only information available at t_k: the true
    signal once subscribed, the filtered signal otherwise.  A lump ``charge``
    is deducted at the purchase time; a RateSchedule accrues c(t_k) dt per
    subscribed step.
    """
    wealth = _Wealth(p, grid, [Arm(mode, charge)])
    wealth.start(None)
    step, x = wealth.step, wealth.x
    mu, sigma_z, dt = p.mu, p.sigma_z, grid.dt
    path = [x[0]]
    rows = zip(memoryview(bundle.y), memoryview(bundle.y_hat), memoryview(bundle.bz_incr))
    for k, (y, y_hat, bz) in enumerate(rows):
        my = mu + y
        step(k, my, mu + y_hat, my * dt + sigma_z * bz)
        path.append(x[0])
    return np.array(path)


def mean_std_err(values: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Sample mean and its standard error over paths (axis 0).

    Antithetic values (paths 2j, 2j+1 mirrored) are averaged in pairs first,
    and the standard error is that of the independent pair means.  Values
    near the top of the float range give an inf or nan mean or error, which
    the caller's checks report, without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        samples = values.reshape(-1, 2).mean(axis=1) if antithetic else values
        se = np.std(samples, ddof=1) / math.sqrt(samples.shape[0])
        return float(np.mean(values)), float(se)


def z_score(mean: float, std_err: float, reference: float) -> float:
    """(mean - reference) / std_err for a finite positive std_err; else 0 when
    nothing moved at all (std_err = 0, mean = reference) and nan otherwise."""
    if 0.0 < std_err < math.inf:
        return (mean - reference) / std_err
    return 0.0 if std_err == 0.0 and mean == reference else math.nan


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_err: float
    n_paths: int


@dataclass
class McRun:
    """Per-path terminal exponents -gamma X_T plus optional state snapshots.

    The utility of a path is -exp(exponent); keeping the exponent lets
    log-space aggregates stay finite where the utility overflows.  A snapshot
    maps "x" to the arm's wealth and "y", "y_hat" to the path state, which is
    one read-only array shared by every arm's run of the same kind (plain or
    paired) from one engine call.
    """

    exponents: np.ndarray
    antithetic: bool
    snapshots: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def utilities(self) -> np.ndarray:
        """Per-path utilities -exp(-gamma X_T)."""
        return utility_from_exponent(self.exponents)

    def estimate(self) -> McEstimate:
        mean, se = mean_std_err(self.utilities, self.antithetic)
        return McEstimate(mean, se, self.exponents.shape[0])


@dataclass(frozen=True)
class Arm:
    """One (mode, charge) evaluation sharing the common paths."""

    mode: InformationMode = UNINFORMED
    charge: float | RateSchedule = 0.0


def check_path_count(n_paths: int, antithetic: bool) -> None:
    """Raise a DomainError naming ``n_paths`` unless ``mc_multi`` takes that count.

    A standard error needs two samples: two paths, or two antithetic pairs.
    """
    least = 4 if antithetic else 2
    kind = " in antithetic runs" if antithetic else ""
    if n_paths < least:
        raise DomainError(f"n_paths must be >= {least}{kind}, got {n_paths}")
    if n_paths > MAX_PATHS:
        raise DomainError(
            f"n_paths must be at most {MAX_PATHS}, the size of the largest "
            f"float64 array, got {n_paths}"
        )
    if antithetic and n_paths % 2:
        raise DomainError(f"n_paths must be even in antithetic runs, got {n_paths}")


def mc_multi(
    p: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    arms: list[Arm],
    antithetic: bool = False,
    snapshot_times: tuple[float, ...] = (),
) -> list[McRun]:
    """Terminal exponents -gamma X_T for several arms on shared paths.

    All arms see identical (seed, index) scenarios (common random numbers);
    only the position rule and charges differ.  Snapshot times are snapped to
    the grid; each snapshot stores per-path wealth, signal, and (when
    computed) filtered signal for martingale-style checks.  An antithetic run
    is the paired runs of ``_step_columns`` with every key mirrored.
    """
    check_path_count(n_paths, antithetic)
    keys = n_paths // 2 if antithetic else n_paths
    plain, paired = _step_columns(p, grid, seed, arms, keys, keys if antithetic else 0,
                                  snapshot_times)
    return paired if antithetic else plain


def _check_steps(grid: TimeGrid) -> None:
    """Raise a DomainError naming ``n_steps`` unless one path's draws fit in a chunk."""
    if grid.n_steps > MAX_STEPS:
        raise DomainError(f"n_steps must be at most {MAX_STEPS}, the steps whose draws for "
                          f"one path fit in {16 * MAX_STEPS >> 20} MiB, got {grid.n_steps}")


def _step_columns(p: ModelParams, grid: TimeGrid, seed: int, arms: list[Arm], n_keys: int,
                  n_mirrors: int, snapshot_times=()) -> tuple[list[McRun], list[McRun]]:
    """(plain, paired) runs, one ``McRun`` per arm each, from one engine call.

    The call steps n_keys + n_mirrors columns: keyed draws j < n_keys with a +
    sign, and the mirror images of the first n_mirrors <= n_keys.  ``plain``
    is the + columns in key order; ``paired`` is the first n_mirrors keys,
    each followed by its mirror (antithetic path order), and [] without
    mirrors.  Each snapshot time's "y" and "y_hat" is one read-only array for
    every run of a kind.  A chunk takes whole keys, with their mirrors, up to
    ``_COLUMNS`` columns and up to the keys whose draws fit in ``_DRAW_BYTES``.
    """
    _check_steps(grid)
    snap_idx = tuple(sorted({grid.index_of(s) for s in snapshot_times}))
    wealth = _Wealth(p, grid, arms)
    gains = _filter_gains(p, grid) if wealth.needs_filter else None
    new = lambda: np.empty(n_keys + n_mirrors)
    state = {k: {"y": new(), "y_hat": new() if wealth.needs_filter else None} for k in snap_idx}
    columns = [(new(), {k: new() for k in snap_idx}) for _ in arms]  # (exponents, x)
    max_keys = min(_COLUMNS, n_keys, max(_KEYS, _DRAW_BYTES // (16 * grid.n_steps)))
    drawer = _SubstreamDrawer(seed)
    draws = np.empty((max_keys, 2, grid.n_steps))  # one buffer, every chunk
    first = 0
    while first < n_keys:
        mirrored = min(max(n_mirrors - first, 0), _COLUMNS // 2, max_keys)
        keys = mirrored
        if first + mirrored >= n_mirrors:  # room left for keys without mirrors
            keys += min(n_keys - first - mirrored, _COLUMNS - 2 * mirrored, max_keys - mirrored)
        rows = _increment_rows(drawer.fill(first, draws[:keys]), grid.dt, mirrored)
        m = keys + mirrored
        wealth.start(m)
        steps = _integrate(p, grid, rows, np.full(m, p.y0), np.full(m, p.s0),
                           np.full(m, p.y0) if wealth.needs_filter else None, gains, wealth)
        plus, minus = slice(first, first + keys), slice(n_keys + first, n_keys + first + mirrored)

        def put(out, row):
            out[plus], out[minus] = row[:keys], row[keys:]

        for k, (y, _, y_hat) in enumerate(steps):
            if k in snap_idx:
                for name, row in (("y", y), ("y_hat", y_hat)):
                    if row is not None:
                        put(state[k][name], row)
                for (_, x_snaps), x in zip(columns, wealth.x):
                    put(x_snaps[k], x)
        for (exponents, _), x_T in zip(columns, wealth.x):
            put(exponents, -p.gamma * x_T)
        first += keys
    del draws  # the paired runs are built without it

    def runs(order, antithetic):
        shared = {k: {name: a if a is None else order(a) for name, a in snap.items()}
                  for k, snap in state.items()}
        for a in (a for snap in shared.values() for a in snap.values() if a is not None):
            a.setflags(write=False)
        return [McRun(order(exponents), antithetic,
                      {k: {"x": order(x), **shared[k]} for k, x in x_snaps.items()})
                for exponents, x_snaps in columns]

    def pair(a):  # path 2j is column j (key j), path 2j + 1 column n_keys + j (its mirror)
        out = np.empty(2 * n_mirrors)
        out[0::2], out[1::2] = a[:n_mirrors], a[n_keys:]
        return out

    return runs(lambda a: a[:n_keys], False), runs(pair, True) if n_mirrors else []


def write_path_csv(path, t, y, y_hat, s, wealth_columns: dict[str, np.ndarray]) -> None:
    """One scenario as CSV: t,y,y_hat,s,x_<label> columns, 17 significant digits."""
    header = "t,y,y_hat,s," + ",".join(f"x_{label}" for label in wealth_columns)
    write_csv(path, header, [t, y, y_hat, s, *wealth_columns.values()])


__all__ = [
    "PathBundle",
    "McEstimate",
    "McRun",
    "Arm",
    "mean_std_err",
    "z_score",
    "simulate_paths",
    "filtered_signal",
    "run_strategy",
    "check_path_count",
    "mc_multi",
    "write_path_csv",
]
