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

A chunk's draws are held path-major (keys, 2, n), as the keyed streams
produce them, in one buffer that every chunk of a run reuses.  One step
loop (``_integrate``, with ``_Wealth`` for the arms) advances signal, price,
filtered signal and every arm's wealth a step at a time on (m,) rows,
updated in place.  It reads the increments in blocks of a few dozen steps,
scaled and transposed into one reused time-major buffer, so a chunk holds
its draws plus one block and no (n+1, m) path matrix.  The one-path API
runs the same step code on floats: ``simulate_paths`` is the case without
arms, filter included, and ``run_strategy`` steps one arm's wealth along a
bundle's stored signal and filtered signal, so the engine and the API agree
bit for bit.  ``_Wealth`` is the one place that resolves arms (purchase
index, charges, whether the filter is needed) for both.
``mc_multi`` evaluates several (mode, charge) arms on one shared set of
paths: common random numbers for indifference comparisons.
``mean_std_err`` is the one standard-error rule, pairing antithetic values,
and ``z_score`` the one rule for a z against a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

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

# position hook signature: (t_k, y_k, y_hat_k | None, informed) -> positions;
# y_k and y_hat_k are (m,) rows in the engine and floats in ``run_strategy``
Policy = Callable[[float, np.ndarray, np.ndarray | None, bool], np.ndarray]


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
# reused buffer: a (2, 32, m) block of an 8192-path chunk is 4 MB, against
# 131 MB of draws at 1000 steps.  Each block is copied _KEYS keys at a time,
# so that the strided reads of one copy touch few pages.
_BLOCK = 32
_KEYS = 256

# One float64 array holds at most this many elements; numpy refuses larger
# shapes with a message that names no input.
MAX_PATHS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _increment_rows(z: np.ndarray, dt: float, antithetic: bool) -> Iterator[tuple]:
    """(dB^Y_k, dB^Z_k) for k = 0 .. n-1, each an (m,) row with variance dt.

    ``z`` holds path-major draws (keys, 2, n).  Each block of ``_BLOCK`` steps
    is scaled and transposed into one reused C-contiguous (2, _BLOCK, m)
    buffer, so a chunk holds its draws plus one block, and every row is
    contiguous.  Antithetic blocks go to the even columns and their negation
    to the odd ones.  A yielded row is overwritten by the next block.
    """
    keys, _, n = z.shape
    sqdt = math.sqrt(dt)
    block = np.empty((2, _BLOCK, 2 * keys if antithetic else keys))
    drawn = block[:, :, 0::2] if antithetic else block
    for k0 in range(0, n, _BLOCK):
        b = min(_BLOCK, n - k0)
        for j in range(0, keys, _KEYS):
            tile = z[j : j + _KEYS, :, k0 : k0 + b].transpose(1, 2, 0)
            np.multiply(tile, sqdt, out=drawn[:, :b, j : j + _KEYS])
        if antithetic:
            np.negative(drawn[:, :b], out=block[:, :b, 1::2])
        for j in range(b):
            yield block[0, j], block[1, j]


class _Wealth:
    """Every arm's wealth on shared paths, advanced one step at a time.

    Built once per run: each ``Arm`` is resolved to (k_star, lump, per-step
    schedule rates, policy), and ``needs_filter`` says whether any arm reads
    the filtered signal.  ``start(m)`` sets the initial wealth, one float per
    arm for a single path (``m`` None) or one (m,) array per arm, updated in
    place.  Arms without a policy share the two position rules (true signal
    once subscribed, filtered signal before), so each rule's gain is formed
    once per step.
    """

    def __init__(self, p: ModelParams, grid: TimeGrid, arms: list[Arm]):
        t = grid.t
        tk = t[:-1]
        self.x0 = p.x0
        self.mu, self.sigma_z = p.mu, p.sigma_z
        self.dt = float(t[1] - t[0])
        self.gs = p.gamma * p.sigma_z**2
        a = noise_ratio(p)
        self.tk = tk.tolist()
        # deterministic part of the filtered-signal position, one value per step
        self.ufac = (_cosh_cosh_over_cosh(a * (p.t_end - tk), a * tk) / self.gs).tolist()
        self.arms = []
        for arm in arms:
            k_star, lump, rates = _resolve_charges(p, grid, arm.mode, arm.charge)
            # an arm that never subscribes gets k_star = n + 1: never informed, never charged
            self.arms.append((grid.n_steps + 1 if k_star is None else k_star, lump,
                              None if rates is None else rates.tolist(), arm.policy))
        # only arms informed from the start without a policy never read the filter
        self.needs_filter = any(
            policy is not None or k_star > 0 for k_star, _, _, policy in self.arms
        )
        self.x = []

    def start(self, m: int | None) -> None:
        """Initial wealth x0, less a lump paid at t = 0: floats, or (m,) rows."""
        fresh = lambda: float(self.x0) if m is None else np.full(m, self.x0)
        self.x = [fresh() - lump if k_star == 0 else fresh() for k_star, lump, _, _ in self.arms]

    def step(self, k: int, y, my, y_hat, bz) -> None:
        """Step k: positions from information at t_k (``my`` is mu + y), the
        trading gain phi (mu + y) dt + sigma_z phi dB^Z over [t_k, t_k+1),
        then schedule and lump charges."""
        dt, x = self.dt, self.x
        rules = [None, None]  # gains of the filtered-signal and the true-signal rule
        for i, (k_star, lump, rates, policy) in enumerate(self.arms):
            informed = k >= k_star
            if policy is None and rules[informed] is not None:
                drift, noise = rules[informed]
            else:
                if policy is not None:
                    phi = policy(self.tk[k], y, y_hat, informed)
                elif informed:
                    phi = my / self.gs
                else:
                    phi = (self.mu + y_hat) * self.ufac[k]
                # (phi my) dt and (sigma_z phi) dB^Z, rounded as the sum rounds them
                drift = phi * my
                drift *= dt
                noise = self.sigma_z * phi
                noise *= bz
                if policy is None:
                    rules[informed] = drift, noise
            x_i = x[i]
            x_i += drift
            x_i += noise
            if rates is not None and informed:
                x_i -= rates[k] * dt
            if k + 1 == k_star:
                x_i -= lump
            x[i] = x_i


def _integrate(p: ModelParams, grid: TimeGrid, rows, y, s, y_hat=None, wealth=None):
    """Yield (y, s, y_hat) at grid indices 0 .. n, one Euler step per increment row.

    The state is floats (one path) or (m,) arrays, which are updated in place:
    a consumer copies what it keeps before asking for the next step.
    ``y_hat`` None skips the filter; ``wealth`` advances with the same rows.
    The filter step is ``signal_filter.filter_path``'s recursion evaluated in
    the same order, so the two agree bit for bit.
    """
    mu, sigma_y, sigma_z = p.mu, p.sigma_y, p.sigma_z
    dt = float(grid.t[1] - grid.t[0])
    if y_hat is not None:
        gains = signal_filter.filter_gain(p, grid.t[:-1]).tolist()
    yield y, s, y_hat
    for k, (by, bz) in enumerate(rows):
        my = mu + y
        if wealth is not None:
            wealth.step(k, y, my, y_hat, bz)
        # s + my dt + sigma_z bz and y_hat + g_k (s_next - s - (mu + y_hat) dt) / sigma_z,
        # with each operation in place where possible.  The operands of every
        # rounding stay the same (IEEE sums and products commute), so the bits do.
        s_next = my * dt
        s_next += s
        s_next += sigma_z * bz
        if y_hat is not None:
            innovation = s_next - s
            drift = mu + y_hat
            drift *= dt
            innovation -= drift
            innovation /= sigma_z
            innovation *= gains[k]
            y_hat += innovation
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
    start = float(p.y0), float(p.s0), float(p.y0)
    for index in range(n_paths):
        by, bz = sqdt * drawer.normals(index, np.empty((2, grid.n_steps)))
        rows = zip(by.tolist(), bz.tolist())
        y, s, y_hat = map(np.array, zip(*_integrate(p, grid, rows, *start)))
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
    if mode.subscribe_time is not None and mode.subscribe_time > grid.t_end + 0.5 * grid.dt:
        raise DomainError(
            f"subscribe time {mode.subscribe_time!r} is beyond the horizon {grid.t_end!r}"
        )
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
    policy: Policy | None = None,
) -> np.ndarray:
    """Wealth path of one scenario under a mode's optimal position rule.

    The position at t_k uses only information available at t_k: the true
    signal once subscribed, the filtered signal otherwise.  A lump ``charge``
    is deducted at the purchase time; a RateSchedule accrues c(t_k) dt per
    subscribed step.  ``policy`` overrides the position rule (test hook).
    """
    wealth = _Wealth(p, grid, [Arm(mode, charge, policy)])
    wealth.start(None)
    step, x, mu = wealth.step, wealth.x, p.mu
    path = [x[0]]
    rows = zip(bundle.y.tolist(), bundle.y_hat.tolist(), bundle.bz_incr.tolist())
    for k, (y, y_hat, bz) in enumerate(rows):
        step(k, y, mu + y, y_hat, bz)
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
    log-space aggregates stay finite where the utility overflows.
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
    """One (mode, charge, policy) evaluation sharing the common paths."""

    mode: InformationMode = UNINFORMED
    charge: float | RateSchedule = 0.0
    policy: Policy | None = None


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
    chunk_size: int = 8192,
) -> list[McRun]:
    """Terminal exponents -gamma X_T for several arms on shared paths.

    All arms see identical (seed, index) scenarios (common random numbers);
    only the position rule and charges differ.  Snapshot times are snapped to
    the grid; each snapshot stores per-path wealth, signal, and (when
    computed) filtered signal for martingale-style checks.
    """
    check_path_count(n_paths, antithetic)
    wealth = _Wealth(p, grid, arms)
    needs_filter = wealth.needs_filter
    snap_idx = tuple(sorted({grid.index_of(s) for s in snapshot_times}))

    runs = [
        McRun(
            exponents=np.empty(n_paths, dtype=float),
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
    per_key = 2 if antithetic else 1
    # one draw buffer for every chunk; the last chunk may use part of it
    draws = np.empty((min(chunk_size, n_paths) // per_key, 2, grid.n_steps))
    for start in range(0, n_paths, chunk_size):
        m = min(chunk_size, n_paths - start)
        z = drawer.fill(start // per_key, draws[: m // per_key])
        wealth.start(m)
        steps = _integrate(
            p, grid, _increment_rows(z, grid.dt, antithetic),
            np.full(m, p.y0), np.full(m, p.s0),
            np.full(m, p.y0) if needs_filter else None, wealth,
        )
        paths = slice(start, start + m)
        for k, (y, _, y_hat) in enumerate(steps):
            if k in snap_idx:
                for run, x in zip(runs, wealth.x):
                    snap = run.snapshots[k]
                    snap["x"][paths] = x
                    snap["y"][paths] = y
                    if needs_filter:
                        snap["y_hat"][paths] = y_hat
        for run, x_T in zip(runs, wealth.x):
            run.exponents[paths] = -p.gamma * x_T
    return runs


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
