"""When to start paying for the signal feed, given a deterministic rate c(t).

With c_bar the flat-rate equivalent of the lump price and

    ell(t) = sigma_y sinh(a(T - 2t)) / (4 gamma sigma_z cosh(aT)),  a = sigma_y/sigma_z,

the running profile F(t) = int_0^t (c - c_bar + ell) ds decides everything:
the latest worthwhile purchase time tau_l is the last strict running maximum
of F, the earliest tau_e is the first time attaining F(tau_l), and every grid
time with F(t) = F(tau_l) (within tolerance) is equally good.  The
indifference rate c_hat(t) = c_bar - ell(t) makes F identically zero, so any
purchase time is optimal under it.

F is accumulated by the trapezoid rule on the solver grid for the whole
integrand c - c_bar + ell.  Sharing one quadrature means a schedule that
matches c_hat at the grid nodes cancels node by node, so its indifference set
is the full grid instead of being polluted by O(dt^2) mismatch between exact
and sampled integrals.

Value functions: ``value_prepurchase`` is the conditional value of buying
right now and trading informed to the horizon; ``value_committed`` fixes the
purchase at t*; ``value_flexible`` adds the option to wait, and exceeds
``value_prepurchase`` by the factor exp(gamma * (F(tau_l) - F(t))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    coeff_a_uninformed,
    continuous_price,
    log_cosh,
    noise_ratio,
    rate_bound,
    utility_from_exponent,
)
from .model_core import DomainError, ModelParams, TimeGrid, write_csv


class ScheduleDomainError(ValueError):
    """A rate schedule is malformed or does not cover the required interval."""


@dataclass(frozen=True)
class RateSchedule:
    """Nonnegative subscription rate, piecewise linear between knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ScheduleDomainError("schedule needs matching 1-D knots/values, >= 2 points")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ScheduleDomainError("schedule knots and values must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise ScheduleDomainError("schedule knots must be strictly increasing")
        if knots[0] != 0.0:
            raise ScheduleDomainError(f"schedule must start at t = 0, got {knots[0]!r}")
        if np.any(values < 0.0):
            raise ScheduleDomainError("schedule rates must be >= 0")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, rate: float, t_end: float) -> "RateSchedule":
        return cls(np.array([0.0, float(t_end)]), np.array([float(rate)] * 2))

    def __call__(self, t):
        """Rate at time t (linear between knots; clamped outside the domain)."""
        return np.interp(t, self.knots, self.values)

    def require_cover(self, t0: float, t1: float) -> None:
        if not (self.knots[0] <= t0 and self.knots[-1] >= t1):
            raise ScheduleDomainError(
                f"schedule domain [{self.knots[0]!r}, {self.knots[-1]!r}] "
                f"does not cover [{t0!r}, {t1!r}]"
            )

    def _cumulative(self, x):
        """Exact integral of the piecewise-linear rate from knots[0] to x."""
        x = np.asarray(x, dtype=float)
        seg = np.diff(self.knots)
        seg_area = 0.5 * (self.values[:-1] + self.values[1:]) * seg
        table = np.concatenate([[0.0], np.cumsum(seg_area)])
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, seg.size - 1)
        frac = x - self.knots[idx]
        v_at = self.values[idx] + (self.values[idx + 1] - self.values[idx]) * frac / seg[idx]
        return table[idx] + 0.5 * (self.values[idx] + v_at) * frac

    def integral(self, t0, t1):
        """Exact integral of the rate over [t0, t1] (both may be arrays)."""
        return self._cumulative(t1) - self._cumulative(t0)

    def to_csv(self, path) -> None:
        write_csv(path, "t,c", [self.knots, self.values])

    @classmethod
    def from_csv(cls, path) -> "RateSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0].replace(" ", "") != "t,c":
            raise ScheduleDomainError("schedule CSV must start with header 't,c'")
        knots, values = [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 2:
                raise ScheduleDomainError(f"schedule CSV row is not two columns: {ln!r}")
            try:
                knots.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise ScheduleDomainError(f"schedule CSV row not numeric: {ln!r}") from exc
        return cls(np.array(knots), np.array(values))


def ell(p: ModelParams, t):
    """sigma_y sinh(a(T - 2t)) / (4 gamma sigma_z cosh(aT)).

    Equals c_bar at t = 0, zero at T/2, -c_bar at T (bit-exact: the t = 0
    evaluation reduces to the same expression ``continuous_price`` uses).
    """
    a = noise_ratio(p)
    c_total = a * p.t_end
    w = a * (p.t_end - 2.0 * np.asarray(t, dtype=float))
    aw = np.abs(w)
    num = np.exp(aw - c_total) * -np.expm1(-2.0 * aw)
    denom = 1.0 + np.exp(-2.0 * c_total)
    return rate_bound(p) * (np.sign(w) * num / denom)


def indifference_rate(p: ModelParams, t):
    """c_hat(t) = c_bar - ell(t): zero at 0, c_bar at T/2, 2 c_bar at T."""
    return continuous_price(p).c_bar - ell(p, t)


def profile(p: ModelParams, schedule: RateSchedule, grid: TimeGrid) -> np.ndarray:
    """F(t_k) = int_0^{t_k} (c - c_bar + ell) ds by the trapezoid rule."""
    schedule.require_cover(0.0, grid.t_end)
    g = schedule(grid.t) - continuous_price(p).c_bar + ell(p, grid.t)
    steps = 0.5 * (g[:-1] + g[1:]) * grid.dt
    return np.concatenate([[0.0], np.cumsum(steps)])


def _latest_index(F: np.ndarray, tol_abs: float) -> int:
    """First grid index whose F strictly dominates everything after it.

    ``F[k] > max(F[k+1:]) + tol_abs`` realizes the strict-inequality infimum
    on a grid; the horizon index is the fallback when no index qualifies.
    """
    n = F.shape[0] - 1
    suffix_max = np.maximum.accumulate(F[::-1])[::-1]
    qualifies = F[:-1] - suffix_max[1:] > tol_abs
    hits = np.nonzero(qualifies)[0]
    return int(hits[0]) if hits.size else n


def _solve(p: ModelParams, schedule: RateSchedule, grid: TimeGrid, tol: float):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    F = profile(p, schedule, grid)
    scale = max(1.0, float(np.max(np.abs(F))))
    tol_abs = tol * scale
    k_l = _latest_index(F, tol_abs)
    return F, k_l, tol_abs


def latest_time(
    p: ModelParams, schedule: RateSchedule, grid: TimeGrid, tol: float = 1e-9
) -> float:
    """Latest worthwhile purchase time for ``schedule``, to +-dt accuracy."""
    _, k_l, _ = _solve(p, schedule, grid, tol)
    return float(grid.t[k_l])


@dataclass(frozen=True)
class TimingResult:
    """Earliest/latest optimal purchase times and everything in between.

    ``indifference_set`` holds the grid times within ``tol`` (absolute, on
    F-differences) of the profile value at tau_l; tau_e and tau_l are its
    first and last members.
    """

    tau_e: float
    tau_l: float
    indifference_set: np.ndarray
    tol: float


def earliest_time(
    p: ModelParams, schedule: RateSchedule, grid: TimeGrid, tol: float = 1e-9
) -> TimingResult:
    """Solve for tau_e, tau_l, and the full indifference set on the grid."""
    F, k_l, tol_abs = _solve(p, schedule, grid, tol)
    members = np.nonzero(np.abs(F[k_l] - F[: k_l + 1]) <= tol_abs)[0]
    times = grid.t[members]
    times.setflags(write=False)
    return TimingResult(
        tau_e=float(times[0]),
        tau_l=float(grid.t[k_l]),
        indifference_set=times,
        tol=tol_abs,
    )


def _prepurchase_exponent(p: ModelParams, t, x_t, y_hat_t, schedule: RateSchedule):
    a = noise_ratio(p)
    t = np.asarray(t, dtype=float)
    remaining_cost = schedule.integral(t, p.t_end)
    return (
        -p.gamma * np.asarray(x_t, dtype=float)
        + coeff_a_uninformed(p, t) * (p.mu + np.asarray(y_hat_t, dtype=float)) ** 2
        + p.gamma * remaining_cost
        + 0.5 * (log_cosh(a * t) - log_cosh(a * p.t_end))
    )


def value_prepurchase(p: ModelParams, t, x_t, y_hat_t, schedule: RateSchedule):
    """Conditional value of buying the feed at t and trading informed after.

    This is the filtered-information expectation of the informed value,
    including the remaining subscription cost int_t^T c.
    """
    schedule.require_cover(float(np.min(np.asarray(t))), p.t_end)
    return utility_from_exponent(_prepurchase_exponent(p, t, x_t, y_hat_t, schedule))


def value_committed(
    p: ModelParams, t_star: float, schedule: RateSchedule, grid: TimeGrid
) -> float:
    """Value at t = 0 of committing to buy the feed at the grid point nearest t*.

    -exp(pre(0) - gamma F(t*)): the value of buying at 0, discounted by the
    timing profile.  Equals ``value_flexible`` at t = 0 when t* = tau_l and is
    at most that at any other t*.  Past exp's range (-gamma F(t*) above
    ~709.78) the factor is inf, so the value is -inf, as numpy would give.
    """
    pre0 = float(value_prepurchase(p, 0.0, p.x0, p.y0, schedule))
    try:
        return pre0 * math.exp(-p.gamma * profile(p, schedule, grid)[grid.index_of(t_star)])
    except OverflowError:
        return pre0 * math.inf


def value_flexible(
    p: ModelParams,
    t,
    x_t,
    y_hat_t,
    schedule: RateSchedule,
    grid: TimeGrid,
    tol: float = 1e-9,
):
    """Value when the purchase time may still be chosen, valid on [0, tau_l].

    Exceeds ``value_prepurchase`` by the factor exp(gamma (F(tau_l) - F(t)))
    and matches it exactly where immediate purchase is optimal.
    """
    t = np.asarray(t, dtype=float)
    F, k_l, _ = _solve(p, schedule, grid, tol)
    tau_l = grid.t[k_l]
    if np.any(t > tau_l + 1e-12 * max(1.0, grid.t_end)):
        raise DomainError(f"t beyond the latest purchase time {tau_l!r}")
    gap = F[k_l] - np.interp(t, grid.t, F)
    exponent = _prepurchase_exponent(p, t, x_t, y_hat_t, schedule) - p.gamma * gap
    return utility_from_exponent(exponent)


def indifference_schedule(p: ModelParams, grid: TimeGrid) -> RateSchedule:
    """c_hat sampled at the grid nodes (piecewise-linear between them)."""
    return RateSchedule(grid.t.copy(), np.asarray(indifference_rate(p, grid.t)))


def bumped_schedule(
    p: ModelParams,
    grid: TimeGrid,
    t_on: float,
    t_off: float,
    add: float,
    drop: float,
) -> RateSchedule:
    """c_hat plus ``add`` before ``t_on`` and minus ``drop`` after ``t_off``.

    Steps are encoded as one-cell-steep linear ramps, so the rate equals
    c_hat exactly at every grid node in [t_on, t_off]; the profile F is then
    flat there by construction and the indifference set is [t_on, t_off].
    """
    k_on = grid.index_of(t_on)
    k_off = grid.index_of(t_off)
    if not 0 < k_on <= k_off < grid.n_steps:
        raise ScheduleDomainError(
            f"bump interval [{t_on!r}, {t_off!r}] must sit strictly inside the horizon"
        )
    values = np.asarray(indifference_rate(p, grid.t)).copy()
    values[:k_on] += add
    values[k_off + 1 :] -= drop
    return RateSchedule(grid.t.copy(), values)


__all__ = [
    "ScheduleDomainError",
    "RateSchedule",
    "TimingResult",
    "ell",
    "indifference_rate",
    "profile",
    "latest_time",
    "earliest_time",
    "value_prepurchase",
    "value_committed",
    "value_flexible",
    "indifference_schedule",
    "bumped_schedule",
]
