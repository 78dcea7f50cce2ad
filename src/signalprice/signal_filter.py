"""Filtering the unobserved signal out of the price path.

The conditional mean Y_hat_t = E[Y_t | price history] evolves as

    dY_hat = g(t) dB_hat,   g(t) = sigma_y * tanh(sigma_y t / sigma_z),

where dB_hat = (dS - (mu + Y_hat) dt) / sigma_z is the innovation Brownian
motion in the price filtration.  ``filter_path`` discretizes this recursion
with the gain frozen at the left endpoint of each step.  ``kalman_oracle`` is
a deliberately separate discrete-time Kalman filter (its gain comes from the
Riccati recursion, not from g) used to cross-check the closed-form gain.

The price is a transformed Brownian motion in its own filtration through the
Volterra kernel kappa(t, u) = -sigma_y * tanh(sigma_y u / sigma_z) on u <= t,
which satisfies

    sigma_z * kappa(t, u) - int_0^u kappa(t, v) kappa(u, v) dv = -sigma_y^2 u.

``hitsuda_kernel`` evaluates kappa on scalars or broadcast arrays; the
residual of this identity under Gauss-Legendre quadrature is one of the
verification oracles (``verify_oracles.kernel_identity_residual``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import stable_tanh
from .model_core import DomainError, ModelParams, TimeGrid


class LengthMismatch(DomainError):
    """Price path and grid have different lengths."""


@dataclass(frozen=True)
class FilteredPath:
    """Filtered signal on a grid.

    ``innovation_increments`` has one entry per step (one fewer than ``t``).
    ``posterior_var`` is filled by the Kalman oracle only; the closed-form
    filter starts from a known signal value, so its variance is the
    deterministic curve sigma_y*sigma_z*tanh(sigma_y t / sigma_z).
    """

    t: np.ndarray
    y_hat: np.ndarray
    innovation_increments: np.ndarray
    posterior_var: np.ndarray | None = None
    gains: np.ndarray | None = None


def filter_gain(p: ModelParams, t):
    """g(t) = sigma_y * tanh(sigma_y t / sigma_z): 0 at t=0, increasing, < sigma_y."""
    return p.sigma_y * stable_tanh(p.sigma_y / p.sigma_z * np.asarray(t, dtype=float))


def _price_path(grid: TimeGrid, s_path) -> np.ndarray:
    """``s_path`` as a float array with one price per grid point along axis 0."""
    s = np.atleast_1d(np.asarray(s_path, dtype=float))
    if s.shape[0] != grid.t.shape[0]:
        raise LengthMismatch(f"price path has {s.shape[0]} points, grid has {grid.t.shape[0]}")
    return s


def filter_path(p: ModelParams, grid: TimeGrid, s_path: np.ndarray) -> FilteredPath:
    """Filtered signal along a price path sampled on ``grid``.

    Explicit Euler on the innovation recursion:
    Y_hat[k+1] = Y_hat[k] + g(t_k) * (dS_k - (mu + Y_hat[k]) dt) / sigma_z.
    ``s_path`` is one path (n+1,) or a time-major batch (n+1, m).  The
    Monte-Carlo step loop (``path_sim._integrate``) evaluates the same
    recursion in the same order, so filtering a simulated price path
    reproduces the engine's y_hat bit for bit.
    """
    s = _price_path(grid, s_path)
    n = grid.n_steps
    dt = grid.dt
    gains = filter_gain(p, grid.t[:-1])
    y_hat = np.empty_like(s)
    innov = np.empty((n,) + s.shape[1:], dtype=float)
    y_hat[0] = p.y0
    for k in range(n):
        ds = s[k + 1] - s[k]
        db_hat = (ds - (p.mu + y_hat[k]) * dt) / p.sigma_z
        innov[k] = db_hat
        y_hat[k + 1] = y_hat[k] + gains[k] * db_hat
    return FilteredPath(t=grid.t, y_hat=y_hat, innovation_increments=innov)


def hitsuda_kernel(p: ModelParams, t, u):
    """kappa(t, u) = -sigma_y * tanh(sigma_y u / sigma_z) for u <= t, else 0.

    ``t`` and ``u`` broadcast against each other; two scalars give a float.
    """
    t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
    kappa = np.where(u > t, 0.0, -p.sigma_y * stable_tanh(p.sigma_y / p.sigma_z * u))
    return float(kappa) if kappa.ndim == 0 else kappa


def kalman_oracle(p: ModelParams, grid: TimeGrid, s_path: np.ndarray) -> FilteredPath:
    """Discrete-time Kalman filter for the signal, independent of ``filter_path``.

    State: random walk Y[k+1] = Y[k] + N(0, sigma_y^2 dt), known start
    (mean y0, variance 0).  Observation per step: dS = (mu + Y[k]) dt +
    N(0, sigma_z^2 dt).  Reported means/variances are the predictive ones
    given prices up to t_k, i.e. before the step-k price increment is seen.
    Gains are per observation on the raw increment.  ``s_path`` may be a
    single path (n+1,) or a time-major batch (n+1, m).
    """
    s = _price_path(grid, s_path)
    n = grid.n_steps
    dt = grid.dt
    r_obs = p.sigma_z**2 * dt
    q_state = p.sigma_y**2 * dt

    mean = np.empty_like(s)
    var = np.empty(n + 1, dtype=float)
    gains = np.empty(n, dtype=float)
    innov = np.empty((n,) + s.shape[1:], dtype=float)
    mean[0] = p.y0
    var[0] = 0.0
    m = mean[0]
    v = 0.0
    for k in range(n):
        ds = s[k + 1] - s[k]
        residual = ds - (p.mu + m) * dt
        denom = v * dt * dt + r_obs
        gain = v * dt / denom
        gains[k] = gain
        innov[k] = residual / p.sigma_z
        m = m + gain * residual
        v = v * r_obs / denom + q_state
        mean[k + 1] = m
        var[k + 1] = v
    return FilteredPath(
        t=grid.t,
        y_hat=mean,
        innovation_increments=innov,
        posterior_var=var,
        gains=gains,
    )


__all__ = [
    "LengthMismatch",
    "FilteredPath",
    "filter_gain",
    "filter_path",
    "hitsuda_kernel",
    "kalman_oracle",
]
