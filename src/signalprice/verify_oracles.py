"""Independent numerical checks of every closed form in the package.

Each oracle reaches the quantity it checks by a different route than the
implementation under test:

* one-shot model: Gauss-Hermite quadrature of the expected utility, the
  position by safeguarded Newton steps on the tilted mean of the gains, price
  as the log ratio of the informed and uninformed values;
* HJB exponent coefficients: classical 4th-order Runge-Kutta integration of
  the defining ODEs backward from the horizon (plain tanh/cosh arithmetic,
  none of the stabilized forms the closed forms use), on a grid doubled until
  RK4's own error estimate resolves the tolerance;
* value functions: seeded Monte-Carlo means with 3-standard-error bands and
  a constant-mean-over-time martingale check at horizon quartiles; a mode
  whose closed-form utility underflows, or whose Monte-Carlo mean or standard
  error is not finite, fails both checks as unresolved;
* lump price: the charge at which the informed and uninformed Monte-Carlo
  utilities match, a log ratio of their means under common random numbers;
* price-filtration kernel: residual of the Volterra integral identity under
  a composite Gauss-Legendre rule graded toward the kernel's tanh ramp.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import closed_form, path_sim, signal_filter
from .model_core import (
    DomainError,
    INFORMED_FROM_START,
    ModelParams,
    TimeGrid,
    UNINFORMED,
    make_grid,
)


@dataclass(frozen=True)
class OracleReport:
    """One check: passed iff |observed - expected| <= tolerance, all three finite.

    ``detail`` states what was compared and whether the tolerance is
    absolute, relative, or in standard-error units.
    """

    name: str
    observed: float
    expected: float
    tolerance: float
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return asdict(self)


def _report(name, observed, expected, tolerance, detail, resolved=True) -> OracleReport:
    """The report of one check; an oracle that could not resolve its own
    number (``resolved`` false) fails whatever it observed."""
    observed = float(observed)
    expected = float(expected)
    tolerance = float(tolerance)
    finite = math.isfinite(observed) and math.isfinite(expected) and math.isfinite(tolerance)
    passed = resolved and finite and abs(observed - expected) <= tolerance
    return OracleReport(name, observed, expected, tolerance, passed, detail)


# Tolerances and sizes of the deterministic (``verify --suite fast``) reports
_SINGLE_PERIOD_REL_TOL = 1e-8
_ODE_FIRST_STEPS = 125  # RK4 grids double from here ...
_ODE_MAX_STEPS = 2000  # ... up to this cap
_ODE_TOL = 1e-8
_KERNEL_TOL = 1e-6
_KERNEL_LATTICE = 20


# --- one-shot model oracle ---

_GH_NODES = 64
_NEWTON_ITERS = 64
_EPS = math.ulp(1.0)


@functools.cache
def _gh_standard_normal():
    """Read-only nodes/weights (z, w) with sum(w) = 1 for standard-normal expectations."""
    from numpy.polynomial.hermite import hermgauss  # on first use: a command may need none

    x, w = hermgauss(_GH_NODES)
    z, w = math.sqrt(2.0) * x, w / math.sqrt(math.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _newton_max(gamma: float, gains: np.ndarray, w: np.ndarray, lo, hi):
    """Maximize -sum(w exp(-gamma phi g)) over phi in [lo, hi], one problem per
    row of ``gains``, all rows in lockstep; returns (phi, value) per row.

    The optimum is where the Esscher-tilted mean m of the gains, under weights
    proportional to w exp(-gamma phi g), is zero; the tilted variance v gives
    the Newton step phi += m / (gamma v) on the log of the sum.  Rows start at
    the bracket midpoint; each step narrows the bracket by the sign of m (m
    falls as phi rises) and bisects it wherever the step would leave it.  A
    row whose m has one sign at both edges settles at that edge.  A row
    settles once its step is within a few ulps of phi and of the width
    1 / (gamma sqrt(v)) of the tilted gains; a row unsettled after
    _NEWTON_ITERS steps gets phi = nan, so its check fails.  Values are summed
    in linear space, so they underflow to zero where the optimum lies beyond
    the quadrature's reach.
    """
    def tilted(phi):
        e = (-gamma * phi)[:, None] * gains
        q = w * np.exp(e - e.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        m = (q * gains).sum(axis=1)
        return m, (q * (gains - m[:, None]) ** 2).sum(axis=1)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (m_lo, _), (m_hi, _) = tilted(lo), tilted(hi)
        settled = (m_lo <= 0.0) | (m_hi >= 0.0)
        phi = np.where(m_lo <= 0.0, lo, np.where(m_hi >= 0.0, hi, 0.5 * (lo + hi)))
        for _ in range(_NEWTON_ITERS):
            if settled.all():
                break
            m, v = tilted(phi)
            lo, hi = np.where(m > 0.0, phi, lo), np.where(m < 0.0, phi, hi)
            step = m / (gamma * v)
            done = np.abs(step) <= 4.0 * _EPS * (np.abs(phi) + 1.0 / (gamma * np.sqrt(v)))
            new = phi + step
            new = np.where(done | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
            phi = np.where(settled, phi, new)
            settled |= done
        phi = np.where(settled, phi, np.nan)
        return phi, -(w * np.exp((-gamma * phi)[:, None] * gains)).sum(axis=1)


class SinglePeriodOracle(NamedTuple):
    phi_ui: float
    v_ui: float
    c_hat: float


def single_period_oracle(p: ModelParams) -> SinglePeriodOracle:
    """Gauss-Hermite + Newton solution of the one-shot problem.

    The uninformed branch maximizes the double Gauss-Hermite sum over the
    (signal, noise) pair; the informed branch runs one inner optimization per
    signal node and sums.  A charge C scales the informed value by
    exp(gamma C), so the price that equates the two branches is the log ratio
    of their values over gamma, as in ``indifference_log_ratio``.  Initial
    wealth scales every utility by exp(-gamma x0) and moves neither the
    positions nor the price, so the sums leave it out and only ``v_ui`` is
    scaled by it.
    """
    z, w = _gh_standard_normal()
    y_nodes = p.y0 + p.sigma_y * z
    gains = p.mu + y_nodes[:, None] + p.sigma_z * z[None, :]  # (signal, noise)

    span = 100.0 * (abs(p.mu + p.y0) + 1.0) / (p.gamma * (p.sigma_y**2 + p.sigma_z**2))
    (phi_ui,), (v_ui,) = _newton_max(
        p.gamma, gains.reshape(1, -1), np.outer(w, w).ravel(),
        np.array([-span]), np.array([span]),
    )
    node_span = 100.0 * (np.abs(p.mu + y_nodes) + 1.0) / (p.gamma * p.sigma_z**2)
    _, v_nodes = _newton_max(p.gamma, gains, w, -node_span, node_span)
    v_informed0 = float(np.dot(w, v_nodes))  # informed value at zero charge

    # numpy turns a zero or non-finite value into inf or nan; np.maximum keeps a nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v_ui_x0 = float(v_ui * np.exp(-p.gamma * p.x0))
        c_hat = np.maximum(0.0, (np.log(-v_ui) - np.log(-v_informed0)) / p.gamma)
    return SinglePeriodOracle(float(phi_ui), v_ui_x0, float(c_hat))


# --- HJB coefficient ODE oracle ---

def _square(x: float) -> float:
    """x**2 through pow(), as numpy's scalar power forms it (pow differs from
    x*x in the last bit of about 0.1 % of inputs), giving inf on overflow
    where Python's float power raises."""
    try:
        return x**2
    except OverflowError:
        return math.inf


_ODE_NAMES = ("a_informed", "b_informed", "a_uninformed", "b_uninformed")


def _rk4_states(p: ModelParams, grid: TimeGrid) -> np.ndarray:
    """(n+1, 4) RK4 states (A_I, B_I, A_UI, B_UI) at the grid times.

    Integrates, backward from zero terminal conditions,

        A_I'  = 1/(2 sz^2) - 2 sy^2 A_I^2        B_I'  = -sy^2 A_I
        A_UI' = 1/(2 sz^2) + (2 sy/sz) h(t) A_UI  B_UI' = -sy^2 h(t)^2 A_UI

    with h(t) = tanh(sy t / sz), using plain numpy hyperbolics so the
    arithmetic shares nothing with the stabilized closed forms.  h at the
    three stage times of every step comes from one array tanh per stage;
    the recurrence runs on Python floats with the operations and operand
    order of elementwise numpy arithmetic, so it matches that to the bit.
    The B slopes depend only on the A stage values, so no B stage state is
    formed.
    """
    sy, sz = p.sigma_y, p.sigma_z
    source = 1.0 / (2.0 * sz**2)
    two_sy2 = 2.0 * sy**2
    neg_sy2 = -(sy**2)
    drift = 2.0 * sy / sz
    step = -grid.dt
    half = 0.5 * step
    sixth = step / 6.0
    t = grid.t[1:]  # step k integrates from t_k back to t_(k-1)
    h_starts, h_mids, h_ends = (
        np.tanh(sy * times / sz).tolist() for times in (t, t + half, t + step)
    )

    a_i = b_i = a_ui = b_ui = 0.0
    rows = [(a_i, b_i, a_ui, b_ui)]
    for h1, h2, h4 in zip(reversed(h_starts), reversed(h_mids), reversed(h_ends)):
        ka1 = source - two_sy2 * _square(a_i)
        kc1 = source + drift * h1 * a_ui
        a2 = a_i + half * ka1
        c2 = a_ui + half * kc1
        ka2 = source - two_sy2 * _square(a2)
        kc2 = source + drift * h2 * c2
        a3 = a_i + half * ka2
        c3 = a_ui + half * kc2
        ka3 = source - two_sy2 * _square(a3)
        kc3 = source + drift * h2 * c3
        a4 = a_i + step * ka3
        c4 = a_ui + step * kc3
        ka4 = source - two_sy2 * _square(a4)
        kc4 = source + drift * h4 * c4
        hh1, hh2, hh4 = h1**2, h2**2, h4**2
        b_i = b_i + sixth * (
            neg_sy2 * a_i + 2.0 * (neg_sy2 * a2) + 2.0 * (neg_sy2 * a3) + neg_sy2 * a4
        )
        b_ui = b_ui + sixth * (
            neg_sy2 * hh1 * a_ui + 2.0 * (neg_sy2 * hh2 * c2)
            + 2.0 * (neg_sy2 * hh2 * c3) + neg_sy2 * hh4 * c4
        )
        a_i = a_i + sixth * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
        a_ui = a_ui + sixth * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4)
        rows.append((a_i, b_i, a_ui, b_ui))
    return np.fromiter(itertools.chain.from_iterable(rows), float).reshape(-1, 4)[::-1]


def _closed_form_errors(p: ModelParams, grid: TimeGrid, states: np.ndarray) -> np.ndarray:
    """Max |closed form - state| per coefficient over the grid times."""
    closed = np.column_stack([
        closed_form.coeff_a_informed(p, grid.t),
        closed_form.coeff_b_informed(p, grid.t),
        closed_form.coeff_a_uninformed(p, grid.t),
        closed_form.coeff_b_uninformed(p, grid.t),
    ])
    return np.max(np.abs(states - closed), axis=0)


def ode_oracle(p: ModelParams, grid: TimeGrid) -> dict[str, float]:
    """Max |closed form - RK4| per coefficient over the grid (see ``_rk4_states``)."""
    return dict(zip(_ODE_NAMES, _closed_form_errors(p, grid, _rk4_states(p, grid)).tolist()))


def _doubled_rk4(p: ModelParams) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """(grid, states, estimates): RK4 on the first grid of 250, 500 or 1000
    steps whose error estimate is within a tenth of the tolerance for every
    coefficient, else on the 2000-step cap.

    Each grid doubles the last, whose run, integrated once, is its coarse run:
    for fourth-order steps the Richardson estimate of the error of the finer
    run X_2n is max |X_2n[::2] - X_n| / 15 over the coarse grid's times
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The rule compares RK4
    only with itself, never with a closed form.  An estimate is nan or inf
    where a run overflows.
    """
    n = _ODE_FIRST_STEPS
    coarse = _rk4_states(p, make_grid(p.t_end, n))
    while True:
        n *= 2
        grid = make_grid(p.t_end, n)
        fine = _rk4_states(p, grid)
        with np.errstate(invalid="ignore"):  # inf - inf where both runs overflow
            estimates = np.max(np.abs(fine[::2] - coarse), axis=0) / 15.0
        if n >= _ODE_MAX_STEPS or np.all(estimates <= 0.1 * _ODE_TOL):
            return grid, fine, estimates
        coarse = fine


# --- Monte-Carlo checks ---

_MARTINGALE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def indifference_log_ratio(
    p: ModelParams, grid: TimeGrid, n_paths: int, seed: int
) -> tuple[float, float]:
    """Charge equating informed and uninformed MC utilities, plus half-width.

    Both branches are arms of one antithetic ``mc_multi`` call on the same
    seeded paths (common random numbers).  A charge C scales the informed
    utilities by exp(gamma C), so the root is the log ratio of the mean of
    exp(exponent) over the two arms, divided by gamma.  Each mean is formed as
    max e + log(mean exp(e - max e)), which stays finite for any initial
    wealth.  The half-width is one paired delta-method standard error of the
    implied charge; comparisons elsewhere use the usual 3-standard-error band.
    """
    informed, uninformed = path_sim.mc_multi(
        p, grid, n_paths, seed,
        [path_sim.Arm(INFORMED_FROM_START), path_sim.Arm(UNINFORMED)],
        antithetic=True,
    )
    return _log_ratio(p, informed.exponents, uninformed.exponents)


def _log_ratio(p, informed, uninformed) -> tuple[float, float]:
    """``indifference_log_ratio`` from the two arms' per-path exponents."""
    log_means, weights = [], []
    for exponents in (informed, uninformed):
        top = np.max(exponents)
        scaled = np.exp(exponents - top)
        mean = np.mean(scaled)
        log_means.append(top + math.log(mean))
        weights.append(scaled / mean)
    (lme_informed, lme_uninformed), (w_informed, w_uninformed) = log_means, weights
    # a nan exponent gives a nan price, where max(0.0, nan) would give 0.0
    c_star = np.maximum((lme_uninformed - lme_informed) / p.gamma, 0.0)
    _, se = path_sim.mean_std_err((w_uninformed - w_informed) / p.gamma, True)
    return float(c_star), se


def mc_reports(p: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> list[OracleReport]:
    """The Monte-Carlo reports of ``verify --suite all`` from one engine call.

    For the uninformed and then the informed-from-start mode: the MC expected
    utility against the closed-form value at t = 0, within 3 standard errors,
    and a martingale check that the ensemble mean of the value function along
    optimal paths stays at its t = 0 value at the horizon quartiles (3
    standard errors per time).  Last, the MC indifference price against the
    closed form, within 3 half-widths.

    The value reports are those of a plain run of n_paths and the price report
    is that of ``indifference_log_ratio(p, grid, n_paths, seed)``, bit for bit,
    from one engine call that steps exactly the paths they read: keyed draws
    0 .. n_paths-1 with a + sign, which every engine step treats elementwise,
    are the plain run, and the first n_paths/2 of them with their mirror
    images are the antithetic run; ``path_sim._step_columns`` hands back both.
    """
    # the stricter check of the two runs the shared one stands for
    path_sim.check_path_count(n_paths, True)
    # keeps the n_paths + n_paths/2 columns of the engine call within one array
    if 2 * n_paths > path_sim.MAX_PATHS:
        raise DomainError(
            f"n_paths must be at most {path_sim.MAX_PATHS // 2} in the "
            f"Monte-Carlo checks, got {n_paths}"
        )
    check_times = tuple(f * grid.t_end for f in _MARTINGALE_FRACTIONS)
    (uninformed, informed), (paired_uninformed, paired_informed) = path_sim._step_columns(
        p, grid, seed, [path_sim.Arm(UNINFORMED), path_sim.Arm(INFORMED_FROM_START)],
        n_paths, n_paths // 2, check_times,
    )
    # (label, run, snapshot signal the position uses, value function V(t, x, signal))
    modes = (
        ("uninformed", uninformed, "y_hat",
         lambda t, x, y: closed_form.value_uninformed(p, t, x, y)),
        ("informed", informed, "y",
         lambda t, x, y: closed_form.value_informed(p, t, x, y, 0.0)),
    )
    reports = []
    for label, plain, signal, value in modes:
        closed0 = float(value(0.0, p.x0, p.y0))
        est = plain.estimate()
        # a subnormal or zero utility leaves the means nothing to resolve, and
        # so does a mean or standard error past the float range
        unresolved = ""
        if abs(closed0) < np.finfo(float).tiny:
            unresolved = "unresolved: the closed-form utility at t=0 underflows; "
        elif not (math.isfinite(est.mean) and math.isfinite(est.std_err)):
            unresolved = "unresolved: the terminal MC utility's mean or std err is not finite; "
        resolved = not unresolved
        detail = (
            f"{unresolved}terminal MC utility vs closed form at t=0 ({label}); tolerance = "
            f"3 std errs (abs {3.0 * est.std_err:.3e}), n_paths={n_paths}, seed={seed}"
        )
        reports.append(_report(f"mc_value_{label}", est.mean, closed0, 3.0 * est.std_err, detail,
                               resolved))

        z_scores = []
        for t_check in check_times:
            idx = grid.index_of(t_check)
            snap = plain.snapshots[idx]
            values = np.asarray(value(grid.t[idx], snap["x"], snap[signal]))
            mean, se = path_sim.mean_std_err(values, plain.antithetic)
            z_scores.append((grid.t[idx], path_sim.z_score(mean, se, closed0)))
        worst = float(np.max(np.abs([z for _, z in z_scores])))
        detail = (
            f"{unresolved}max |z| of mean value-function drift from t=0 over quartiles "
            f"({label}); " + ", ".join(f"t={t:g}: z={z:+.2f}" for t, z in z_scores)
        )
        reports.append(_report(f"mc_martingale_{label}", worst, 0.0, 3.0, detail, resolved))

    c_mc, half = _log_ratio(p, paired_informed.exponents, paired_uninformed.exponents)
    reports.append(_report(
        "mc_indifference_price",
        c_mc,
        closed_form.continuous_price(p).c_hat_0T,
        3.0 * half,
        f"MC log ratio (common random numbers, antithetic, n_paths={n_paths}, "
        f"seed={seed}) vs closed form; half-width (1 std err) = {half:.4g}, "
        "tolerance = 3 std errs",
    ))
    return reports


# --- price-filtration kernel identity ---

_GL_NODES = 20
# Panel edges in ramp widths sigma_z / sigma_y, where tanh^2 rises from 0 to 1;
# past 64 widths tanh^2 is 1 to the last bit, so one more panel is exact
_KERNEL_GRADES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@functools.cache
def _gl_unit():
    """Read-only Gauss-Legendre nodes/weights (x, w) on [0, 1], sum(w) = 1."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_GL_NODES)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def kernel_identity_residual(p: ModelParams, n_lattice: int = _KERNEL_LATTICE) -> float:
    """Max residual of sigma_z k(t,u) - int_0^u k(t,v) k(u,v) dv + sigma_y^2 u.

    Evaluated on an n x n (t, u) lattice restricted to u <= t; an exact
    kernel makes this identically zero.  For v <= u <= t the kernel k(t,v)
    does not depend on t, so the integral equals that of k(u,v)^2 for every
    t >= u and one integral per u covers the lattice.  The residual is still
    formed at every (t, u) pair, so a kernel that wrongly depended on t would
    fail there.

    Each integral is a composite 20-point Gauss-Legendre rule on panels with
    edges min(u, g sigma_z / sigma_y) for g in _KERNEL_GRADES, then u: graded
    toward the tanh ramp at v = 0, where the analytic integrand changes on
    the scale sigma_z / sigma_y, and converging geometrically on each panel.
    All nodes of all u go through one kernel call.
    """
    if n_lattice < 2:
        raise DomainError(f"n_lattice must be at least 2, got {n_lattice!r}")
    times = np.linspace(0.0, p.t_end, n_lattice)
    # sigma_y = 0 makes the kernel 0, and any panels integrate it exactly
    width = p.sigma_z / p.sigma_y if p.sigma_y > 0.0 else p.t_end
    edges = np.minimum(times[:, None], width * np.array(_KERNEL_GRADES))
    edges = np.column_stack([edges, times])
    starts, spans = edges[:, :-1], np.diff(edges, axis=1)  # (u, panel)
    x, w = _gl_unit()
    nodes = starts[..., None] + spans[..., None] * x  # (u, panel, node)
    k = signal_filter.hitsuda_kernel(p, times[:, None, None], nodes)
    integrals = ((k * k) @ w * spans).sum(axis=1)

    t, u = times[:, None], times[None, :]
    residual = np.abs(
        p.sigma_z * signal_filter.hitsuda_kernel(p, t, u) - integrals + p.sigma_y**2 * u
    )
    return float(np.max(residual, where=u <= t, initial=0.0))


# --- the deterministic reports of ``verify --suite fast`` ---

def fast_reports(p: ModelParams) -> list[OracleReport]:
    """The ode_*, single_period_* and kernel_identity reports, in output order."""
    rel_tol = _SINGLE_PERIOD_REL_TOL
    n = _KERNEL_LATTICE
    grid, states, estimates = _doubled_rk4(p)
    errors = _closed_form_errors(p, grid, states)
    # (name, observed, expected, tolerance, detail[, resolved])
    rows = []
    for name, err, estimate in zip(_ODE_NAMES, errors.tolist(), estimates.tolist()):
        resolved = estimate <= _ODE_TOL  # false for nan
        detail = (
            f"max |closed form - RK4 backward| over {grid.n_steps}-step grid; absolute; "
            f"RK4 error estimate |X_{grid.n_steps} - X_{grid.n_steps // 2}|/15 = {estimate:.3e}"
        )
        if not resolved:
            detail = f"unresolved: RK4 error estimate not within tolerance at the step cap; {detail}"
        rows.append((f"ode_{name}", err, 0.0, _ODE_TOL, detail, resolved))
    oracle = single_period_oracle(p)
    solution = closed_form.single_period_solve(p)
    rows += [
        ("single_period_price", oracle.c_hat, solution.c_hat,
         rel_tol * max(1.0, abs(solution.c_hat)),
         f"Gauss-Hermite/Newton oracle vs closed form; tolerance {rel_tol:g} relative"),
        ("single_period_position", oracle.phi_ui, solution.phi_uninformed,
         rel_tol * max(1.0, abs(solution.phi_uninformed)),
         f"Newton position vs closed form; tolerance {rel_tol:g} relative"),
        ("kernel_identity", kernel_identity_residual(p), 0.0, _KERNEL_TOL,
         f"max Volterra-identity residual on a {n}x{n} lattice; absolute"),
    ]
    return [_report(*row) for row in rows]


__all__ = [
    "OracleReport",
    "SinglePeriodOracle",
    "single_period_oracle",
    "ode_oracle",
    "indifference_log_ratio",
    "mc_reports",
    "kernel_identity_residual",
    "fast_reports",
]
