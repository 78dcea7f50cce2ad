"""The fast oracles against frozen copies of the code they replaced.

``ode_oracle`` once built a numpy array for every right-hand-side evaluation.
That version is kept below verbatim, and the rewritten oracle must return
exactly what it returns, bit for bit, on every configuration here.

``kernel_identity_residual`` once ran one adaptive scipy quadrature per
(t, u) lattice pair.  That version is kept verbatim too, as a test-only
reference; the graded Gauss-Legendre oracle must agree with it within the
accuracy the quadrature was asked for, 1e-10 max(1, sigma_y^2 T), and
resolve the kernel's tanh ramp where the quadrature missed it.  The
broadcasting ``hitsuda_kernel`` must give the frozen scalar kernel's floats
bit for bit.

``single_period_oracle`` once found each position by a coarse scan and
golden-section search.  That version is kept verbatim too; the Newton oracle
must give its price to 1e-14 relative, and its position to 1e-14 of the closed
form, where the golden-section search is off by up to 6e-12.
"""

import dataclasses
import math
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from numpy.polynomial.hermite import hermgauss

from signalprice import DomainError, ModelParams, make_grid
from signalprice import closed_form, signal_filter
from signalprice import verify_oracles as vo


def fast_report(p, name):
    """The report called ``name`` from ``verify --suite fast``."""
    return next(r for r in vo.fast_reports(p) if r.name == name)


# --- frozen references ---

def _frozen_ode_oracle(p, grid):
    sy, sz = p.sigma_y, p.sigma_z

    def rhs(t, u):
        a_i, _, a_ui, _ = u
        h = np.tanh(sy * t / sz)
        return np.array([
            1.0 / (2.0 * sz**2) - 2.0 * sy**2 * a_i**2,
            -(sy**2) * a_i,
            1.0 / (2.0 * sz**2) + (2.0 * sy / sz) * h * a_ui,
            -(sy**2) * h**2 * a_ui,
        ])

    n = grid.n_steps
    step = -grid.dt
    states = np.zeros((n + 1, 4))
    u = np.zeros(4)
    for k in range(n, 0, -1):
        t = grid.t[k]
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * step, u + 0.5 * step * k1)
        k3 = rhs(t + 0.5 * step, u + 0.5 * step * k2)
        k4 = rhs(t + step, u + step * k3)
        u = u + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k - 1] = u

    closed = np.column_stack([
        closed_form.coeff_a_informed(p, grid.t),
        closed_form.coeff_b_informed(p, grid.t),
        closed_form.coeff_a_uninformed(p, grid.t),
        closed_form.coeff_b_uninformed(p, grid.t),
    ])
    errors = np.max(np.abs(states - closed), axis=0)
    names = ("a_informed", "b_informed", "a_uninformed", "b_uninformed")
    return dict(zip(names, errors.tolist()))


def _frozen_kernel_identity_residual(p, n_lattice=20):
    from scipy.integrate import quad

    times = np.linspace(0.0, p.t_end, n_lattice)
    worst = 0.0
    for t in times:
        for u in times[times <= t]:
            integral, _ = quad(
                lambda v: signal_filter.hitsuda_kernel(p, t, v)
                * signal_filter.hitsuda_kernel(p, u, v),
                0.0,
                u,
                epsabs=1e-10,
                epsrel=1e-10,
            )
            residual = abs(
                p.sigma_z * signal_filter.hitsuda_kernel(p, t, u)
                - integral
                + p.sigma_y**2 * u
            )
            worst = max(worst, residual)
    return worst


def _frozen_hitsuda_kernel(p, t, u):
    """kappa(t, u) = -sigma_y * tanh(sigma_y u / sigma_z) for u <= t, else 0."""
    if u > t:
        return 0.0
    return float(-p.sigma_y * closed_form.stable_tanh(p.sigma_y / p.sigma_z * u))


def _frozen_gh_standard_normal(n=64):
    x, w = hermgauss(n)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _frozen_golden_max(f: Callable, lo: np.ndarray, hi: np.ndarray, scan: int = 256,
                       iters: int = 80):
    """Vectorized maximizer: coarse scan, golden-section, parabolic polish.

    ``f`` maps a vector of abscissae (one per problem) to a vector of values;
    all problems iterate in lockstep.  Comparison-based search alone stalls at
    the sqrt(eps * f/f'') curvature floor, so one parabolic-vertex step with a
    wide stencil recovers full argument accuracy on smooth optima.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    fracs = np.linspace(0.0, 1.0, scan)
    values = np.stack([f(lo + frac * (hi - lo)) for frac in fracs])
    best = np.argmax(values, axis=0)
    step = (hi - lo) / (scan - 1)
    centers = lo + best * step
    lo = np.maximum(lo, centers - step)
    hi = np.minimum(hi, centers + step)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        take_left = fc >= fd
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = f(c), f(d)
    x = 0.5 * (lo + hi)

    h = 1e-3 * (1.0 + np.abs(x))
    f0, f_minus, f_plus = f(x), f(x - h), f(x + h)
    curvature = f_plus - 2.0 * f0 + f_minus
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = 0.5 * h * (f_minus - f_plus) / curvature
    usable = np.isfinite(shift) & (curvature < 0.0) & (np.abs(shift) <= h)
    x = np.where(usable, x + shift, x)
    return x, f(x)


def _frozen_single_period_oracle(p):
    z, w = _frozen_gh_standard_normal()
    y_nodes = p.y0 + p.sigma_y * z
    gains = p.mu + y_nodes[:, None] + p.sigma_z * z[None, :]  # (signal, noise)
    w2 = w[:, None] * w[None, :]

    def v_uninformed(phi):
        phi = np.asarray(phi, dtype=float)
        with np.errstate(over="ignore"):
            vals = -(w2[None, :, :] * np.exp(
                -p.gamma * (phi[:, None, None] * gains[None, :, :])
            )).sum(axis=(1, 2))
        return vals

    span = 100.0 * (abs(p.mu + p.y0) + 1.0) / (p.gamma * (p.sigma_y**2 + p.sigma_z**2))
    phi_ui, v_ui = _frozen_golden_max(v_uninformed, np.array([-span]), np.array([span]))
    phi_ui, v_ui = float(phi_ui[0]), float(v_ui[0])

    def v_informed_nodes(phi):
        # phi: one candidate position per signal node; inner sum over noise
        with np.errstate(over="ignore"):
            expo = -p.gamma * (phi[:, None] * gains)
            return -(np.exp(expo) * w[None, :]).sum(axis=1)

    node_span = 100.0 * (np.abs(p.mu + y_nodes) + 1.0) / (p.gamma * p.sigma_z**2)
    _, v_nodes = _frozen_golden_max(v_informed_nodes, -node_span, node_span)
    v_informed0 = float(np.dot(w, v_nodes))  # informed value at zero charge

    # numpy turns a zero or non-finite value into inf or nan; np.maximum keeps a nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v_ui_x0 = float(v_ui * np.exp(-p.gamma * p.x0))
        c_hat = np.maximum(0.0, (np.log(-v_ui) - np.log(-v_informed0)) / p.gamma)
    return vo.SinglePeriodOracle(phi_ui, v_ui_x0, float(c_hat))


# --- configurations ---

WORKED = dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
              x0=0.0, y0=0.0, s0=10.0, t_end=1.0)


def _lattice(seed=71, n=11):
    """The worked example plus a Latin hypercube over gamma in [0.05, 0.5]
    (log scale), sigma_y in [0.05, 0.2] and sigma_z in [0.1, 0.2]."""
    rng = np.random.default_rng(seed)
    strata = [(rng.permutation(n) + rng.random(n)) / n for _ in range(3)]
    points = [WORKED]
    for u_gamma, u_y, u_z in zip(*strata):
        points.append(dict(
            WORKED,
            gamma=float(math.exp(math.log(0.05) + u_gamma * math.log(10.0))),
            sigma_y=float(0.05 + 0.15 * u_y),
            sigma_z=float(0.1 + 0.1 * u_z),
        ))
    return points


CONFIGS = _lattice() + [
    dict(WORKED, sigma_y=3.0, sigma_z=1e-3),  # RK4 unstable: inf and nan errors
    dict(WORKED, x0=-7050.0),
    dict(WORKED, sigma_y=0.0),
    dict(WORKED, t_end=5.0, mu=-0.3, y0=0.2),
]


# the reference point and the 3x3x3 lattice of acceptance criterion 02
CRITERION_02 = [WORKED] + [
    dict(WORKED, gamma=g, sigma_y=sy, sigma_z=sz)
    for g in (0.05, 0.1, 0.5)
    for sy in (0.05, 0.1, 0.2)
    for sz in (0.1, 0.15, 0.2)
]


def _bits(values):
    """Each float's type and IEEE bit pattern: exact ==, under which the inf
    and nan errors of an unstable run compare equal to themselves too."""
    return [(type(v), np.float64(v).view(np.uint64)) for v in values]


@pytest.fixture(params=range(len(CONFIGS)), ids=lambda i: f"config{i}")
def config(request):
    return ModelParams(**CONFIGS[request.param])


@pytest.mark.parametrize("n_steps", [250, 2001])
def test_ode_oracle_matches_frozen_rk4(config, n_steps):
    grid = make_grid(config.t_end, n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        frozen = _frozen_ode_oracle(config, grid)
    got = vo.ode_oracle(config, grid)
    assert list(got) == list(frozen)
    assert _bits(got.values()) == _bits(frozen.values())


@pytest.mark.parametrize("n_lattice", [6, 20])
def test_kernel_identity_matches_frozen_quadrature(config, n_lattice):
    # the frozen quadrature was asked for 1e-10 absolute and relative accuracy
    frozen = _frozen_kernel_identity_residual(config, n_lattice)
    got = vo.kernel_identity_residual(config, n_lattice)
    assert type(got) is float
    assert abs(got - frozen) <= 1e-10 * max(1.0, config.sigma_y**2 * config.t_end)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    log_ratio=hs.floats(-3.0, 6.0),
    log_sigma_z=hs.floats(-3.0, 0.0),
    t_end=hs.floats(0.1, 10.0),
    n_lattice=hs.integers(2, 40),
)
def test_kernel_identity_resolves_the_box(log_ratio, log_sigma_z, t_end, n_lattice):
    # sigma_y / sigma_z in [1e-3, 1e6], sigma_z in [1e-3, 1]: the exact kernel
    # leaves only the rounding of sigma_y^2 u
    sigma_z = 10.0**log_sigma_z
    p = ModelParams(**dict(WORKED, sigma_y=10.0**log_ratio * sigma_z, sigma_z=sigma_z,
                           t_end=t_end))
    got = vo.kernel_identity_residual(p, n_lattice)
    assert got <= 1e-13 * max(1.0, p.sigma_y**2 * t_end)


SHARP = [dict(WORKED, sigma_y=sy, sigma_z=1e-3) for sy in (10.0, 100.0, 1000.0)]


@pytest.mark.parametrize("config", SHARP + CRITERION_02,
                         ids=[f"sharp{i}" for i in range(len(SHARP))]
                         + [f"criterion02_{i}" for i in range(len(CRITERION_02))])
def test_kernel_report_passes_on_sharp_signals(config):
    # the frozen quadrature missed the ramp of width sigma_z / sigma_y at
    # sigma_z = 1e-3 and failed with residual sigma_y sigma_z from sigma_y = 10
    p = ModelParams(**config)
    report = fast_report(p, "kernel_identity")
    assert report.passed, report


@pytest.mark.parametrize("mutant", ["wrong_ramp", "wrong_amplitude"])
@pytest.mark.parametrize("config", [WORKED] + SHARP,
                         ids=["worked"] + [f"sharp{i}" for i in range(len(SHARP))])
def test_kernel_identity_detects_a_wrong_kernel(monkeypatch, config, mutant):
    p = ModelParams(**config)
    exact = signal_filter.hitsuda_kernel
    wrong = {
        # -sigma_y tanh(2 sigma_y u / sigma_z)
        "wrong_ramp": lambda p, t, u: exact(dataclasses.replace(p, sigma_z=p.sigma_z / 2.0),
                                            t, u),
        "wrong_amplitude": lambda p, t, u: 1.01 * exact(p, t, u),
    }[mutant]
    monkeypatch.setattr(signal_filter, "hitsuda_kernel", wrong)
    assert vo.kernel_identity_residual(p) > 1e-6
    assert not fast_report(p, "kernel_identity").passed


@pytest.mark.parametrize("n_lattice", [-3, 0, 1])
def test_degenerate_kernel_lattice_is_a_domain_error(params, n_lattice):
    # one point or none would check nothing and pass
    with pytest.raises(DomainError, match=f"n_lattice must be at least 2, got {n_lattice}"):
        vo.kernel_identity_residual(params, n_lattice)


_KERNEL_POINTS = [0.0, 0.1, 0.25, 0.5, 0.7, 1.0]


@pytest.mark.parametrize("config", CONFIGS + SHARP,
                         ids=[f"config{i}" for i in range(len(CONFIGS))]
                         + [f"sharp{i}" for i in range(len(SHARP))])
def test_hitsuda_kernel_scalars_match_frozen(config):
    # covers u > t, u = t and u = 0
    p = ModelParams(**config)
    got = [signal_filter.hitsuda_kernel(p, t, u) for t in _KERNEL_POINTS for u in _KERNEL_POINTS]
    frozen = [_frozen_hitsuda_kernel(p, t, u) for t in _KERNEL_POINTS for u in _KERNEL_POINTS]
    assert _bits(got) == _bits(frozen)


@pytest.mark.parametrize("config", CONFIGS + SHARP,
                         ids=[f"config{i}" for i in range(len(CONFIGS))]
                         + [f"sharp{i}" for i in range(len(SHARP))])
def test_hitsuda_kernel_broadcasts_like_scalar_calls(config):
    p = ModelParams(**config)
    points = np.array(_KERNEL_POINTS)
    shapes = [
        (points[:, None], points[None, :]),  # (t, u) lattice: u > t, u = t, u = 0
        (points, points[::-1]),  # elementwise
        (0.5, points),  # scalar t
        (points[:, None, None], np.linspace(0.0, 1.0, 12).reshape(3, 4)),
    ]
    for t, u in shapes:
        got = signal_filter.hitsuda_kernel(p, t, u)
        t_b, u_b = np.broadcast_arrays(t, u)
        assert isinstance(got, np.ndarray) and got.shape == t_b.shape
        want = [signal_filter.hitsuda_kernel(p, a, b)
                for a, b in zip(t_b.ravel().tolist(), u_b.ravel().tolist())]
        assert got.ravel().view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_square_is_numpy_scalar_power():
    # x * x differs from numpy's scalar x**2 (pow) in the last bit of about
    # 0.1 % of inputs, too rarely for the configurations above to show it
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20000) * 10.0 ** rng.uniform(-150, 150, 20000)
    assert [vo._square(v) for v in x.tolist()] == [float(v**2) for v in x]
    with np.errstate(over="ignore"):
        assert vo._square(1e200) == float(np.float64(1e200) ** 2) == math.inf


def test_kernel_identity_detects_a_time_dependent_kernel(monkeypatch, params):
    assert vo.kernel_identity_residual(params) < 1e-6
    exact = signal_filter.hitsuda_kernel
    monkeypatch.setattr(signal_filter, "hitsuda_kernel",
                        lambda p, t, u: exact(p, t, u) * (1.0 + 0.1 * t))
    assert vo.kernel_identity_residual(params) > 1e-6


@pytest.mark.parametrize("config", CONFIGS + CRITERION_02,
                         ids=[f"config{i}" for i in range(len(CONFIGS))]
                         + [f"criterion02_{i}" for i in range(len(CRITERION_02))])
def test_one_shot_oracle_matches_frozen_golden_section(config):
    p = ModelParams(**config)
    frozen = _frozen_single_period_oracle(p)
    got = vo.single_period_oracle(p)
    assert math.isfinite(got.c_hat) == math.isfinite(frozen.c_hat)
    if math.isfinite(frozen.c_hat):
        assert abs(got.c_hat - frozen.c_hat) <= 1e-14 * abs(frozen.c_hat)
    phi = closed_form.single_period_solve(p).phi_uninformed
    assert abs(got.phi_ui - phi) <= 1e-14 * max(1.0, abs(phi))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    log_gamma=hs.floats(-3.0, 1.0),
    log_sigma_z=hs.floats(-3.0, 1.0),
    ratio=hs.floats(0.0, 2.0),
    drift=hs.floats(-1.0, 1.0),
    share=hs.floats(0.0, 1.0),
    x0=hs.floats(-100.0, 100.0),
)
def test_one_shot_oracle_resolves_the_box(log_gamma, log_sigma_z, ratio, drift, share, x0):
    # the box sigma_y / sigma_z <= 2, |mu + y0| <= sigma_z, gamma and sigma_z
    # in [1e-3, 10]: every problem settles and the price matches the closed form
    sigma_z = 10.0**log_sigma_z
    mu = share * drift * sigma_z
    p = ModelParams(**dict(WORKED, gamma=10.0**log_gamma, sigma_y=ratio * sigma_z,
                           sigma_z=sigma_z, mu=mu, y0=drift * sigma_z - mu, x0=x0))
    solve, phis = vo._newton_max, []

    def recorded(*args):
        phi, values = solve(*args)
        phis.append(phi)
        return phi, values

    with mock.patch.object(vo, "_newton_max", recorded):
        got = vo.single_period_oracle(p)
    assert [phi.size for phi in phis] == [1, 64]
    assert all(np.isfinite(phi).all() for phi in phis)  # an unsettled problem gives nan
    closed = closed_form.single_period_solve(p).c_hat
    assert got.c_hat >= 0.0
    assert abs(got.c_hat - closed) <= 1e-8 * max(1.0, abs(closed))


def test_one_sided_problems_settle_at_their_edge():
    # all gains of one sign: the optimum lies beyond the bracket edge
    gains = np.array([[1.0, 2.0], [-1.0, -2.0], [-1.0, 1.0]])
    phi, values = vo._newton_max(0.5, gains, np.array([0.5, 0.5]),
                                 np.full(3, -10.0), np.full(3, 10.0))
    assert phi.tolist() == [10.0, -10.0, 0.0]
    assert values[2] == -1.0


def test_unsettled_problem_fails_the_check(monkeypatch, params):
    # the worked example's informed problems need 6 steps
    monkeypatch.setattr(vo, "_NEWTON_ITERS", 3)
    oracle = vo.single_period_oracle(params)
    assert math.isnan(oracle.c_hat)
    price, position = (fast_report(params, f"single_period_{name}")
                       for name in ("price", "position"))
    assert not price.passed and position.passed
