"""The RK4 and kernel-identity oracles against frozen copies of the code they replaced.

``ode_oracle`` once built a numpy array for every right-hand-side evaluation
and ``kernel_identity_residual`` ran one quadrature per (t, u) lattice pair.
Those versions are kept below verbatim, and the rewritten oracles must return
exactly what they return, bit for bit, on every configuration here.
"""

import math

import numpy as np
import pytest

from signalprice import ModelParams, make_grid
from signalprice import closed_form, signal_filter
from signalprice import verify_oracles as vo


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
    frozen = _frozen_kernel_identity_residual(config, n_lattice)
    got = vo.kernel_identity_residual(config, n_lattice)
    assert type(got) is type(frozen)
    assert got == frozen


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
