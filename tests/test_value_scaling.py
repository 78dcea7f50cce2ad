"""Metamorphic tests of the value layer.

The value exponents depend on the parameters only through sigma_y T / sigma_z,
(mu + y) sqrt(T) / sigma_z and the wealth terms.  Two dyadic rescalings keep
them fixed, so every value function and the lump price must return the same
bits after them:

(a) signal units: mu, sigma_y, sigma_z, y0 and the signal y times 2**k;
(b) time units: T, t, the schedule knots and the grid times 4**j, the
    schedule rates times 4**-j, sigma_y times 2**-j and sigma_z times 2**j.

Both factors are powers of two, so each product is exact and every rounding
of the rescaled computation is the rounding of the original, scaled.
"""

import dataclasses

import numpy as np
import pytest

from signalprice import ModelParams, make_grid, validate
from signalprice import closed_form as cf
from signalprice import subscription_timing as st

PARAMETER_SETS = {
    "worked_example": dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
                           x0=0.0, y0=0.02, s0=10.0, t_end=1.0),
    "long_sharp": dict(mu=-0.03, sigma_y=0.4, sigma_z=0.02, gamma=0.5,
                       x0=-3.0, y0=0.1, s0=1.0, t_end=5.0),
}
N_STEPS = 64
TIME_FRACTIONS = np.linspace(0.0, 1.0, 9)
KNOT_FRACTIONS = np.array([0.0, 0.25, 0.6, 1.0])
RATE_MULTIPLES = np.array([2.0, 0.3, 1.1, 0.8])  # of the flat-rate lump price c_bar
T_STAR_FRACTIONS = (0.0, 0.4, 1.0)


def _base_inputs(name):
    p = validate(ModelParams(**PARAMETER_SETS[name]))
    rng = np.random.default_rng(11)
    x = rng.standard_normal(16)
    y = p.y0 + 0.05 * rng.standard_normal(16)
    rates = RATE_MULTIPLES * cf.continuous_price(p).c_bar
    return p, x, y, rates


def _value_layer(p, x, y, rates):
    """Bytes of every value-layer output at the inputs' fixed fractions of T."""
    grid = make_grid(p.t_end, N_STEPS)
    schedule = st.RateSchedule(KNOT_FRACTIONS * p.t_end, rates)
    tau_l = st.earliest_time(p, schedule, grid).tau_l
    t = TIME_FRACTIONS * p.t_end
    t_flex = TIME_FRACTIONS * tau_l
    t_mid = 0.3 * p.t_end
    outputs = [
        cf.value_informed(p, t[:, None], x, y),
        cf.value_informed(p, t[:, None], x, y, charge=0.37),
        cf.value_uninformed(p, t[:, None], x, y),
        st.value_prepurchase(p, t[:, None], x, y, schedule),
        st.value_flexible(p, t_flex[:, None], x, y, schedule, grid),
        cf.value_informed(p, t_mid, x[0], y[0]),
        cf.value_uninformed(p, t_mid, x[0], y[0]),
        st.value_prepurchase(p, t_mid, x[0], y[0], schedule),
        st.value_flexible(p, 0.5 * tau_l, x[0], y[0], schedule, grid),
        *[st.value_committed(p, f * p.t_end, schedule, grid) for f in T_STAR_FRACTIONS],
        cf.continuous_price(p).c_hat_0T,
    ]
    assert 0.0 < tau_l < p.t_end  # value_flexible runs over a window that is not a point
    return [np.asarray(v).tobytes() for v in outputs]


@pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
@pytest.mark.parametrize("k", [-3, -1, 1, 2, 5])
def test_signal_units_leave_values_unchanged(name, k):
    p, x, y, rates = _base_inputs(name)
    s = 2.0**k
    scaled = dataclasses.replace(p, mu=p.mu * s, sigma_y=p.sigma_y * s,
                                 sigma_z=p.sigma_z * s, y0=p.y0 * s)
    assert _value_layer(scaled, x, y * s, rates) == _value_layer(p, x, y, rates)


@pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
@pytest.mark.parametrize("j", [-1, 1, 2])
def test_time_units_leave_values_unchanged(name, j):
    p, x, y, rates = _base_inputs(name)
    scaled = dataclasses.replace(p, t_end=p.t_end * 4.0**j, sigma_y=p.sigma_y * 2.0**-j,
                                 sigma_z=p.sigma_z * 2.0**j)
    assert _value_layer(scaled, x, y, rates * 4.0**-j) == _value_layer(p, x, y, rates)
