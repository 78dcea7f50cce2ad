"""Closed-form strategies, value functions, and signal prices.

Single-period model
-------------------
Price increment  mu + Y + sigma_z*B  with signal Y ~ N(y, sigma_y^2) revealed
to the buyer before trading.  Exponential utility -exp(-gamma*x) gives

    informed position    (mu + Y) / (gamma*sigma_z^2)
    uninformed position  (mu + y) / (gamma*(sigma_y^2 + sigma_z^2))
    signal price         log(1 + sigma_y^2/sigma_z^2) / (2*gamma)

Continuous-time model
---------------------
dS = (mu + Y_t) dt + sigma_z dB^Z,  dY = sigma_y dB^Y.  With a = sigma_y/sigma_z
the value functions are -exp{-gamma*x + A(t)*(mu+y)^2 + B(t)} where

    A_I(t)  = -tanh(a(T-t)) / (2 sigma_y sigma_z)
    B_I(t)  = -log(cosh(a(T-t))) / 2
    A_UI(t) = -sinh(a(T-t)) cosh(at) / (2 sigma_y sigma_z cosh(aT))
    B_UI(t) =  (sigma_y/4sigma_z)(T-t) tanh(aT)
               + log(cosh(at)/cosh(aT))/2
               + sinh(a(T-t)) sinh(at) / (4 cosh(aT))

and the lump price of the feed over [0, T] is

    (sigma_y / (4 gamma sigma_z)) * T * tanh(sigma_y T / sigma_z).

Hyperbolic ratios are evaluated through exp/expm1 forms whose exponents are
all <= 0, so nothing overflows for large sigma_y*T/sigma_z.  sigma_y = 0 is
handled by the tanh(x)/x -> 1 limit rather than an error.

The value functions take t in [0, T] and inputs of any broadcast shape.  One
routine, ``_utility``, forms the utility of every value function here and in
``subscription_timing``, for every shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import ModelParams

_LOG2 = math.log(2.0)


# --- stable hyperbolic building blocks (exponents always <= 0) ---

def log_cosh(x):
    """log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log 2."""
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def stable_tanh(x):
    """tanh(x) for x >= 0 as -expm1(-2x) / (1 + exp(-2x))."""
    x = np.asarray(x, dtype=float)
    return -np.expm1(-2.0 * x) / (1.0 + np.exp(-2.0 * x))


def _em1_over(x):
    """(1 - exp(-2x)) / x for x >= 0, with the x -> 0 limit 2."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    out = -np.expm1(-2.0 * x) / safe
    return np.where(x == 0.0, 2.0, out)


def _sinh_sinh_over_cosh(a_arg, b_arg):
    """sinh(A)sinh(B)/cosh(A+B) = (1-e^{-2A})(1-e^{-2B}) / (2(1+e^{-2(A+B)}))."""
    ea = -np.expm1(-2.0 * np.asarray(a_arg, dtype=float))
    eb = -np.expm1(-2.0 * np.asarray(b_arg, dtype=float))
    ec = 1.0 + np.exp(-2.0 * (np.asarray(a_arg) + np.asarray(b_arg)))
    return ea * eb / (2.0 * ec)


def _cosh_cosh_over_cosh(a_arg, b_arg):
    """cosh(A)cosh(B)/cosh(A+B) = (1+e^{-2A})(1+e^{-2B}) / (2(1+e^{-2(A+B)}))."""
    ea = 1.0 + np.exp(-2.0 * np.asarray(a_arg, dtype=float))
    eb = 1.0 + np.exp(-2.0 * np.asarray(b_arg, dtype=float))
    ec = 1.0 + np.exp(-2.0 * (np.asarray(a_arg) + np.asarray(b_arg)))
    return ea * eb / (2.0 * ec)


def utility_from_exponent(exponent):
    """-exp(exponent): finite up to exponent ~709.78, -inf beyond, without a warning."""
    with np.errstate(over="ignore"):
        out = -np.exp(np.asarray(exponent, dtype=float))
    return out[()]


def noise_ratio(p: ModelParams) -> float:
    """sigma_y / sigma_z, the per-unit-time signal-to-volatility ratio."""
    return p.sigma_y / p.sigma_z


def rate_bound(p: ModelParams) -> float:
    """sigma_y / (4 gamma sigma_z): cap on the flat subscription rate."""
    return p.sigma_y / (4.0 * p.gamma * p.sigma_z)


# --- HJB exponent coefficients ---

def coeff_a_informed(p: ModelParams, t):
    """A_I(t) = -(T-t)/(2 sigma_z^2) * tanh(a(T-t))/(a(T-t)); limit-safe at sigma_y=0."""
    a = noise_ratio(p)
    rem = p.t_end - np.asarray(t, dtype=float)
    arg = a * rem
    # tanh(x)/x = _em1_over(x) / (1 + exp(-2x))
    tanhc = _em1_over(arg) / (1.0 + np.exp(-2.0 * arg))
    return -rem / (2.0 * p.sigma_z**2) * tanhc


def coeff_b_informed(p: ModelParams, t):
    """B_I(t) = -log(cosh(a(T-t)))/2."""
    a = noise_ratio(p)
    rem = p.t_end - np.asarray(t, dtype=float)
    return -0.5 * log_cosh(a * rem)


def coeff_a_uninformed(p: ModelParams, t):
    """A_UI(t) = -sinh(a(T-t))cosh(at)/(2 sigma_y sigma_z cosh(aT)); limit-safe."""
    a = noise_ratio(p)
    t = np.asarray(t, dtype=float)
    rem = p.t_end - t
    arg_rem = a * rem
    arg_t = a * t
    factor = (
        _em1_over(arg_rem)
        * (1.0 + np.exp(-2.0 * arg_t))
        / (2.0 * (1.0 + np.exp(-2.0 * (arg_rem + arg_t))))
    )
    return -rem / (2.0 * p.sigma_z**2) * factor


def coeff_b_uninformed(p: ModelParams, t):
    """B_UI(t): the three state-independent exponent terms of the filtered value."""
    a = noise_ratio(p)
    t = np.asarray(t, dtype=float)
    rem = p.t_end - t
    term1 = p.sigma_y / (4.0 * p.sigma_z) * rem * stable_tanh(a * p.t_end)
    term2 = 0.5 * (log_cosh(a * t) - log_cosh(a * p.t_end))
    term3 = 0.25 * _sinh_sinh_over_cosh(a * rem, a * t)
    return term1 + term2 + term3


# --- strategies ---

def informed_strategy(p: ModelParams, t, y_t):
    """Position (mu + y_t) / (gamma sigma_z^2); time-independent."""
    return (p.mu + np.asarray(y_t, dtype=float)) / (p.gamma * p.sigma_z**2)


def uninformed_strategy(p: ModelParams, t, y_hat_t):
    """Position (mu + y_hat) cosh(a(T-t)) cosh(at) / (gamma sigma_z^2 cosh(aT))."""
    a = noise_ratio(p)
    t = np.asarray(t, dtype=float)
    factor = _cosh_cosh_over_cosh(a * (p.t_end - t), a * t)
    return (p.mu + np.asarray(y_hat_t, dtype=float)) * factor / (p.gamma * p.sigma_z**2)


# --- value functions ---

def _utility(p: ModelParams, x_t, charge, a_t, y_t, *terms):
    """-exp{-gamma (x - charge) + a_t (mu + y)**2 + terms[0] + ...}; None charges nothing.

    The exponent is summed left to right in one owned array of the broadcast
    shape, plus one for the square, by in-place ufuncs in the plain
    expression's operand order, giving its bits; -exp is then written over it.  A
    0-d signal is squared by pow(), as numpy's scalar ``** 2`` is (see
    ``verify_oracles._square``).  The inputs are only read; a 0-d result is a
    numpy scalar.  Overflow (-inf, or -0.0 and nan for a huge signal) is quiet.
    """
    x = np.asarray(x_t, dtype=float)
    y = np.asarray(y_t, dtype=float)
    operands = (x, a_t, y, *terms) if charge is None else (x, charge, a_t, y, *terms)
    out = np.empty(np.broadcast(*operands).shape)
    sq = np.empty(np.broadcast(a_t, y).shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if charge is not None:
            x = np.subtract(x, charge, out=out)
        np.multiply(-p.gamma, x, out=out)
        if y.ndim:
            np.square(np.add(p.mu, y, out=sq), out=sq)  # an array's ** 2
        else:
            sq[...] = (p.mu + y) ** 2
        np.add(out, np.multiply(a_t, sq, out=sq), out=out)
        for term in terms:
            np.add(out, term, out=out)
        np.exp(out, out=out)
    return np.negative(out, out=out)[()]


def _value(p: ModelParams, coeff_a, coeff_b, t, x_t, y_t, charge=None):
    """-exp{-gamma (x - charge) + A(t)(mu+y)^2 + B(t)} for the coefficient functions A and B."""
    t = p.check_time(t)
    with np.errstate(over="ignore", invalid="ignore"):  # extreme parameters give inf or nan
        a_t, b_t = coeff_a(p, t), coeff_b(p, t)
    return _utility(p, x_t, charge, a_t, y_t, b_t)


def value_informed(p: ModelParams, t, x_t, y_t, charge: float = 0.0):
    """-exp{-gamma(x - charge) + A_I(t)(mu+y)^2 + B_I(t)}.

    ``charge`` is the lump fee paid at time 0; pass wealth net of it instead
    and keep charge = 0 for evaluations after time 0.
    """
    return _value(p, coeff_a_informed, coeff_b_informed, t, x_t, y_t, charge)


def value_uninformed(p: ModelParams, t, x_t, y_hat_t):
    """-exp{-gamma x + A_UI(t)(mu+y_hat)^2 + B_UI(t)}."""
    return _value(p, coeff_a_uninformed, coeff_b_uninformed, t, x_t, y_hat_t)


# --- prices ---

@dataclass(frozen=True)
class ContinuousPriceResult:
    """Lump price of the feed over [0, T] and its flat-rate equivalents."""

    c_hat_0T: float
    c_bar: float
    c_bar_bound: float


def continuous_price(p: ModelParams) -> ContinuousPriceResult:
    """Lump price (sigma_y/(4 gamma sigma_z)) T tanh(sigma_y T / sigma_z).

    c_bar = price / T is the flat per-time rate; it never exceeds
    sigma_y / (4 gamma sigma_z).
    """
    bound = rate_bound(p)
    c_bar = bound * float(stable_tanh(noise_ratio(p) * p.t_end))
    return ContinuousPriceResult(c_hat_0T=c_bar * p.t_end, c_bar=c_bar, c_bar_bound=bound)


@dataclass(frozen=True)
class SinglePeriodSolution:
    """One-shot strategies, values, and the signal price.

    ``v_informed`` is the informed value with no charge for the signal; a
    charge C paid out of wealth scales it by exp(gamma C).
    """

    phi_informed_coeff: float
    phi_uninformed: float
    v_uninformed: float
    c_hat: float
    v_informed: float


def single_period_solve(p: ModelParams) -> SinglePeriodSolution:
    """Solve the one-shot model (sigma_y, sigma_z as one-period deviations)."""
    var_sum = p.sigma_y**2 + p.sigma_z**2
    quad = (p.mu + p.y0) ** 2 / (2.0 * var_sum)
    log_term = math.log1p(p.sigma_y**2 / p.sigma_z**2)
    return SinglePeriodSolution(
        phi_informed_coeff=1.0 / (p.gamma * p.sigma_z**2),
        phi_uninformed=(p.mu + p.y0) / (p.gamma * var_sum),
        v_uninformed=float(utility_from_exponent(-p.gamma * p.x0 - quad)),
        c_hat=log_term / (2.0 * p.gamma),
        v_informed=float(utility_from_exponent(-p.gamma * p.x0 - quad - 0.5 * log_term)),
    )


__all__ = [
    "ContinuousPriceResult",
    "SinglePeriodSolution",
    "log_cosh",
    "stable_tanh",
    "utility_from_exponent",
    "noise_ratio",
    "rate_bound",
    "coeff_a_informed",
    "coeff_b_informed",
    "coeff_a_uninformed",
    "coeff_b_uninformed",
    "informed_strategy",
    "uninformed_strategy",
    "value_informed",
    "value_uninformed",
    "continuous_price",
    "single_period_solve",
]
