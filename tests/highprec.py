"""Extended-precision (mpmath) reference values for the tests."""

import mpmath


def highprec_uninformed_strategy(p, t: float, y_hat: float, dps: int = 50) -> float:
    """Extended-precision recomputation of the filtered-signal position."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(p.sigma_y) / mpmath.mpf(p.sigma_z)
        num = (
            (mpmath.mpf(p.mu) + mpmath.mpf(y_hat))
            * mpmath.cosh(a * (mpmath.mpf(p.t_end) - mpmath.mpf(t)))
            * mpmath.cosh(a * mpmath.mpf(t))
        )
        den = (
            mpmath.mpf(p.gamma)
            * mpmath.mpf(p.sigma_z) ** 2
            * mpmath.cosh(a * mpmath.mpf(p.t_end))
        )
        return float(num / den)
