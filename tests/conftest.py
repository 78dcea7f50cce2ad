import warnings

import numpy as np
import pytest

# On a failing @given test, hypothesis's pytest plugin imports this module
# inside a hook teardown; its libcst import raises a DeprecationWarning, which
# filterwarnings = ["error"] turns into an INTERNALERROR that ends the session.
# Imported here first, the plugin's import is a cache hit, and every failure
# is reported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from signalprice import ModelParams, make_grid, validate
from signalprice import path_sim as _path_sim


@pytest.fixture(scope="session")
def params():
    """The worked-example parameter set used throughout the docs and checks."""
    return validate(
        ModelParams(
            mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
            x0=0.0, y0=0.0, s0=10.0, t_end=1.0,
        )
    )


@pytest.fixture(scope="session")
def grid():
    return make_grid(1.0, 1000)


@pytest.fixture(scope="session")
def coarse_grid():
    return make_grid(1.0, 100)


def dyadic_params(**overrides):
    """Params whose arithmetic is exact in binary floating point."""
    base = dict(mu=0.25, sigma_y=0.5, sigma_z=0.5, gamma=0.5,
                x0=0.0, y0=0.25, s0=1.0, t_end=1.0)
    base.update(overrides)
    return ModelParams(**base)


def assert_close(actual, expected, rel=1e-12, abs_=0.0, msg=""):
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=abs_, err_msg=msg)


def batch_paths(p, grid, n_paths, seed):
    """Time-major (n+1, m) signal and price ensembles from per-path substreams,
    through the engine's step loop."""
    z = _path_sim._SubstreamDrawer(seed).fill(0, np.empty((n_paths, 2, grid.n_steps)))
    rows = _path_sim._increment_rows(z, grid.dt, 0)
    y = np.empty((grid.n_steps + 1, n_paths))
    s = np.empty_like(y)
    start = (np.full(n_paths, p.y0), np.full(n_paths, p.s0))
    for k, (y_k, s_k, _) in enumerate(_path_sim._integrate(p, grid, rows, *start)):
        y[k] = y_k
        s[k] = s_k
    return y, s


def value_input_cases(mu, t_end):
    """(label, t, x, y) inputs of every shape the value functions take.

    Scalar signals are ones whose (mu + y)**2 by pow() differs from
    (mu + y) * (mu + y) in the last bit, so that a change in how a 0-d
    square is formed shows in the bytes.
    """
    rng = np.random.default_rng(2027)
    pool = mu + 3.0 * rng.standard_normal(20000)
    y_pow = [float(v) - mu for v in pool if np.float64(v) ** 2 != v * v][:8]
    m, n = 513, 12
    x_m, y_m = rng.standard_normal(m), rng.standard_normal(m)
    t_n = np.linspace(0.0, t_end, n + 1)
    x_n, y_n = rng.standard_normal(n + 1), rng.standard_normal(n + 1)
    cases = []
    for i, y in enumerate(y_pow):
        t, x = 0.3 * t_end, 0.25 * i - 1.0
        cases += [(f"float{i}", t, x, y),
                  (f"0d{i}", np.array(t), np.array(x), np.array(y)),
                  (f"scalar{i}", np.float64(t), np.float64(x), np.float64(y)),
                  (f"t_array{i}", t_n, x, y)]
    read_only = [a.copy() for a in (t_n, x_n, y_n, x_m, y_m)]
    for a in read_only:
        a.setflags(write=False)
    cases += [
        ("paths", 0.4 * t_end, x_m, y_m),
        ("paths_at_horizon", t_end, x_m, y_m),
        ("same_shape", t_n, x_n, y_n),
        ("t_column", t_n[:, None], x_m, y_m),
        ("x_column", 0.4 * t_end, x_n[:, None], y_m),
        ("y_column", 0.4 * t_end, x_m, y_n[:, None]),
        ("read_only_same_shape", *read_only[:3]),
        ("read_only_paths", 0.4 * t_end, *read_only[3:]),
    ]
    return cases


def assert_same_output(got, want):
    """Equal type, dtype, shape and bytes."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
