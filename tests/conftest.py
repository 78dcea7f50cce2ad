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
