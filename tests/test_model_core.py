import dataclasses
import math

import numpy as np
import pytest

from signalprice import (
    DomainError,
    InformationMode,
    ModelParams,
    make_grid,
    subscribe_at,
    validate,
)
from signalprice.model_core import parse_config


def make_params(**overrides):
    base = dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1,
                x0=0.0, y0=0.0, s0=10.0, t_end=1.0)
    base.update(overrides)
    return ModelParams(**base)


class TestValidate:
    def test_reference_set_accepted(self, params):
        assert validate(params) is params

    def test_idempotent(self, params):
        assert validate(validate(params)) == params

    @pytest.mark.parametrize("field,value", [
        ("sigma_z", 0.0),
        ("sigma_z", -0.05),
        ("sigma_z", 1e200),   # gamma * sigma_z**2 overflows to inf
        ("sigma_z", 1e-200),  # ... or underflows to 0
        ("gamma", -0.1),
        ("gamma", 0.0),
        ("t_end", 0.0),
        ("sigma_y", -1e-12),
        ("mu", math.nan),
        ("x0", math.inf),
    ])
    def test_rejects_named_field(self, field, value):
        # construction alone checks the domain
        with pytest.raises(DomainError, match=field):
            make_params(**{field: value})

    def test_replace_is_checked(self, params):
        with pytest.raises(DomainError, match="gamma"):
            dataclasses.replace(params, gamma=0.0)

    def test_degenerate_sigma_y_zero_allowed(self):
        validate(make_params(sigma_y=0.0))


class TestGrid:
    def test_quarter_grid(self):
        g = make_grid(1.0, 4)
        assert np.array_equal(g.t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        g = make_grid(1.0, 1)
        assert np.array_equal(g.t, [0.0, 1.0])

    def test_endpoint_pinned_exactly(self):
        g = make_grid(2.0, 1000)
        assert g.t[-1] == 2.0
        assert g.t[0] == 0.0

    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_point_count_and_monotone(self, n):
        g = make_grid(1.7, n)
        assert g.t.shape == (n + 1,)
        assert np.all(np.diff(g.t) > 0)

    def test_index_of_nearest(self):
        g = make_grid(1.0, 4)
        assert g.index_of(0.3) == 1
        assert g.index_of(0.45) == 2

    def test_index_of_tie_goes_earlier(self):
        g = make_grid(1.0, 4)
        assert g.index_of(0.125) == 0
        assert g.index_of(0.375) == 1

    def test_zero_steps_rejected(self):
        with pytest.raises(DomainError):
            make_grid(1.0, 0)

    def test_dt_is_the_first_step(self):
        # the step loop and the filter take dt from grid.dt; linspace's first
        # step is t_end / n exactly, so that is the grid's own spacing
        rng = np.random.default_rng(0)
        for t_end, n in zip(10.0 ** rng.uniform(-6, 6, 2000), rng.integers(1, 5000, 2000)):
            g = make_grid(float(t_end), int(n))
            assert g.t[1] - g.t[0] == g.t[1] == g.dt

    def test_grid_immutable(self):
        g = make_grid(1.0, 10)
        with pytest.raises(ValueError):
            g.t[0] = 5.0


class TestInformationMode:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            subscribe_at(-0.1)

    @pytest.mark.parametrize("t_star", [-0.5, math.nan, math.inf])
    def test_mode_construction_checks_time(self, t_star):
        with pytest.raises(DomainError, match="subscribe time"):
            InformationMode(t_star)


CONFIG = """\
[model]
mu = 0.05
sigma_y = 0.1
sigma_z = 0.05
s0 = 10.0
y0 = 0.0

[investor]
gamma = 0.1
x0 = 0.0

[horizon]
t_end = 1.0
steps = 1000

[mc]
paths = 100000
seed = 42
"""


class TestConfig:
    def test_roundtrip(self):
        p, grid, mc = parse_config(CONFIG)
        assert p.mu == 0.05 and p.sigma_y == 0.1 and p.sigma_z == 0.05
        assert p.gamma == 0.1 and p.s0 == 10.0 and p.t_end == 1.0
        assert grid.n_steps == 1000 and grid.t[-1] == 1.0
        assert mc.n_paths == 100000 and mc.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown keys.*'rho'"):
            parse_config(CONFIG.replace("mu = 0.05", "mu = 0.05\nrho = 1.0"))

    def test_missing_key_rejected(self):
        with pytest.raises(DomainError, match="missing keys"):
            parse_config(CONFIG.replace("seed = 42\n", ""))

    def test_unknown_section_rejected(self):
        with pytest.raises(DomainError, match="unknown sections"):
            parse_config(CONFIG + "\n[extra]\nfoo = 1\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(DomainError, match="decimal"):
            parse_config(CONFIG.replace("0.05", "fast"))

    def test_invalid_domain_rejected(self):
        with pytest.raises(DomainError, match="gamma"):
            parse_config(CONFIG.replace("gamma = 0.1", "gamma = -0.1"))

    def test_fractional_steps_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            parse_config(CONFIG.replace("steps = 1000", "steps = 10.5"))
