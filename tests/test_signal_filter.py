import math

import numpy as np
import pytest

from signalprice import ModelParams, make_grid, subscribe_at, validate
from signalprice import path_sim as ps
from signalprice import signal_filter as sf
from signalprice.signal_filter import LengthMismatch

from conftest import batch_paths as _batch_paths, dyadic_params


class TestFilterGain:
    def test_zero_at_start(self, params):
        assert sf.filter_gain(params, 0.0) == 0.0

    def test_nondecreasing_and_bounded(self, params):
        t = np.linspace(0.0, 5.0, 200)
        g = sf.filter_gain(params, t)
        assert np.all(np.diff(g) >= 0.0)
        assert np.all(g < params.sigma_y)


class TestFilterPath:
    def test_zero_signal_noise_keeps_prior(self, grid):
        p = validate(ModelParams(0.05, 0.0, 0.05, 0.1, 0.0, 0.3, 10.0, 1.0))
        s = 10.0 + np.cumsum(np.r_[0.0, np.random.default_rng(0).normal(0, 0.01, grid.n_steps)])
        out = sf.filter_path(p, grid, s)
        assert np.all(out.y_hat == 0.3)

    def test_deterministic_path_gives_zero_innovations(self):
        # dyadic arithmetic: dS = (mu + y0) dt exactly, so innovations vanish
        p = validate(dyadic_params())
        grid = make_grid(1.0, 8)
        s = p.s0 + (p.mu + p.y0) * grid.t
        out = sf.filter_path(p, grid, s)
        assert np.all(out.y_hat == p.y0)
        assert np.all(out.innovation_increments == 0.0)

    def test_initial_value_and_lengths(self, params, coarse_grid):
        y, s = _batch_paths(params, coarse_grid, 3, 5)
        out = sf.filter_path(params, coarse_grid, s[:, 0])
        assert out.y_hat[0] == params.y0
        assert out.y_hat.shape == coarse_grid.t.shape
        assert out.innovation_increments.shape == (coarse_grid.n_steps,)

    def test_length_mismatch(self, params, coarse_grid):
        with pytest.raises(LengthMismatch):
            sf.filter_path(params, coarse_grid, np.zeros(17))


# The worked example, exact binary arithmetic, and a sharp signal (gain near
# sigma_y after a few steps).
FILTER_PARAMS = [
    dict(mu=0.05, sigma_y=0.1, sigma_z=0.05, gamma=0.1, x0=0.0, y0=0.0, s0=10.0, t_end=1.0),
    dict(mu=0.25, sigma_y=0.5, sigma_z=0.5, gamma=0.5, x0=0.0, y0=0.25, s0=1.0, t_end=1.0),
    dict(mu=-0.3, sigma_y=2.0, sigma_z=0.01, gamma=3.0, x0=1.0, y0=-0.5, s0=5.0, t_end=2.0),
]


@pytest.mark.parametrize("fields", FILTER_PARAMS)
@pytest.mark.parametrize("n_steps,seed", [(8, 0), (70, 11), (300, 2**64 - 1)])
def test_filter_path_is_the_step_loop_filter(fields, n_steps, seed):
    # Nothing in the package calls filter_path on simulated paths: the one-path
    # API and the engine filter inside their step loop.  Filtering a bundle's
    # price path must give the bundle's y_hat, the y_hat a policy arm reads in
    # run_strategy and the engine's y_hat snapshots, bit for bit.
    p = validate(ModelParams(**fields))
    grid = make_grid(p.t_end, n_steps)
    seen = []

    def policy(t, y, y_hat, informed):
        seen.append(y_hat)
        return 0.5 * (y if informed else y_hat)

    arm = ps.Arm(subscribe_at(0.5 * p.t_end), policy=policy)
    (run,) = ps.mc_multi(p, grid, 4, seed, [arm], snapshot_times=tuple(grid.t))
    engine = np.array([run.snapshots[k]["y_hat"] for k in range(n_steps + 1)])
    for i, bundle in enumerate(ps.simulate_paths(p, grid, 4, seed)):
        want = sf.filter_path(p, grid, bundle.s).y_hat
        assert want.tobytes() == bundle.y_hat.tobytes()
        assert ps.filtered_signal(p, grid, bundle) is bundle.y_hat
        assert want.tobytes() == engine[:, i].tobytes()
        seen.clear()
        ps.run_strategy(p, grid, bundle, arm.mode, policy=policy)
        assert want[:-1].tobytes() == np.array(seen).tobytes()


class TestHitsudaKernel:
    def test_zero_at_time_zero(self, params):
        for t in (0.0, 0.5, 1.0):
            assert sf.hitsuda_kernel(params, t, 0.0) == 0.0

    def test_zero_outside_support(self, params):
        assert sf.hitsuda_kernel(params, 0.3, 0.5) == 0.0

    def test_value_inside_support(self, params):
        got = sf.hitsuda_kernel(params, 0.8, 0.5)
        assert got == pytest.approx(-0.1 * math.tanh(0.1 * 0.5 / 0.05), rel=1e-14)

    def test_integral_identity_residual(self, params):
        from signalprice.verify_oracles import kernel_identity_residual
        assert kernel_identity_residual(params, n_lattice=6) < 1e-6


class TestKalmanOracle:
    def test_zero_signal_noise_degenerate(self, coarse_grid):
        p = validate(ModelParams(0.05, 0.0, 0.05, 0.1, 0.0, 0.3, 10.0, 1.0))
        _, s = _batch_paths(p, coarse_grid, 1, 2)
        out = sf.kalman_oracle(p, coarse_grid, s[:, 0])
        assert np.all(out.y_hat == 0.3)
        assert np.all(out.posterior_var == 0.0)

    def test_posterior_variance_matches_riccati_curve(self, params):
        grid = make_grid(1.0, 1000)
        _, s = _batch_paths(params, grid, 1, 3)
        out = sf.kalman_oracle(params, grid, s[:, 0])
        target = params.sigma_y * params.sigma_z * np.tanh(
            params.sigma_y * grid.t / params.sigma_z
        )
        assert np.max(np.abs(out.posterior_var - target)) < 1e-4

    def test_gain_converges_to_closed_form_gain(self, params):
        errs = []
        for n in (250, 1000):
            grid = make_grid(1.0, n)
            _, s = _batch_paths(params, grid, 1, 3)
            out = sf.kalman_oracle(params, grid, s[:, 0])
            g = sf.filter_gain(params, grid.t[:-1])
            errs.append(np.max(np.abs(out.gains * params.sigma_z - g)))
        assert errs[1] < errs[0] / 2.5  # first-order shrink across a 4x refinement

    def test_agrees_with_filter_in_refinement(self, params):
        rmse = []
        for n in (500, 1000, 2000):
            grid = make_grid(1.0, n)
            _, s = _batch_paths(params, grid, 64, 7)
            filt = sf.filter_path(params, grid, s)
            kal = sf.kalman_oracle(params, grid, s)
            rmse.append(float(np.sqrt(np.mean((filt.y_hat - kal.y_hat) ** 2))))
        assert rmse[1] < rmse[0] and rmse[2] < rmse[1]


N_PATHS = 100_000
N_STEPS = 100


@pytest.fixture(scope="module")
def ensemble(params):
    grid = make_grid(1.0, N_STEPS)
    y, s = _batch_paths(params, grid, N_PATHS, 99)
    filtered = sf.filter_path(params, grid, s)
    return grid, y, filtered.y_hat, filtered.innovation_increments


class TestEnsembleMoments:
    """Filtered-signal moment identities, checked at Monte-Carlo scale."""

    N_PATHS = N_PATHS
    N_STEPS = N_STEPS

    @pytest.mark.parametrize("k_frac", [0.25, 0.5, 1.0])
    def test_tower_property(self, ensemble, k_frac):
        grid, y, y_hat, _ = ensemble
        k = int(k_frac * self.N_STEPS)
        gap = y[k] - y_hat[k]
        se = np.std(gap, ddof=1) / math.sqrt(self.N_PATHS)
        assert abs(np.mean(gap)) <= 3.0 * se

    @pytest.mark.parametrize("k_frac", [0.25, 0.5, 1.0])
    def test_orthogonality(self, ensemble, k_frac):
        grid, y, y_hat, _ = ensemble
        k = int(k_frac * self.N_STEPS)
        prod = (y[k] - y_hat[k]) * (y_hat[k] - np.mean(y_hat[k]))
        se = np.std(prod, ddof=1) / math.sqrt(self.N_PATHS)
        assert abs(np.mean(prod)) <= 3.0 * se

    @pytest.mark.parametrize("k", [0, 50, 99])
    def test_innovation_variance_close_to_dt(self, ensemble, k):
        grid, _, _, innov = ensemble
        var = np.var(innov[k], ddof=1)
        assert var == pytest.approx(grid.dt, rel=0.05)
