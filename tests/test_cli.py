import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import signalprice
from signalprice import closed_form as cf
from signalprice import path_sim
from signalprice import subscription_timing as st
from signalprice.cli import _build_parser, _to_json, main

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
paths = 5000
seed = 12
"""

# A piecewise-linear rate schedule covering [0, 1], in the CSV form the CLI reads
SCHEDULE_CSV = "t,c\n0,0.9\n0.3,0.2\n1,0.1\n"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestJsonSerializer:
    def test_seventeen_digit_floats(self):
        assert _to_json(0.1) == "0.10000000000000001"
        assert _to_json({"a": [1, True, None]}) == '{"a": [1, true, null]}'

    def test_non_finite_floats_are_null(self):
        assert _to_json([math.inf, -math.inf, math.nan, np.float64("nan")]) == (
            "[null, null, null, null]"
        )

    def test_roundtrip_idempotent(self):
        obj = {"x": 4.8201379003790832, "flag": True, "items": [1.5, -2.0]}
        text = _to_json(obj)
        parsed = json.loads(text)
        assert json.loads(_to_json(parsed)) == parsed


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(signalprice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_commands_do_not_import_scipy(config_file, tmp_path):
    # scipy is a test-only reference (the frozen kernel quadrature); importing
    # scipy.integrate would cost a command about 0.6 s of CPU and 50 MB
    sched = tmp_path / "zero.csv"
    sched.write_text("t,c\n0,0\n1,0\n")
    commands = [["price"], ["rates", "--out", str(tmp_path / "rates")],
                ["subscribe", "--schedule", str(sched)], ["verify", "--suite", "fast"],
                ["verify", "--suite", "all", "--paths", "64", "--steps", "20"]]
    done = _python(
        "import sys\n"
        "from signalprice.cli import main\n"
        f"for args in {commands!r}:\n"
        f"    assert main(args + ['--config', {config_file!r}]) == 0, args\n"
        "print('scipy' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_verify_does_not_import_mpmath(config_file):
    # mpmath serves only highprec_uninformed_strategy, which no command calls
    done = _python(
        "import sys\n"
        "from signalprice.cli import main\n"
        f"main(['verify', '--suite', 'fast', '--config', {config_file!r}])\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_cli_does_not_import_configparser(config_file):
    # the run config has its own one-pass reader
    done = _python(
        "import sys\n"
        "from signalprice.cli import main\n"
        f"main(['price', '--config', {config_file!r}])\n"
        "print('configparser' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_commands_without_quadrature_do_not_import_numpy_polynomial(config_file, tmp_path):
    # only the oracles' Gauss-Hermite and Gauss-Legendre nodes come from it
    sched = tmp_path / "zero.csv"
    sched.write_text("t,c\n0,0\n1,0\n")
    commands = [["price"], ["rates", "--out", str(tmp_path / "rates")],
                ["subscribe", "--schedule", str(sched)],
                ["simulate", "--paths", "64", "--steps", "20", "--out", str(tmp_path / "sim")]]
    done = _python(
        "import contextlib, io, sys\n"
        "from signalprice.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for args in {commands!r}:\n"
        f"        assert main(args + ['--config', {config_file!r}]) == 0, args\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_package_imports_a_submodule_when_one_of_its_names_is_read():
    done = _python(
        "import sys\n"
        "from signalprice import closed_form, model_core\n"
        "print(sorted(m for m in sys.modules if m.startswith('signalprice.')))\n"
        "import signalprice\n"
        "signalprice.path_sim, signalprice.RateSchedule\n"
        "print(sorted(m for m in sys.modules if m.startswith('signalprice.')))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['signalprice.closed_form', 'signalprice.model_core']",
        "['signalprice.closed_form', 'signalprice.model_core', 'signalprice.path_sim', "
        "'signalprice.signal_filter', 'signalprice.subscription_timing']",
    ]


def _files(directory):
    if not directory.is_dir():
        return {}
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_repeated_calls_in_one_process_match_fresh_interpreters(capsys, config_file,
                                                                tmp_path, params, grid):
    # main builds its parser on the first call and reuses it; exits and errors
    # on earlier calls must leave nothing behind that changes a later output
    parser = _build_parser()
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == 0
    with pytest.raises(SystemExit) as flag_exit:
        main(["price", "--config", config_file, "--no-such-flag"])
    assert flag_exit.value.code == 2
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.replace("gamma = 0.1", "gamma = -0.1"))
    assert main(["price", "--config", str(bad), "--mode", "single"]) == 2
    capsys.readouterr()

    sched = tmp_path / "bump.csv"
    st.bumped_schedule(params, grid, 0.2, 0.8, 2.0, 2.0).to_csv(sched)
    for argv in (["price"], ["rates", "--points", "11"],
                 ["subscribe", "--schedule", str(sched)], ["verify", "--suite", "fast"]):
        out_dir = tmp_path / argv[0]
        argv = [*argv, "--config", config_file, "--out", str(out_dir)]
        fresh = _python(f"import sys\nfrom signalprice.cli import main\n"
                        f"sys.exit(main({argv!r}))\n")
        assert fresh.returncode == 0, fresh.stderr
        fresh_files = _files(out_dir)
        assert bool(fresh_files) == (argv[0] == "rates")
        shutil.rmtree(out_dir, ignore_errors=True)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == fresh.stdout
        assert _files(out_dir) == fresh_files
    assert _build_parser() is parser


class TestPrice:
    def test_continuous(self, capsys, config_file):
        code, out = run_cli(capsys, "price", "--config", config_file, "--mode", "continuous")
        assert code == 0
        got = json.loads(out)
        assert set(got) == {"c_hat", "c_bar", "c_bar_bound"}
        assert got["c_hat"] == pytest.approx(5.0 * math.tanh(2.0), rel=1e-14)
        assert got["c_bar_bound"] == pytest.approx(5.0, rel=1e-14)

    def test_single(self, capsys, config_file):
        code, out = run_cli(capsys, "price", "--config", config_file, "--mode", "single")
        assert code == 0
        got = json.loads(out)
        assert set(got) == {"c_hat"}
        assert got["c_hat"] == pytest.approx(8.047189562170502, rel=1e-12)

    def test_zero_signal_noise(self, capsys, tmp_path):
        path = tmp_path / "zero.ini"
        path.write_text(CONFIG.replace("sigma_y = 0.1", "sigma_y = 0.0"))
        code, out = run_cli(capsys, "price", "--config", str(path))
        assert code == 0 and json.loads(out)["c_hat"] == 0.0

    def test_bad_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace("gamma = 0.1", "gamma = -0.1"))
        assert main(["price", "--config", str(path)]) == 2

    def test_zero_steps_exits_2(self, capsys, config_file):
        assert main(["price", "--config", config_file, "--steps", "0"]) == 2
        assert "n_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("section,key,line", [
        ("horizon", "steps", "steps = 1000"),
        ("mc", "paths", "paths = 5000"),
        ("mc", "seed", "seed = 12"),
    ])
    def test_non_finite_integer_exits_2(self, capsys, tmp_path, section, key, line, value):
        path = tmp_path / "nonfinite.ini"
        path.write_text(CONFIG.replace(line, f"{key} = {value}"))
        code = main(["price", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"config [{section}] {key}: must be an integer" in err
        assert "Traceback" not in err


class TestRates:
    def test_curve_values_and_feedback(self, capsys, config_file, tmp_path, params, grid):
        out_dir = tmp_path / "out"
        code, out = run_cli(capsys, "rates", "--config", config_file,
                            "--points", "1001", "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "rates.csv").read_text().splitlines()
        assert lines[0] == "t,c_hat_t,c_bar,ell_t"
        assert len(lines) == 1002
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        c_bar = cf.continuous_price(params).c_bar
        assert rows[0, 1] == 0.0                      # c_hat(0) = 0
        assert rows[500, 1] == c_bar                  # c_hat(T/2) = c_bar
        assert rows[-1, 1] == 2.0 * c_bar             # c_hat(T) = 2 c_bar
        assert np.all(rows[:, 2] == c_bar)
        assert rows[0, 3] == c_bar and rows[-1, 3] == -c_bar

        # the schedule file feeds straight back into the timing solver
        code, out = run_cli(capsys, "subscribe", "--config", config_file,
                            "--schedule", str(out_dir / "c_hat_schedule.csv"))
        assert code == 0
        got = json.loads(out)
        assert got["tau_e"] == 0.0 and got["tau_l"] == 1.0
        assert len(got["indifference_set"]) == grid.n_steps + 1
        assert got["grid_dt"] == grid.dt

    def test_files_are_pinned(self, capsys, config_file, tmp_path):
        # digests taken while each file still formatted its own cells; the
        # schedule file is the first two columns of rates.csv, byte for byte
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "rates", "--config", config_file, "--points", "1001",
                          "--out", str(out_dir))
        assert code == 0
        rates = (out_dir / "rates.csv").read_bytes()
        schedule = (out_dir / "c_hat_schedule.csv").read_bytes()
        assert hashlib.sha256(rates).hexdigest() == (
            "540bf544fd7f4c991784e66c571f81789f43370d035a70e867a684314d92eb6b"
        )
        assert hashlib.sha256(schedule).hexdigest() == (
            "4acc85675ead92810af0b17776fa85e4f428a0b05a3214273a790624e29d9ef1"
        )
        body = b"".join(b",".join(row.split(b",")[:2]) + b"\n" for row in rates.splitlines()[1:])
        assert schedule == b"t,c\n" + body

    def test_schedule_is_two_columns_of_rates_across_blocks(self, capsys, config_file, tmp_path):
        # 10001 rows are written in three blocks of rows
        out_dir = tmp_path / "out"
        code, _ = run_cli(capsys, "rates", "--config", config_file, "--points", "10001",
                          "--out", str(out_dir))
        assert code == 0
        rates = (out_dir / "rates.csv").read_bytes().splitlines()
        assert len(rates) == 10002
        body = b"".join(b",".join(row.split(b",")[:2]) + b"\n" for row in rates[1:])
        assert (out_dir / "c_hat_schedule.csv").read_bytes() == b"t,c\n" + body

    @pytest.mark.parametrize("name", ["out\tdir", "out\ndir"])
    def test_control_characters_in_out_stay_json(self, capsys, config_file, tmp_path, name):
        out_dir = tmp_path / name
        code, out = run_cli(capsys, "rates", "--config", config_file, "--points", "3",
                            "--out", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"rates_csv": str(out_dir / "rates.csv"),
                                   "schedule_csv": str(out_dir / "c_hat_schedule.csv")}

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_fewer_than_two_points_exits_2(self, capsys, config_file, tmp_path, points):
        out_dir = tmp_path / "out"
        code = main(["rates", "--config", config_file, "--points", points,
                     "--out", str(out_dir)])
        assert code == 2
        assert "--points" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSubscribe:
    def test_constant_rate(self, capsys, config_file, tmp_path, params):
        sched = tmp_path / "flat.csv"
        st.RateSchedule.constant(cf.continuous_price(params).c_bar, 1.0).to_csv(sched)
        code, out = run_cli(capsys, "subscribe", "--config", config_file,
                            "--schedule", str(sched))
        assert code == 0
        got = json.loads(out)
        assert got["tau_e"] == got["tau_l"] == pytest.approx(0.5, abs=1e-3)
        assert got["indifference_set"] == [0.5]

    def test_bump_schedule(self, capsys, config_file, tmp_path, params, grid):
        sched = tmp_path / "bump.csv"
        st.bumped_schedule(params, grid, 0.2, 0.8, 2.0, 2.0).to_csv(sched)
        code, out = run_cli(capsys, "subscribe", "--config", config_file,
                            "--schedule", str(sched))
        assert code == 0
        got = json.loads(out)
        assert got["tau_e"] == pytest.approx(0.2, abs=1e-3)
        assert got["tau_l"] == pytest.approx(0.8, abs=1e-3)

    @pytest.mark.parametrize("schedule,expected", [
        ("c_hat", "39b55598924446e6ccb5b8d5dfd304eb4735b3baf351a9f3d9de0db2a052a349"),
        ("flat", "e85ac9a3bb194ed6b3a8e7d24070381315234c34ea86922792fbfb1eede750e8"),
    ])
    def test_output_is_pinned(self, capsys, config_file, tmp_path, params, schedule,
                              expected):
        # the 1001-point c_hat schedule from rates, whose indifference set is
        # the whole grid, and the flat c_bar schedule, whose set is {T/2}
        if schedule == "c_hat":
            code, _ = run_cli(capsys, "rates", "--config", config_file, "--points", "1001",
                              "--out", str(tmp_path))
            assert code == 0
            sched = tmp_path / "c_hat_schedule.csv"
        else:
            sched = tmp_path / "flat.csv"
            st.RateSchedule.constant(cf.continuous_price(params).c_bar, 1.0).to_csv(sched)
        code, out = run_cli(capsys, "subscribe", "--config", config_file,
                            "--schedule", str(sched))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    @pytest.mark.parametrize("argv", [
        ["subscribe"],
        ["simulate", "--mode", "subscribe", "--t-star", "0.5", "--dump-paths", "1"],
    ])
    def test_overflowing_schedule_exits_2_before_any_draw(self, capsys, config_file,
                                                         tmp_path, monkeypatch, argv):
        # a rate of 1e308 overflows the trapezoid sum of the timing profile F
        def fill(self, first, z):
            raise AssertionError("drew paths")

        monkeypatch.setattr(path_sim._SubstreamDrawer, "fill", fill)
        sched = tmp_path / "huge.csv"
        sched.write_text("t,c\n0,1\n1,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", config_file, "--schedule", str(sched),
                         "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: schedule rates up to 1e+308 are too large: "
                       "the timing profile F is not finite\n")
        assert not (tmp_path / "out").exists()

    def test_schedule_just_below_the_overflow_works(self, capsys, config_file, tmp_path):
        sched = tmp_path / "large.csv"
        sched.write_text("t,c\n0,1\n1,1e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "subscribe", "--config", config_file,
                                "--schedule", str(sched))
        assert code == 0
        got = json.loads(out)
        assert got["tau_e"] == got["tau_l"] == 1.0  # buy as late as possible

    def test_malformed_schedule_exits_2(self, config_file, tmp_path):
        sched = tmp_path / "bad.csv"
        sched.write_text("t,c\n0.5,1.0\n1.0,1.0\n")  # does not start at 0
        assert main(["subscribe", "--config", config_file, "--schedule", str(sched)]) == 2

    def test_missing_schedule_exits_2(self, config_file):
        assert main(["subscribe", "--config", config_file,
                     "--schedule", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_unusable_tol_exits_2(self, capsys, config_file, tmp_path, params, tol):
        sched = tmp_path / "flat.csv"
        st.RateSchedule.constant(cf.continuous_price(params).c_bar, 1.0).to_csv(sched)
        code = main(["subscribe", "--config", config_file, "--schedule", str(sched),
                     "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "--tol must be finite and >= 0" in err


class TestSimulate:
    def test_uninformed_summary_and_dumps(self, capsys, config_file, tmp_path):
        out_dir = tmp_path / "sim"
        code, out = run_cli(capsys, "simulate", "--config", config_file,
                            "--mode", "uninformed", "--out", str(out_dir),
                            "--antithetic", "--dump-paths", "2")
        assert code == 0
        got = json.loads(out)
        assert set(got) == {"mc_mean", "std_err", "closed_form", "z_score"}
        assert got["std_err"] > 0.0
        assert abs(got["z_score"]) < 5.0
        for index in (0, 1):
            lines = (out_dir / f"path_{index:05d}.csv").read_text().splitlines()
            assert lines[0] == "t,y,y_hat,s,x_informed,x_uninformed"
            assert len(lines) == 1002
        assert (out_dir / "values_00000.csv").read_text().splitlines()[0] == (
            "t,v_uninformed,v_informed"
        )

    def test_byte_identical_reruns(self, capsys, config_file, tmp_path):
        outs = []
        blobs = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / run_dir
            code, out = run_cli(capsys, "simulate", "--config", config_file,
                                "--mode", "uninformed", "--out", str(out_dir),
                                "--paths", "500")
            assert code == 0
            outs.append(out)
            blobs.append((out_dir / "path_00000.csv").read_bytes())
        assert outs[0] == outs[1]
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode,flags,expected", [
        ("uninformed", [],
         "fd3147263bf5c165e99b4d6485268f651c9dbb01cf8a0831d41c810f9a287849"),
        ("informed", ["--charge", "1.5", "--antithetic"],
         "801c677a18a1c228c0c8c73f96dfc520d4c403816d01f4d100162c38cf2a8a9d"),
        ("subscribe", ["--schedule", "{schedule}", "--t-star", "0.4"],
         "e6ee6dbdc03588297d5d8b0d9568042885948059d33c7a42065ae8478a588fb4"),
    ])
    def test_output_is_pinned(self, capsys, config_file, tmp_path, mode, flags, expected):
        # the determinism contract for simulate: one digest over stdout and
        # every file it writes (name and bytes), in sorted name order
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(SCHEDULE_CSV)
        out_dir = tmp_path / "sim"
        code, out = run_cli(capsys, "simulate", "--config", config_file, "--mode", mode,
                            *[flag.format(schedule=schedule) for flag in flags],
                            "--paths", "2000", "--steps", "100", "--dump-paths", "2",
                            "--out", str(out_dir))
        assert code == 0
        digest = hashlib.sha256(out.encode())
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        assert digest.hexdigest() == expected

    def test_config_seed_is_read_exactly(self, capsys, tmp_path):
        # through a float, seed 2**53 + 1 ran as 2**53 and 2**64 - 1 as 2**64
        def run(seed, *flags):
            path = tmp_path / "seed.ini"
            path.write_text(CONFIG.replace("seed = 12", f"seed = {seed}"))
            code, out = run_cli(capsys, "simulate", "--config", str(path), "--mode",
                                "uninformed", "--paths", "64", "--steps", "20",
                                "--dump-paths", "0", "--out", str(tmp_path / "out"), *flags)
            assert code == 0
            return out

        assert run(2**64 - 1) == run(12, "--seed", str(2**64 - 1))
        assert run(2**53) != run(2**53 + 1)

    def test_subscribe_mode(self, capsys, config_file, tmp_path, params, grid):
        sched = tmp_path / "bump.csv"
        st.bumped_schedule(params, grid, 0.2, 0.8, 2.0, 2.0).to_csv(sched)
        out_dir = tmp_path / "sim"
        code, out = run_cli(capsys, "simulate", "--config", config_file,
                            "--mode", "subscribe", "--schedule", str(sched),
                            "--t-star", "0.5", "--paths", "2000",
                            "--out", str(out_dir))
        assert code == 0
        header = (out_dir / "path_00000.csv").read_text().splitlines()[0]
        assert header == "t,y,y_hat,s,x_informed,x_uninformed,x_subscribe"
        values_header = (out_dir / "values_00000.csv").read_text().splitlines()[0]
        assert values_header == "t,v_uninformed,v_informed,v_flexible"

    @pytest.mark.parametrize("t_star", ["0", "0.5", "1"])
    def test_subscribe_mode_reference_is_the_committed_purchase(
        self, capsys, config_file, tmp_path, params, t_star
    ):
        # Under the flat c_bar rate every t* has its own value; the optimal
        # one (t* = T/2) is not the reference for the other purchase times.
        sched = tmp_path / "flat.csv"
        st.RateSchedule.constant(cf.continuous_price(params).c_bar, 1.0).to_csv(sched)
        code, out = run_cli(capsys, "simulate", "--config", config_file,
                            "--mode", "subscribe", "--schedule", str(sched),
                            "--t-star", t_star, "--paths", "20000", "--steps", "200",
                            "--dump-paths", "0", "--out", str(tmp_path / "sim"))
        assert code == 0
        got = json.loads(out)
        assert abs(got["z_score"]) <= 3.0

    def _sharp_subscribe(self, capsys, tmp_path, x0, t_star):
        # sigma_y T / sigma_z = 3000 under a zero schedule, 10 steps
        path = tmp_path / "sharp.ini"
        path.write_text(CONFIG.replace("sigma_y = 0.1", "sigma_y = 3")
                        .replace("sigma_z = 0.05", "sigma_z = 1e-3")
                        .replace("x0 = 0.0", f"x0 = {x0}"))
        sched = tmp_path / "zero.csv"
        st.RateSchedule.constant(0.0, 1.0).to_csv(sched)
        code, out = run_cli(capsys, "simulate", "--config", str(path),
                            "--mode", "subscribe", "--schedule", str(sched),
                            "--t-star", t_star, "--paths", "10", "--steps", "10",
                            "--out", str(tmp_path / "sim"))
        assert code == 0
        return json.loads(out)["closed_form"]

    def test_subscribe_mode_past_the_exp_range(self, capsys, tmp_path):
        # -gamma F(t*) at t* = 1 is past ~709.78, but the exponent
        # pre(0) - gamma F(t*) is about -750.07, so the value underflows to -0.0
        closed = self._sharp_subscribe(capsys, tmp_path, "0.0", "1")
        assert closed == 0.0 and math.copysign(1.0, closed) == -1.0

    @pytest.mark.parametrize("t_star,expected", [
        # -exp(pre(0) - gamma F(t*)) in extended precision, as in
        # TestCommittedValue.test_finite_past_the_exp_range_of_the_profile
        ("1", -4.232667413747256e-05),
        ("0.9", -5.867930083262026e-54),
    ])
    def test_subscribe_mode_reference_at_large_wealth(self, capsys, tmp_path, t_star,
                                                      expected):
        closed = self._sharp_subscribe(capsys, tmp_path, "-7400.0", t_star)
        assert closed == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_negative_dump_paths_exits_2(self, capsys, config_file, tmp_path):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", config_file, "--paths", "10",
                     "--dump-paths", "-1", "--out", str(out_dir)])
        assert code == 2
        assert "--dump-paths" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("charge", ["nan", "inf"])
    def test_non_finite_charge_exits_2(self, capsys, config_file, tmp_path, charge):
        code = main(["simulate", "--config", config_file, "--mode", "informed",
                     "--charge", charge, "--paths", "10", "--dump-paths", "0",
                     "--out", str(tmp_path / "sim")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "--charge must be finite" in err

    def test_subscribe_mode_requires_schedule(self, config_file):
        assert main(["simulate", "--config", config_file, "--mode", "subscribe"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, capsys, config_file, tmp_path, seed):
        code = main(["simulate", "--config", config_file, "--seed", seed,
                     "--paths", "10", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--dump-paths", "-1"],
        ["--mode", "informed", "--charge", "nan"],
        ["--mode", "subscribe"],
        ["--mode", "subscribe", "--schedule", "{full}"],
        ["--mode", "subscribe", "--t-star", "0.3"],
        ["--mode", "subscribe", "--schedule", "{full}", "--t-star", "1.5"],
        ["--mode", "subscribe", "--schedule", "{full}", "--t-star", "-0.1"],
        ["--mode", "subscribe", "--schedule", "{short}", "--t-star", "0.3"],
        ["--mode", "subscribe", "--schedule", "{short}", "--t-star", "0.3", "--dump-paths", "0"],
        ["--schedule", "{short}", "--dump-paths", "2"],
        ["--mode", "informed", "--schedule", "{short}"],
        ["--schedule", "{missing}"],
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--paths", "1"],
        ["--antithetic", "--paths", "2"],
        ["--antithetic", "--paths", "5"],
        ["--steps", "0"],
        ["--paths", str(10**20)],
        ["--schedule", "{huge}", "--dump-paths", "1"],
        ["--mode", "informed", "--schedule", "{huge}"],
    ])
    def test_bad_input_exits_2_before_any_draw(self, capsys, config_file, tmp_path,
                                              monkeypatch, argv):
        # every input is checked before the estimate: no path is drawn and no
        # file is written
        def fill(self, first, z):
            raise AssertionError("drew paths for a bad input")

        monkeypatch.setattr(path_sim._SubstreamDrawer, "fill", fill)
        (tmp_path / "full.csv").write_text(SCHEDULE_CSV)
        (tmp_path / "short.csv").write_text("t,c\n0,0.9\n0.5,0.2\n")
        (tmp_path / "huge.csv").write_text("t,c\n0,1e308\n1,1e308\n")  # its profile overflows
        out_dir = tmp_path / "sim"
        out_dir.mkdir()
        files = {name: str(tmp_path / f"{name}.csv")
                 for name in ("full", "short", "huge", "missing")}
        code = main(["simulate", "--config", config_file, "--out", str(out_dir),
                     *[arg.format(**files) for arg in argv]])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: ")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("steps,reached,subscribe", [
        pytest.param(2_097_153, False, False, id="2097153-False"),
        pytest.param(2_097_152, True, False, id="2097152-True"),
        # the closed-form reference runs before the estimate, and its profile
        # builds several arrays of n_steps floats
        pytest.param(2_097_153, False, True, id="subscribe-2097153-False"),
        pytest.param(2_097_152, True, True, id="subscribe-2097152-True"),
    ])
    def test_steps_past_one_path_draw_budget_exit_2(self, capsys, config_file, tmp_path,
                                                    monkeypatch, steps, reached, subscribe):
        # one path's draws at 2,097,153 steps pass 32 MiB: exit 2 before any
        # per-step table, draw or timing profile is built
        class Reached(Exception):
            pass

        def reach(*args):
            raise Reached

        monkeypatch.setattr(path_sim, "_Wealth", reach)
        monkeypatch.setattr(path_sim, "_filter_gains", reach)
        monkeypatch.setattr(path_sim, "_position_factors", reach)
        monkeypatch.setattr(st, "profile", reach)
        argv = ["simulate", "--config", config_file, "--out", str(tmp_path / "sim"),
                "--paths", "10", "--steps", str(steps)]
        if subscribe:
            (tmp_path / "sched.csv").write_text(SCHEDULE_CSV)
            argv += ["--mode", "subscribe", "--t-star", "0.5", "--schedule",
                     str(tmp_path / "sched.csv")]
        if reached:
            with pytest.raises(Reached):
                main(argv)
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_steps must be at most 2097152, the steps whose draws for " \
                      f"one path fit in 32 MiB, got {steps}\n"


class TestErrorMessages:
    @pytest.mark.parametrize("rows,argv,line", [
        ("0,0.9\n0.5,0.2\n", ["subscribe"],
         "error: schedule domain [0.0, 0.5] does not cover [0.0, 1.0]"),
        ("0.1,0.9\n1,0.2\n", ["subscribe"], "error: schedule must start at t = 0, got 0.1"),
        ("0,0.9\n0.5,0.2\n",
         ["simulate", "--mode", "subscribe", "--t-star", "0.3", "--paths", "10", "--dump-paths",
          "0"],
         "error: schedule domain [0.0, 0.5] does not cover [0.3, 1.0]"),
    ])
    def test_schedule_errors_name_plain_floats(self, capsys, config_file, tmp_path, rows,
                                               argv, line):
        sched = tmp_path / "sched.csv"
        sched.write_text("t,c\n" + rows)
        code = main([*argv, "--config", config_file, "--schedule", str(sched),
                     "--steps", "100", "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == line + "\n"

    @pytest.mark.parametrize("text,line", [
        ("mu = 0.05\n" + CONFIG, "error: config line 1: key outside any section: 'mu = 0.05'"),
        (CONFIG.replace("x0 = 0.0", "x0 0.0"),
         "error: config line 10: not [section] or key = value: 'x0 0.0'"),
        (CONFIG.replace("seed = 12", "seed = 12\nSEED = 13"),
         "error: config line 19: duplicate key: 'SEED = 13'"),
        (CONFIG + "[mc]\n", "error: config line 19: duplicate section: '[mc]'"),
    ], ids=["key_before_section", "no_delimiter", "duplicate_key", "duplicate_section"])
    def test_malformed_config_line_is_named(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = main(["price", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == line + "\n"

    @pytest.mark.parametrize("argv", [
        ["price", "--steps", "0"],
        ["rates", "--points", "1"],
        ["subscribe", "--schedule", "{schedule}", "--tol", "nan"],
        ["simulate", "--mode", "informed", "--charge", "inf"],
        ["simulate", "--seed", "-1"],
        ["verify", "--suite", "all", "--paths", "1"],
    ])
    def test_no_error_line_shows_a_numpy_repr(self, capsys, config_file, tmp_path, argv):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(SCHEDULE_CSV)
        argv = [arg.format(schedule=schedule) for arg in argv]
        code = main([*argv, "--config", config_file, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "np." not in err


class TestVerify:
    def test_fast_suite_green(self, capsys, config_file):
        code, out = run_cli(capsys, "verify", "--config", config_file, "--suite", "fast")
        assert code == 0
        reports = json.loads(out)
        assert {r["name"] for r in reports} >= {
            "ode_a_informed", "single_period_price", "kernel_identity",
        }
        assert all(r["passed"] for r in reports)
        for r in reports:
            assert set(r) == {"name", "observed", "expected", "tolerance", "passed", "detail"}

    def test_all_suite_green(self, capsys, config_file):
        code, out = run_cli(capsys, "verify", "--config", config_file,
                            "--suite", "all", "--paths", "20000")
        assert code == 0
        reports = json.loads(out)
        names = {r["name"] for r in reports}
        assert {"mc_value_uninformed", "mc_martingale_uninformed",
                "mc_value_informed", "mc_indifference_price"} <= names
        assert all(r["passed"] for r in reports)

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace("paths = 5000", "paths = 5000\nextra = 1"))
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("sigma_z", ["1e200", "1e-200"])
    def test_unrepresentable_sigma_z_exits_2(self, capsys, tmp_path, sigma_z):
        path = tmp_path / "extreme.ini"
        path.write_text(CONFIG.replace("sigma_z = 0.05", f"sigma_z = {sigma_z}"))
        assert main(["verify", "--config", str(path)]) == 2
        assert "sigma_z" in capsys.readouterr().err

    def test_unstable_rk4_fails_as_unresolved(self, tmp_path):
        # at sigma_y / sigma_z = 3000 RK4 overflows on every grid below the step cap
        path = tmp_path / "unstable.ini"
        path.write_text(CONFIG.replace("sigma_y = 0.1", "sigma_y = 3")
                        .replace("sigma_z = 0.05", "sigma_z = 1e-3"))
        done = _python(
            "import sys\n"
            "from signalprice.cli import main\n"
            f"sys.exit(main(['verify', '--config', {str(path)!r}]))\n"
        )
        assert done.returncode == 1
        assert done.stderr == ""
        ode = [r for r in json.loads(done.stdout) if r["name"].startswith("ode_")]
        assert len(ode) == 4
        assert all(not r["passed"] and r["detail"].startswith("unresolved:") for r in ode)

    def test_zero_paths_exits_2(self, capsys, config_file):
        assert main(["verify", "--config", config_file, "--suite", "all", "--paths", "0"]) == 2
        assert "n_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("paths", [1, 2, 3, 1001, 2**59, 10**20])
    def test_unusable_path_count_exits_2(self, capsys, config_file, paths):
        # named with the --paths value, although the checks share one run of twice as many
        code = main(["verify", "--config", config_file, "--suite", "all",
                     "--steps", "10", "--paths", str(paths)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: n_paths must be ")
        assert err.endswith(f", got {paths}\n")

    def test_all_suite_output_is_pinned(self, capsys, config_file):
        # the determinism contract: the whole-output digest, the digest of all
        # but the single_period_* reports and the digest of the seven
        # deterministic reports (ode_*, single_period_*, kernel_identity) were
        # taken when the RK4 oracle came to size its own grid by step doubling,
        # which changed the observed and detail values of the ode_* reports.
        # The digest of the five mc_* reports and that of every report's
        # (name, expected, tolerance, passed) were taken before that change and
        # held across it. The mc_* reports date from when each step came to pay
        # every arm phi dS from one price increment, which moved Monte-Carlo
        # wealth at the rounding level (relative changes of observed and
        # tolerance at most 1.3e-15)
        code, out = run_cli(capsys, "verify", "--config", config_file, "--suite", "all",
                            "--paths", "1000", "--steps", "50", "--seed", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4f6527755b699efa6be693376f27ce70d8446344a4e59c5fa975d3b0ce1bb54d"
        )
        reports = json.loads(out)
        assert _to_json(reports) + "\n" == out
        digest = lambda rs: hashlib.sha256((_to_json(rs) + "\n").encode()).hexdigest()
        rest = [r for r in reports if not r["name"].startswith("single_period_")]
        assert len(rest) == len(reports) - 2
        assert digest(rest) == (
            "9263c3f0822a695d657e90bb5fdb1da72aab0af0d7ba3d86dcd84b9a9c7c5fb4"
        )
        deterministic = [r for r in reports if not r["name"].startswith("mc_")]
        assert len(deterministic) == 7
        assert digest(deterministic) == (
            "b13035a3bc381e6f9d75b6c029d9fe12c83f65dffaf42d91aa8e3d968bf96d43"
        )
        monte_carlo = [r for r in reports if r["name"].startswith("mc_")]
        assert len(monte_carlo) == 5
        assert digest(monte_carlo) == (
            "4b564e8f0bfc08e49ca6c6f77578aa0d764af66622787a9ec8fbb6b11a6771e3"
        )
        verdicts = [[r["name"], r["expected"], r["tolerance"], r["passed"]] for r in reports]
        assert len(verdicts) == 12
        assert digest(verdicts) == (
            "519c843b1ee2567b8e90b381285e9b0bf0d0794ff15a6c55d72c7f823f5c16da"
        )

    def test_all_suite_makes_one_engine_call(self, capsys, config_file, monkeypatch):
        # n keys, of which the first n/2 are also stepped mirrored: 1.5 n paths
        engine, calls = path_sim._step_columns, []

        def counted(p, grid, seed, arms, n_keys, n_mirrors, *args, **kwargs):
            calls.append((n_keys, n_mirrors))
            return engine(p, grid, seed, arms, n_keys, n_mirrors, *args, **kwargs)

        monkeypatch.setattr(path_sim, "_step_columns", counted)
        code, _ = run_cli(capsys, "verify", "--config", config_file, "--suite", "all",
                          "--paths", "1000", "--steps", "50")
        assert code == 0
        assert calls == [(1000, 500)]

    @pytest.mark.parametrize("command", [
        ["simulate", "--antithetic", "--dump-paths", "0"],
        ["verify", "--suite", "all"],
    ])
    def test_one_antithetic_pair_exits_2_without_warnings(self, config_file, tmp_path,
                                                          command):
        argv = [*command, "--paths", "2", "--steps", "10", "--config", config_file,
                "--out", str(tmp_path / "out")]
        done = _python(f"import sys\nfrom signalprice.cli import main\n"
                       f"sys.exit(main({argv!r}))\n")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: n_paths must be >= 4 in antithetic runs, got 2\n"

    @pytest.mark.parametrize("sigma_y", ["1.0", "1000.0"])
    def test_unresolved_one_shot_price_fails_as_a_report(self, capsys, tmp_path, sigma_y):
        # at sigma_z = 0.001 the quadrature loses the informed branch and the
        # oracle price is infinite; the check fails instead of raising
        path = tmp_path / "sharp.ini"
        path.write_text(CONFIG.replace("sigma_y = 0.1", f"sigma_y = {sigma_y}")
                        .replace("sigma_z = 0.05", "sigma_z = 0.001"))
        code, out = run_cli(capsys, "verify", "--config", str(path))
        assert code == 1
        reports = {r["name"]: r for r in json.loads(out)}
        assert reports["single_period_price"]["observed"] is None
        assert not reports["single_period_price"]["passed"]


def _with_x0(tmp_path, x0):
    path = tmp_path / f"x0_{x0}.ini"
    path.write_text(CONFIG.replace("x0 = 0.0", f"x0 = {x0}"))
    return str(path)


class TestNumericalRange:
    """Large initial wealth: gamma x0 = -705 and -800 push utilities to and past
    the top of the float range, while prices do not depend on x0."""

    def test_fast_suite_green_for_any_initial_wealth(self, capsys, tmp_path):
        code, out = run_cli(capsys, "verify", "--config", _with_x0(tmp_path, -7050))
        assert code == 0
        assert all(r["passed"] for r in json.loads(out))

    @pytest.mark.parametrize("x0", [-4600, -7050])
    def test_uncomputable_checks_fail(self, capsys, tmp_path, x0):
        # at -4600 the utilities (~1e200) are finite but their variance is not;
        # at -7050 (~1e306) their mean overflows too
        code, out = run_cli(capsys, "verify", "--config", _with_x0(tmp_path, x0),
                            "--suite", "all", "--paths", "4096", "--steps", "200")
        reports = {r["name"]: r for r in json.loads(out)}
        assert code == 1
        for r in reports.values():
            fields = (r["observed"], r["expected"], r["tolerance"])
            if any(v is None for v in fields):
                assert not r["passed"], r["name"]
        for label in ("uninformed", "informed"):
            assert reports[f"mc_value_{label}"]["tolerance"] is None
            assert reports[f"mc_martingale_{label}"]["observed"] is None
            assert not reports[f"mc_value_{label}"]["passed"]
            assert not reports[f"mc_martingale_{label}"]["passed"]
        assert reports["mc_indifference_price"]["passed"]

    def test_failed_checks_write_no_warnings(self, tmp_path):
        done = _python(
            "import sys\n"
            "from signalprice.cli import main\n"
            f"sys.exit(main(['verify', '--config', {_with_x0(tmp_path, -7050)!r}, "
            "'--suite', 'all', '--paths', '4096', '--steps', '200']))\n"
        )
        assert done.returncode == 1
        assert done.stderr == ""

    def test_stdout_stays_json_past_the_float_range(self, capsys, tmp_path):
        config = _with_x0(tmp_path, -8000)
        code, out = run_cli(capsys, "simulate", "--config", config, "--paths", "200",
                            "--steps", "50", "--dump-paths", "0",
                            "--out", str(tmp_path / "sim"))
        assert code == 0
        got = json.loads(out)
        assert got["closed_form"] is None and got["z_score"] is None
        code, out = run_cli(capsys, "verify", "--config", config, "--suite", "all",
                            "--paths", "200", "--steps", "50")
        assert code == 1
        assert len(json.loads(out)) == 12


class TestUnallocatableSizes:
    # each array is larger than a 47-bit address space, so no page is touched
    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", str(10**15)],
        ["verify", "--suite", "all", "--paths", str(10**15)],
        ["price", "--steps", str(10**15)],
        ["rates", "--points", str(10**15)],
    ])
    def test_out_of_memory_exits_2(self, capsys, config_file, tmp_path, argv):
        code = main([*argv, "--config", config_file, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--paths, --steps or --points" in capsys.readouterr().err

    def test_beyond_numpy_dimension_limit_exits_2(self, capsys, config_file, tmp_path):
        code = main(["simulate", "--paths", str(10**20), "--config", config_file,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "n_paths" in err
