"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

A workload writes its inputs (INI configs, rate-schedule CSVs) once, then runs
passes.  Every pass makes the same calls on the same inputs through public
entry points of the package (``cli.main`` in-process, ``path_sim.mc_multi``,
the per-path API, the closed-form value functions) and records each call as
one operation with its latency and output.  ``check`` judges each operation's
output after the pass; the run compares output fingerprints across passes.

Why these three workloads: ``verify_all`` is the end-user Monte-Carlo command
(long grids, big chunks, filter and wealth vector work); ``subscribe_arms``
drives the engine on a short grid with six arms, where per-path stream
re-keying and per-arm wealth integration dominate, plus the per-path dump API;
``closed_form_cli`` runs the closed forms and deterministic oracles through
the CLI and simulates nothing, so a Monte-Carlo change must leave it alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKED_EXAMPLE = {
    "mu": 0.05, "sigma_y": 0.1, "sigma_z": 0.05, "gamma": 0.1,
    "x0": 0.0, "y0": 0.0, "s0": 10.0, "t_end": 1.0,
}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" exercises
# every code path in about a second, for the self-test.
SIZES = {
    "verify_all": {"full": {"paths": 4096, "steps": 1000},
                   "tiny": {"paths": 256, "steps": 50}},
    "subscribe_arms": {"full": {"paths": 20000, "steps": 100, "dumps": 16},
                       "tiny": {"paths": 512, "steps": 20, "dumps": 2}},
    "closed_form_cli": {"full": {"points": 12, "steps": 1000},
                        "tiny": {"points": 2, "steps": 100}},
}

MC_SEEDS_FILE = Path(__file__).with_name("mc_seeds.json")

# Every timing is taken on this process's CPU clock.  The benchmark is one
# CPU-bound thread, so on an idle host CPU time equals wall time; on a shared
# virtual machine the CPU clock leaves out the time the hypervisor gives the
# core to other guests, which can triple a pass's wall time at random moments.
CLOCK = time.process_time


class SpeedProbe:
    """Gauges how fast the host runs at this moment.

    On a shared virtual machine even the CPU time of fixed work swings by up
    to 2x from one second to the next, and its level drifts over minutes,
    as other guests contend for the core, its caches and memory bandwidth.
    A call times fixed kernels and returns their CPU time divided by their
    time at reference speed: the host's slowdown at that moment.  An
    operation's CPU time divided by the mean slowdown of the probes just
    before and after it reads as CPU seconds on the host at reference speed.
    The kernels do not touch the package, so a change to the package cannot
    move them.

    Contention slows kinds of work unequally (interpreted Python by up to 2x
    at times when vector work over large arrays barely slows), so a workload
    names the kernels that match where its time goes (``Workload.probe``):
    ``python``, 2000 iterations of interpreted Python with a small numpy call
    and a float ``repr``; ``stream``, ``exp`` and a multiply over an 8 MB array.
    """

    # Each kernel's CPU time when the host that defined the benchmark ran
    # quietly (about the tenth percentile of its times); any fixed values
    # work, these keep scaled times near CPU times.
    REFERENCE_S = {"python": 0.0025, "stream": 0.003}

    def __init__(self, kernels):
        self._kernels = [getattr(self, "_" + name) for name in kernels]
        self._reference_s = sum(self.REFERENCE_S[name] for name in kernels)
        rng = np.random.default_rng(0)
        self._small = rng.random(256)
        self._big = rng.random(1 << 20)
        self._out = np.empty_like(self._big)
        self.cpu_s = 0.0  # CPU time spent in the probe so far

    def _python(self) -> None:
        small, slots, total = self._small, {}, 0.0
        for i in range(2000):
            slots[i & 255] = repr(i * 1.0000001)
            total += float(np.tanh(small[i & 255]))

    def _stream(self) -> None:
        np.exp(self._big, out=self._out)
        np.multiply(self._out, self._big, out=self._out)

    def __call__(self) -> float:
        start = CLOCK()
        for kernel in self._kernels:
            kernel()
        seconds = CLOCK() - start
        self.cpu_s += seconds
        return seconds / self._reference_s


def mc_seed(workload: str, seed: int, scale: str) -> int:
    """Monte-Carlo seed for a workload seed: an entry of the screened seed table.

    Every check of a Monte-Carlo workload is a 3-standard-error test, which a
    correct estimator misses on a few percent of seeds; the table holds seeds
    on which every check passed at the commit that defined the benchmark (see
    ``screen_seeds.py``), so a failed check signals a changed result.
    """
    table = json.loads(MC_SEEDS_FILE.read_text())[workload][scale]["seeds"]
    return table[seed % len(table)]


def write_config(path: Path, params: dict, steps: int, paths: int, seed: int) -> None:
    p = params
    path.write_text(
        "[model]\n"
        f"mu = {p['mu']!r}\nsigma_y = {p['sigma_y']!r}\nsigma_z = {p['sigma_z']!r}\n"
        f"s0 = {p['s0']!r}\ny0 = {p['y0']!r}\n"
        "[investor]\n"
        f"gamma = {p['gamma']!r}\nx0 = {p['x0']!r}\n"
        "[horizon]\n"
        f"t_end = {p['t_end']!r}\nsteps = {steps}\n"
        "[mc]\n"
        f"paths = {paths}\nseed = {seed}\n",
        encoding="utf-8",
    )


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class OpRecord:
    kind: str
    key: object
    seconds: float
    output: object
    slowdown: float = 1.0  # the host's mean slowdown around the operation

    @property
    def scaled_s(self) -> float:
        """CPU seconds at the reference host speed (see ``SpeedProbe``)."""
        return self.seconds / self.slowdown


class PassRecorder:
    """Times each operation of a pass and keeps its output.

    With a ``probe``, the host's speed is probed before the first operation,
    then after the operation that brings the CPU time since the last probe to
    ``PROBE_EVERY_S``, and at ``finish``; probes lie outside the operations'
    timings.  Each operation keeps the mean slowdown of the two probes around
    it.  Probing every operation would add the probe's time to each small one
    and evict its data from the caches.
    """

    PROBE_EVERY_S = 0.05

    def __init__(self, probe: SpeedProbe | None = None):
        self.ops: list[OpRecord] = []
        self.probe = probe
        self._before = None  # slowdown at the last probe
        self._pending: list[OpRecord] = []  # operations since the last probe
        self._pending_s = 0.0  # their CPU time

    def _start(self) -> float:
        if self.probe is not None and self._before is None:
            self._before = self.probe()
        return CLOCK()

    def _record(self, kind, key, seconds, output) -> None:
        op = OpRecord(kind, key, seconds, output)
        self.ops.append(op)
        if self.probe is not None:
            self._pending.append(op)
            self._pending_s += seconds
            if self._pending_s >= self.PROBE_EVERY_S:
                self.finish()

    def finish(self) -> None:
        """Probe after the latest operations and give them their slowdown."""
        if not self._pending:
            return
        after = self.probe()
        for op in self._pending:
            op.slowdown = 0.5 * (self._before + after)
        self._before, self._pending, self._pending_s = after, [], 0.0

    def call(self, kind, fn, *args, key=None, **kwargs):
        start = self._start()
        out = fn(*args, **kwargs)
        self._record(kind, key, CLOCK() - start, out)
        return out

    def cli(self, kind, main, argv, key=None) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        start = self._start()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        result = CliResult(code, out.getvalue(), err.getvalue())
        self._record(kind, key, CLOCK() - start, result)
        return result


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class Workload:
    """Base: subclasses set ``name`` and implement ``run_pass`` and ``check``."""

    name = ""
    screened = False  # True: the seed given to __init__ is a screened Monte-Carlo seed
    setup_code = ""  # run by a fresh interpreter: argv[1] = src dir, argv[2] = config
    probe = ("python", "stream")  # SpeedProbe kernels that match the workload's work

    def __init__(self, seed: int, work: Path, scale: str, modules):
        """``modules`` maps layer names to the package's (untraced) modules."""
        self.seed = seed
        self.size = SIZES[self.name][scale]

    def run_pass(self, rec: PassRecorder, api) -> None:
        raise NotImplementedError

    def check(self, op: OpRecord) -> str:
        """Why ``op``'s output is wrong, or "" when it is right."""
        raise NotImplementedError

    def fingerprint(self, op: OpRecord) -> str:
        out = op.output
        if isinstance(out, CliResult):
            return _digest(out.code, out.stdout, out.stderr)
        return _digest(out)

    def bytes_written(self, ops) -> int:
        return sum(len(op.output.stdout.encode()) for op in ops
                   if isinstance(op.output, CliResult))

    def precision_half_width(self, ops) -> float | None:
        return None


_CLI_SETUP = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import signalprice
from signalprice import cli, model_core
model_core.load_config(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["price", "--config", sys.argv[2]])
sys.exit(code)
"""


class VerifyAll(Workload):
    """``verify --suite all`` on the worked example: the end-user MC command."""

    name = "verify_all"
    screened = True
    setup_code = _CLI_SETUP
    # Nearly all of a pass is vector work on 1001 x 4096 arrays.  Scaled by
    # the python kernel as well, pass times varied more than unscaled ones.
    probe = ("stream",)

    def __init__(self, seed, work, scale, modules):
        super().__init__(seed, work, scale, modules)
        self.config = work / "verify_all.ini"
        write_config(self.config, WORKED_EXAMPLE, self.size["steps"], self.size["paths"],
                     self.seed)
        self.argv = ["verify", "--suite", "all", "--config", str(self.config)]

    def run_pass(self, rec, api):
        rec.cli("verify_all", api("cli").main, self.argv)

    def check(self, op):
        out = op.output
        if out.code not in (0, 1):
            return f"exit code {out.code}: {out.stderr.strip()}"
        reports = json.loads(out.stdout)
        failed = [r["name"] for r in reports if not r["passed"]]
        if out.code != 0 or failed or len(reports) != 12:
            return f"exit code {out.code}, {len(reports)} reports, failed: {failed}"
        return ""

    def precision_half_width(self, ops):
        for op in ops:
            for report in json.loads(op.output.stdout):
                if report["name"] == "mc_indifference_price":
                    return report["tolerance"] / 3.0  # the CLI's band is 3 std errs
        return None


class SubscribeArms(Workload):
    """Six arms on one short-grid ``mc_multi`` call, then per-path dumps."""

    name = "subscribe_arms"
    screened = True
    setup_code = """
import sys
sys.path.insert(0, sys.argv[1])
import signalprice
from signalprice import closed_form, model_core
params, grid, mc = model_core.load_config(sys.argv[2])
closed_form.continuous_price(params)
"""
    T_STARS = (0.0, 0.25, 0.5, 0.75, 1.0)
    SNAPSHOT_TIMES = (0.25, 0.5, 0.75, 1.0)

    def __init__(self, seed, work, scale, modules):
        super().__init__(seed, work, scale, modules)
        mcore, cf, st, ps = (modules[k] for k in
                             ("model_core", "closed_form", "subscription_timing", "path_sim"))
        self.config = work / "subscribe_arms.ini"
        write_config(self.config, WORKED_EXAMPLE, self.size["steps"], self.size["paths"],
                     self.seed)
        p, grid, mc = mcore.load_config(str(self.config))
        self.p, self.grid, self.n_paths = p, grid, mc.n_paths
        self.schedule = st.RateSchedule.constant(cf.continuous_price(p).c_bar, p.t_end)
        self.arms = [ps.Arm(mcore.UNINFORMED)] + [
            ps.Arm(mcore.subscribe_at(t), charge=self.schedule) for t in self.T_STARS
        ]
        self.labels = ["uninformed"] + [f"t{t:g}" for t in self.T_STARS]
        # Committed-purchase value -exp(pre(0) - gamma F(t*)) for each subscribe
        # arm, from public functions: value_prepurchase(0) * exp(-gamma F(t*)).
        profile = st.profile(p, self.schedule, grid)
        pre0 = float(st.value_prepurchase(p, 0.0, p.x0, p.y0, self.schedule))
        self.references = [float(cf.value_uninformed(p, 0.0, p.x0, p.y0))] + [
            pre0 * math.exp(-p.gamma * profile[grid.index_of(t)]) for t in self.T_STARS
        ]
        self.snap_index = [grid.index_of(t) for t in self.SNAPSHOT_TIMES]
        self.remaining_cost = {k: float(self.schedule.integral(grid.t[k], p.t_end))
                               for k in self.snap_index}
        self.dump_paths = [work / f"path_{i:05d}.csv" for i in range(self.size["dumps"])]
        self._runs = None

    def run_pass(self, rec, api):
        ps, cf, st = api("path_sim"), api("closed_form"), api("subscription_timing")
        p, grid, sched = self.p, self.grid, self.schedule
        runs = rec.call("mc_multi", ps.mc_multi, p, grid, self.n_paths, self.seed,
                        self.arms, snapshot_times=self.SNAPSHOT_TIMES)
        rec.call("profile", st.profile, p, sched, grid)
        t_stars = (None,) + self.T_STARS
        for run, t_star in zip(runs, t_stars):
            for k in self.snap_index:
                snap, t_k = run.snapshots[k], float(grid.t[k])
                if t_star is None:
                    rec.call("value", cf.value_uninformed, p, t_k, snap["x"], snap["y_hat"])
                elif t_k < t_star:
                    rec.call("value", st.value_prepurchase, p, t_k, snap["x"], snap["y_hat"],
                             sched)
                else:
                    rec.call("value", cf.value_informed, p, t_k, snap["x"], snap["y"],
                             self.remaining_cost[k])
        bundles = ps.simulate_paths(p, grid, len(self.dump_paths), self.seed)
        for i, csv_path in enumerate(self.dump_paths):
            bundle = rec.call("bundle", next, bundles)
            y_hat = rec.call("filtered_signal", ps.filtered_signal, p, grid, bundle)
            wealth = {}
            for a, (label, arm) in enumerate(zip(self.labels, self.arms)):
                wealth[label] = rec.call("run_strategy", ps.run_strategy, p, grid, bundle,
                                         arm.mode, arm.charge, key=(i, a))
            rec.call("write_path_csv", ps.write_path_csv, csv_path, grid.t, bundle.y, y_hat,
                     bundle.s, wealth, key=i)

    def check(self, op):
        out = op.output
        if op.kind == "mc_multi":
            self._runs = out
            bad = []
            for label, run, ref in zip(self.labels, out, self.references):
                est = run.estimate()
                if not abs(est.mean - ref) <= 3.0 * est.std_err:
                    bad.append(f"{label}: {est.mean!r} vs {ref!r} +- 3*{est.std_err!r}")
            return "; ".join(bad)
        if op.kind in ("value", "profile"):
            ok = np.all(np.isfinite(out)) and (op.kind == "profile" or np.all(out < 0.0))
            return "" if ok else f"{op.kind}: non-finite or non-negative values"
        if op.kind == "bundle":
            ok = out.y.shape == self.grid.t.shape and np.all(np.isfinite(out.s))
            return "" if ok else "bundle has the wrong shape or non-finite prices"
        if op.kind == "filtered_signal":
            return "" if np.all(np.isfinite(out)) else "non-finite filtered signal"
        if op.kind == "run_strategy":
            i, a = op.key
            # the engine's utility -exp(-gamma X_T), with numpy's exp as it applies it
            utility = -np.exp(-self.p.gamma * out[-1])
            engine = self._runs[a].utilities[i]
            if utility != engine:
                return f"path {i} arm {self.labels[a]}: per-path {utility!r} != engine {engine!r}"
            return ""
        if op.kind == "write_path_csv":
            header = "t,y,y_hat,s," + ",".join(f"x_{label}" for label in self.labels)
            lines = self.dump_paths[op.key].read_text().splitlines()
            ok = lines[0] == header and len(lines) == self.grid.t.size + 1
            return "" if ok else "path CSV has the wrong header or row count"
        return f"unknown operation {op.kind}"

    def fingerprint(self, op):
        out = op.output
        if op.kind == "mc_multi":
            parts = []
            for run in out:
                parts.append(run.utilities)
                for k in sorted(run.snapshots):
                    parts += [v for v in run.snapshots[k].values() if v is not None]
            return _digest(*parts)
        if op.kind == "bundle":
            return _digest(out.by_incr, out.bz_incr, out.y, out.s)
        if op.kind == "write_path_csv":
            return _digest(self.dump_paths[op.key].read_bytes())
        return _digest(out)


class ClosedFormCli(Workload):
    """Six CLI commands per point of a seeded parameter lattice; no Monte-Carlo."""

    name = "closed_form_cli"
    setup_code = _CLI_SETUP

    def __init__(self, seed, work, scale, modules):
        super().__init__(seed, work, scale, modules)
        cf, st = modules["closed_form"], modules["subscription_timing"]
        mcore = modules["model_core"]
        # The worked example, then a Latin hypercube over the criterion-02 box,
        # where the one-shot quadrature oracle resolves (sigma_y / sigma_z <= 2).
        # Stratifying keeps the oracles' adaptive work about equal across seeds.
        rng = np.random.default_rng(seed)
        n = self.size["points"] - 1
        strata = [(rng.permutation(n) + rng.random(n)) / n for _ in range(3)]
        lattice = [dict(WORKED_EXAMPLE)]
        for u_gamma, u_y, u_z in zip(*strata):
            lattice.append(dict(
                WORKED_EXAMPLE,
                gamma=float(math.exp(math.log(0.05) + u_gamma * math.log(10.0))),
                sigma_y=float(0.05 + 0.15 * u_y),
                sigma_z=float(0.1 + 0.1 * u_z),
            ))
        steps = self.size["steps"]
        self.points = []
        for j, point in enumerate(lattice):
            config = work / f"point{j}.ini"
            write_config(config, point, steps, 1000, seed)
            out_dir = work / f"point{j}"
            out_dir.mkdir(parents=True, exist_ok=True)
            p, grid, _ = mcore.load_config(str(config))
            flat = work / f"point{j}_flat.csv"
            st.RateSchedule.constant(cf.continuous_price(p).c_bar, p.t_end).to_csv(str(flat))
            cfg = str(config)
            if j == 0:
                self.config = config  # the worked example, also used for set-up
            self.points.append({
                "params": p,
                "grid": grid,
                "out": out_dir,
                "commands": [
                    ("price_continuous", ["price", "--config", cfg, "--mode", "continuous"]),
                    ("price_single", ["price", "--config", cfg, "--mode", "single"]),
                    ("rates", ["rates", "--config", cfg, "--points", str(steps + 1),
                               "--out", str(out_dir)]),
                    ("subscribe_c_hat", ["subscribe", "--config", cfg, "--schedule",
                                         str(out_dir / "c_hat_schedule.csv")]),
                    ("subscribe_flat", ["subscribe", "--config", cfg, "--schedule", str(flat)]),
                    ("verify_fast", ["verify", "--suite", "fast", "--config", cfg]),
                ],
            })

    def run_pass(self, rec, api):
        main = api("cli").main
        for j, point in enumerate(self.points):
            for label, argv in point["commands"]:
                rec.cli(label, main, argv, key=j)

    def check(self, op):
        out = op.output
        j, label = op.key, op.kind
        if out.code != 0:
            return f"point {j} {label}: exit code {out.code}: {out.stderr.strip()}"
        point = self.points[j]
        p, grid = point["params"], point["grid"]
        data = json.loads(out.stdout)
        if label == "price_continuous":
            if j == 0:  # the worked example: c_hat = 5 tanh 2
                expected, rel = 5.0 * math.tanh(2.0), 1e-14
            else:
                expected, rel = p.sigma_y / (4.0 * p.gamma * p.sigma_z) * p.t_end * math.tanh(
                    p.sigma_y * p.t_end / p.sigma_z), 1e-12
            if not abs(data["c_hat"] - expected) <= rel * abs(expected):
                return f"point {j}: c_hat {data['c_hat']!r} != {expected!r}"
            if not data["c_bar"] <= data["c_bar_bound"]:
                return f"point {j}: c_bar {data['c_bar']!r} above bound {data['c_bar_bound']!r}"
            return ""
        if label == "price_single":
            expected = math.log1p(p.sigma_y**2 / p.sigma_z**2) / (2.0 * p.gamma)
            ok = abs(data["c_hat"] - expected) <= 1e-12 * abs(expected)
            return "" if ok else f"point {j}: one-shot c_hat {data['c_hat']!r} != {expected!r}"
        if label == "rates":
            ok = all(Path(data[k]).is_file() for k in ("rates_csv", "schedule_csv"))
            return "" if ok else f"point {j}: rates files missing"
        if label == "subscribe_c_hat":
            ok = data["indifference_set"] == grid.t.tolist()
            return "" if ok else f"point {j}: indifference set under c_hat is not the full grid"
        if label == "subscribe_flat":
            half = 0.5 * p.t_end
            ok = (abs(data["tau_e"] - half) <= grid.dt and abs(data["tau_l"] - half) <= grid.dt)
            return "" if ok else f"point {j}: tau_e/tau_l {data['tau_e']!r}/{data['tau_l']!r}"
        if label == "verify_fast":
            failed = [r["name"] for r in data if not r["passed"]]
            return f"point {j}: failed {failed}" if failed else ""
        return f"unknown command {label}"

    def bytes_written(self, ops):
        files = sum(path.stat().st_size for point in self.points
                    for path in point["out"].iterdir())
        return super().bytes_written(ops) + files


WORKLOADS = {w.name: w for w in (VerifyAll, SubscribeArms, ClosedFormCli)}
