"""Benchmark runner for signalprice.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory, and inputs and outputs go under ``.bench_work/`` in the same tree.
One process and one thread drive the workload; BLAS and OpenMP pools are
pinned to one thread before numpy loads.

A run measures set-up time (fresh interpreters, median of several), runs one
warm-up pass, then repeats passes for ``--seconds`` of wall time.  Timings are
taken on the process CPU clock (see ``workloads.CLOCK``) and, in untraced
passes and set-up, scaled to a reference host speed by probes run between
operations (see ``workloads.SpeedProbe``).  Every operation's output
is checked, and its fingerprint must match the warm-up pass's.  With
``--trace 0`` every pass is untraced and the end-to-end metrics are reported.
With ``--trace 1`` untraced and traced passes alternate: the per-layer metrics
come from the traced passes, the tracing overhead is the difference of the two
median pass times, and the spans of the warm-up pass are written to
``.bench_work/<workload>/spans.jsonl``.  Every metric is printed by name with
its unit; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Inclusive-time metrics of the oracle layer: metric -> functions whose spans count.
ORACLE_SPANS = {
    "verify_oracles.ode_s": ("report_ode", "ode_oracle"),
    "verify_oracles.single_period_s": ("report_single_period", "single_period_oracle"),
    "verify_oracles.kernel_s": ("report_kernel", "kernel_identity_residual"),
    "verify_oracles.mc_value_s": ("mc_value_check",),
    "verify_oracles.indifference_s": ("report_indifference", "indifference_bisection"),
}

PER_LAYER_UNITS = {
    "path_sim.self_s": "s",
    "path_sim.ns_per_path_step": "ns",
    "path_sim.arm_path_steps": "count",
    "path_sim.simulated_paths": "count",
    "path_sim.unique_paths": "count",
    "path_sim.path_reuse": "ratio",
    "path_sim.peak_traced_mb": "MB",
    "path_sim.per_path_calls": "count",
    "signal_filter.self_s": "s",
    "signal_filter.path_steps": "count",
    "closed_form.self_s": "s",
    "closed_form.calls": "count",
    "closed_form.elements": "count",
    "subscription_timing.self_s": "s",
    "subscription_timing.calls": "count",
    "subscription_timing.profile_points": "count",
    "verify_oracles.self_s": "s",
    **{name: "s" for name in ORACLE_SPANS},
    "verify_oracles.checks": "count",
    "verify_oracles.checks_failed": "count",
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.bytes_written": "B",
    "model_core.self_s": "s",
    "model_core.calls": "count",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "run.path_steps_per_s": "1/s",
    "run.time_to_precision_s": "s",
    "run.fail_share": "ratio",
}

# Target projected by time_to_precision_s: a 1-standard-error half-width of 0.01.
PRECISION_TARGET = 0.01


def tail(values):
    """(value, percentile): the highest order statistic with ten samples beyond it.

    Below twenty samples no percentile above the median has ten beyond it, so
    the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload, probe) -> list[float]:
    """Scaled CPU seconds for fresh interpreters to import, load the config, make a first call.

    Each interpreter's CPU time is divided by the mean slowdown of the probes
    just before and after it, as an operation's is.
    """
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = _children_cpu()
        subprocess.run(
            [sys.executable, "-c", workload.setup_code, "src", str(workload.config)],
            cwd=ROOT, check=True, timeout=120,
        )
        seconds = _children_cpu() - start
        after = probe()
        times.append(seconds / (0.5 * (before + after)))
        before = after
    return times


@dataclass
class PassResult:
    seconds: float  # CPU seconds of the pass, probes left out
    scaled: float  # sum of the operations' scaled times (see workloads.SpeedProbe)
    latencies: dict  # operation kind -> scaled seconds of each operation
    trace: object  # tracer.PassTrace of a traced pass, else None
    failed: int
    attempted: int
    bytes_written: int


class Runner:
    def __init__(self, workload, tracer, recorder_cls, probe):
        self.workload = workload
        self.tracer = tracer
        self.recorder_cls = recorder_cls
        self.probe = probe
        self.slowdowns: list[float] = []  # of every probed operation
        self.reference = None
        self.reference_counts = None
        self.half_width = None
        self.problems: list[str] = []

    def one_pass(self, traced: bool, first_traced: bool = False) -> PassResult:
        tr, wl = self.tracer, self.workload
        # Traced passes are not probed: their times are the layers' CPU times.
        rec = self.recorder_cls(probe=None if traced else self.probe)
        probe_start = self.probe.cpu_s
        error = None
        if traced:
            tr.record_spans = tr.probe_memory = first_traced
            tr.install()
            api = tr.api
        else:
            api = tr.modules.__getitem__
        start = time.process_time()  # the CPU clock, as workloads.CLOCK
        try:
            wl.run_pass(rec, api)
        except Exception:  # a pass that raises is one failed operation
            error = traceback.format_exc()
        rec.finish()
        seconds = time.process_time() - start - (self.probe.cpu_s - probe_start)
        trace = None
        if traced:
            trace = tr.take_pass()
            tr.uninstall()
            tr.record_spans = tr.probe_memory = False

        failed = 0
        attempted = len(rec.ops)
        if error is not None:
            attempted += 1
            failed += 1
            self.problems.append(error)
        fingerprints = []
        for op in rec.ops:
            try:
                why = wl.check(op)
            except Exception as exc:  # a check that cannot read the output fails it
                why = f"check raised {exc!r}"
            fingerprint = wl.fingerprint(op)
            fingerprints.append(fingerprint)
            index = len(fingerprints) - 1
            if not why and self.reference is not None and (
                index >= len(self.reference) or self.reference[index] != fingerprint
            ):
                why = f"output differs from the first pass ({op.kind} {op.key})"
            if why:
                failed += 1
                self.problems.append(why)
        if self.reference is None:
            self.reference = fingerprints
            self.half_width = wl.precision_half_width(rec.ops)
        bytes_written = wl.bytes_written(rec.ops)
        if trace is not None:
            counts = (dict(trace.counts), dict(trace.calls), trace.spans,
                      trace.unique_paths(), bytes_written)
            if self.reference_counts is None:
                self.reference_counts = counts
            elif counts != self.reference_counts:
                failed += 1
                self.problems.append("layer counts differ between traced passes")
        latencies: dict[str, list[float]] = {}
        for op in rec.ops:
            latencies.setdefault(op.kind, []).append(op.scaled_s)
        if not traced:
            self.slowdowns += [op.slowdown for op in rec.ops]
        scaled = sum(op.scaled_s for op in rec.ops)
        return PassResult(seconds, scaled, latencies, trace, failed, attempted, bytes_written)


def end_to_end(setup_times, passes):
    passes_s = [p.scaled for p in passes]
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for kind, seconds in p.latencies.items():
            by_kind.setdefault(kind, []).extend(seconds)
    latencies = [s for seconds in by_kind.values() for s in seconds]
    tail_value, tail_level = tail(latencies)
    # A pass mixes operation kinds whose latencies differ by up to 1000x; the
    # pooled median would fall in the gap between two kinds and jump between
    # them from run to run, so the typical latency is the median over kinds of
    # each kind's median.
    typical = statistics.median(statistics.median(s) for s in by_kind.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes_s),
        "ops_per_s": len(latencies) / sum(passes_s),
        "op_p50_ms": 1e3 * typical,
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "pass_s": f"median of {len(passes_s)} passes; CPU time median "
                  f"{statistics.median(p.seconds for p in passes):.4g} s unscaled",
        "op_p50_ms": f"median over {len(by_kind)} operation kinds of each kind's median",
        "op_tail_ms": f"p{tail_level:.2f} of {len(latencies)} operations",
    }
    return metrics, notes


def per_layer(warmup, traced, untraced, pass_s, half_width, fail_share):
    first = traced[0].trace
    counts = first.counts
    med = statistics.median
    self_s = {layer: med([p.trace.self_s.get(layer, 0.0) for p in traced])
              for layer in ("path_sim", "signal_filter", "closed_form",
                            "subscription_timing", "verify_oracles", "cli", "model_core")}
    traced_pass_s = med([p.seconds for p in traced])
    path_steps = counts["path_sim.path_steps"]
    simulated = counts["path_sim.simulated_paths"]
    unique = first.unique_paths()
    unique_path_steps = sum((plus + minus) * steps
                            for (_, _, steps), (plus, minus) in first.scenarios.items())
    m = {
        "path_sim.self_s": self_s["path_sim"],
        "path_sim.ns_per_path_step": 1e9 * self_s["path_sim"] / path_steps if path_steps else 0.0,
        "path_sim.arm_path_steps": counts["path_sim.arm_path_steps"],
        "path_sim.simulated_paths": simulated,
        "path_sim.unique_paths": unique,
        "path_sim.path_reuse": unique / simulated if simulated else 0.0,
        "path_sim.peak_traced_mb": warmup.trace.peak_traced_bytes / 2**20,
        "path_sim.per_path_calls": counts["path_sim.per_path_calls"],
        "signal_filter.self_s": self_s["signal_filter"],
        "signal_filter.path_steps": counts["signal_filter.path_steps"],
        "closed_form.self_s": self_s["closed_form"],
        "closed_form.calls": first.calls["closed_form"],
        "closed_form.elements": counts["closed_form.elements"],
        "subscription_timing.self_s": self_s["subscription_timing"],
        "subscription_timing.calls": first.calls["subscription_timing"],
        "subscription_timing.profile_points": counts["subscription_timing.profile_points"],
        "verify_oracles.self_s": self_s["verify_oracles"],
    }
    for name, functions in ORACLE_SPANS.items():
        m[name] = med([sum(p.trace.inclusive_s.get(f"verify_oracles.{f}", 0.0)
                           for f in functions) for p in traced])
    m.update({
        "verify_oracles.checks": counts["verify_oracles.checks"],
        "verify_oracles.checks_failed": counts["verify_oracles.checks_failed"],
        "cli.self_s": self_s["cli"],
        "cli.commands": counts["cli.commands"],
        "cli.bytes_written": traced[0].bytes_written,
        "model_core.self_s": self_s["model_core"],
        "model_core.calls": first.calls["model_core"],
        "bench.self_s": med([p.seconds - p.trace.root_s for p in traced]),
        "trace.pass_s": traced_pass_s,
        "trace.overhead_s": traced_pass_s - med([p.seconds for p in untraced]),
        "trace.spans": first.spans,
        "run.path_steps_per_s": unique_path_steps / pass_s,
        "run.time_to_precision_s": (pass_s * (half_width / PRECISION_TARGET) ** 2
                                    if half_width else 0.0),
        "run.fail_share": fail_share,
    })
    # Self times of all layers plus the harness's own time cover each pass.
    gaps = [abs(sum(p.trace.self_s.values()) - p.trace.root_s) for p in traced]
    note = (f"layer self times + bench.self_s match each traced pass's time "
            f"to {max(gaps):.3g} s over {len(traced)} passes")
    return m, note


def prepare() -> bool:
    """Pin thread pools to one thread, enter the tree root, put src/ on the path.

    Must run before numpy is imported.  False when the package source is absent.
    """
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "signalprice" / "__init__.py").is_file():
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every code path at a small size (self-test)")
    args = parser.parse_args(argv)

    if not prepare():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, PassRecorder, SpeedProbe, mc_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    package_file = Path(tracer.modules["cli"].__file__).resolve()
    if (ROOT / "src").resolve() not in package_file.parents:
        print(f"error: signalprice was imported from {package_file}, not src/",
              file=sys.stderr)
        return 2

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    inputs_seed = mc_seed(cls.name, args.seed, args.scale) if cls.screened else args.seed
    workload = cls(inputs_seed, work, args.scale, tracer.modules)
    probe = SpeedProbe(workload.probe)
    setup_times = measure_setup(workload, probe)

    runner = Runner(workload, tracer, PassRecorder, probe)
    trace = bool(args.trace)
    warmup = runner.one_pass(traced=trace, first_traced=trace)
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.one_pass(traced=False))
        if trace:
            traced.append(runner.one_pass(traced=True))
    done = [warmup] + untraced + traced
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    fail_share = failed / attempted

    e2e, notes = end_to_end(setup_times, untraced)
    half_width = runner.half_width
    lines = [
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}"
        + f"  inputs seed {inputs_seed}",
        "outputs_sha256 " + hashlib.sha256("".join(runner.reference).encode()).hexdigest(),
        f"passes {len(untraced)} untraced, {len(traced)} traced, 1 warm-up; "
        f"operations attempted {attempted}, failed {failed}",
    ]
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:34s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    lines.append(f"{'fail_share':34s} {fail_share:.6g} ratio")
    slow = runner.slowdowns
    lines.append(f"{'host_slowdown':34s} {statistics.median(slow):.4g} x  (median; "
                 f"{min(slow):.4g} to {max(slow):.4g} over {len(slow)} operations; "
                 "see workloads.SpeedProbe)")
    if half_width:
        ttp = e2e["pass_s"] * (half_width / PRECISION_TARGET) ** 2
        lines.append(f"{'time_to_precision_s':34s} {ttp:.6g} s  "
                     f"(1-SE half-width {half_width:.4g} projected to {PRECISION_TARGET})")

    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in e2e.items()}
    if trace:
        layer, note = per_layer(warmup, traced, untraced, e2e["pass_s"], half_width,
                                fail_share)
        for name, value in layer.items():
            lines.append(f"{name:34s} {value:.6g} {PER_LAYER_UNITS[name]}")
        lines.append(note)
        tracer.write_spans(work / "spans.jsonl")
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in layer.items()}

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
