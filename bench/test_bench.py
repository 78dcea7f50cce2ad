"""Self-test of the benchmark: every workload at the tiny scale.

    python3 -m pytest bench/test_bench.py -q

Each workload runs untraced and traced; both runs must report every metric
that ``BENCHMARK.json`` names, with its unit, fail no operation, and produce
identical outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def _field(lines, prefix):
    return next(line for line in lines if line.startswith(prefix))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_fails_nothing(workload):
    results = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench(workload, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
        assert float(_field(lines, "fail_share").split()[1]) == 0.0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        results[trace] = lines
    # traced and untraced passes produce identical outputs
    assert _field(results[0], "outputs_sha256") == _field(results[1], "outputs_sha256")


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("verify_all", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer

        tracer = Tracer()
        path_sim, closed_form = tracer.modules["path_sim"], tracer.modules["closed_form"]
        before = dict(vars(path_sim))
        tracer.install()
        # a name bound by ``from .closed_form import noise_ratio`` is wrapped in
        # the calling module; the defining module keeps the original
        assert path_sim.noise_ratio is not closed_form.noise_ratio
        assert path_sim.signal_filter is not tracer.modules["signal_filter"]
        tracer.uninstall()
        assert dict(vars(path_sim)) == before
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(BENCH))
