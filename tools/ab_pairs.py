"""Alternating A/B pairs of the benchmark between a parent and a change checkout.

    python3 tools/ab_pairs.py --parent ../parent --change . --workload subscribe_arms \
        --seed 5 --seconds 30 --pairs 10 --out pairs.json

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
in the parent checkout first when i is odd and in the change checkout first
when i is even.  The parent can be a ``git clone`` or ``git worktree`` of the
parent commit.  Runs may write bytecode caches (``PYTHONDONTWRITEBYTECODE``
is dropped from their environment): with it set, a stale cache left in one
checkout makes each of that side's fresh set-up interpreters compile from
source, which showed as a ``setup_s`` rise of about a fifth on
``subscribe_arms``.  The summary holds, per end-to-end metric, every run's
value on each side, inclusive quartiles per side (with 5 or more pairs),
``median_change_pct``, ``change_wins`` and ``median_gap_exceeds_parent_iqr``;
then the failed and attempted operations and whether ``outputs_sha256``
matched in every pair.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, operation counts and output digest."""
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = re.search(r"^outputs_sha256 (\w+)$", done.stdout, re.M)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs_sha256": digest.group(1) if digest else None,
    }


def _quartiles(values: list) -> list | None:
    if len(values) < 5:
        return None
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: dict, better: dict) -> dict:
    """The summary of paired runs.

    ``runs`` maps "parent" and "change" to equally long lists of run records
    (``run_once``'s dicts; pair i is element i of both); ``better`` maps each
    metric to "lower" or "higher".  The median gap is measured in the better
    direction, so a gap exceeds the parent's IQR only when the change is better.
    """
    n = len(runs["parent"])
    if n == 0 or len(runs["change"]) != n:
        raise ValueError("runs need the same, non-zero number of parent and change records")
    metrics = {}
    for name, direction in better.items():
        if direction not in ("lower", "higher"):
            raise ValueError(f"metric {name}: better must be 'lower' or 'higher'")
        sign = 1.0 if direction == "lower" else -1.0
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        parent_q = _quartiles(values["parent"])
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        gap = sign * (medians["parent"] - medians["change"])
        metrics[name] = {
            "unit": runs["parent"][0].get("units", {}).get(name),
            "parent": [round(v, 6) for v in values["parent"]],
            "change": [round(v, 6) for v in values["change"]],
            "median_change_pct": (round(100.0 * (medians["change"] / medians["parent"] - 1.0), 2)
                                  if medians["parent"] else None),
            "change_wins": f"{wins} of {n}",
            "parent_q1_median_q3": parent_q,
            "change_q1_median_q3": _quartiles(values["change"]),
            "median_gap_exceeds_parent_iqr": (None if parent_q is None
                                              else gap > parent_q[2] - parent_q[0]),
        }
    digests = {side: [r["outputs_sha256"] for r in runs[side]] for side in SIDES}
    return {
        "pairs": n,
        "operations_failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "operations_attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
        "outputs_sha256_equal_in_every_pair": all(
            p is not None and p == c for p, c in zip(digests["parent"], digests["change"])),
        "outputs_sha256": {side: sorted(set(filter(None, digests[side]))) for side in SIDES},
    }


def _better(checkout: Path) -> dict:
    """Each end-to-end metric's better direction, from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            record = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(record)
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in record["metrics"].items()), file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed,
               **summarize(runs, _better(checkouts["change"]))}
    text = json.dumps(summary, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
