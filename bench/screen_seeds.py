"""Rebuild ``mc_seeds.json``: Monte-Carlo seeds on which every check passes.

    python3 bench/screen_seeds.py [--count 32]

For each Monte-Carlo workload and scale, runs one untraced pass for the
candidate seeds 1, 2, 3, ... and keeps those whose operations all pass their
checks, until ``--count`` are kept (8 for the tiny scale).  The rejected
candidates are recorded beside the kept ones: a correct estimator misses a
3-standard-error band on a few percent of seeds, and a much higher share
points at a changed result rather than at chance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=32)
    args = parser.parse_args(argv)
    if not run.prepare():
        print("error: package source not found", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import MC_SEEDS_FILE, WORKLOADS, PassRecorder

    modules = Tracer().modules
    work = Path(".bench_work") / "screen"
    table = {}
    for cls in WORKLOADS.values():
        if not cls.screened:
            continue
        table[cls.name] = {}
        for scale, count in (("full", args.count), ("tiny", 8)):
            kept, rejected = [], []
            candidate = 0
            while len(kept) < count:
                candidate += 1
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                workload = cls(candidate, work, scale, modules)
                rec = PassRecorder()
                workload.run_pass(rec, modules.__getitem__)
                problems = [why for why in map(workload.check, rec.ops) if why]
                (rejected if problems else kept).append(candidate)
                for why in problems:
                    print(f"{cls.name} {scale} seed {candidate}: {why}", file=sys.stderr)
            table[cls.name][scale] = {"seeds": kept, "rejected": rejected}
            print(f"{cls.name} {scale}: kept {len(kept)}, rejected {rejected}")
    shutil.rmtree(work, ignore_errors=True)
    MC_SEEDS_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
