"""Mutation testing of the package modules, standard library only.

    python3 tools/mutate.py --seed 7 --sample 16 --out MUTANTS.json

A site is one token of a module's source that ``ast`` finds outside f-string
fields: a binary ``+``, ``-``, ``*`` or ``/``, a comparison ``<``, ``<=``,
``>`` or ``>=``, or a nonzero float constant.  Its mutant swaps the operator
(+ <-> -, * <-> /, < <-> <=, > <-> >=) or multiplies the constant by 1.5, and
nothing else: the token is replaced in the source text, so every other byte
of the file is kept.

``random.Random(seed)`` samples the sites of ``MODULES``.  Each mutant is
written into a fresh copy of the tree, where ``python -m pytest -x -q`` runs
with ``PYTHONPATH=src``; a failing run kills it, and the first failed test is
named.  A run past ``TIMEOUT_S`` counts as killed, by the timeout.

The output holds, per mutant: the module, line and column, the token change,
the source line, "killed" or "survived", the killing test, the seconds taken
and a triage.  Triage is written by hand, once, for each survivor: a string
that starts "equivalent:" (no input can tell the mutant from the module, and
why) or "gap:" (and the test that closes it).  A later run keeps the triage
of every site it samples again and scores with it.  The mutation score is
killed / (sampled - equivalent).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MODULES = tuple(f"src/signalprice/{name}.py" for name in (
    "closed_form", "model_core", "path_sim", "signal_filter", "subscription_timing",
    "verify_oracles"))
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
CONSTANT_FACTOR = 1.5
TIMEOUT_S = 900.0  # a survivor's full suite takes 70-120 s on two cores
# not copied into a mutant's tree
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_work", "MUTANTS.json")


class Site(NamedTuple):
    """One token to replace: ``old`` at byte column ``col`` of 1-based ``line``."""

    path: str
    line: int
    col: int
    old: str
    new: str


def _operator_col(lines: list[bytes], left: ast.AST, right: ast.AST, token: str):
    """(line, col) of the operator between two operands, past blanks, parentheses,
    line continuations and comments."""
    line, col = left.end_lineno, left.end_col_offset
    while (line, col) < (right.lineno, right.col_offset):
        text = lines[line - 1]
        if col >= len(text) or text[col:col + 1] == b"#":
            line, col = line + 1, 0
        elif text[col:col + 1] in b" \t\r\n\\()":
            col += 1
        else:
            break
    text, end = lines[line - 1], col + len(token)
    if text[col:end] != token.encode() or text[end:end + 1] in (b"<", b">", b"="):
        raise ValueError(f"line {line}: expected {token!r} at column {col}")
    return line, col


def find_sites(source: str, path: str) -> list[Site]:
    """Every site of ``source``, in source order."""
    lines = source.encode().splitlines(keepends=True)
    tree = ast.parse(source)
    # f-string fields are left alone
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = list(zip(node.ops, operands, operands[1:]))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            old = lines[node.lineno - 1][node.col_offset:node.end_col_offset].decode()
            found.append(Site(path, node.lineno, node.col_offset, old,
                              repr(node.value * CONSTANT_FACTOR)))
            continue
        else:
            continue
        for op, left, right in pairs:
            if type(op) in SWAPS:
                old, new = SWAPS[type(op)]
                found.append(Site(path, *_operator_col(lines, left, right, old), old, new))
    return sorted(found, key=lambda s: (s.line, s.col))


def apply(source: str, site: Site) -> str:
    """``source`` with the site's token replaced."""
    lines = source.encode().splitlines(keepends=True)
    text = lines[site.line - 1]
    end = site.col + len(site.old.encode())
    if text[site.col:end].decode() != site.old:
        raise ValueError(f"{site.path}:{site.line}: {site.old!r} is not at column {site.col}")
    lines[site.line - 1] = text[:site.col] + site.new.encode() + text[end:]
    return b"".join(lines).decode()


def sample_sites(root: Path, seed: int, size: int) -> list[Site]:
    """A seeded sample of the sites of ``MODULES``, in sampling order."""
    pool = [s for path in MODULES
            for s in find_sites((root / path).read_text(encoding="utf-8"), path)]
    return random.Random(seed).sample(pool, min(size, len(pool)))


def _first_failure(output: str) -> str:
    """The first failed test pytest names, else its last line of output."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.M)
    if match:
        return match[1]
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def run_mutant(root: Path, site: Site) -> dict:
    """Run the suite against one mutant, in a fresh copy of the tree."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=IGNORED)
        target = tree / site.path
        target.write_text(apply(target.read_text(encoding="utf-8"), site), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q"], cwd=tree,
                                  env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status, killer = "killed", f"timeout after {TIMEOUT_S:g} s"
        else:
            status = "survived" if done.returncode == 0 else "killed"
            killer = None if done.returncode == 0 else _first_failure(done.stdout + done.stderr)
    return {"status": status, "killed_by": killer, "seconds": round(time.monotonic() - start, 1)}


def summarize(mutants: list[dict]) -> dict:
    killed = sum(m["status"] == "killed" for m in mutants)
    equivalent = sum((m.get("triage") or "").startswith("equivalent:") for m in mutants)
    scored = len(mutants) - equivalent
    return {"sampled": len(mutants), "killed": killed,
            "survived": len(mutants) - killed, "equivalent": equivalent,
            "score": round(killed / scored, 4) if scored else None}


def _key(entry: dict) -> tuple:
    return tuple(entry[k] for k in ("path", "line", "col", "old", "new"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sample", type=int, default=16)
    parser.add_argument("--out", default="MUTANTS.json")
    args = parser.parse_args(argv)
    out = Path(args.out)
    previous = json.loads(out.read_text()) if out.exists() else {}
    triage = {_key(m): m.get("triage") for m in previous.get("mutants", [])}
    mutants = []
    for site in sample_sites(ROOT, args.seed, args.sample):
        entry = site._asdict()
        entry["source"] = (ROOT / site.path).read_text(encoding="utf-8").splitlines()[
            site.line - 1].strip()
        entry.update(run_mutant(ROOT, site))
        entry["triage"] = triage.get(_key(entry))
        mutants.append(entry)
        print(f"{site.path}:{site.line} {site.old} -> {site.new}: {entry['status']} "
              f"({entry['seconds']} s)", file=sys.stderr, flush=True)
    result = {"seed": args.seed, "sample": args.sample, "modules": list(MODULES),
              "command": "python -m pytest -x -q", "summary": summarize(mutants),
              "mutants": mutants}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
