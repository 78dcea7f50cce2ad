import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import signalprice

MODULES = sorted(info.name for info in pkgutil.iter_modules(signalprice.__path__))


def test_package_exports_resolve():
    missing = [name for name in signalprice.__all__ if not hasattr(signalprice, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"signalprice.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# The benchmark's workloads call the package through these module aliases and
# through api("<module>").<name>; each name they read must stay.
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
BENCH_ALIASES = {"ps": "path_sim", "st": "subscription_timing", "cf": "closed_form",
                 "mcore": "model_core"}


def _benchmark_entry_points():
    used = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in BENCH_ALIASES:
            used.add((BENCH_ALIASES[owner.id], node.attr))
        elif (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
              and owner.func.id == "api" and isinstance(owner.args[0], ast.Constant)):
            used.add((owner.args[0].value, node.attr))
    return sorted(used)


def test_benchmark_entry_points_exist():
    used = _benchmark_entry_points()
    assert ("cli", "main") in used and ("path_sim", "run_strategy") in used
    assert {module for module, _ in used} == {*BENCH_ALIASES.values(), "cli"}
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(f"signalprice.{module}"), name)]
    assert missing == []
