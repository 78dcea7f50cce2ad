import ast
import importlib
import inspect
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


def _package_object(node):
    """What a workloads expression names in the package (a module alias,
    api("<module>"), then attributes), or None."""
    if isinstance(node, ast.Name) and node.id in BENCH_ALIASES:
        return importlib.import_module(f"signalprice.{BENCH_ALIASES[node.id]}")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "api"
            and isinstance(node.args[0], ast.Constant)):
        return importlib.import_module(f"signalprice.{node.args[0].value}")
    owner = _package_object(node.value) if isinstance(node, ast.Attribute) else None
    return None if owner is None else getattr(owner, node.attr, None)


def _benchmark_calls():
    """(callee source, callable, positional count, keywords) of every call the
    workloads make to the package, directly or through
    ``rec.call(kind, fn, *args, key=, **kwargs)``; a starred argument counts
    as none."""
    calls = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        if (isinstance(func, ast.Attribute) and func.attr == "call"
                and isinstance(func.value, ast.Name) and func.value.id == "rec"):
            func, args, keywords = args[1], args[2:], [kw for kw in keywords if kw != "key"]
        fn = _package_object(func)
        if callable(fn):
            n_args = sum(not isinstance(arg, ast.Starred) for arg in args)
            calls.append((ast.unparse(func), fn, n_args, keywords))
    return calls


def test_benchmark_calls_fit_their_signatures():
    # a parameter the benchmark passes cannot leave the API unnoticed
    calls = _benchmark_calls()
    callees = {source for source, *_ in calls}
    assert {"ps.mc_multi", "ps.Arm", "ps.run_strategy", "st.RateSchedule.constant"} <= callees
    rejected = []
    for source, fn, n_args, keywords in calls:
        try:
            inspect.signature(fn).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as err:
            rejected.append(f"{source}: {err}")
    assert rejected == []
