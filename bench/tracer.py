"""In-memory span tracer for the benchmark's traced passes.

``Tracer.install`` wraps every function that one package module calls in
another: names bound by ``from .x import y`` are replaced in the calling
module's namespace, module references bound by ``from . import x`` are
replaced by a proxy whose functions are wrapped, and methods of package
classes are wrapped on the class.  A wrapped call opens a span unless the
innermost open span already belongs to the callee's module, so only calls that
cross a module boundary are recorded.  ``uninstall`` restores every binding;
untraced passes run the package unmodified.

Spans are timed on the process CPU clock, like the rest of the benchmark.
Each span's duration minus the time covered by its child spans is the self
time of the callee's module, so the self times of all modules plus the
harness's own time (pass wall time minus root spans) add up to the pass's
wall time.  Counters that describe the work of a layer are updated by hooks
at the same boundaries.  Spans of one pass can be recorded in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli",
    "closed_form",
    "model_core",
    "path_sim",
    "signal_filter",
    "subscription_timing",
    "verify_oracles",
)

# Dunder methods that do package work; the other generated dataclass dunders
# (__repr__, __eq__, __setattr__, ...) stay unwrapped.
_WRAPPED_DUNDERS = {"__init__", "__post_init__", "__call__"}

# Monte-Carlo engine entry points: simulated paths are counted from their
# arguments, and their peak traced memory is probed on request.
_ENGINE = {"path_sim.mc_multi", "path_sim.mc_run", "path_sim.expected_utility"}
_PER_PATH_API = {
    "path_sim.simulate_paths",
    "path_sim.filtered_signal",
    "path_sim.run_strategy",
    "path_sim.write_path_csv",
}
_FILTERS = {
    "signal_filter._filter_prices",
    "signal_filter.filter_path",
    "signal_filter.kalman_oracle",
}


class _ModuleProxy:
    """Stands in for a package module in another module's namespace."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg_getter(fn, name):
    """Reads parameter ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    if name not in params:
        return None
    index = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        if index < len(args):
            return args[index]
        return default

    return get


class PassTrace:
    """What one traced pass recorded: self and inclusive times, calls, counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.root_s = 0.0
        self.spans = 0
        self.peak_traced_bytes = 0
        # (params, seed, n_steps) -> [paths from keyed draws, mirrored paths]
        self.scenarios: dict = defaultdict(lambda: [0, 0])

    def unique_paths(self) -> int:
        return sum(plus + minus for plus, minus in self.scenarios.values())


class Tracer:
    """Wraps the package's cross-module calls in spans while installed."""

    def __init__(self):
        self.modules = {
            name: importlib.import_module(f"signalprice.{name}") for name in LAYERS
        }
        self._layer_of = {mod.__name__: name for name, mod in self.modules.items()}
        self._stack: list = []
        self._patches: list = []
        self._proxies: dict = {}
        self.current = PassTrace()
        self.record_spans = False
        self.probe_memory = False
        self.spans: list = []
        self.span_limit = 200_000
        self.spans_dropped = 0

    # --- installation ---

    def install(self) -> None:
        """Wrap every cross-module binding and every package method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._proxies = {
            name: _ModuleProxy(mod, self._wrapped_functions(mod))
            for name, mod in self.modules.items()
        }
        for name, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType):
                    layer = self._layer_of.get(obj.__name__)
                    if layer is not None and layer != name:
                        self._patch(mod, attr, self._proxies[layer])
                elif inspect.isfunction(obj) and obj.__module__ != mod.__name__:
                    layer = self._layer_of.get(obj.__module__)
                    if layer is not None:
                        self._patch(mod, attr, self._wrap(obj, layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, name)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self._proxies = {}

    def api(self, layer: str):
        """The harness's handle on a layer: its proxy while installed."""
        return self._proxies.get(layer) or self.modules[layer]

    def _patch(self, target, attr, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrapped_functions(self, mod) -> dict:
        layer = self._layer_of[mod.__name__]
        return {
            attr: self._wrap(obj, layer)
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        }

    def _wrap_class(self, cls, layer: str) -> None:
        if issubclass(cls, (BaseException, tuple)):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, layer))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(member.__func__, layer)
                self._patch(cls, attr, type(member)(wrapped))

    def _wrap(self, fn, layer: str):
        qual = f"{layer}.{fn.__qualname__}"
        after = self._hook(fn, qual)
        engine = qual in _ENGINE
        stack = self._stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                position = 0
                while True:
                    nested = bool(stack) and stack[-1][0] == layer
                    if not nested:
                        span = tracer._open(layer, qual)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if not nested:
                            tracer._close(span)
                    if not nested and after is not None:
                        after(args, kwargs, position)
                    position += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = tracer._open(layer, qual)
            probing = engine and tracer.probe_memory and not tracemalloc.is_tracing()
            if probing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if probing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    cur = tracer.current
                    cur.peak_traced_bytes = max(cur.peak_traced_bytes, peak)
                tracer._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- spans ---

    def _open(self, layer: str, qual: str):
        parent = self._stack[-1] if self._stack else None
        index = -1
        if self.record_spans:
            if len(self.spans) < self.span_limit:
                index = len(self.spans)
                self.spans.append([qual, -1 if parent is None else parent[2], -1, 0.0, 0.0])
            else:
                self.spans_dropped += 1
        root = index if parent is None else parent[3]
        if index >= 0:
            self.spans[index][2] = root
        # [layer, qual, span index, root span index, start, child seconds]
        span = [layer, qual, index, root, time.process_time(), 0.0]
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        end = time.process_time()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order")
        layer, qual, index, _, start, child = span
        duration = end - start
        cur = self.current
        cur.self_s[layer] += duration - child
        cur.inclusive_s[qual] += duration
        cur.calls[layer] += 1
        cur.spans += 1
        if self._stack:
            self._stack[-1][5] += duration
        else:
            cur.root_s += duration
        if index >= 0:
            self.spans[index][3] = start
            self.spans[index][4] = end

    def take_pass(self) -> PassTrace:
        """Return what was recorded since the last call, and start afresh."""
        if self._stack:
            raise RuntimeError("a span is still open at the end of a pass")
        done, self.current = self.current, PassTrace()
        return done

    def write_spans(self, path) -> None:
        """Recorded spans as JSON lines: id, parent, root (the op), name, times."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (qual, parent, root, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": root,
                                     "name": qual, "start": start, "end": end}) + "\n")
            if self.spans_dropped:
                fh.write(json.dumps({"dropped": self.spans_dropped}) + "\n")

    # --- layer counters ---

    def _hook(self, fn, qual: str):
        """Counter update run after a traced call returns, or None."""
        if qual in _ENGINE:
            get_p, get_grid, get_n, get_seed = (
                _arg_getter(fn, k) for k in ("p", "grid", "n_paths", "seed"))
            get_arms, get_anti = _arg_getter(fn, "arms"), _arg_getter(fn, "antithetic")

            def engine(args, kwargs, result):
                grid, n, seed = get_grid(args, kwargs), get_n(args, kwargs), get_seed(args, kwargs)
                arms = len(get_arms(args, kwargs)) if get_arms else 1
                c = self.current.counts
                c["path_sim.simulated_paths"] += n
                c["path_sim.path_steps"] += n * grid.n_steps
                c["path_sim.arm_path_steps"] += n * grid.n_steps * arms
                seen = self.current.scenarios[(get_p(args, kwargs), seed, grid.n_steps)]
                if get_anti(args, kwargs):
                    # path 2j uses keyed draw j, path 2j+1 its mirror image
                    seen[0] = max(seen[0], n // 2)
                    seen[1] = max(seen[1], n // 2)
                else:
                    seen[0] = max(seen[0], n)

            return engine
        if qual == "path_sim.simulate_paths":
            get_p, get_grid, get_seed = (_arg_getter(fn, k) for k in ("p", "grid", "seed"))

            def bundle(args, kwargs, position):
                grid, seed = get_grid(args, kwargs), get_seed(args, kwargs)
                c = self.current.counts
                c["path_sim.per_path_calls"] += 1
                c["path_sim.simulated_paths"] += 1
                c["path_sim.path_steps"] += grid.n_steps
                seen = self.current.scenarios[(get_p(args, kwargs), seed, grid.n_steps)]
                seen[0] = max(seen[0], position + 1)

            return bundle
        if qual in _PER_PATH_API:
            def per_path(args, kwargs, result):
                self.current.counts["path_sim.per_path_calls"] += 1

            return per_path
        if qual in _FILTERS:
            get_s = _arg_getter(fn, "s") or _arg_getter(fn, "s_path")

            def filtered(args, kwargs, result):
                s = np.asarray(get_s(args, kwargs))
                self.current.counts["signal_filter.path_steps"] += (s.shape[0] - 1) * (s.size // s.shape[0])

            return filtered
        if qual.startswith("closed_form."):
            def elements(args, kwargs, result):
                size = result.size if isinstance(result, np.ndarray) else 1
                self.current.counts["closed_form.elements"] += size

            return elements
        if qual.startswith("subscription_timing."):
            get_grid = _arg_getter(fn, "grid")
            if get_grid is None:
                return None

            def profile_points(args, kwargs, result):
                self.current.counts["subscription_timing.profile_points"] += get_grid(args, kwargs).t.size

            return profile_points
        if qual.startswith("verify_oracles."):
            def checks(args, kwargs, result):
                reports = result if isinstance(result, list) else [result]
                for report in reports:
                    if hasattr(report, "passed"):
                        self.current.counts["verify_oracles.checks"] += 1
                        self.current.counts["verify_oracles.checks_failed"] += int(not report.passed)

            return checks
        if qual == "cli.main":
            def command(args, kwargs, result):
                self.current.counts["cli.commands"] += 1

            return command
        return None
