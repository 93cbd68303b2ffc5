"""In-memory span tracing of emlink's public functions.

Tracer.install() wraps every public function of the emlink modules at each
site that binds it (the defining module, every module that imported the
name with `from .x import f`, and the package namespace), so calls between
modules are recorded too.  uninstall() puts the originals back.

A span holds the name, start, end, parent span, operation id and the
process's peak RSS (getrusage maxrss) at its end.  Self time is the span's
duration minus the durations of its child spans; calls are synchronous, so
children never overlap.  Counters derived from argument and result sizes are
recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("specfun", "geometry", "greens", "channel", "modes", "capacity", "config", "cli")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _channel_counts(src, rcv, grid):
    n_dir, n_src, n_rcv = len(grid.weights), len(src.points), len(rcv.points)
    return {
        "channel.exp_count": n_dir * (n_src + n_rcv),
        "channel.factor_bytes": 16 * n_dir * (n_src + n_rcv),  # complex128 plane-wave factors
    }


def _kernel_counts(args, kwargs, result):
    src, rcv, _geometry, grid = args[:4]
    counts = _channel_counts(src, rcv, grid)
    counts["channel.gemm_flop"] = 8 * len(rcv.points) * len(grid.weights) * len(src.points)
    return counts


def _propagate_counts(args, kwargs, result):
    return _channel_counts(args[1], args[2], args[4])


def _bytes_written(args, kwargs, result):
    return {"cli.bytes_written": sum(Path(p).stat().st_size for p in result)}


# Counters computed at a span's end from its arguments and result.
COUNTERS = {
    "channel.kernel_matrix": _kernel_counts,
    "channel.propagate_current": _propagate_counts,
    "geometry.cap_direction_grid": lambda a, kw, r: {"geometry.n_directions": len(r.weights)},
    "geometry.tensor_grid": lambda a, kw, r: {"geometry.n_surface_points": len(r.points)},
    "modes.solve_modes": lambda a, kw, r: {
        "modes.basis_size": len(r.modes.basis),
        "modes.clamped_count": r.modes.clamped_count,
    },
    "cli.cmd_translator": _bytes_written,
    "cli.cmd_sgf_error": _bytes_written,
    "cli.cmd_modes": _bytes_written,
    "cli.cmd_capacity": _bytes_written,
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op_id, maxrss_mb]
        self.counts = defaultdict(lambda: defaultdict(int))  # op_id -> counter -> value
        self._stack = []
        self._op = None
        self._patched = []       # (module, attribute, original function)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, self._op, maxrss_mb()]
            counts = self.counts[self._op]
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        namespaces = [importlib.import_module("emlink")]
        namespaces += [importlib.import_module(f"emlink.{m}") for m in MODULES]
        wrappers = {}
        for module in namespaces[1:]:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{module.__name__.split('.')[-1]}.{attr}", obj)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def operation(self, name: str, op_id: str):
        """Root span around one operation; every span inside carries op_id."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, None, op_id, maxrss_mb()]
            self._op = None

    def self_times(self) -> dict:
        """op_id -> span name -> summed self time (s)."""
        child = defaultdict(float)
        for _name, start, end, parent, _op, _rss in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _parent, op, _rss) in enumerate(self.spans):
            out[op][name] += end - start - child[index]
        return out
