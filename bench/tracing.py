"""Wrappers that time and count calls into affinetl's public functions.

A wrapped function is replaced at every module attribute that refers to it,
so calls made inside the package (``fit`` calling ``update_block``) are seen
as well as calls made by the benchmark.  Spans nest: the self time of a
function is its wall time minus the wall time of the wrapped calls made
inside it.  Values stay in memory until the run reports them.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "affinetl"


def replace_everywhere(original, replacement) -> list:
    """Point every attribute of a loaded package module that refers to
    ``original`` at ``replacement``; returns the (module, name) sites."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                sites.append((module, name))
    return sites


class Patches:
    """Function replacements that are undone, newest first, on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> int:
        sites = replace_everywhere(original, replacement)
        self._undo.append((original, sites))
        return len(sites)

    def restore(self) -> None:
        while self._undo:
            original, sites = self._undo.pop()
            for module, name in sites:
                setattr(module, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _solve_mflop(A, b) -> float:
    """Cholesky factor (n^3/3), two triangular solve pairs and one residual
    product (6 n^2 k) for an n x n system with k right-hand sides."""
    n = np.shape(A)[0]
    k = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    return (n**3 / 3.0 + 6.0 * n * n * k) / 1e6


class Tracer:
    """Counts and self times of the layer functions, keyed by metric name."""

    def __init__(self):
        self.values = defaultdict(float)
        self._open = []  # wall time of wrapped children, one entry per open span

    def span(self, name, fn, args, kwargs):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            self.values[name + ".self_s"] += wall - self._open.pop()
            if self._open:
                self._open[-1] += wall

    def wrapper(self, layer: str, fn):
        """A traced stand-in for ``fn`` reporting under ``layer``."""
        v = self.values
        name = fn.__name__

        if name == "solve_spd":
            takes_info = "info" in inspect.signature(fn).parameters

            def traced(A, b, *rest, **kwargs):
                info = rest[0] if rest else kwargs.get("info")
                if takes_info and info is None:
                    info = kwargs["info"] = {}
                v[layer + ".calls"] += 1
                v[layer + ".mflop"] += _solve_mflop(A, b)
                result = self.span(layer, fn, (A, b, *rest), kwargs)
                if info is not None and info.get("jitter", 0.0) > 0.0:
                    v[layer + ".jitter_calls"] += 1
                return result
        elif name == "grid_search_cv":
            def traced(*args, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                fitter = bound.arguments.get("fitter")

                def counted(*a, **k):
                    v[layer + ".fitter_calls"] += 1
                    return fitter(*a, **k)

                if fitter is not None:
                    bound.arguments["fitter"] = counted
                result = self.span(layer, fn, bound.args, bound.kwargs)
                v[layer + ".inf_points"] += sum(
                    1 for row in result.table if not math.isfinite(row[1]))
                return result
        elif name == "run_benchmark":
            def traced(*args, **kwargs):
                config = inspect.signature(fn).bind(*args, **kwargs).arguments["config"]
                procs = tuple(config.procedures)
                cell = f"benchmark.cell.{procs[0]}" if len(procs) == 1 else layer
                return self.span(cell, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                v[layer + ".calls"] += 1
                result = self.span(layer, fn, args, kwargs)
                if name == "gram":
                    v[layer + ".entries"] += int(np.prod(np.asarray(result).shape))
                elif name in ("fit", "fit_calibration"):
                    trace = result[1]
                    v[layer + ".iterations"] += trace.iterations
                    v[layer + ".unconverged.count"] += 0 if trace.converged else 1
                elif name == "decay_rate":
                    v[layer + ".floor_applied.count"] += 1 if result.floor_applied else 0
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self, patches: Patches, functions) -> list[str]:
        """Wrap each (module, function) pair; returns the pairs not found."""
        missing = []
        for modname, fname in functions:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            fn = getattr(module, fname, None) if module is not None else None
            if fn is None:
                missing.append(f"{modname}.{fname}")
                continue
            patches.replace(fn, self.wrapper(f"{modname}.{fname}", fn))
        return missing
