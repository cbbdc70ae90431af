"""Spans around the calls into each facetproc module, from outside it.

Tracer wraps every public function of the package's modules, in every
module namespace that bound it by name, so calls made inside the package
(say ``model.g_increment`` or ``harness.run_chain``) are caught too.  It
also wraps ``FacetPattern.with_facet`` and ``FacetPattern.without_index``,
which count pattern rebuilds.  Spans (name, start, end, parent) are kept in
flat arrays in memory and summarised or written out when the run ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("geometry", "ustat", "model", "sampler", "correlation", "moments",
          "harness", "cli")
PATTERN_METHODS = ("with_facet", "without_index")


def _result_cells(name, args, result):
    """Grid cells summed by a series or bound call, from its n_max."""
    if name == "correlation.rho_series_counts":
        return (result.n_max + 1) ** (args[0].d - 1)
    if name == "correlation.rho_bounds":
        return (result.n_max + 1) ** args[0].d
    return 0


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.series_cells = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = (self.name_id, self.parent, self.start,
                                      self.end)
        stack = self._stack
        clock = time.perf_counter
        inspect_result = name in ("correlation.rho_series_counts",
                                  "correlation.rho_bounds")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if inspect_result:
                self.series_cells += _result_cells(name, args, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [importlib.import_module(f"facetproc.{m}") for m in LAYERS]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{mod.__name__.split('.')[-1]}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        package = importlib.import_module("facetproc")
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        pattern = importlib.import_module("facetproc.ustat").FacetPattern
        for attr in PATTERN_METHODS:
            fn = vars(pattern)[attr]
            self._patches.append((pattern, attr, fn))
            setattr(pattern, attr, self._wrap(f"ustat.FacetPattern.{attr}",
                                              fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        return False

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as arrays: name index, parent index, start, end."""
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
