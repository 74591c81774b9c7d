"""Span tracer for the traced run, installed from outside the package.

Every public function of every ``wdsmooth`` module is wrapped at every
binding that refers to it, not only in its home module: ``cli`` and
``certificates`` import ``tangent_dim`` by name, ``cli`` imports
``sg_member`` and ``enumerate_sg``, and the package ``__init__``
re-exports most names. A layer is a package module; a span is one call
of one of its public functions.

Spans are kept in memory as flat arrays (name, parent span, CLI call id,
start, end, and two per-function counters) and written out when the run
ends. Self time is a span's duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: elimination entry points of ``kernels``; their outermost spans count
#: the matrices eliminated (B for a batch) and the cells m*n eliminated
ELIMINATION = ("rref_mod", "rank_mod", "nullity_mod", "nullspace_mod",
               "inv_mod", "batch_nullity_mod")


def _elimination_work(name, args, kwargs):
    shape = np.shape(args[0] if args else kwargs["stack" if name == "batch_nullity_mod" else "a"])
    if name == "batch_nullity_mod":
        return shape[0], shape[0] * shape[1] * shape[2]
    if name == "inv_mod":  # eliminates the augmented [a | I]
        return 1, shape[0] * 2 * shape[1]
    return 1, shape[0] * shape[1]


class Tracer:
    """Wraps the public functions of a package's modules and records spans."""

    def __init__(self, package: str = "wdsmooth"):
        self.package = package
        self.names: list[tuple[str, str]] = []  # (layer, function) per name id
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_call = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_x1 = array("q")
        self.span_x2 = array("q")
        self.call_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._seen_roots: dict[int, object] = {}

    # ------------------------------------------------------------ install

    def _modules(self):
        prefix = self.package + "."
        return {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == self.package or name.startswith(prefix))}

    def install(self) -> None:
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            if modname == self.package:
                continue
            layer = modname[len(self.package) + 1:]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    wrappers[id(obj)] = self._wrap(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, layer: str, func):
        name_id = len(self.names)
        self.names.append((layer, func.__name__))
        note = self._note_for(layer, func.__name__)
        names, parents, calls = self.span_name, self.span_parent, self.span_call
        starts, ends, x1s, x2s = (self.span_start, self.span_end,
                                  self.span_x1, self.span_x2)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            starts.append(0)
            ends.append(0)
            x1s.append(0)
            x2s.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if note is not None:
                x1s[idx], x2s[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def _note_for(self, layer: str, name: str):
        """Per-function counters, read from arguments and results."""
        if layer == "kernels" and name in ELIMINATION:
            return lambda args, kwargs, result: _elimination_work(name, args, kwargs)
        if (layer, name) == ("variety", "stratum_sample"):
            def note(args, kwargs, result):
                count = kwargs["count"] if "count" in kwargs else args[4]
                return count, len(result)
            return note
        if (layer, name) == ("certificates", "epsilon_certificate"):
            return lambda args, kwargs, result: (len(result.failed_checks), 0)
        if (layer, name) == ("rootsys", "build_root_system"):
            seen = self._seen_roots

            def note(args, kwargs, result):
                hit = id(result) in seen
                seen[id(result)] = result  # keep it alive so ids stay unique
                return int(hit), 0
            return note
        return None

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "call": np.frombuffer(self.span_call, dtype=np.int32),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
            "x1": np.frombuffer(self.span_x1, dtype=np.int64),
            "x2": np.frombuffer(self.span_x2, dtype=np.int64),
        }

    def save(self, path) -> None:
        layers = np.array(["%s.%s" % n for n in self.names])
        np.savez(path, names=layers, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every span recorded."""
        a = self.arrays()
        layer_id = {lay: i for i, lay in enumerate(sorted({lay for lay, _ in self.names}))}
        layer_of_name = np.array([layer_id[lay] for lay, _ in self.names], dtype=np.int64)
        name = a["name"].astype(np.int64)
        parent = a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name)) if len(name) else np.zeros(0)
        self_ns = dur - child
        layer = layer_of_name[name]
        # the layer of each span's parent; -1 for a root span
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)

        def of_func(lay: str, func: str) -> np.ndarray:
            ids = [i for i, n in enumerate(self.names) if n == (lay, func)]
            return np.isin(name, ids)

        out: dict[str, float] = {}
        for lay in ("kernels", "variety", "certificates", "cli",
                    "classifier", "orbits", "arith", "rootsys"):
            in_layer = layer == layer_id.get(lay, -2)
            out[lay + ".calls"] = int(in_layer.sum())
            out[lay + ".self_s"] = float(self_ns[in_layer].sum()) / 1e9

        # kernels.calls counts only elimination entry points, and only the
        # outermost one of a nested chain (rank_mod -> rref_mod counts once)
        elim_ids = [i for i, (lay, func) in enumerate(self.names)
                    if lay == "kernels" and func in ELIMINATION]
        outer = np.isin(name, elim_ids) & (parent_layer != layer_id.get("kernels", -2))
        batch = outer & of_func("kernels", "batch_nullity_mod")
        matrices = int(a["x1"][outer].sum())
        cells = int(a["x2"][outer].sum())
        out["kernels.calls"] = int(outer.sum())
        out["kernels.matrices"] = matrices
        out["kernels.cells"] = cells
        out["kernels.ns_per_cell"] = out["kernels.self_s"] * 1e9 / cells if cells else 0.0
        out["kernels.batch_share"] = int(a["x1"][batch].sum()) / matrices if matrices else 0.0

        out["variety.tangent_dim.calls"] = int(of_func("variety", "tangent_dim").sum())
        for func in ("tangent_matrix", "sg_member", "enumerate_sg",
                     "nilpotency_redundancy_check", "stratum_sample"):
            out["variety.%s.self_s" % func] = float(self_ns[of_func("variety", func)].sum()) / 1e9
        sampled = of_func("variety", "stratum_sample")
        requested = int(a["x1"][sampled].sum())
        out["variety.stratum_sample.yield"] = (
            int(a["x2"][sampled].sum()) / requested if requested else 0.0)

        out["certificates.failed_checks"] = int(
            a["x1"][of_func("certificates", "epsilon_certificate")].sum())
        roots = of_func("rootsys", "build_root_system")
        out["rootsys.build_root_system.hit_ratio"] = (
            int(a["x1"][roots].sum()) / int(roots.sum()) if roots.any() else 0.0)
        return out
