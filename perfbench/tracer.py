"""Outside-in layer tracing for the convmax benchmark.

Each convmax module is a layer.  ``Tracer.install`` wraps every public function
of each layer, plus the scipy entry points ``minimize`` and ``linprog`` that
``minimax`` calls, and patches each wrapped name in every module namespace
where it is looked up (``convmax.cli.enumerate_verify`` as well as
``convmax.sidon.enumerate_verify``).  The wrappers record one span per call:
name, start, end, parent span and run id.  Spans stay in memory, in flat
arrays, until ``write`` saves them once at the end of the run.

A few counts are *computed* from inputs or returned results rather than
observed: ``gridfn.convolve.mults`` (nnz(f) * nnz(g)), ``minimax.grid_oracle.points``,
the SLSQP/LP ``nit`` and ``success_ratio``, and ``cli.out_bytes``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import types
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "sidon", "gridfn", "minimax", "pb", "constants", "continuous", "selftest")

#: Layer names for spans that are not convmax module functions.
SCIPY = "scipy"
CALLBACK = "minimax.callback"   # constraint fun/jac callables passed to minimize

COMPUTED = ("gridfn.convolve.mults", "minimax.grid_oracle.points", "minimax.slsqp.nit",
            "minimax.slsqp.success_ratio", "minimax.linprog.nit", "cli.out_bytes")


def _nnz(f) -> int:
    return sum(1 for v in f.values if v)


def _out_bytes(argv) -> int:
    argv = list(argv)
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


class Tracer:
    """Spans and computed counts of the traced passes of one run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.run_id = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def span(self, name: str, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span; ``after(args, kwargs, result)`` adds counts."""
        nid = self._name_id(name, layer)

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, value: float) -> None:
        self.counts[key] += value

    # -- hooks for computed counts -------------------------------------------

    def _after_convolve(self, args, kwargs, result) -> None:
        self._count("gridfn.convolve.mults", _nnz(args[0]) * _nnz(args[1]))

    def _after_grid_oracle(self, args, kwargs, result) -> None:
        self._count("minimax.grid_oracle.points", result.points_evaluated)

    def _after_cli_run(self, args, kwargs, result) -> None:
        self._count("cli.out_bytes", _out_bytes(args[0]))

    def _solver_counts(self, prefix: str) -> Callable:
        def after(args, kwargs, result) -> None:
            self._count(prefix + ".nit", getattr(result, "nit", 0) or 0)
            self._count(prefix + ".successes", bool(result.success))
        return after

    def _traced_minimize(self, minimize: Callable) -> Callable:
        """minimize with each constraint's fun/jac wrapped as a callback span."""

        def traced(fun, x0, *args, constraints=(), **kwargs):
            wrapped = []
            for con in constraints:
                con = dict(con)
                con["fun"] = self.span("minimax.slsqp.fun", CALLBACK, con["fun"])
                if "jac" in con:
                    con["jac"] = self.span("minimax.slsqp.jac", CALLBACK, con["jac"])
                wrapped.append(con)
            return minimize(fun, x0, *args, constraints=wrapped, **kwargs)

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        import convmax

        modules = {layer: importlib.import_module(f"convmax.{layer}") for layer in LAYERS}
        after = {
            "gridfn.convolve": self._after_convolve,
            "minimax.grid_oracle": self._after_grid_oracle,
            "cli.run": self._after_cli_run,
        }
        replace: Dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replace[obj] = self.span(name, layer, obj, after.get(name))
        mm = modules["minimax"]
        replace[mm.minimize] = self.span("minimax.slsqp", SCIPY,
                                         self._traced_minimize(mm.minimize),
                                         self._solver_counts("minimax.slsqp"))
        replace[mm.linprog] = self.span("minimax.linprog", SCIPY, mm.linprog,
                                        self._solver_counts("minimax.linprog"))
        for mod in (convmax, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and per-layer self seconds, over all spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Dict[str, int] = defaultdict(int)
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        entry_calls: Dict[str, int] = defaultdict(int)
        entry_s: Dict[str, float] = defaultdict(float)
        self_by_name: Dict[str, float] = defaultdict(float)
        names, layers = self.names, self.layer_of
        for i in range(n):
            nid = self.name[i]
            name, layer = names[nid], layers[nid]
            p = self.parent[i]
            calls[name] += 1
            if p < 0 or self.name[p] != nid:        # outermost call of this name
                incl[name] += dur[i]
            if p < 0 or layers[self.name[p]] != layer:   # entry into this layer
                entry_calls[layer] += 1
                entry_s[layer] += dur[i]
            own = dur[i] - child[i]
            self_s[layer] += own
            self_by_name[name] += own
        return {"calls": calls, "s": incl, "self_s": self_s, "self_by_name": self_by_name,
                "entry_calls": entry_calls, "entry_s": entry_s}

    def write(self, path: str, header: dict) -> None:
        """Save the header, computed counts and every span (times relative to the first)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            head = dict(header, names=self.names, layers=self.layer_of,
                        counts=dict(self.counts), computed=list(COMPUTED),
                        span_fields=["id", "parent", "name", "start_s", "end_s", "run"])
            fh.write(json.dumps(head) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{i} {self.parent[i]} {self.name[i]} "
                         f"{self.start[i] - t0:.7f} {self.end[i] - t0:.7f} {self.run[i]}\n")
