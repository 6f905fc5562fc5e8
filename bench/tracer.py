"""Spans around porohom's layers, recorded from outside the package.

`Tracer.install` replaces each target function with a wrapper that records a
span (name, start, end, parent span id, run id) plus the layer's counters.
A function imported by name into several modules is replaced in every
`porohom.*` module that binds the same object; methods are replaced on their
class.  A target that no longer exists is reported as absent instead of
failing the run.  `Tracer.uninstall` restores the originals.  Spans stay in
memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: int
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    child_calls: Counter = field(default_factory=Counter)
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    target: str  # attribute path inside `module`, e.g. "MicroSolver.step"
    counters: tuple = ()
    count: Callable | None = None  # (span, bound arguments, result) -> {counter: value}


def _run_to_steady_counts(span, bound, result):
    steps = span.child_calls["microsim.step"]
    return {"steps": steps, "converged": int(steps < bound.arguments["max_steps"])}


LAYERS = (
    Layer("operators.assemble_vector_form", "porohom.operators", "assemble_vector_form",
          ("nnz",), lambda s, b, r: {"nnz": r.nnz}),
    Layer("solvers.cg_solve", "porohom.solvers", "cg_solve",
          ("iterations", "not_converged"),
          lambda s, b, r: {"iterations": r.iterations, "not_converged": int(not r.converged)}),
    Layer("solvers.inverse_power_iteration", "porohom.solvers", "inverse_power_iteration",
          ("outer_iterations",), lambda s, b, r: {"outer_iterations": r[2]}),
    Layer("microsim.MicroSolver.__init__", "porohom.microsim", "MicroSolver.__init__"),
    Layer("microsim.step", "porohom.microsim", "MicroSolver.step"),
    Layer("microsim.run_to_steady", "porohom.microsim", "MicroSolver.run_to_steady",
          ("steps", "converged"), _run_to_steady_counts),
    Layer("microsim.splu", "porohom.microsim", "spla.splu"),
    Layer("transport.advect_upwind", "porohom.transport", "advect_upwind"),
    Layer("transport.update_viscosity", "porohom.transport", "update_viscosity"),
    Layer("transport.interface_summary", "porohom.transport", "interface_summary"),
    Layer("mollifier.mollify", "porohom.mollifier", "mollify",
          ("points",), lambda s, b, r: {"points": b.arguments["u"].values.size}),
    Layer("rng.XorShift64Star.array", "porohom.rng", "XorShift64Star.array",
          ("values",), lambda s, b, r: {"values": r.size}),
    Layer("analysis.poincare_constant", "porohom.analysis", "poincare_constant"),
    Layer("analysis.extend_solid", "porohom.analysis", "extend_solid"),
    Layer("homogenize.permeability_from_mask", "porohom.homogenize", "permeability_from_mask"),
    Layer("homogenize.elasticity_from_mask", "porohom.homogenize", "elasticity_from_mask"),
    Layer("homogenize.darcy_macro_solve", "porohom.homogenize", "darcy_macro_solve"),
    Layer("homogenize.compare_micro_macro", "porohom.homogenize", "compare_micro_macro"),
    Layer("geometry.build_phase_mask", "porohom.geometry", "build_phase_mask"),
    Layer("grid.save_field", "porohom.grid", "save_field",
          ("bytes",), lambda s, b, r: {"bytes": os.path.getsize(b.arguments["path"])}),
)


class _Proxy:
    """Stands in for a foreign module inside one porohom module, with one
    attribute replaced (used for `porohom.microsim.spla.splu`)."""

    def __init__(self, target, name, value):
        self._target = target
        setattr(self, name, value)

    def __getattr__(self, item):
        return getattr(self._target, item)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.unit = 0
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent.id if parent else None, self.unit,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start
                parent.child_calls[name] += 1

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn) if layer.count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer.name) as sp:
                result = fn(*args, **kwargs)
            if layer.count is not None:  # outside the span, so the layer's time excludes it
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.counts = layer.count(sp, bound, result)
                except (AttributeError, KeyError, TypeError, IndexError, OSError) as exc:
                    self.count_errors.add(f"{layer.name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def install(self):
        """Wrap every layer; `uninstall` puts the original objects back."""
        self.absent = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(layer.module)
                *owner_path, attr = layer.target.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            elif owner is module:
                for name, mod in list(sys.modules.items()):
                    if mod is not None and (name == "porohom" or name.startswith("porohom.")):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)
            else:  # a foreign module held by `module`, e.g. scipy.sparse.linalg
                self._set(module, owner_path[-1], _Proxy(owner, attr, wrapper))

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            setattr(*self._undo.pop())

    # -- reading ----------------------------------------------------------

    def unit_stats(self, unit: int, extra_layers=()) -> dict:
        """Flat `<layer>.<stat>` numbers over the spans of one workload unit.

        Every known layer gets calls, s (inclusive), self_s, p50_ms, p90_ms and
        its counters, all zero when it was not called or is absent."""
        by_layer = {name: [] for name in [layer.name for layer in LAYERS] + list(extra_layers)}
        for sp in self.spans:
            if sp.unit == unit and sp.name in by_layer:
                by_layer[sp.name].append(sp)
        counters = {layer.name: layer.counters for layer in LAYERS}
        out = {}
        for name, spans in by_layer.items():
            durs = [sp.end - sp.start for sp in spans]
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.s"] = sum(durs)
            out[f"{name}.self_s"] = sum(sp.end - sp.start - sp.child_s for sp in spans)
            p50, p90 = _percentiles_ms(durs)
            out[f"{name}.p50_ms"] = p50
            out[f"{name}.p90_ms"] = p90
            for c in counters.get(name, ()):
                out[f"{name}.{c}"] = sum(sp.counts.get(c, 0) for sp in spans)
        calls = out["microsim.run_to_steady.calls"]
        out["microsim.run_to_steady.converged_ratio"] = (
            out["microsim.run_to_steady.converged"] / calls if calls else 0.0)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "absent": self.absent,
                "count_errors": sorted(self.count_errors),
                "fields": ["id", "name", "start", "end", "parent", "run_id", "unit"],
                "spans": [[sp.id, sp.name, sp.start, sp.end, sp.parent, self.run_id, sp.unit]
                          for sp in self.spans],
            }, fh)


def _percentiles_ms(durs):
    if not durs:
        return 0.0, 0.0
    if len(durs) == 1:
        return durs[0] * 1e3, durs[0] * 1e3
    deciles = statistics.quantiles(durs, n=10)
    return statistics.median(durs) * 1e3, deciles[8] * 1e3
