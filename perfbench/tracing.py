"""Spans around the calls into each qufti layer, recorded from outside the package.

The layers are the modules matrices, permanent, analytics, metrology and cli. Every
public function of the four library modules is wrapped, except the two per-factor
coefficient helpers (called 2(n-1) times per probability, each cheaper than a span).
Of cli only `main` is wrapped: its self time is the layer's validation, formatting
and writing. Names bound elsewhere by `from ... import` are rebound too, so kernel
calls made through analytics and metrology are seen.

Spans live in flat arrays (name, start, end, parent, size) until the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "qufti"
LAYERS = ("matrices", "permanent", "analytics", "metrology", "cli")
CLI_WRAPPED = ("main",)
NOT_WRAPPED = {"analytics.coefficient_a", "analytics.coefficient_b"}

# Work sizes read from the arguments: the dimension n of the permanent or the spec.
SIZE_OF = {
    "permanent.permanent_ryser": lambda m, *a, **k: m.shape[0],
    "metrology.fock_output_distribution": lambda spec, *a, **k: spec.n,
}


def _public_functions(module: types.ModuleType, layer: str):
    for name, obj in vars(module).items():
        if (
            isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and (layer != "cli" or name in CLI_WRAPPED)
            and f"{layer}.{name}" not in NOT_WRAPPED
        ):
            yield name, obj


class Tracer:
    """Wraps the layer functions on install() and restores them on uninstall()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.name = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, tuple[types.FunctionType, object]] = {}
        self._bound: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = self.name_ids[qualname] = len(self.names)
        self.names.append(qualname)
        size_of = SIZE_OF.get(qualname)
        start, end, parent, size, name, stack = (
            self.start, self.end, self.parent, self.size, self.name, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = size_of(*args, **kwargs) if size_of else 0
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            size.append(n)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module, layer):
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        # rebind every name in the package that refers to a wrapped function
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one invocation."""
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Copies of the span columns [lo, hi); the arrays keep growing afterwards."""
        return {
            col: np.frombuffer(getattr(self, col)[lo:hi], dtype=dtype)
            for col, dtype in (
                ("name", np.int64), ("start", np.float64), ("end", np.float64),
                ("parent", np.int64), ("size", np.int64),
            )
        }

    def save(self, path, invocation_bounds: list[tuple[int, int]]) -> None:
        """Write every span, with its invocation id, as a NumPy .npz file."""
        cols = self.arrays()
        inv = np.full(len(cols["name"]), -1, dtype=np.int32)
        for k, (lo, hi) in enumerate(invocation_bounds):
            inv[lo:hi] = k
        for col in ("name", "parent", "size"):
            cols[col] = cols[col].astype(np.int32)
        np.savez(path, names=np.array(self.names), invocation=inv, **cols)


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span cover disjoint
    parts of it.
    """
    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def invocation_stats(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers for the spans [lo, hi) of one invocation."""
    cols = tracer.arrays(lo, hi)
    cols["parent"] = np.where(cols["parent"] >= lo, cols["parent"] - lo, -1)
    own = self_times(cols)
    k = len(tracer.names)
    calls = np.bincount(cols["name"], minlength=k)
    busy = np.bincount(cols["name"], weights=own, minlength=k)
    stats: dict[str, float] = {}
    for i, qualname in enumerate(tracer.names):
        stats[f"{qualname}.calls"] = int(calls[i])
        stats[f"{qualname}.self_s"] = float(busy[i])

    def sizes(qualname: str) -> list[int]:
        i = tracer.name_ids.get(qualname, -1)
        return cols["size"][cols["name"] == i].tolist()

    ryser_n = sizes("permanent.permanent_ryser")
    stats["permanent.subsets"] = sum((1 << n) - 1 for n in ryser_n)
    # computed, not counted: each Gray-code step does n complex adds to update the
    # row sums and n complex multiply-adds to form and accumulate their product
    stats["permanent.ops_computed"] = sum(((1 << n) - 1) * 2 * n for n in ryser_n)
    stats["metrology.outcomes"] = sum(math.comb(2 * n - 1, n) for n in sizes("metrology.fock_output_distribution"))
    return stats
