"""In-memory spans around calls into the vermatwist modules.

The benchmark's traced run wraps every public function of each layer
module (``vermatwist.<layer>.<name>``), plus the lazily computed inversion
set of a Weyl element, and counts local-ring element constructions.  The
program itself is not edited: the wrappers are bound in place of the
originals in every ``vermatwist`` module namespace, so calls between
modules are traced too.

Spans stay in memory in compact arrays and are aggregated once, at the
end, into per-function call counts, inclusive time and self time (the
span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("rootsystem", "weyl", "characters", "jantzen", "localring", "sl2lab", "cli")


class Tracer:
    """Records spans while ``enabled``; checks and input preparation run with it off."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Bind traced wrappers in place of the public functions of every layer."""
        modules = {layer: importlib.import_module(f"vermatwist.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "vermatwist" and not modname.startswith("vermatwist."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])

        # first touch of an element's inversion set is a cached property
        weyl_element = modules["weyl"].WeylElement
        prop = vars(weyl_element)["inversions"]
        traced_prop = functools.cached_property(
            self.wrap("weyl.WeylElement.inversions", prop.func)
        )
        traced_prop.__set_name__(weyl_element, "inversions")
        weyl_element.inversions = traced_prop

        # every local ring element is normalised once, on construction
        elem = modules["localring"].LocalRingElem
        post_init = elem.__post_init__

        def counted_post_init(obj) -> None:
            if self.enabled:
                self.count("localring.entries")
            post_init(obj)

        elem.__post_init__ = counted_post_init

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i, name_id in enumerate(self.name_of):
            row = out.setdefault(self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
        return out

    def __len__(self) -> int:
        return len(self.start)
