"""Span tracer that times the biphoton modules from outside.

`Tracer.install` replaces every public function of the given modules with a
wrapper that records a span, and patches the constructor and public methods
of every public class defined there. A function that another module imported
with `from ... import` is rebound in that module too (`tomo.concurrence`,
`cli.concurrence`, `bell.coincidence_probability`, ...), so those calls are
traced under the defining module's name.

Spans live in flat in-memory arrays (name, start, end, parent, op) and are
written out with `write` when the run ends. A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array

import numpy as np

#: Name of the span the benchmark opens around each op.
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span named `name` per call.

        `on_result`, when given, receives each return value after the span
        has closed.
        """
        nid = self._intern(name)
        clock = time.perf_counter
        names, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, modules, on_result=None) -> None:
        """Trace the public callables of `modules`.

        `on_result` maps span names to result observers (see `wrap`).
        """
        on_result = on_result or {}
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, on_result.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _install_class(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                name = prefix
            elif attr.startswith("_"):
                continue
            else:
                name = f"{prefix}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with duration and self time."""
        name = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        return {"name": name, "parent": parent, "start": start, "end": end,
                "duration": duration, "self": duration - child}

    def table(self, spans: dict) -> dict:
        """calls, total_s and self_s for every traced name (zero if never called)."""
        n = len(self.names)
        calls = np.bincount(spans["name"], minlength=n)
        total = np.bincount(spans["name"], weights=spans["duration"], minlength=n)
        own = np.bincount(spans["name"], weights=spans["self"], minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])} for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, op, parent, name, start_s, end_s."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,op,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n")
