"""Outside-in tracing of qblue: spans around each public function, and
per-module Python call counts.

`Tracer.install()` rebinds the named public functions of the qblue modules
to a timing wrapper, in every qblue module namespace that binds them (the
package's re-exports and the names `cli` imports included); `uninstall()`
puts the originals back.  Nothing under src/ is edited.  A wrapper that is
entered while its own function is already open calls straight through, so
a recursive function records only its outermost call.

Spans stay in flat arrays until the run ends.  Self time is a span's
duration minus the durations of its direct child spans, minus the
wrapper's own cost for each child (measured at install time), since that
cost falls inside the parent's span.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("parser", "expr", "typecheck", "encodings", "pauli", "trotter",
          "circuit", "linalg", "fock", "cli")


def qblue_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qblue" or name.startswith("qblue."))]


def _layer(fn) -> str:
    return fn.__module__.split(".", 1)[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.results: dict[str, list] = {}   # span name -> observed figures
        self.child_cost = 0.0   # seconds a child span adds to its parent
        self._stack: list[int] = []
        self._open: list[bool] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, names, observers: dict):
        """Wrap the public qblue functions whose span name ("layer.func") is
        in names.  observers maps a span name to a function of the call's
        result whose return value is kept."""
        self.child_cost = self._measure_child_cost()
        wrappers = {}
        for module in qblue_modules():
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value)
                        and value.__module__.startswith("qblue.")
                        and not value.__name__.startswith("_")):
                    continue
                name = f"{_layer(value)}.{value.__name__}"
                if name not in names:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, name,
                                                 observers.get(name))
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def _measure_child_cost(self, calls=20000) -> float:
        """Median over 5 trials of the time a wrapped call of an empty
        function spends outside its own span, less an empty loop's."""
        def empty():
            return None
        wrapped = self._wrap(empty, "trace.empty", None)
        clock = time.perf_counter
        trials = []
        for _ in range(5):
            first = len(self.span_name)
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            inside = sum(self.span_end[i] - self.span_start[i]
                         for i in range(first, len(self.span_name)))
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_op):
                del arr[first:]
            trials.append((t2 - t1 - inside - (t1 - t0)) / calls)
        return max(0.0, statistics.median(trials))

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name, observe):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._open.append(False)
        kept = self.results.setdefault(name, [])
        stack, is_open = self._stack, self._open
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter
        home, key = fn.__globals__, fn.__name__

        def wrapper(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            # While open, the defining module binds the original again, so
            # recursion inside it pays for no wrapper frame.
            rebound = home.get(key) is wrapper
            if rebound:
                home[key] = fn
            idx = len(names)
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            stack.append(idx)
            is_open[nid] = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if rebound:
                    home[key] = wrapper
                is_open[nid] = False
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                kept.append((self.op, observe(result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def per_op(self):
        """{op id: {span name: [calls, total s, self s]}}."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += (self.span_end[i] - self.span_start[i]
                             + self.child_cost)
        out: dict[int, dict] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out.setdefault(self.span_op[i], {}).setdefault(
                self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += max(0.0, dur - child[i])
        return out

    def write(self, path: Path):
        """Spans as TSV (name, start, end, parent index, op id), gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}\n")


def count_python_calls(run) -> Counter:
    """Run `run()` under sys.setprofile and count Python-level calls per
    callee qblue module (C functions are not counted)."""
    files = {}
    for module in qblue_modules():
        path = getattr(module, "__file__", None)
        if path and module.__name__ != "qblue":
            files[path] = module.__name__.split(".", 1)[1]
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            layer = files.get(frame.f_code.co_filename)
            if layer is not None:
                counts[layer] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def median(values, default=0.0):
    return statistics.median(values) if values else default
