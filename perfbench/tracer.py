"""Span tracer that wraps the public functions of the mcycle modules from
outside the package.

Every public module-level function of the traced modules is replaced by a
wrapper that records a span (name, start, end, parent span, op id). The
wrapper is bound under every name the function has in any loaded mcycle
module, so calls through imported names (``mcycle.cycle.humbert5_conic``)
are traced too. mpmath's ``pslq``, which ``mcycle.arith`` reaches through
the ``mp`` context, is traced as ``arith.pslq``. Spans stay in memory; the
caller writes them once at the end.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "kummer", "geometry", "cycle", "arith", "nslattice", "greens")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span: [name_id, start, end, parent, op_id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_result=None):
        """Return `fn` wrapped so each call records one span under `name`.
        `on_result(result)` may return a counter name to increment."""
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                key = on_result(result)
                if key is not None:
                    counts[key] = counts.get(key, 0) + 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module and rebind them
        under all their names in loaded mcycle modules."""
        import mpmath

        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "mcycle" or n.startswith("mcycle."))}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules["mcycle." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = _found_counter if name == "arith.recognize_algebraic" else None
                replace[id(obj)] = self.span(name, obj, hook)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        mpmath.mp.pslq = self.span("arith.pslq", mpmath.mp.pslq)

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: (calls, inclusive seconds, self seconds). Self time
        is a span's duration minus the durations of its direct children;
        spans nest strictly because the benchmark runs one op at a time."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        selfs: dict[str, float] = {}
        for sid, (nid, t0, t1, parent, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            # no traced function calls itself, so durations add up
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child[sid]
        return calls, incl, selfs

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for nid, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def _found_counter(result):
    return "arith.recognize.found" if result is not None else None
