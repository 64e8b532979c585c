"""Run-time tracing of wand_gibbs from outside the package.

``Tracer.install`` replaces each public function of the traced modules by a
wrapper that records one span per call: function, start, end, parent span,
operation id and whether it raised.  Every module namespace that binds the
function is patched, because ``cli``, ``scan``, ``chain`` and
``extremality`` import names directly.  Spans stay in memory; ``write``
stores them when the run ends, and ``summary`` derives self times (span
time minus the time of its direct children) and per-function counts.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from array import array

TRACED_MODULES = ("solver", "chain", "extremality", "rootfind", "scan", "oracle", "cli")


def public_functions(module) -> dict:
    """Functions a module defines and exports (its __all__, else non-underscore names)."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {
        name: obj
        for name in names
        if inspect.isfunction(obj := getattr(module, name, None))
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Span recorder for the public functions of ``wand_gibbs`` modules.

    Span i is stored column-wise (typed arrays keep a million spans in tens
    of megabytes): ``name_ids[i]``, ``starts[i]``, ``ends[i]``,
    ``parents[i]`` (-1 for a root span) and ``ops[i]``; ``errors`` holds
    the spans that raised.  ``notes`` maps a qualified name such as
    ``solver.find_asymmetric`` to ``hook(result, arguments)``, whose return
    value is kept in ``span_notes[i]``.
    """

    def __init__(self, notes: dict | None = None):
        self.notes = notes or {}
        self.names: list = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.errors: set = set()
        self.span_notes: dict = {}
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def install(self, package: str = "wand_gibbs", modules=TRACED_MODULES):
        wrappers = {}
        for short in modules:
            module = sys.modules[f"{package}.{short}"]
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def remove(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        stack, clock = self._stack, time.perf_counter
        name_ids, starts, ends, parents, ops = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops)
        hook = self.notes.get(qualname)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors.add(index)
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note = hook(result, bound.arguments)
                if note is not None:
                    self.span_notes[index] = note
            return result

        return wrapper

    def summary(self) -> dict:
        """Per function: calls, errors, self seconds, durations and notes."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        out = {name: {"calls": 0, "errors": 0, "self_s": 0.0, "durations": [], "notes": []}
               for name in self.names}
        entries = [out[name] for name in self.names]
        for index, (name_id, duration) in enumerate(zip(self.name_ids, durations)):
            entry = entries[name_id]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["durations"].append(duration)
        for index in self.errors:
            entries[self.name_ids[index]]["errors"] += 1
        for index, note in sorted(self.span_notes.items()):
            entries[self.name_ids[index]]["notes"].append(note)
        return out

    def write(self, path):
        """All spans as gzip CSV: span, name, start_s, end_s, parent, op, error."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "op", "error"))
            names, errors = self.names, self.errors
            writer.writerows(
                (index, names[name_id], f"{start:.9f}", f"{end:.9f}", parent, op,
                 int(index in errors))
                for index, (name_id, start, end, parent, op) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, self.parents, self.ops))
            )
