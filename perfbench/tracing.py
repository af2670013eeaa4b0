"""Span recorder for the traced benchmark run, installed from outside disentsim.

``Tracer.install`` wraps every public function of the traced modules and the
public methods of the classes they define, then puts each wrapper wherever a
disentsim module holds the original under any name (``cli`` and ``twospin``
import ``steady_state``, ``run_sweep``, ``integrate_master`` and
``integrate_sle_ensemble`` by name; methods are wrapped on their class).
``uninstall`` puts the originals back, so traced and untraced rounds can
alternate in one process.

A span is ``[name id, start, end, parent span index]``, kept in memory and
written out at the end.  A function's self time is its span's duration minus
the durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("config", "twospin", "dynamics", "entangle", "bases", "output", "svgplot", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"disentsim.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "disentsim" and not name.startswith("disentsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` that just passed out of every open span."""
        for idx in self._stack:
            self.spans[idx][1] += seconds

    def layer_totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per function, over the spans from index ``first`` on (whole calls,
        since no span is open between rounds): calls, inclusive and self seconds."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent - first] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (nid, start, end, _), inner in zip(spans, child):
            entry = totals.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return totals

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}),
                        encoding="utf-8")
