"""Spans and counters recorded from outside the library.

:class:`Instrumentation` swaps selected public functions of ``esphere`` for
timing wrappers, in every module namespace that binds them, and restores the
originals afterwards. Nothing inside ``src/`` is edited. Each call becomes a
span with a name, a start, an end, the span that caused it and the id of the
benchmark operation it belongs to. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name): public functions timed as layers.
SPAN_TARGETS = [
    ("esphere.singlet", "simulate", "singlet.simulate"),
    ("esphere.singlet", "joint_distribution_analytic", "singlet.joint_distribution_analytic"),
    ("esphere.singlet", "experiment_triple", "singlet.experiment_triple"),
    ("esphere.sphere", "outcome_probability", "sphere.outcome_probability"),
    ("esphere.operational", "classify", "operational.classify"),
    ("esphere.analysis", "scan", "analysis.scan"),
    ("esphere.analysis", "chsh", "analysis.chsh"),
    ("esphere.analysis", "correlation", "analysis.correlation"),
    ("esphere.cli", "main", "cli.main"),
    ("esphere.cli", "build_parser", "cli.build_parser"),
]
# (module, class, classmethod, span name)
CLASSMETHOD_TARGETS = [("esphere.sphere", "Direction", "from_angles", "sphere.Direction.from_angles")]
# Constructions of these probability objects are counted, not timed.
PROB_CLASSES = [("esphere.operational", "OutcomeProb"), ("esphere.operational", "JointOutcomeProb")]
PROB_COUNTER = "operational.prob_objects"
CHECK_COUNTER = "validation.checks"
ROOT_SPAN = "op"


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, list[int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def begin(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=json.dumps(self.names),
            counters=json.dumps({k: v[0] for k, v in self.counters.items()}),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def self_times(self, op_tags: dict[int, str] | None = None) -> dict[tuple[str, str], tuple[int, float]]:
        """``(span name, op tag) -> (calls, self seconds)``.

        Self time is a span's duration minus the time its direct child spans
        cover. ``op_tags`` labels operations (say, by output format); spans
        of untagged operations get the tag ``""``.
        """
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        names = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        ops = np.frombuffer(self.op, dtype=np.int32).astype(np.int64)
        tags = op_tags or {}
        tag_list = sorted(set(tags.values()) | {""})
        tag_of_op = np.zeros(int(ops.max()) + 2, dtype=np.int64)  # ops start at -1
        for op_id, tag in tags.items():
            if op_id + 1 < tag_of_op.size:
                tag_of_op[op_id + 1] = tag_list.index(tag)
        key = names * len(tag_list) + tag_of_op[ops + 1]
        size = len(self.names) * len(tag_list)
        calls = np.bincount(key, minlength=size)
        secs = np.bincount(key, weights=own, minlength=size)
        return {
            (self.names[k // len(tag_list)], tag_list[k % len(tag_list)]): (int(calls[k]), float(secs[k]))
            for k in np.flatnonzero(calls)
        }


def _span_wrapper(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(sid)

    return wrapper


def _count_wrapper(cell: list[int], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


class MemoryPeaks:
    """tracemalloc peaks of the scan and of the CLI's output stage.

    ``analysis.scan``: peak traced memory during the call above what was
    traced when it began. ``cli.emit``: peak from the end of the ``cmd_*``
    call to the end of ``main``, above what was traced when ``main`` began;
    that is the rendering stage, with the rows it renders still alive.
    """

    def __init__(self) -> None:
        self.peaks: dict[str, float] = {"analysis.scan": 0.0, "cli.emit": 0.0}
        self._main_base = 0

    def _keep(self, key: str, base: int) -> None:
        self.peaks[key] = max(self.peaks[key], (tracemalloc.get_traced_memory()[1] - base) / 2**20)

    def scan(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self._keep("analysis.scan", base)

        return wrapper

    def main(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._main_base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self._keep("cli.emit", self._main_base)

        return wrapper

    def command(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tracemalloc.reset_peak()

        return wrapper


class Instrumentation:
    """Swap library callables for wrappers; :meth:`restore` puts them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "esphere" or name.startswith("esphere."))]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` in every esphere namespace that binds it."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def classmethod(self, module: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))

    def post_init(self, module: str, cls_name: str, make) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is not None and "__post_init__" in cls.__dict__:
            self._set(cls, "__post_init__", make(cls.__dict__["__post_init__"]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def trace(self, rec: Recorder) -> "Instrumentation":
        """Spans around the layer functions, counters on probability objects and checks."""
        for module, attr, name in SPAN_TARGETS:
            self.function(module, attr, lambda fn, name=name: _span_wrapper(rec, name, fn))
        cli = sys.modules.get("esphere.cli")
        for attr in sorted(vars(cli) if cli else ()):
            if attr.startswith("cmd_"):
                self.function("esphere.cli", attr,
                              lambda fn, name=f"cli.{attr}": _span_wrapper(rec, name, fn))
        for module, cls_name, attr, name in CLASSMETHOD_TARGETS:
            self.classmethod(module, cls_name, attr, lambda fn, name=name: _span_wrapper(rec, name, fn))
        prob_cell = rec.counter(PROB_COUNTER)
        for module, cls_name in PROB_CLASSES:
            self.post_init(module, cls_name, lambda fn: _count_wrapper(prob_cell, fn))
        check_cell = rec.counter(CHECK_COUNTER)
        validation = sys.modules.get("esphere.validation")
        for attr in sorted(vars(validation) if validation else ()):
            if attr.startswith("check_") and callable(getattr(validation, attr)):
                self.function("esphere.validation", attr, lambda fn: _count_wrapper(check_cell, fn))
        return self

    def memory(self, peaks: MemoryPeaks) -> "Instrumentation":
        """tracemalloc peak probes only; no spans."""
        self.function("esphere.analysis", "scan", peaks.scan)
        self.function("esphere.cli", "main", peaks.main)
        cli = sys.modules.get("esphere.cli")
        for attr in sorted(vars(cli) if cli else ()):
            if attr.startswith("cmd_"):
                self.function("esphere.cli", attr, peaks.command)
        return self
