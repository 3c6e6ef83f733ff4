"""In-memory span tracer that wraps the public functions of polystress from
outside the library.

A span records its name, start, end, parent span and the counts read off
the call's result.  Wrapping replaces every binding of a function in the
loaded ``polystress`` modules (``bench`` and ``timestepper`` import solver
and assembly functions by name), so calls made inside the library are
traced as well.  A target that does not exist is recorded as absent rather
than raising, so the tracer keeps working while the library is refactored.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_cover: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_cover


def result_counts(result) -> dict:
    """Counts read off a traced call's result: solver reports, condition
    estimates and time-stepping report lists."""
    report = result[-1] if isinstance(result, tuple) and result else result
    if isinstance(report, list) and report and hasattr(report[0], "iterations"):
        return {"steps": len(report),
                "iterations": sum(r.iterations for r in report),
                "failed": sum(not r.converged for r in report)}
    if hasattr(report, "iterations") and hasattr(report, "converged"):
        counts = {"iterations": report.iterations, "failed": int(not report.converged)}
        if getattr(report, "true_residual", None) is not None:
            counts["true_residual"] = report.true_residual
        return counts
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counts: dict) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.counts = counts
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_cover += span.duration

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, {})

    def _wrapper(self, name: str, fn, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}[{label(args, kwargs)}]" if label else name
            idx = self._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, result_counts(result))
        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (module, dotted attribute, span name, label) target.

        ``label(args, kwargs)`` optionally refines the span name per call,
        e.g. by Block-Jacobi layout.
        """
        for module_name, attr, name, label in targets:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None or not callable(original):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self._wrapper(name, original, label)
            if owner_name:
                # methods: patch the class and any alias of the same function
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, traced)
            else:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "polystress":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def descendants(self, root: int) -> list[Span]:
        """Spans nested (at any depth) under span index ``root``."""
        inside = {root}
        out = []
        for idx in range(root + 1, len(self.spans)):
            span = self.spans[idx]
            if span.parent in inside:
                inside.add(idx)
                out.append(span)
        return out

    def root(self, name: str) -> int:
        return next(i for i, s in enumerate(self.spans) if s.name == name and s.parent is None)

    @staticmethod
    def summary(spans) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, median call and
        summed counts."""
        by_name: dict[str, list[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        out = {}
        for name, group in sorted(by_name.items()):
            counts: dict = {}
            for span in group:
                for key, value in span.counts.items():
                    if key == "true_residual":
                        counts[key] = max(counts.get(key, 0.0), value)
                    else:
                        counts[key] = counts.get(key, 0) + value
            out[name] = {
                "calls": len(group),
                "total_s": sum(s.duration for s in group),
                "self_s": sum(s.self_time for s in group),
                "median_s": statistics.median(s.duration for s in group),
                **counts,
            }
        return out
