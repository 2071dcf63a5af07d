"""Span tracing around the public functions of each ceqn module.

The tracer wraps module attributes and class methods in place for the span of
a traced pass and restores them afterwards; the package itself is never
edited. Each wrapped call records one span (name, start, end, parent span and
the id of the solver run it belongs to) into flat in-memory arrays, which are
aggregated per name and written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Collects spans from patched callables; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._runs = 0
        self._current_run = 0  # 0 marks spans outside any solver run
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, name: str, fn, after=None, new_run: bool = False):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function that recurses into itself through the patched name
            # (parse_libsvm on a path, for one) is one span, not two
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            outer_run = self._current_run
            if new_run:
                self._runs += 1
                self._current_run = self._runs
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else NO_PARENT)
            run_id.append(self._current_run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                self._current_run = outer_run
            if after is not None:
                after(self, out, args)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, after=None, new_run: bool = False) -> bool:
        """Replace ``owner.attr`` with a traced wrapper until ``unpatch``.

        A missing target is recorded in ``missing`` instead of raising, so a
        renamed function drops its layer's metrics rather than the pass.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        setattr(owner, attr, self._wrap(name, original, after, new_run))
        self._patches.append((owner, attr, original))
        return True

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, skip: dict[str, str] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which the call stack keeps nested inside it. A span named
        ``a`` whose parent is named ``skip[a]`` is left out of ``a``'s
        figures; it still counts as its parent's child.
        """
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], NO_PARENT)
        keep = np.ones(n, dtype=bool)
        for name, outer in (skip or {}).items():
            if name in self._name_ids and outer in self._name_ids:
                keep &= ~((names == self._name_ids[name]) & (parent_name == self._name_ids[outer]))
        k = len(self.names)
        calls = np.bincount(names[keep], minlength=k)
        total = np.bincount(names[keep], weights=dur[keep], minlength=k)
        own = np.bincount(names[keep], weights=(dur - child)[keep], minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span once, as flat arrays plus the name table."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run_id=np.frombuffer(self.run_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
