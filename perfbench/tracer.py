"""In-memory span tracer that wraps the package's functions at run time.

A span is one call of a wrapped function: name, start, end, parent span, run
id and pid, plus a tag and three integers of work that an extractor reads
from the call (operand shapes, rows, steps, ...). Spans are kept in one
flat ``array('d')`` and written out when the benchmark ends.

Wrappers are installed by rebinding every module attribute of the package
that refers to the original function (``from .model import backward`` makes
one binding per importing module) and are removed by restoring each one.
The benchmark's workloads run in one process (``jobs = 1``), so spans are
recorded in this process only.
"""

from __future__ import annotations

import contextlib
import functools
import os
from array import array
from time import perf_counter

import numpy as np

# Column layout of one span record.
FIELDS = ("name", "tag", "id", "parent", "start", "end", "a", "b", "c",
          "pid", "run")
NAME, TAG, ID, PARENT, START, END, A, B, C, PID, RUN = range(len(FIELDS))
WIDTH = len(FIELDS)

_MARK = "__perfbench_original__"


class Tracer:
    """Span store for one process; wrappers close over it."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.buf = array("d")
        self.stack: list[int] = []
        self.next_id = 0
        self.run = 0
        self.pid = os.getpid()
        self.keep: set[int] = set()      # name ids whose last result is kept
        self.kept: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------
    def record(self, name_id, tag, sid, parent, t0, t1, a=0, b=0, c=0):
        self.buf.extend((name_id, tag, sid, parent, t0, t1, a, b, c,
                         self.pid, self.run))

    def keep_result(self, name: str) -> None:
        """Keep the result of each call of ``name`` until ``take`` reads it."""
        self.keep.add(self.index[name])

    def take(self, name: str):
        """The result of the last call of ``name`` (listed in ``keep``)."""
        return self.kept.pop(self.index[name], None)

    def collect(self) -> np.ndarray:
        """The spans recorded since the last collect, as an (n, WIDTH) array."""
        spans = np.frombuffer(self.buf, dtype=np.float64).copy()
        self.buf = array("d")
        return spans.reshape(-1, WIDTH)

    # -- wrapping --------------------------------------------------------
    def install(self, targets, modules) -> None:
        """Wrap each target in every module (or class) that binds it.

        ``targets`` holds (owner, attribute, span name, extractor) tuples;
        the extractor maps (args, kwargs, result) to (tag, a, b, c).
        """
        for owner, attr, name, extract in targets:
            original = owner.__dict__[attr]
            if hasattr(original, _MARK):
                raise RuntimeError(f"{name} is already wrapped")
            wrapper = self._wrap(original, self.index[name], extract)
            holders = [owner] + [m for m in modules
                                 if m is not owner
                                 and m.__dict__.get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original, wrapper))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original, _ = self._patches.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the originals back in place, then re-wrap.

        The benchmark's own checks call package functions; pausing keeps
        those calls out of the trace.
        """
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)
        try:
            yield
        finally:
            for holder, attr, _, wrapper in self._patches:
                setattr(holder, attr, wrapper)

    def _wrap(self, fn, name_id, extract):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                tracer.record(name_id, 0, sid, parent, t0, t1)
                raise
            t1 = perf_counter()
            stack.pop()
            if name_id in tracer.keep:
                tracer.kept[name_id] = result
            if extract is None:
                tracer.record(name_id, 0, sid, parent, t0, t1)
            else:
                tag, a, b, c = extract(args, kwargs, result)
                tracer.record(name_id, tag, sid, parent, t0, t1, a, b, c)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper


def original(fn):
    """The function a wrapper wraps, or ``fn`` itself."""
    return getattr(fn, _MARK, fn)


def wrapped_attributes(modules) -> list[str]:
    """Names of attributes (module or class level) that are still wrappers."""
    left = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{value.__name__}.{a}"
                            for a, v in vars(value).items()
                            if hasattr(v, _MARK))
    return left


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def parent_rows(spans: np.ndarray) -> np.ndarray:
    """Row of each span's parent (same pid), or -1 for a root."""
    row = {(int(p), int(i)): k for k, (p, i) in
           enumerate(zip(spans[:, PID], spans[:, ID]))}
    return np.array([row.get((int(p), int(q)), -1) if q >= 0 else -1
                     for p, q in zip(spans[:, PID], spans[:, PARENT])],
                    dtype=np.int64)


def self_times(spans: np.ndarray, parents: np.ndarray | None = None
               ) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are matched to parents within the same pid; a child's interval
    is clipped to its parent's before the union is taken.
    """
    if parents is None:
        parents = parent_rows(spans)
    out = spans[:, END] - spans[:, START]
    children: dict[int, list[tuple[float, float]]] = {}
    for k in np.flatnonzero(parents >= 0):
        p = parents[k]
        lo = max(spans[k, START], spans[p, START])
        hi = min(spans[k, END], spans[p, END])
        if hi > lo:
            children.setdefault(int(p), []).append((lo, hi))
    for p, intervals in children.items():
        out[p] -= union_length(intervals)
    return out
