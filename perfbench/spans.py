"""Span tracing from outside the program.

The tracer replaces a function with a timing wrapper where its caller looks
it up (for example `metactc.model.ctc_loss`, the name model.py calls), so
the program's source stays untouched.  Spans (name, phase, start, end,
parent) are kept in flat in-memory arrays and written out once, when the run
ends.  The phase is whatever the caller set in `Tracer.phase` when the span
opened.  A span's self time is its duration minus the durations of its
direct children; the benchmark is single-threaded, so children never
overlap.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self, phases: tuple[str, ...]):
        self.phases = phases
        self.phase = phases[0]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.phase_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.phase_id.append(self.phases.index(self.phase))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        suffix: Callable[[tuple], str] | None = None,
        count: tuple[str, Callable[[tuple], int]] | None = None,
    ) -> Callable:
        """fn recording one span per call, named name[.suffix(args)].

        count=(counter, size) adds size(args) to counters[counter] per call.
        """

        def traced(*args, **kwargs):
            if count is not None:
                self.counters[self.phase, count[0]] += count[1](args)
            idx = self._open(name if suffix is None else f"{name}.{suffix(args)}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def installed(self, patches: list[tuple[object, str, str, dict]]):
        """Wrap each (owner, attribute, span name, wrap kwargs) for the block's duration."""
        saved = []
        try:
            for owner, attr, name, kwargs in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, **kwargs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], int]]:
        """Total self time in seconds and call count, per (phase, span name)."""
        n = len(self.start)
        if not n:
            return {}, {}
        keys = np.frombuffer(self.phase_id, dtype=np.int32) * len(self.names) + np.frombuffer(
            self.name_id, dtype=np.int32
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        size = len(self.phases) * len(self.names)
        self_time = np.bincount(keys, weights=dur - child_time, minlength=size)
        calls = np.bincount(keys, minlength=size)
        pairs = [(phase, name) for phase in self.phases for name in self.names]
        return (
            {pair: float(self_time[i]) for i, pair in enumerate(pairs) if calls[i]},
            {pair: int(calls[i]) for i, pair in enumerate(pairs) if calls[i]},
        )

    def write(self, path) -> None:
        """Save every span as compressed arrays: names, phases, name_id, phase_id, start, end, parent."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(self.phases),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            phase_id=np.frombuffer(self.phase_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
