"""Out-of-process-boundary tracing for the benchmark's traced run.

The program under test carries no spans of its own for most layers, so the
traced run wraps the *public* calls into each layer from the benchmark's
side: a class method, or a module-level function at every module binding
that refers to it.  Each wrapped call becomes a span (name, start, end,
parent) in a :class:`Recorder`; spans stay in memory and are reduced to
per-layer self times when the run ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  Parents come from a per-thread span stack; a
call on a thread with an empty stack (a server request thread) adopts the
recorder's ``remote_parent``, which the single closed-loop client sets to
its in-flight request span.

Wrappers are installed only for the duration of a traced iteration and
removed afterwards, so untraced iterations run the unmodified program.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: Optional[int], name: str, start: float) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.remote_parent: Optional[int] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        with self._lock:
            span = Span(next(self._ids), parent, name, time.perf_counter())
            self.spans.append(span)
        stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def drain(self) -> Tuple[List[Span], Dict[str, float]]:
        """Take every span and counter recorded so far, leaving none."""
        with self._lock:
            spans, counts = self.spans, dict(self.counts)
            self.spans = []
            self.counts = defaultdict(float)
        return spans, counts


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of self time per span name.

    Child intervals are clipped to their parent and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


# -- wrapping ----------------------------------------------------------------

#: What a wrapper records besides its span: a callable of
#: ``(recorder, args, kwargs, result)``.
OnResult = Callable[[Recorder, tuple, dict, object], None]


class Probe:
    """One public call to wrap: ``module:Class.method`` or ``module:function``.

    A module-level function is wrapped at every ``repro`` module binding
    that refers to the same function object, because callers import it by
    name (``from repro.snapshots.digests import entry_digest``).
    ``span=None`` counts calls without recording a span.
    """

    def __init__(
        self,
        target: str,
        span: Optional[str],
        tally: Optional[OnResult] = None,
        count: Optional[str] = None,
    ) -> None:
        self.target = target
        self.span = span
        self.tally = tally
        self.count = count

    def wrap(self, recorder: Recorder, original):
        span_name, tally, count = self.span, self.tally, self.count

        def wrapper(*args, **kwargs):
            if count is not None:
                recorder.count(count)
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                with recorder.span(span_name):
                    result = original(*args, **kwargs)
            if tally is not None:
                tally(recorder, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def bindings(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) triples this probe replaces."""
        module_name, _, qualname = self.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            return [(owner, attribute, owner.__dict__[attribute])]
        original = getattr(module, qualname)
        found = []
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not name.startswith("repro"):
                continue
            for attribute, value in list(vars(candidate).items()):
                if value is original:
                    found.append((candidate, attribute, original))
        return found


class Instrumentation:
    """Installs a probe set on demand and restores the originals."""

    def __init__(self, recorder: Recorder, probes: Sequence[Probe]) -> None:
        self.recorder = recorder
        self.probes = list(probes)
        self._wrappers: Optional[List[Tuple[object, str, object, object]]] = None
        self._installed: List[Tuple[object, str, object]] = []

    @contextmanager
    def installed(self) -> Iterator[Recorder]:
        if self._wrappers is None:
            # Bindings are resolved once, after set-up has imported everything.
            self._wrappers = [
                (owner, attribute, original, probe.wrap(self.recorder, original))
                for probe in self.probes
                for owner, attribute, original in probe.bindings()
            ]
        try:
            for owner, attribute, original, wrapper in self._wrappers:
                setattr(owner, attribute, wrapper)
                self._installed.append((owner, attribute, original))
            yield self.recorder
        finally:
            while self._installed:
                owner, attribute, original = self._installed.pop()
                setattr(owner, attribute, original)
