"""In-memory span tracing around the program's public entry points.

A :class:`Tracer` replaces chosen methods and functions with wrappers
that record one span per call: (name, start, end, parent span,
statement id), all on the thread's CPU clock.  Counters are recorded
at the same boundaries.  Nothing in ``src/`` is edited; the wrappers
are installed for the traced phase only and removed afterwards, so an
untraced run carries none of them.

A span's *self time* is its duration minus the durations of its direct
children, so nested entry points (a server call that asks four engines)
split cleanly into layers.  Durations are computed after the run by a
caller-supplied function of the two clock readings (reference seconds,
see :mod:`speed`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_clock = time.thread_time


class Tracer:
    """Records spans and counts while installed; see module docs."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, statement id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.statement_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def span(self, owner: Any, attr: str, name: Optional[str] = None,
             count: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``owner.attr`` so each call records a span ``name`` (none
        when ``name`` is None).  ``count(tracer, result, args)`` runs
        after the call and may add to :attr:`counts`."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append((name, 0.0, 0.0, parent, tracer.statement_id))
                tracer._stack.append(index)
                start = _clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = _clock()
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.statement_id)
            if count is not None:
                count(tracer, result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self, duration: Callable[[float, float], float]) -> dict[str, float]:
        """Total self time per span name, each span's duration being
        ``duration(start, end)``."""
        own = [duration(start, end) for _, start, end, _, _ in self.spans]
        totals: dict[str, float] = defaultdict(float)
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            totals[name] += own[index]
            if parent >= 0:
                totals[self.spans[parent][0]] -= own[index]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, statement in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "statement": statement}
                ))
                handle.write("\n")
