"""Host-speed normalisation of CPU time.

On a shared host the CPU clock itself runs at varying speed: the same
fixed piece of Python work takes up to twice as much thread CPU time at
one moment as at another, in phases lasting from milliseconds to tens
of seconds (other tenants on the same cores, frequency changes).  Raw
CPU times of identical code differed by up to a third between runs.

A :class:`SpeedProbe` samples the host's speed while a run measures: a
virtual-time interval timer (``ITIMER_VIRTUAL``, counting this
process's own CPU time) interrupts the run every ``INTERVAL_S`` and runs
a fixed calibration kernel of pure-Python standard-library work.  Any
measured interval of thread CPU time is then converted to *reference
seconds*: the interval minus the kernel runs inside it, each piece
between two samples scaled by ``REF_KERNEL_S`` over the kernel's
(median of three samples) duration there.  A reference second is the CPU time
the work takes when the kernel takes ``REF_KERNEL_S``.  The kernel
does not touch the program and runs with the garbage collector off, so
collections the program's heap needs fall in the program's intervals,
not in the kernel's.  README.md records a check that an injected
slowdown and a heap-growing change move reference and raw CPU times by
the same fraction.
"""

from __future__ import annotations

import bisect
import difflib
import fractions
import gc
import io
import signal
import statistics
import time
import tokenize
from typing import Any

clock = time.thread_time

#: CPU seconds between two speed samples.
INTERVAL_S = 0.01
#: Kernel duration that defines a reference second.
REF_KERNEL_S = 0.0005
#: Samples on each side of a point whose median gives its speed.
SMOOTH = 1

_LEFT = [f"line {i} alpha beta {i * 7 % 13}" for i in range(12)]
_RIGHT = [f"line {i} alpha gamma {i * 5 % 13}" for i in range(12)]
_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, 'a')):\n    return [x * k for k in range(y[0])]"
    for i in range(1)
)
_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def kernel() -> int:
    """Fixed calibration work: dict/str/tuple churn, difflib, tokenize
    and fractions — interpreter work of the kind the program does."""
    table: dict[str, int] = {}
    total = 0
    for i in range(300):
        key = _WORDS[i % 5] + str(i % 97)
        table[key] = table.get(key, 0) + i
        total += len(key) + (i * 3 & 7)
    total += len(sorted(table.items(), key=lambda item: item[1]))
    total += int(difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio() * 100)
    total += len(list(tokenize.generate_tokens(io.StringIO(_SOURCE).readline)))
    total += sum(fractions.Fraction(i, i + 1) for i in range(1, 8)).numerator % 7
    return total


class SpeedProbe:
    """Samples host speed while active (a context manager); converts
    thread-CPU intervals measured meanwhile to reference seconds."""

    def __init__(self) -> None:
        #: thread CPU time at the end of each kernel run, and its duration
        self.ends: list[float] = []
        self.kernels: list[float] = []
        self._smoothed: list[float] = []
        self._previous: Any = None

    def __enter__(self) -> "SpeedProbe":
        kernel()  # first-call costs (imports, regex compiles) stay unsampled
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self._sample()
        self._smoothed = [
            statistics.median(self.kernels[max(0, k - SMOOTH):k + SMOOTH + 1])
            for k in range(len(self.kernels))
        ]

    def _sample(self, *_: Any) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        kernel()
        end = clock()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.kernels.append(end - start)

    def reference(self, start: float, end: float, scaled: bool = True) -> float:
        """Reference seconds of the thread-CPU interval [start, end],
        which must lie between the first and last sample; with
        ``scaled=False``, its CPU seconds outside the kernel runs."""
        total = 0.0
        k = max(1, bisect.bisect_left(self.ends, start))
        while k < len(self.ends) and self.ends[k - 1] < end:
            # Piece k runs from the previous sample to the start of kernel k.
            low = max(start, self.ends[k - 1])
            high = min(end, self.ends[k] - self.kernels[k])
            if high > low:
                total += (high - low) * (REF_KERNEL_S / self._smoothed[k] if scaled else 1)
            k += 1
        return total

    def rate(self) -> float:
        """Reference seconds per CPU second at the latest samples (for
        deciding online when a run has measured long enough)."""
        return REF_KERNEL_S / statistics.median(self.kernels[-2 * SMOOTH - 1:])

    @property
    def median_kernel(self) -> float:
        return statistics.median(self.kernels)
