"""Per-layer wall-time attribution for the traced benchmark run.

A :class:`Probe` wraps public entry points of the program (methods on a
class, methods on one instance, or module-level functions) with timers
that keep a call stack, so every layer gets

* ``busy`` — inclusive wall seconds inside the layer's entry points;
* ``own`` — self time: busy minus the time spent in wrapped callees;
* ``calls`` — how many times an entry point was entered;
* ``counts`` — work counters read off the entry point's result.

The wrappers are installed only while the probe is enabled and removed
again afterwards, so untraced operations run the unmodified program.  The
benchmark enables the probe per operation to compare traced against
untraced wall time inside one run (``bench.trace_overhead_frac``).

:class:`HostSpeed` samples the host's speed beside the workload, so the
gated numbers do not swing with other tenants' load (see ``METRICS.md``).
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

CountFn = Callable[[Any, tuple], dict[str, float]]


class Probe:
    """Timers around program entry points, installed on demand."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []
        self.enabled = False

    def wrap(
        self, owner: Any, attr: str, layer: str, count: CountFn | None = None
    ) -> None:
        """Time ``owner.attr`` as ``layer`` whenever the probe is enabled.

        ``count(result, args)`` returns counter increments, stored as
        ``counts[f"{layer}.{key}"]``.
        """
        original = getattr(owner, attr)
        probe = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            probe._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = probe._stack.pop()
                probe.busy[layer] += elapsed
                probe.own[layer] += elapsed - child
                probe.calls[layer] += 1
                if probe._stack:
                    probe._stack[-1] += elapsed
            if count is not None:
                for key, value in count(result, args).items():
                    probe.counts[f"{layer}.{key}"] += value
            return result

        self._patches.append((owner, attr, timed, original, attr in vars(owner)))

    def enable(self) -> None:
        for owner, attr, timed, _original, _own in self._patches:
            setattr(owner, attr, timed)
        self.enabled = True

    def disable(self) -> None:
        for owner, attr, _timed, original, own_attr in self._patches:
            if own_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.enabled = False

    @contextmanager
    def active(self, on: bool = True) -> Iterator[None]:
        """Enable the probe for the body (no-op when ``on`` is false)."""
        if not on:
            yield
            return
        self.enable()
        try:
            yield
        finally:
            self.disable()

    def unwrap_all(self) -> None:
        """Remove every wrapper and forget the registrations."""
        if self.enabled:
            self.disable()
        self._patches.clear()


#: iterations of the reference loop; one run takes about 1 ms.
REFERENCE_LOOP = 15_000
#: the probe's best time on the quiet 2-core x86_64 host the benchmark was
#: built on.  Only its constancy matters: adjusted seconds are "seconds on
#: a host whose probe takes this long".
REFERENCE_SECONDS = 1.0e-3


def reference_probe() -> float:
    """Best of two runs of a fixed interpreter-bound loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Host speed sampled beside the workload, to adjust measured seconds.

    On a shared host the same code runs up to 1.7x slower for tens of
    seconds at a time, and the slowdown hits a fixed reference loop and
    the workload alike.  :meth:`tick` runs the reference probe between
    operations (at most every ``every`` seconds, never inside a timed
    operation); :meth:`adjust` rescales a measured duration by the probes
    taken around it, giving the duration at :data:`REFERENCE_SECONDS` host
    speed.
    """

    def __init__(self, every: float = 0.2, window: float = 0.5) -> None:
        self.every = every
        self.window = window
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now >= self._due:
            self.at.append(now)
            self.seconds.append(reference_probe())
            self._due = time.perf_counter() + self.every

    def factor(self, at: float) -> float:
        """Reference over observed probe time around ``at`` (1 = reference speed)."""
        lo = bisect_left(self.at, at - self.window)
        hi = bisect_right(self.at, at + self.window)
        if hi - lo < 3:
            centre = bisect_left(self.at, at)
            lo, hi = max(0, centre - 2), min(len(self.at), centre + 2)
        return REFERENCE_SECONDS / statistics.median(self.seconds[lo:hi])

    def adjust(self, at: float, seconds: float) -> float:
        return seconds * self.factor(at)

    def median_factor(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.seconds)
