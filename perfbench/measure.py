"""Measurement primitives: percentiles, spans, outcome digests, memory.

Everything here is independent of the program under test except
:func:`outcome_digest`, which reads only the public ``VariantOutcome``
dataclass fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Iterator, Sequence

#: The form every metric name must have.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Percentiles a tail may be reported at, lowest first.  The ladder stops
#: at p95: on a shared 2-core host p99 follows other tenants' load (its
#: run-to-run spread was 0.6 on the daemon workload), so no program
#: change could be told apart from it.
TAIL_LADDER = (90.0, 95.0)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: ``VariantOutcome`` fields that legitimately differ between two correct
#: executions of one variant: host timing and memo provenance.
DIGEST_EXCLUDED = frozenset({"wall_time_s", "from_cache"})


# -- percentiles ---------------------------------------------------------------

def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    # Rounding first keeps float fuzz (99.9 * 10000 / 100 > 9990) out of ceil.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def median(values: Sequence[float]) -> float:
    """The middle sample (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    With nearest-rank percentiles, ``count - rank(p)`` samples lie
    strictly above percentile ``p``.  ``None`` when even the lowest rung
    has too few samples beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        if count - _rank(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def summarize(values: Sequence[float]) -> dict[str, float | None]:
    """The median, and the tail percentile and its value (``None`` if none)."""
    tail = tail_percentile(len(values))
    return {
        "p50": median(values),
        "tail_pct": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


# -- host speed ----------------------------------------------------------------
#
# On a shared host the same work can take twice as long from one second
# to the next (other tenants' load on the cores).  Every timing is
# therefore converted to *reference seconds*: host seconds scaled by how
# much slower or faster than nominal a background thread ran a fixed
# calibration workload while the interval lasted.  The calibration is
# benchmark code only, so a change to the program cannot move it.

#: Loop iterations of ``calibration_work``.
CALIBRATION_ITERATIONS = 2_000

#: Thread CPU seconds ``calibration_work`` takes on an uncontended
#: 2.1 GHz Xeon core (Python 3.11); reference seconds are host seconds
#: there.  Valid only for ``CALIBRATION_ITERATIONS``.
REFERENCE_S = 0.0023

#: Host seconds between two calibration samples.
SAMPLE_EVERY = 0.1

#: Samples this many host seconds either side of an interval also count.
SAMPLE_PAD = 0.5


def calibration_work() -> float:
    """A fixed interpreter-bound workload shaped like the simulator's:
    a time-ordered heap of events, counter dicts, small objects and
    float arithmetic.  Returns the CPU time the calling thread spent."""
    started = time.thread_time()
    heap: list[tuple[float, int]] = []
    counters: dict[int, int] = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        heappush(heap, ((i * 7919) % 1009 * 0.25, i))
        if len(heap) > 64:
            when, seq = heappop(heap)
            acc += when * 0.5 + seq % 3
        key = i & 127
        counters[key] = counters.get(key, 0) + 1
        span = Span("e", acc, acc + 1.0, None, None)
        acc += span.duration
    return time.thread_time() - started


class SpeedSampler:
    """Samples the core's speed while the measured work runs.

    A sample runs ``calibration_work`` and records the thread CPU time it
    took.  With ``background=True`` a thread takes one every
    ``SAMPLE_EVERY`` seconds; thread CPU time excludes waiting for the
    interpreter lock, so a sample measures the core, not the measured
    work's hold on the lock.  With ``background=False`` the caller calls
    :meth:`tick` between two measured requests instead, so that no
    sample runs while a request is in flight: on one core a concurrent
    sample would delay the other process's reply.  Use as a context
    manager around everything that is timed.
    """

    def __init__(self, background: bool = True) -> None:
        self._times: list[float] = []
        self._costs: list[float] = []
        self._stop = threading.Event()
        self._thread = (
            threading.Thread(target=self._run, daemon=True) if background else None
        )

    def sample(self) -> None:
        self._costs.append(calibration_work())
        self._times.append(time.perf_counter())

    def tick(self) -> None:
        """Sample if ``SAMPLE_EVERY`` seconds passed since the last sample."""
        if time.perf_counter() - self._times[-1] >= SAMPLE_EVERY:
            self.sample()

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(SAMPLE_EVERY):
                return

    def __enter__(self) -> "SpeedSampler":
        if self._thread is None:
            self.sample()
        else:
            self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._thread is None:
            self.sample()
        else:
            self._stop.set()
            self._thread.join()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per host second over ``[start, end]``
        (``perf_counter`` readings), by default over every sample: the
        reference cost over the mean cost of the samples taken during
        the interval or within ``SAMPLE_PAD`` of it.

        The mean, not the median: samples are spread evenly in time, and
        the time an interval loses to other tenants is the time average
        of the slowdown.  A median ignores contention that comes in
        bursts; scored both ways on the same six ``fleet-scale`` runs,
        the spread of ``fleet_n1024_s`` was 0.05 with the mean and 0.15
        with the median."""
        times, costs = self._times, self._costs
        if not costs:
            return 1.0
        lo = bisect_left(times, start - SAMPLE_PAD)
        hi = bisect_right(times, end + SAMPLE_PAD)
        if lo >= hi:  # nothing close by: the nearest sample
            nearest = min(lo, len(times) - 1)
            lo, hi = nearest, nearest + 1
        return REFERENCE_S * (hi - lo) / sum(costs[lo:hi])

    def reference(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds."""
        return (end - start) * self.factor(start, end)


# -- spans ---------------------------------------------------------------------

@dataclasses.dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        now = time.perf_counter() - self._origin
        record = Span(name, now, now, parent, request)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter() - self._origin

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request: str | None = None,
        parent: int | None = None,
    ) -> int:
        """Add a span timed by the caller (``perf_counter`` readings)."""
        self.spans.append(
            Span(name, start - self._origin, end - self._origin, parent, request)
        )
        return len(self.spans) - 1

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> list[float]:
        return self_times(self.spans)

    def to_json(self) -> list[dict[str, Any]]:
        """Spans as plain records, each with its self time."""
        return [
            {**dataclasses.asdict(span), "self": own}
            for span, own in zip(self.spans, self.self_times())
        ]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent work under one parent);
    the covered part is the union of their intervals clipped to the
    parent, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


# -- outcomes ------------------------------------------------------------------

def outcome_digest(outcome: Any) -> str:
    """sha256 over every outcome field except host timing and memo provenance.

    Fields are serialised as canonical JSON, so an outcome that crossed
    the daemon's wire (tuples turned into lists) digests like the
    in-process original.
    """
    payload = {
        field.name: getattr(outcome, field.name)
        for field in dataclasses.fields(outcome)
        if field.name not in DIGEST_EXCLUDED
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frame_counts(stats: dict[str, Any]) -> tuple[int, int, int]:
    """(frames sent, frames delivered, frames rejected by controls).

    Channels report ``sent``/``delivered``; receiving ECUs report the
    frames their security controls ``rejected``.
    """
    sent = delivered = rejected = 0
    for value in stats.values():
        if not isinstance(value, dict):
            continue
        if "sent" in value and "delivered" in value:
            sent += int(value["sent"])
            delivered += int(value["delivered"])
        if "rejected" in value:
            rejected += int(value["rejected"])
    return sent, delivered, rejected


# -- memory --------------------------------------------------------------------

def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
