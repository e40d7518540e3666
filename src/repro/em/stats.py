"""I/O and memory accounting for the simulated external-memory machine.

The external-memory (EM) model of Aggarwal and Vitter has a main memory
holding ``M`` items and a disk accessed in blocks of ``B`` items; the cost
of an algorithm is the number of block transfers (I/Os).  The paper
reasons exclusively about this count, so the accounting here is the
ground truth every benchmark in this repository reports.

Two cost meters live in this module:

* :class:`IOStats` counts page reads and page writes.  A "page" is a
  block of ``B`` tuples; partial pages cost a full I/O, matching the
  model.
* :class:`MemoryGauge` tracks the number of tuples currently held
  resident by the running algorithm and the peak over the run.  The
  paper assumes a memory of ``c * M`` for a sufficiently large constant
  ``c`` (Section 1.1), so the gauge enforces ``current <= slack * M``
  rather than a hard ``M``.

:class:`PhaseTracker` is a device's one stack of open regions (the
spans ``device.span(name, kind)`` opens; a phase is a span of kind
``"phase"``).  It computes each region's exclusive I/O once, at exit,
for the phase report, the profiler and the tracer alike.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator


class MemoryBudgetExceeded(RuntimeError):
    """Raised when an algorithm holds more than ``slack * M`` tuples."""


@dataclass
class CacheStats:
    """Buffer-pool counters (all zero while the pool is disabled).

    ``hits + misses`` equals the number of *logical* page reads — the
    count the pool-off configuration would have charged as physical
    reads.  ``writebacks`` counts dirty pages written back on eviction
    or flush; each written page is written back exactly once.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def logical_reads(self) -> int:
        """Logical page reads: what pool-off accounting would charge."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of logical reads served without an I/O."""
        return self.hits / self.logical_reads if self.logical_reads else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters plus derived rates, for reports and ``--json``."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "logical_reads": self.logical_reads,
                "hit_rate": round(self.hit_rate, 4)}

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def copy(self) -> "CacheStats":
        """An independent copy (snapshots must not alias the live one)."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          writebacks=self.writebacks)

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter-wise difference against an earlier snapshot."""
        return CacheStats(hits=self.hits - earlier.hits,
                          misses=self.misses - earlier.misses,
                          evictions=self.evictions - earlier.evictions,
                          writebacks=self.writebacks - earlier.writebacks)

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          evictions=self.evictions + other.evictions,
                          writebacks=self.writebacks + other.writebacks)


@dataclass
class IOStats:
    """Mutable counter of block transfers.

    Attributes
    ----------
    reads:
        Number of pages transferred from disk to memory.
    writes:
        Number of pages transferred from memory to disk.
    cache:
        Buffer-pool counters; all zero unless the device opts into a
        :class:`~repro.em.bufferpool.BufferPool`.

    While :meth:`suspend` is active the device charges nothing — used
    for free input materialization, where rewinding the counters
    afterwards (the old implementation) would corrupt the exclusive
    attribution of any open region.
    """

    reads: int = 0
    writes: int = 0
    cache: CacheStats = field(default_factory=CacheStats, compare=False)
    _suspended: int = field(default=0, init=False, repr=False,
                            compare=False)

    @property
    def total(self) -> int:
        """Total block transfers, the cost measure of the EM model."""
        return self.reads + self.writes

    @property
    def suspended(self) -> bool:
        """True while counting is suspended (free materialization)."""
        return self._suspended > 0

    @contextlib.contextmanager
    def suspend(self) -> Iterator[None]:
        """Suspend all charging for the enclosed scope (re-entrant)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters.

        The cache section is deep-copied: a snapshot taken on a pooled
        device must not alias (and silently track) the live counters.
        """
        return IOStats(reads=self.reads, writes=self.writes,
                       cache=self.cache.copy())

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return the I/Os incurred since ``earlier`` was snapshotted.

        Includes the cache counters, so pooled interval measurements
        report their true hit rate rather than a constant zero.
        """
        return IOStats(reads=self.reads - earlier.reads,
                       writes=self.writes - earlier.writes,
                       cache=self.cache.delta_since(earlier.cache))

    def reset(self) -> None:
        """Zero all counters, including the cache section."""
        self.reads = 0
        self.writes = 0
        self.cache.reset()

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(reads=self.reads + other.reads,
                       writes=self.writes + other.writes,
                       cache=self.cache + other.cache)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IOStats(reads={self.reads}, writes={self.writes}, total={self.total})"


@dataclass(eq=False, slots=True)
class Region:
    """One open ``device.span`` region: its I/O total at entry, the I/O
    its nested phases and recorded spans claimed, and the profiler's
    node for it (None when unrecorded)."""

    name: str
    kind: str
    attrs: dict[str, Any]
    start: int
    nested_phase_io: int = 0
    nested_span_io: int = 0
    node: Any = None

    def set(self, key: str, value: Any) -> None:
        """Attach one key/value annotation to this region."""
        self.attrs[key] = value


class PhaseTracker:
    """A device's stack of open regions and its per-phase I/O totals.

    ``Device.span`` opens every region; one of kind ``"phase"`` is a
    phase, whose I/O not claimed by a nested phase goes to ``totals``::

        with device.span("partition", kind="phase"):
            ...

    ``totals`` plus the unattributed remainder :meth:`report` adds
    always sum to the device total.
    """

    def __init__(self, stats: IOStats) -> None:
        self._stats = stats
        self.totals: dict[str, int] = {}
        self._stack: list[Region] = []
        # I/O total when the tracker was last reset: the remainder in
        # report() is measured from here, so a long-lived device (a
        # server session) can zero its phase view per query without
        # rewinding the monotone counters.
        self._origin: int = 0

    @property
    def innermost(self) -> Region | None:
        """The innermost open region, or None outside every region."""
        return self._stack[-1] if self._stack else None

    def labels(self) -> tuple[str, ...]:
        """The open phase labels, outermost first."""
        return tuple(r.name for r in self._stack if r.kind == "phase")

    def open(self, name: str, kind: str, attrs: dict[str, Any]) -> Region:
        """Push a region starting at the current I/O total."""
        region = Region(name, kind, attrs, self._stats.total)
        self._stack.append(region)
        return region

    def close(self, region: Region) -> tuple[int, int]:
        """Pop the innermost ``region``; return its I/O exclusive of
        nested phases and of nested recorded spans.

        A region that is not a phase (not recorded) hands its nested
        phases' (recorded spans') claim on to its parent.
        """
        stack = self._stack
        if not stack or stack[-1] is not region:
            innermost = stack[-1].name if stack else None
            raise RuntimeError(
                f"region {region.name!r} is not the innermost open "
                f"region (innermost is {innermost!r})")
        stack.pop()
        io = self._stats.total - region.start
        phase_exclusive = io - region.nested_phase_io
        span_exclusive = io - region.nested_span_io
        is_phase = region.kind == "phase"
        if is_phase:
            self.totals[region.name] = (self.totals.get(region.name, 0)
                                        + phase_exclusive)
        if stack:
            parent = stack[-1]
            parent.nested_phase_io += (io if is_phase
                                       else region.nested_phase_io)
            parent.nested_span_io += (io if region.node is not None
                                      else region.nested_span_io)
        return phase_exclusive, span_exclusive

    def report(self) -> dict[str, int]:
        """Per-phase I/O plus the unattributed remainder."""
        out = dict(sorted(self.totals.items()))
        out["(unattributed)"] = (self._stats.total - self._origin
                                 - sum(self.totals.values()))
        return out

    def check_closed(self) -> None:
        """Refuse a reset under an open region, naming it."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} region(s) open "
                f"(innermost {self._stack[-1].name!r})")

    def reset(self) -> None:
        """Zero the totals (never while a region is open)."""
        self.check_closed()
        self.totals.clear()
        self._origin = self._stats.total


@dataclass
class MemoryGauge:
    """Tracks tuples held resident in (simulated) main memory.

    Algorithms wrap memory-resident structures in :meth:`hold` so that
    tests can assert the paper's memory budget is respected.  The gauge
    is advisory by default (``strict=False``) because constant factors
    differ between the abstract algorithms and a faithful executable
    rendering; benchmarks and tests flip ``strict`` on with a generous
    ``slack``.
    """

    capacity: int
    slack: float = 8.0
    strict: bool = False
    current: int = 0
    peak: int = 0
    # Set by Device.attach_tracer; observes peak growth, never counts.
    _tracer: Any = field(default=None, init=False, repr=False,
                         compare=False)

    @property
    def limit(self) -> float:
        """The enforced budget ``slack * capacity``.

        Recomputed on access so mutating ``capacity`` or ``slack`` after
        construction cannot leave a stale limit behind.
        """
        return self.slack * self.capacity

    def charge(self, n: int) -> None:
        """Record ``n`` additional resident tuples."""
        if n < 0:
            raise ValueError(f"cannot charge a negative amount: {n}")
        self.current += n
        if self.current > self.peak:
            self.peak = self.current
            if self._tracer is not None:
                self._tracer.on_mem_peak(self.peak)
        if self.strict and self.current > self.limit:
            raise MemoryBudgetExceeded(
                f"holding {self.current} tuples exceeds "
                f"slack*M = {self.limit:.0f} (M={self.capacity})")

    def release(self, n: int) -> None:
        """Record ``n`` resident tuples being dropped."""
        if n < 0:
            raise ValueError(f"cannot release a negative amount: {n}")
        self.current -= n
        if self.current < 0:
            raise ValueError("released more tuples than were held")

    @contextlib.contextmanager
    def hold(self, n: int) -> Iterator[None]:
        """Context manager charging ``n`` tuples for the enclosed scope."""
        self.charge(n)
        try:
            yield
        finally:
            self.release(n)

    def reset(self) -> None:
        """Zero the gauge (does not change capacity or slack)."""
        self.current = 0
        self.peak = 0
