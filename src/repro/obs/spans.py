"""Hierarchical spans: who spent the I/O, over what wall time.

A :class:`SpanProfiler` attached to a
:class:`~repro.em.device.Device` records a tree of **spans**
(algorithm → phase → operator).  The device owns the one stack of
open regions (:class:`~repro.em.stats.PhaseTracker`): every
``device.span(name, kind)`` pushes a region on it, profiled or not,
and a phase is just a region of kind ``"phase"``.  The profiler only
observes that stack: as the device opens and closes a region, it
records a :class:`Span` node with snapshots of the device's
:class:`~repro.em.stats.IOStats` (reads, writes, and the cache
counters), the :class:`~repro.em.stats.MemoryGauge` peak, the wall
clock, and the profiler's tuples-produced counter, so its *deltas*
say exactly what that region of the run cost.  Like the tracer, it is
strictly read-only: profiled and unprofiled runs have byte-identical
I/O statistics.

:class:`ProfiledEmitter` wraps an emitter so emitted results tick the
profiler's tuple counter, giving every span its tuples-produced delta.

A span's ``io`` delta includes its children; its ``exclusive_io`` is
what the device stack computed at the region's exit: the I/O not
claimed by a nested recorded span.  A span dropped at capacity claims
nothing, so its I/O stays with its nearest recorded ancestor, and
summing ``exclusive_io`` over the whole tree plus the profiler's
unattributed remainder reconstructs ``stats.total`` exactly
(``tests/test_spans.py`` pins this).
"""

from __future__ import annotations

import time
from typing import Callable, Iterator


class Span:
    """One recorded region with entry/exit snapshots."""

    __slots__ = ("name", "kind", "attrs", "children", "exclusive_io",
                 "t0", "t1", "reads0", "writes0", "reads1", "writes1",
                 "cache0", "cache1", "mem_peak0", "mem_peak1",
                 "tuples0", "tuples1")

    def __init__(self, name: str, kind: str, attrs: dict) -> None:
        self.name = name
        self.kind = kind
        # Shared with the device's region, so annotations made while
        # the region is open land here too.
        self.attrs = attrs
        self.children: list[Span] = []
        self.exclusive_io = 0
        self.t1 = None

    # -- derived deltas (valid after close) ----------------------------

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def wall_s(self) -> float:
        return (self.t1 or self.t0) - self.t0

    @property
    def reads(self) -> int:
        return self.reads1 - self.reads0

    @property
    def writes(self) -> int:
        return self.writes1 - self.writes0

    @property
    def io(self) -> int:
        """Block transfers inside this span, children included."""
        return self.reads + self.writes

    @property
    def tuples(self) -> int:
        """Results produced (via :class:`ProfiledEmitter`) in scope."""
        return self.tuples1 - self.tuples0

    def cache_delta(self) -> dict:
        return {k: self.cache1[k] - self.cache0[k] for k in self.cache0}

    def as_dict(self) -> dict:
        """JSON-ready subtree rooted at this span."""
        out = {
            "name": self.name,
            "kind": self.kind,
            "wall_ms": round(self.wall_s * 1e3, 3),
            "io": {"reads": self.reads, "writes": self.writes,
                   "total": self.io, "exclusive": self.exclusive_io},
            "cache": self.cache_delta(),
            "tuples": self.tuples,
            "mem_peak": {"enter": self.mem_peak0, "exit": self.mem_peak1},
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"io={self.io}" if self.closed else "open"
        return f"Span({self.name!r}, kind={self.kind!r}, {state})"


#: Span kinds, outermost first — purely descriptive, not enforced.
SPAN_KINDS = ("algorithm", "phase", "operator")


class SpanProfiler:
    """The opt-in span sink a device snapshots its counters into.

    ``capacity`` bounds the number of *recorded* spans: once reached,
    further regions still open and close on the device stack but are
    not recorded; ``dropped`` counts them, so a truncated profile is
    never mistaken for a complete one.
    """

    def __init__(self, capacity: int = 65536,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._device = None
        self.roots: list[Span] = []
        self.tuples_produced = 0
        self.span_count = 0
        self.dropped = 0
        self.origin = clock()

    # -- wiring (called by Device.attach_profiler) ---------------------

    def attach(self, device) -> None:
        self._device = device

    def detach(self) -> None:
        self._device = None

    def add_tuples(self, n: int = 1) -> None:
        self.tuples_produced += n

    # -- observing the device stack (called by Device.span) ------------

    def on_open(self, region, parent: Span | None) -> Span | None:
        """Record a node for ``region`` under ``parent``'s node.

        Returns None once ``capacity`` spans are recorded.  The count
        never falls while regions are open, so every region nested in
        a dropped one is dropped too.
        """
        if self.span_count >= self.capacity:
            self.dropped += 1
            return None
        self.span_count += 1
        span = Span(region.name, region.kind, region.attrs)
        (span.reads0, span.writes0, span.cache0, span.mem_peak0,
         span.tuples0, span.t0) = self._counters()
        (self.roots if parent is None else parent.children).append(span)
        return span

    def on_close(self, span: Span, exclusive_io: int) -> None:
        """Snapshot the exit counters of ``span``'s closed region."""
        (span.reads1, span.writes1, span.cache1, span.mem_peak1,
         span.tuples1, span.t1) = self._counters()
        span.exclusive_io = exclusive_io

    def _counters(self) -> tuple:
        stats = self._device.stats
        return (stats.reads, stats.writes, _cache_dict(stats.cache),
                self._device.memory.peak, self.tuples_produced,
                self._clock())

    # -- inspection ----------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    @property
    def attributed_io(self) -> int:
        """I/O covered by the recorded root spans."""
        return sum(s.io for s in self.roots if s.closed)

    def summary(self) -> dict:
        """The whole span tree plus reconciliation totals, JSON-ready.

        ``unattributed_io`` is the device I/O charged outside every
        recorded root span; recorded exclusive I/O plus it always
        equals ``stats.total``.
        """
        total = self._device.stats.total if self._device else 0
        return {
            "spans": [s.as_dict() for s in self.roots if s.closed],
            "span_count": self.span_count,
            "dropped": self.dropped,
            "tuples_produced": self.tuples_produced,
            "total_io": total,
            "attributed_io": self.attributed_io,
            "unattributed_io": total - self.attributed_io,
        }

    def reset(self) -> None:
        """Drop all spans and zero the counters (keeps the knobs).

        Refuses while the attached device has a region open.
        """
        if self._device is not None:
            self._device.phases.check_closed()
        self.roots.clear()
        self.tuples_produced = 0
        self.span_count = 0
        self.dropped = 0
        self.origin = self._clock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SpanProfiler(spans={self.span_count}, "
                f"dropped={self.dropped})")


def _cache_dict(cache) -> dict:
    return {"hits": cache.hits, "misses": cache.misses,
            "evictions": cache.evictions, "writebacks": cache.writebacks}


class ProfiledEmitter:
    """Emitter wrapper ticking the profiler's tuple counter per emit.

    Everything else (``count``, ``results``, ``checksum``, …) is
    delegated to the wrapped emitter, so it is a drop-in replacement
    anywhere an :class:`~repro.core.emit.Emitter` is expected.
    """

    def __init__(self, inner, profiler: SpanProfiler) -> None:
        self._inner = inner
        self._profiler = profiler

    def emit(self, result) -> None:
        self._profiler.add_tuples(1)
        self._inner.emit(result)

    def emit_block(self, results) -> None:
        """Tick once per result, then delegate the whole block.

        Defined explicitly (not via ``__getattr__``) so block emits
        cannot bypass the tuple counter by reaching the inner emitter's
        ``emit_block`` directly.
        """
        results = results if isinstance(results, list) else list(results)
        self._profiler.add_tuples(len(results))
        inner_bulk = getattr(self._inner, "emit_block", None)
        if inner_bulk is not None:
            inner_bulk(results)
        else:
            emit = self._inner.emit
            for r in results:
                emit(r)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
