"""The opt-in event sink the device charges nothing into.

A :class:`Tracer` observes every accounting action of a
:class:`~repro.em.device.Device` it is attached to and stores a
(ring-buffered, optionally sampled) stream of
:class:`~repro.obs.events.TraceEvent` records plus *exact*
:class:`~repro.obs.rollup.Rollups`.  Attachment is strictly one-way:
the tracer never mutates a counter, so traced and untraced runs have
byte-identical I/O statistics (asserted by
``tests/test_obs.py::TestTracerTransparency``).

Storage knobs:

* ``capacity`` bounds the ring buffer; once full, the oldest stored
  events are overwritten (rollups are unaffected).
* ``sample_every=k`` stores every k-th I/O, cache, and memory event
  (phase markers are always stored — there are few of them and the
  per-phase rollups are reconstructed from charges, not from them).

The tracer keeps no stack of its own: the device hands each charge
the open phase labels off its region stack, and each phase exit the
exclusive I/O that stack computed.
"""

from __future__ import annotations

import collections
import json

from repro.obs.events import IO_KINDS, TraceEvent
from repro.obs.rollup import Rollups


class Tracer:
    """Ring-buffered trace of device events with exact rollups."""

    def __init__(self, capacity: int = 65536,
                 sample_every: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}")
        self.capacity = capacity
        self.sample_every = sample_every
        self.rollups = Rollups()
        self._buffer: collections.deque[TraceEvent] = collections.deque(
            maxlen=capacity)
        self._seen = 0          # every event, stored or not
        self._stored = 0        # events that entered the buffer
        self._sampled_out = 0   # events skipped by the sampling knob

    # -- device-facing hooks (called by Device / BufferPool / gauges) --

    def on_charge(self, kind: str, file: str, page: int,
                  phases: tuple[str, ...]) -> None:
        """A physical page read / write, or a buffer-pool hit / miss /
        eviction / write-back; ``phases`` is the device's open phase
        labels, outermost first."""
        if kind in IO_KINDS:
            self.rollups.record_io(kind, file, phases)
        else:
            self.rollups.record_cache(kind)
        self._store(TraceEvent(self._seen, kind, file=file, page=page,
                               phase=phases[-1] if phases else None),
                    sampled=True)

    def on_phase_enter(self, label: str) -> None:
        self._store(TraceEvent(self._seen, "phase_enter", phase=label),
                    sampled=False)

    def on_phase_exit(self, label: str, exclusive_io: int) -> None:
        self._store(TraceEvent(self._seen, "phase_exit", phase=label,
                               value=exclusive_io), sampled=False)

    def on_mem_peak(self, peak: int) -> None:
        """The memory gauge reached a new peak (in tuples)."""
        self.rollups.record_mem_peak(peak)
        self._store(TraceEvent(self._seen, "mem_peak", value=peak),
                    sampled=True)

    # -- inspection and export ----------------------------------------

    def events(self) -> list[TraceEvent]:
        """The currently buffered events, oldest first."""
        return list(self._buffer)

    @property
    def seen(self) -> int:
        """Total events observed (including sampled-out ones)."""
        return self._seen

    def summary(self) -> dict:
        """Exact rollups plus buffer bookkeeping, JSON-ready."""
        out = {"events": {"seen": self._seen,
                          "stored": len(self._buffer),
                          "sampled_out": self._sampled_out,
                          "overwritten": self._stored - len(self._buffer),
                          "capacity": self.capacity,
                          "sample_every": self.sample_every}}
        out.update(self.rollups.as_dict())
        return out

    def export_jsonl(self, path) -> int:  # em-effects: HOST_ONLY -- trace export writes to the host filesystem after the measured run
        """Write the buffered events as JSON Lines; return the count."""
        events = self.events()
        # host-side JSONL export, not simulated-device I/O
        with open(path, "w", encoding="utf-8") as fh:  # emlint: disable=EM001
            for e in events:
                fh.write(json.dumps(e.as_dict(), sort_keys=False))
                fh.write("\n")
        return len(events)

    def reset(self) -> None:
        """Drop all events and zero the rollups (keeps the knobs)."""
        self._buffer.clear()
        self._seen = self._stored = self._sampled_out = 0
        self.rollups.reset()

    # -- internals -----------------------------------------------------

    def _store(self, event: TraceEvent, *, sampled: bool) -> None:
        self._seen += 1
        if sampled and (self._seen - 1) % self.sample_every:
            self._sampled_out += 1
            return
        self._buffer.append(event)
        self._stored += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Tracer(seen={self._seen}, stored={len(self._buffer)}, "
                f"capacity={self.capacity}, "
                f"sample_every={self.sample_every})")
