"""Observability for the simulated EM machine: tracing and baselines.

The paper's sole cost measure is the number of block transfers
(Aggarwal–Vitter; see PAPERS.md), so the one metric worth tracing is
where those transfers come from.  This subpackage provides:

* :class:`TraceEvent` — one structured record per device event
  (physical read/write, cache hit/miss/eviction/write-back, phase
  enter/exit, memory-peak growth);
* :class:`Tracer` — an opt-in, ring-buffered event sink with exact
  per-file and per-phase rollups, a sampling knob, and JSONL export;
* :class:`SpanProfiler` — hierarchical spans (algorithm → phase →
  operator) snapshotting the device counters at entry/exit, with
  Chrome-trace/Perfetto and Prometheus exporters
  (:mod:`~repro.obs.export`);
* :class:`MetricsRegistry` — named counters/gauges/histograms the
  instrumented code populates for free when metrics are off
  (:data:`NULL_METRICS`);
* :mod:`~repro.obs.baseline` — pinned benchmark baselines
  (``BENCH_table1.json``) and the drift comparator CI runs.

Attach a tracer with ``Device(M, B, tracer=Tracer())`` or
``device.attach_tracer(t)``; the same goes for ``profiler=`` and
``metrics=``.  With nothing attached (the default) every counter stays
byte-identical to the bare accounting — observers watch charges, they
never make them.  The tracer and the profiler keep no stack of open
regions: both read the device's one
(:class:`~repro.em.stats.PhaseTracker`, where a phase is a span of
kind ``"phase"``).
"""

from repro.obs.baseline import (compare_baselines, load_baseline,
                                write_baseline)
from repro.obs.events import (CACHE_KINDS, EVENT_KINDS, IO_KINDS,
                              TraceEvent)
from repro.obs.export import (make_metrics_handler, metrics_payload,
                              start_metrics_server, to_chrome_trace,
                              to_prometheus, write_chrome_trace)
from repro.obs.metrics import (DEFAULT_BUCKETS, NULL_METRICS, Counter,
                               Gauge, Histogram, MetricsRegistry,
                               NullMetrics)
from repro.obs.rollup import IOBreakdown, Rollups, UNATTRIBUTED
from repro.obs.spans import (SPAN_KINDS, ProfiledEmitter, Span,
                             SpanProfiler)
from repro.obs.tracer import Tracer

__all__ = [
    "TraceEvent", "EVENT_KINDS", "IO_KINDS", "CACHE_KINDS",
    "Tracer", "Rollups", "IOBreakdown", "UNATTRIBUTED",
    "write_baseline", "load_baseline", "compare_baselines",
    "Span", "SpanProfiler", "ProfiledEmitter", "SPAN_KINDS",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetrics",
    "NULL_METRICS", "DEFAULT_BUCKETS",
    "to_chrome_trace", "write_chrome_trace", "to_prometheus",
    "metrics_payload", "make_metrics_handler", "start_metrics_server",
]
