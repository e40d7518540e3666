"""The traced run: spans around each layer's public functions.

:class:`Recorder` replaces each function in :data:`TARGETS` at the name
its caller looks it up by (``repro.core.planner.full_reduce_em``, the
``Relation.sort_by`` method, ...) with a wrapper that records a span
— name, start, end, parent, query id, thread, and the change in the I/O
counters of the device the call charged — and puts the originals back
on :meth:`Recorder.uninstall`.  Spans stay in memory until the run ends;
:func:`chrome_trace` writes them as Chrome trace-event JSON, which
Perfetto opens.  :func:`layer_metrics` turns them into the per-layer
ledger.

Nothing under ``src/`` knows about any of this: the spans measure each
layer from the outside, at its call boundary.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable

import stats

ROOT = "server.session.execute"
POOL_END_QUERY = "server.pool.end_query"
PLAN_CALLS = ("query.parse_query_and_layouts", "query.estimate_memory_need")
JOIN_CALLS = ("core.join.sort_merge_join", "core.join.line_join_auto",
              "core.join.acyclic_join_best")
REDUCER = "core.reducer_em.full_reduce_em"
SORT = "em.sort.sort_by"
MATERIALIZE = "data.instance.from_dicts"
CATALOG_ADD = "server.catalog.add_instance"


def _instance_device(instance):
    return next(iter(instance.values())).device


def _tuples(instance) -> int:
    return sum(len(rel) for rel in instance.values())


def _note_execute(span, args, kwargs, out) -> None:
    span.attrs.update(results=out.results, io_total=out.io["total"])


def _note_add(span, args, kwargs, out) -> None:
    span.attrs["replace"] = bool(kwargs.get("replace", False))


def _note_reduce(span, args, kwargs, out) -> None:
    span.attrs.update(tuples_in=_tuples(args[1]), tuples_out=_tuples(out))


def _note_sort(span, args, kwargs, out) -> None:
    rel, attr = args[0], args[1]
    span.attrs.update(relation=rel.name, attribute=attr,
                      sorted=rel.sorted_on != attr)


def _note_best(span, args, kwargs, out) -> None:
    span.attrs.update(branches=len(out.runs), best_io=out.best.io,
                      explored_io=sum(r.io for r in out.runs))


#: (module, attribute path, span name, device of the call, annotator)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None],
               ...] = (
    ("repro.server.session", "parse_query_and_layouts",
     "query.parse_query_and_layouts", None, None),
    ("repro.server.session", "estimate_memory_need",
     "query.estimate_memory_need", None, None),
    ("repro.server.session", "Session.execute", ROOT, None,
     _note_execute),
    ("repro.server.service", "QueryService.add_instance", CATALOG_ADD,
     None, _note_add),
    ("repro.data.instance", "Instance.from_dicts", MATERIALIZE,
     lambda a: a[1], None),
    ("repro.core.planner", "full_reduce_em", REDUCER,
     lambda a: _instance_device(a[1]), _note_reduce),
    ("repro.data.relation", "Relation.sort_by", SORT,
     lambda a: a[0].device, _note_sort),
    ("repro.core.planner", "sort_merge_join", "core.join.sort_merge_join",
     lambda a: a[0].device, None),
    ("repro.core.planner", "line_join_auto", "core.join.line_join_auto",
     lambda a: _instance_device(a[1]), None),
    ("repro.core.planner", "acyclic_join_best",
     "core.join.acyclic_join_best", lambda a: _instance_device(a[1]),
     _note_best),
    ("repro.server.pool", "PoolView.end_query", POOL_END_QUERY,
     lambda a: a[0].device, None),
)

#: Pool page calls run thousands of times per pooled query: each is
#: counted and timed on the span that made it (``page_calls``,
#: ``page_ns``) instead of becoming a span.  Their I/O stays with that
#: span, the operator that asked for the page.
PAGE_TARGETS = (("repro.server.pool", "PoolView.read_page"),
                ("repro.server.pool", "PoolView.write_page"))


class Span:
    __slots__ = ("id", "name", "parent", "query", "tid", "dev", "start",
                 "end", "io", "attrs", "page_calls", "page_ns")

    def __init__(self, id, name, parent, query, tid, dev):
        self.id = id
        self.name = name
        self.parent = parent
        self.query = query
        self.tid = tid
        self.dev = dev
        self.start = self.end = 0
        self.io = None
        self.attrs = {}
        self.page_calls = self.page_ns = 0


class Recorder:
    """Wraps the layer functions and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Devices are numbered, not keyed by id(): the throw-away devices
        # of branch exploration die young and their ids get reused.
        self._devices: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._device_ids = itertools.count(1)
        self._devices_lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter_ns()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for module, path, name, device_of, note in TARGETS:
            self._patch(module, path,
                        lambda fn: self._wrap(fn, name, device_of, note))
        for module, path in PAGE_TARGETS:
            self._patch(module, path, self._wrap_page)

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_cm = isinstance(raw, classmethod)
        wrapper = make_wrapper(raw.__func__ if is_cm else raw)
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._originals.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _device_number(self, dev) -> int:
        with self._devices_lock:
            number = self._devices.get(dev)
            if number is None:
                number = self._devices[dev] = next(self._device_ids)
            return number

    def _wrap(self, fn, name, device_of, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(next(self._ids), name,
                        parent.id if parent else None,
                        parent.query if parent else None,
                        threading.get_ident(), None)
            if span.query is None and name == ROOT:
                span.query = span.id
            dev = device_of(args) if device_of is not None else None
            if dev is not None:
                span.dev = self._device_number(dev)
                io0 = dev.stats.reads + dev.stats.writes
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if dev is not None:
                    span.io = dev.stats.reads + dev.stats.writes - io0
                self.spans.append(span)
            if note is not None:
                note(span, args, kwargs, out)
            return out
        return wrapper

    def _wrap_page(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:  # page calls outside every span go unrecorded
                    stack[-1].page_calls += 1
                    stack[-1].page_ns += time.perf_counter_ns() - t0
        return wrapper


def chrome_trace(recorder: Recorder) -> dict:
    """The spans as Chrome trace-event JSON (Perfetto opens it)."""
    tids: dict[int, int] = {}
    events = []
    for s in sorted(recorder.spans, key=lambda s: s.start):
        args = {"span": s.id, "parent": s.parent, "query": s.query,
                **s.attrs}
        if s.io is not None:
            args["io"] = s.io
        if s.page_calls:
            args.update(pool_page_calls=s.page_calls,
                        pool_page_ms=s.page_ns / 1e6)
        events.append({"name": s.name, "cat": s.name.rsplit(".", 1)[0],
                       "ph": "X",
                       "pid": 1,
                       "tid": tids.setdefault(s.tid, len(tids) + 1),
                       "ts": (s.start - recorder.t0) / 1e3,
                       "dur": (s.end - s.start) / 1e3, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: Recorder, path) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder), fh, separators=(",", ":"))


# -- the ledger ----------------------------------------------------------

def layer_metrics(spans: list[Span], records: list, *, since_ns: int,
                  http: bool, flight_lost: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``records`` are the traced run's measured client records; queries
    are the ``Session.execute`` spans that started at or after
    ``since_ns`` (the start of the measured phase), so set-up and
    warm-up queries do not count.  ``http`` says whether the records'
    latencies are HTTP round trips.  Everything is per query unless its
    name or the benchmark's README says otherwise.
    """
    self_ns = stats.self_times((s.id, s.parent, s.start, s.end)
                               for s in spans)
    for s in spans:
        self_ns[s.id] -= s.page_ns
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def self_io(s: Span) -> int:
        return s.io - sum(c.io for c in children[s.id]
                          if c.io is not None and c.dev == s.dev)

    roots = [s for s in spans if s.name == ROOT and s.parent is None
             and s.start >= since_ns]
    n = max(1, len(roots))
    by_query: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.query is not None:
            by_query[s.query].append(s)

    ms = 1e-6
    plan_ns = session_ns = reduce_ns = sort_ns = join_ns = pool_ns = 0
    reduce_io = sort_io = join_io = 0
    tuples_in = tuples_out = sorts = redundant = pool_calls = 0
    unattributed = io_total = results = 0
    branch_counts: list[int] = []
    best_fracs: list[float] = []
    for root in roots:
        qspans = by_query[root.id]
        session_ns += self_ns[root.id]
        io_total += root.attrs.get("io_total", 0)
        results += root.attrs.get("results", 0)
        top = [c for c in children[root.id] if c.io is not None]
        unattributed += (root.attrs.get("io_total", 0)
                         - sum(c.io for c in top))
        qdev = next((c.dev for c in top if c.name != MATERIALIZE), None)
        seen: set[tuple] = set()
        for s in sorted(qspans, key=lambda s: s.start):
            pool_calls += s.page_calls
            pool_ns += s.page_ns
            if s.name in PLAN_CALLS:
                plan_ns += s.end - s.start
            elif s.name == REDUCER:
                reduce_ns += self_ns[s.id]
                reduce_io += self_io(s)
                tuples_in += s.attrs["tuples_in"]
                tuples_out += s.attrs["tuples_out"]
            elif s.name == SORT:
                sort_ns += self_ns[s.id]
                if s.dev == qdev:
                    sort_io += self_io(s)
                if s.attrs["sorted"]:
                    sorts += 1
                    key = (s.dev, s.attrs["relation"], s.attrs["attribute"])
                    redundant += key in seen
                    seen.add(key)
            elif s.name in JOIN_CALLS and s.parent == root.id:
                join_ns += self_ns[s.id]
                join_io += self_io(s)
                if s.name == "core.join.acyclic_join_best":
                    branch_counts.append(s.attrs["branches"])
                    explored = s.attrs["explored_io"]
                    best_fracs.append(s.attrs["best_io"] / explored
                                      if explored else 1.0)
            elif s.name == POOL_END_QUERY:
                pool_calls += 1
                pool_ns += s.end - s.start

    materialize = [s for s in spans if s.name == MATERIALIZE]
    replaces = [s for s in spans
                if s.name == CATALOG_ADD and s.attrs.get("replace")]
    waits = [r.admission.get("wait_ms", 0.0) for r in records]
    caches = [r.cache for r in records if r.cache is not None]
    logical = sum(c["logical_reads"] for c in caches)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return {
        "query.plan_ms": (plan_ns * ms / n, "ms"),
        "server.session.self_ms": (session_ns * ms / n, "ms"),
        "server.admission.wait_ms_p50": (
            statistics.median(waits) if waits else 0.0, "ms"),
        "server.admission.queued_frac": (
            mean(r.admission.get("outcome") == "queued" for r in records),
            "ratio"),
        "server.catalog.replace_ms": (
            mean((s.end - s.start) * ms for s in replaces), "ms"),
        "data.instance.materialize_ms": (
            mean((s.end - s.start) * ms for s in materialize), "ms"),
        "data.instance.materializations": (len(materialize), "count"),
        "core.reducer_em.self_ms": (reduce_ns * ms / n, "ms"),
        "core.reducer_em.io": (reduce_io / n, "pages"),
        "core.reducer_em.kept_frac": (
            tuples_out / tuples_in if tuples_in else 0.0, "ratio"),
        "em.sort.calls": (sorts / n, "count"),
        "em.sort.self_ms": (sort_ns * ms / n, "ms"),
        "em.sort.io": (sort_io / n, "pages"),
        "em.sort.redundant_frac": (redundant / sorts if sorts else 0.0,
                                   "ratio"),
        "core.join.self_ms": (join_ns * ms / n, "ms"),
        "core.join.io": (join_io / n, "pages"),
        "core.join.us_per_result": (
            join_ns / 1e3 / results if results else 0.0, "us"),
        "core.acyclic.branches": (mean(branch_counts), "count"),
        "core.acyclic.best_io_frac": (mean(best_fracs), "ratio"),
        "server.pool.hit_rate": (
            sum(c["hits"] for c in caches) / logical if logical else 0.0,
            "ratio"),
        "server.pool.evictions": (
            mean(c["evictions"] for c in caches), "count"),
        "server.pool.writebacks": (
            mean(c["writebacks"] for c in caches), "count"),
        "server.pool.calls": (pool_calls / n, "count"),
        "server.pool.busy_ms": (pool_ns * ms / n, "ms"),
        "server.http.self_ms": (
            mean(r.latency_s * 1e3 - r.wall_ms for r in records)
            if http else 0.0, "ms"),
        "server.flight.lost": (flight_lost, "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.unattributed_io_frac": (
            unattributed / io_total if io_total else 0.0, "ratio"),
    }
