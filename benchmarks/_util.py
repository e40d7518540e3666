"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a Table 1 row, a
worked example, or an optimality theorem's sweep) and prints the rows it
measured in a paper-shaped table.  Absolute numbers depend on the
simulated machine; the *shape* — who wins, by what factor, where the
crossover sits — is the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Mapping, Sequence

from repro import Device, Instance
from repro.core import CountingEmitter
from repro.em import PoolConfig
from repro.obs import Tracer
from repro.obs.events import CACHE_KINDS, IO_KINDS


def run_em(query, schemas, data, runner: Callable, M: int, B: int,
           pool: PoolConfig | None = None, **kwargs) -> dict:
    """Run an EM algorithm on a fresh device; return io/result counts.

    ``pool`` opts the device into a buffer pool; the pool is flushed
    before counting so totals are deterministic, and the returned dict
    gains ``hits``/``misses``/``hit_rate``.
    """
    device = Device(M=M, B=B, buffer_pool=pool)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance, emitter, **kwargs)
    device.flush_pool()
    out = {"io": device.stats.total, "reads": device.stats.reads,
           "writes": device.stats.writes, "results": emitter.count,
           "peak_mem": device.memory.peak}
    if pool is not None:
        c = device.stats.cache
        out.update({"hits": c.hits, "misses": c.misses,
                    "hit_rate": c.hit_rate})
    return out


def best_branch(query, schemas, data, M: int, B: int,
                limit: int = 12,
                pool: PoolConfig | None = None) -> dict:
    """Measure Algorithm 2's best peel branch."""
    from repro.core import acyclic_join_best

    device = Device(M=M, B=B, buffer_pool=pool)
    instance = Instance.from_dicts(device, schemas, data)
    best = acyclic_join_best(query, instance, limit=limit)
    return {"io": best.io, "reads": best.best.reads,
            "writes": best.best.writes, "results": best.best.emitted,
            "branches": len(best.runs),
            "round_robin_io": best.round_robin_io}


def print_table(title: str, rows: Sequence[Mapping], capsys=None) -> None:
    """Print measurement rows as an aligned table (outside capture)."""
    def do_print():
        print()
        print(f"== {title} ==")
        if not rows:
            print("(no rows)")
            return
        cols = list(rows[0].keys())
        widths = {c: max(len(str(c)),
                         *(len(_fmt(r[c])) for r in rows)) for c in cols}
        header = "  ".join(str(c).ljust(widths[c]) for c in cols)
        print(header)
        print("-" * len(header))
        for r in rows:
            print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))

    if capsys is not None:
        with capsys.disabled():
            do_print()
    else:
        do_print()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


# -- pinned Table-1 baselines (BENCH_table1.json) ----------------------
#
# One deterministic fixed instance per Table-1 query class, measured
# pool-off (the paper-faithful counts) and pool-on (cache behaviour).
# generate_report.py writes/checks the committed baseline from these;
# CI fails on any drift in the counters.

#: LRU frames for the pooled leg of each baseline measurement.
def _baseline_pool(M: int, B: int) -> PoolConfig:
    return PoolConfig(frames=max(2, M // B), policy="lru")


def table1_baseline_cases() -> dict:
    """Query class -> ``(query, schemas, data, M, B, runner)``.

    Every instance is a fixed deterministic construction (no RNG), so
    the measured counters are exactly reproducible — that is what makes
    them pinnable.
    """
    from repro.core import (acyclic_join_best, execute, line3_join,
                            nested_loop_join)
    from repro.core.triangle import triangle_join
    from repro.query import (JoinQuery, line_query, star_query,
                             triangle_query)
    from repro.workloads import (cross_product_instance,
                                 fig3_line3_instance, schemas_for,
                                 star_worstcase_instance)

    cases: dict = {}

    q2 = line_query(2)
    cases["two_relations"] = (
        q2, schemas_for(q2),
        {"e1": [(i, 0) for i in range(64)],
         "e2": [(0, j) for j in range(64)]},
        16, 4,
        lambda q, i, e: nested_loop_join(i["e1"], i["e2"], e))

    schemas, data = fig3_line3_instance(32, 32)
    cases["line3"] = (line_query(3), schemas, data, 4, 2,
                      lambda q, i, e: line3_join(q, i, e))

    schemas, data = fig3_line3_instance(16, 16)
    cases["line3_planner"] = (line_query(3), schemas, data, 8, 2,
                              lambda q, i, e: execute(q, i, e))

    schemas, data = star_worstcase_instance([16, 16])
    cases["star"] = (star_query(2), schemas, data, 4, 2,
                     lambda q, i, e: acyclic_join_best(q, i, e, limit=16))

    broom = JoinQuery(edges={
        "e1": frozenset({"a", "b"}),
        "e2": frozenset({"b", "c"}),
        "e3": frozenset({"c", "p", "q"}),
        "e4": frozenset({"p", "x"}),
        "e5": frozenset({"q", "y"}),
    })
    dom = {a: (3 if a in ("a", "x", "y") else 2)
           for a in broom.attributes}
    schemas, data = cross_product_instance(broom, dom)
    cases["acyclic_broom"] = (broom, schemas, data, 4, 2,
                              lambda q, i, e: acyclic_join_best(
                                  q, i, e, limit=16))

    clique = [(i, j) for i in range(8) for j in range(8)]
    cases["triangle"] = (
        triangle_query(),
        {"e1": ("v1", "v2"), "e2": ("v1", "v3"), "e3": ("v2", "v3")},
        {"e1": clique, "e2": clique, "e3": clique},
        32, 4,
        lambda q, i, e: triangle_join(q, i, e))

    return cases


#: Ring capacity of the tracer whose stream a baseline leg digests:
#: far above any pinned workload's event count, and checked anyway.
DIGEST_TRACE_CAPACITY = 1 << 20


def page_stream_digest(tracer: Tracer) -> str:
    """SHA-256 of the ``(kind, file, page)`` stream of every page event
    ``tracer`` saw — read, write, hit, miss, eviction, write-back — in
    order.

    It pins which pages a run touches and in what order, not only how
    many: with a buffer pool the order decides every hit and eviction.
    A digest of a partial stream pins nothing, so a tracer that dropped
    or sampled out any event is refused.
    """
    events = tracer.events()
    if tracer.seen != len(events):
        raise ValueError(
            f"lossy trace: {len(events)} of {tracer.seen} events kept; "
            f"digest a Tracer with sample_every=1 and room for them all")
    h = hashlib.sha256()
    for e in events:
        if e.kind in IO_KINDS or e.kind in CACHE_KINDS:
            h.update(f"{e.kind} {e.file} {e.page}\n".encode())
    return h.hexdigest()


def measure_class(query, schemas, data, runner: Callable, M: int, B: int,
                  *, pool: PoolConfig | None = None,
                  tracer: Tracer | None = None) -> dict:
    """One full baseline measurement: I/O, phases, memory, cache, and
    the digest of the page-access stream.

    Like :func:`run_em` but returns the whole counter tree the baseline
    pins (per-phase breakdown and peak memory included).  ``tracer``
    must be lossless; without one a fresh full-capacity tracer records
    the stream.
    """
    if tracer is None:
        tracer = Tracer(capacity=DIGEST_TRACE_CAPACITY)
    device = Device(M=M, B=B, buffer_pool=pool, tracer=tracer)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance, emitter)
    device.flush_pool()
    out = {"io": {"reads": device.stats.reads,
                  "writes": device.stats.writes,
                  "total": device.stats.total},
           "results": emitter.count,
           "phases": device.phases.report(),
           "peak_mem": device.memory.peak,
           "page_digest": page_stream_digest(tracer)}
    if pool is not None:
        out["cache"] = device.stats.cache.as_dict()
    return out


def table1_baseline(tracer_summaries: dict | None = None) -> dict:
    """Measure every baseline class pool-off and pool-on.

    When ``tracer_summaries`` is a dict, the exact rollup summary of
    each class's pool-off tracer is stored under the class name (the CI
    artifact) — the counters are identical with or without a tracer,
    which the tracer-transparency test pins.
    """
    out: dict = {}
    for name, (query, schemas, data, M, B, runner) in sorted(
            table1_baseline_cases().items()):
        tracer = Tracer(capacity=DIGEST_TRACE_CAPACITY)
        pool_off = measure_class(query, schemas, data, runner, M, B,
                                 tracer=tracer)
        pool_on = measure_class(query, schemas, data, runner, M, B,
                                pool=_baseline_pool(M, B))
        out[name] = {"machine": {"M": M, "B": B},
                     "pool_off": pool_off, "pool_on": pool_on}
        if tracer_summaries is not None:
            tracer_summaries[name] = tracer.summary()
    return out
