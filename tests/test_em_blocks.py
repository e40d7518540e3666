"""Block-granular cursor APIs: same pages, same order, fewer calls.

The invariant: every block operation charges **exactly** the page I/Os
its tuple-at-a-time equivalent charges, in the same global order.  With
a buffer pool attached the order is observable (it drives LRU state),
so the operator-level tests pin digests of full traced page-event
streams, not just totals.
"""

from __future__ import annotations

import pytest

from repro import Device, Instance
from repro.em import PoolConfig, external_sort
from repro.obs.tracer import Tracer
from repro.query import star_query
from repro.workloads import star_worstcase_instance

from conftest import bench_util


def fill(device, n, name="f"):
    f = device.new_file(name)
    with f.writer() as w:
        for i in range(n):
            w.append((i,))
    return f


def traced_device(M=16, B=4, *, pool=False):
    tracer = Tracer(capacity=1_000_000)
    kwargs = {}
    if pool:
        kwargs["buffer_pool"] = PoolConfig(frames=max(2, M // B),
                                           policy="lru")
    dev = Device(M=M, B=B, tracer=tracer, **kwargs)
    return dev, tracer


class TestReadBlockEdges:
    def test_empty_file_reads_nothing_and_charges_nothing(self,
                                                          small_device):
        f = small_device.new_file("empty")
        f.writer().close()
        r = f.reader()
        assert r.read_block(8) == []
        assert r.read_page_block() == []
        assert r.peek_page_block() == []
        assert list(f.scan_blocks()) == []
        assert small_device.stats.reads == 0

    def test_single_partial_page(self, small_device):
        f = fill(small_device, 3)  # B=4: one partial page
        small_device.stats.reset()
        r = f.reader()
        assert r.read_block(100) == [(0,), (1,), (2,)]
        assert small_device.stats.reads == 1
        assert r.exhausted
        assert r.read_block(1) == []

    def test_zero_and_negative_n(self, small_device):
        f = fill(small_device, 4)
        small_device.stats.reset()
        r = f.reader()
        assert r.read_block(0) == []
        assert r.read_block(-1) == []
        assert small_device.stats.reads == 0

    def test_multi_page_block_charges_each_page_once(self, small_device):
        f = fill(small_device, 16)  # 4 pages
        small_device.stats.reset()
        block = f.reader().read_block(16)
        assert block == [(i,) for i in range(16)]
        assert small_device.stats.reads == 4

    def test_buffered_page_not_recharged(self, small_device):
        f = fill(small_device, 8)
        small_device.stats.reset()
        r = f.reader()
        r.next()  # charges page 0
        assert small_device.stats.reads == 1
        # Block continuing inside page 0 charges only page 1.
        assert r.read_block(7) == [(i,) for i in range(1, 8)]
        assert small_device.stats.reads == 2

    def test_block_spanning_segment_boundary_stops_at_stop(
            self, small_device):
        f = fill(small_device, 16)
        seg = f.segment(2, 6)  # straddles pages 0 and 1, stops mid-page
        small_device.stats.reset()
        r = seg.reader()
        block = r.read_block(100)
        assert block == [(2,), (3,), (4,), (5,)]
        assert small_device.stats.reads == 2  # pages 0 and 1
        assert r.exhausted

    def test_page_block_clipped_by_segment(self, small_device):
        f = fill(small_device, 16)
        seg = f.segment(5, 7)  # inside page 1 only
        r = seg.reader()
        small_device.stats.reset()
        assert r.peek_page_block() == [(5,), (6,)]
        assert small_device.stats.reads == 1
        assert r.position == 5  # peek does not consume
        assert r.read_page_block() == [(5,), (6,)]
        assert small_device.stats.reads == 1  # same buffered page
        assert r.exhausted

    def test_scan_blocks_yields_page_aligned_blocks(self, small_device):
        f = fill(small_device, 10)  # B=4: 4 + 4 + 2
        blocks = list(f.scan_blocks())
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert [t for b in blocks for t in b] == [(i,) for i in range(10)]

    def test_skip_then_block_charges_landing_page_only(self,
                                                       small_device):
        f = fill(small_device, 16)
        small_device.stats.reset()
        r = f.reader()
        r.skip_to(9)  # seek is free
        assert small_device.stats.reads == 0
        assert r.read_page_block() == [(9,), (10,), (11,)]
        assert small_device.stats.reads == 1


class TestWriterBlockEdges:
    def test_append_block_counts_equal_append_loop(self):
        for n in (0, 1, 3, 4, 5, 8, 11, 16):
            d1, d2 = Device(M=16, B=4), Device(M=16, B=4)
            ts = [(i,) for i in range(n)]
            f1 = d1.new_file("a")
            with f1.writer() as w:
                for t in ts:
                    w.append(t)
            f2 = d2.new_file("a")
            with f2.writer() as w:
                w.append_block(ts)
            assert d1.stats.writes == d2.stats.writes, n
            assert f1.peek_tuples() == f2.peek_tuples()

    def test_extend_list_takes_block_path_same_counters(self):
        d1, d2 = Device(M=16, B=4), Device(M=16, B=4)
        ts = [(i,) for i in range(13)]
        f1 = d1.new_file("a")
        with f1.writer() as w:
            w.extend(iter(ts))  # generator: tuple-at-a-time path
        f2 = d2.new_file("a")
        with f2.writer() as w:
            w.extend(ts)  # list: block fast path
        assert d1.stats.writes == d2.stats.writes == 4
        assert f1.peek_tuples() == f2.peek_tuples()

    def test_append_block_tops_up_partial_buffer(self, small_device):
        f = small_device.new_file("a")
        w = f.writer()
        w.append((0,))
        small_device.stats.reset()
        w.append_block([(i,) for i in range(1, 9)])  # 9 total: 2 pages
        assert small_device.stats.writes == 2
        w.close()
        assert small_device.stats.writes == 3  # final partial page
        assert f.peek_tuples() == [(i,) for i in range(9)]

    def test_mixed_append_and_block_interleave(self, small_device):
        f = small_device.new_file("a")
        with f.writer() as w:
            w.append((0,))
            w.append_block([(1,), (2,)])
            w.append((3,))  # fills page 0
            w.append_block([(4,), (5,), (6,), (7,), (8,)])
        assert f.peek_tuples() == [(i,) for i in range(9)]
        assert small_device.stats.writes == 3


class TestColumnarStorage:
    def test_int_columns_pack(self, small_device):
        f = small_device.new_file("ints")
        with f.writer() as w:
            w.append_block([(1, 2), (3, 4)])
        assert f.column_kinds == ("i64", "i64")

    def test_object_columns_stay_lists(self, small_device):
        f = small_device.new_file("objs")
        with f.writer() as w:
            w.append_block([(1, "a"), (2, "b")])
        assert f.column_kinds == ("i64", "obj")

    def test_mixed_arity_falls_back_ragged(self, small_device):
        f = small_device.new_file("ragged")
        with f.writer() as w:
            w.append((1, 2))
            w.append((1, 2, 3))
        assert f.column_kinds == ("ragged",)
        assert f.peek_tuples() == [(1, 2), (1, 2, 3)]

    def test_huge_ints_do_not_pack(self, small_device):
        f = small_device.new_file("big")
        with f.writer() as w:
            w.append_block([(2 ** 80,), (1,)])
        assert f.column_kinds == ("obj",)
        assert f.peek_tuples() == [(2 ** 80,), (1,)]

    def test_bools_do_not_pack_as_ints(self, small_device):
        f = small_device.new_file("bools")
        with f.writer() as w:
            w.append_block([(True,), (False,)])
        assert f.peek_tuples() == [(True,), (False,)]
        assert f.peek_tuples()[0][0] is True


class TestBlockScalarEquivalence:
    """The block operators' page-event streams, pinned as digests.

    The tuple-at-a-time reference operators (since removed) produced
    these same digests on these workloads, so each check still holds
    the block paths to the per-tuple stream, page for page.
    """

    #: ``page_stream_digest`` of the 13-tuple sort, by pool on/off.
    SORT_DIGESTS = {
        False: "cd884af217903107cfe0a16a7e105b23"
               "3d8eee93043cff7c9b7baf207aadc152",
        True: "9a8b96d583b9a8412c3bd2e5e4cb39f1"
              "be3f4f0fb0458b7e468b593602d00dd8",
    }
    #: ... and of star(2) with the pool on (the Table-1 ``star`` class's
    #: ``pool_on`` leg, which pins the same digest).
    STAR_DIGEST = ("40b065916fccc4eb8acc9472ee44947d"
                   "ea0b7c6f202dcd5ca7820c26f472d1e9")

    @pytest.mark.parametrize("pool", [False, True])
    def test_external_sort_event_stream_identical(self, pool):
        dev, tracer = traced_device(M=4, B=2, pool=pool)
        f = dev.new_file("src")
        rows = [(i * 7919 % 13, i) for i in range(13)]
        with f.writer() as w:
            for t in rows:
                w.append(t)
        out = external_sort(f, lambda t: t[0], name="sorted")
        assert out.peek_tuples() == sorted(rows, key=lambda t: t[0])
        assert (bench_util().page_stream_digest(tracer)
                == self.SORT_DIGESTS[pool])

    def test_star_query_event_stream_identical(self):
        from repro.core.emit import CountingEmitter
        from repro.core.planner import acyclic_join_best

        dev, tracer = traced_device(M=4, B=2, pool=True)
        schemas, data = star_worstcase_instance([16, 16])
        inst = Instance.from_dicts(dev, schemas, data)
        emitter = CountingEmitter()
        acyclic_join_best(star_query(2), inst, emitter, limit=16)
        assert emitter.count == 256
        assert bench_util().page_stream_digest(tracer) == self.STAR_DIGEST

    def test_lossy_trace_refused(self):
        tracer = Tracer(capacity=2)
        fill(Device(M=4, B=2, tracer=tracer), 13)
        with pytest.raises(ValueError, match="lossy"):
            bench_util().page_stream_digest(tracer)

    def test_sort_empty_source_synthesizes_counted_run(self):
        from repro.obs import MetricsRegistry
        dev = Device(M=4, B=2, metrics=MetricsRegistry())
        f = dev.new_file("empty")
        f.writer().close()
        out = external_sort(f, lambda t: t[0], name="sorted")
        assert len(out) == 0
        # Regression: the run counter used to read 0 here even though
        # one (empty) run was synthesized and returned.
        assert dev.metrics.counter("sort.runs").value == 1
