"""Tests for per-phase I/O attribution."""

import pytest

from repro import Device, Instance
from repro.core import CountingEmitter, acyclic_join
from repro.core.triangle import triangle_join
from repro.obs import SpanProfiler
from repro.query import line_query, triangle_query


class TestPhaseTracker:
    def test_exclusive_attribution_when_nested(self, small_device):
        tracker = small_device.phases
        with small_device.span("outer", kind="phase"):
            small_device.file_from_tuples([(i,) for i in range(8)])  # 2 w
            with small_device.span("inner", kind="phase"):
                small_device.file_from_tuples([(i,) for i in range(16)])
        assert tracker.totals["inner"] == 4
        assert tracker.totals["outer"] == 2

    def test_report_includes_remainder(self, small_device):
        with small_device.span("a", kind="phase"):
            small_device.file_from_tuples([(1,)])
        small_device.file_from_tuples([(2,)])
        rep = small_device.phases.report()
        assert rep["a"] == 1
        assert rep["(unattributed)"] == 1
        assert sum(rep.values()) == small_device.stats.total

    def test_repeated_phases_accumulate(self, small_device):
        for _ in range(3):
            with small_device.span("w", kind="phase"):
                small_device.file_from_tuples([(1,)])
        assert small_device.phases.totals["w"] == 3

    def test_phase_nested_through_a_span_is_exclusive(self, small_device):
        """A non-phase span between two phases passes the inner
        phase's claim on to the outer one."""
        with small_device.span("outer", kind="phase"):
            small_device.file_from_tuples([(i,) for i in range(8)])  # 2 w
            with small_device.span("op"):
                small_device.file_from_tuples([(1,)])  # 1 w, to outer
                with small_device.span("inner", kind="phase"):
                    small_device.file_from_tuples([(1,)])
        assert small_device.phases.totals == {"outer": 3, "inner": 1}

    @pytest.mark.parametrize("profiled", [False, True])
    def test_reset_stats_under_open_phase_raises_first(self, profiled):
        """Resetting inside an open phase used to zero every counter
        and then fail with ``IndexError`` when the phase exited."""
        device = Device(M=16, B=4,
                        profiler=SpanProfiler() if profiled else None)
        with device.span("x", kind="phase"):
            device.file_from_tuples([(1,)])
            with pytest.raises(RuntimeError, match="'x'"):
                device.reset_stats()
            assert device.stats.total == 1  # nothing was zeroed
        assert device.phases.report() == {"x": 1, "(unattributed)": 0}

    def test_reset(self, small_device):
        with small_device.span("x", kind="phase"):
            small_device.file_from_tuples([(1,)])
        small_device.reset_stats()
        assert small_device.phases.totals == {}
        assert small_device.stats.total == 0


class TestFreeMaterializationAttribution:
    """Regression: ``file_from_tuples_free`` must suspend counting.

    The old implementation rewound ``stats.reads/writes`` after the
    writes happened; any I/O an inner phase attributed in between was
    erased from the device total but not from the phase, driving the
    enclosing phase's exclusive total negative.
    """

    def test_free_materialization_inside_phase_is_invisible(self,
                                                            small_device):
        with small_device.span("setup", kind="phase"):
            small_device.file_from_tuples_free([(i,) for i in range(20)])
        assert small_device.phases.totals["setup"] == 0
        assert small_device.stats.total == 0

    def test_charged_work_inside_free_generator_stays_consistent(self):
        device = Device(M=8, B=2)

        def gen():
            # Charged I/O attributed to an inner phase *during* the
            # free materialization — the case the rewind corrupted.
            with device.span("inner", kind="phase"):
                device.file_from_tuples([(i,) for i in range(8)])
            yield (0,)

        with device.span("outer", kind="phase"):
            device.file_from_tuples_free(gen())
        report = device.phases.report()
        assert all(v >= 0 for v in report.values()), report
        assert sum(report.values()) == device.stats.total
        # Suspension makes the whole materialization free, including
        # work its input generator performs.
        assert device.stats.total == 0

    def test_free_materialization_bypasses_the_pool(self):
        from repro.em import PoolConfig

        device = Device(M=8, B=2,
                        buffer_pool=PoolConfig(frames=4))
        device.file_from_tuples_free([(i,) for i in range(8)])
        device.flush_pool()
        assert device.stats.total == 0
        assert device.pool.resident_pages == 0


class TestInstrumentation:
    def test_acyclic_join_attributes_sorts_and_semijoins(self):
        device = Device(M=8, B=2)
        inst = Instance.from_dicts(
            device,
            {"e1": ("v1", "v2"), "e2": ("v2", "v3"), "e3": ("v3", "v4")},
            {"e1": [(i, i % 3) for i in range(20)],
             "e2": [(i % 3, i % 4) for i in range(10)],
             "e3": [(i % 4, i) for i in range(20)]})
        acyclic_join(line_query(3), inst, CountingEmitter())
        rep = device.phases.report()
        assert rep.get("sort", 0) > 0
        assert sum(rep.values()) == device.stats.total

    def test_triangle_attributes_partitioning(self):
        rows = [(i, j) for i in range(6) for j in range(6)]
        device = Device(M=16, B=4)
        inst = Instance.from_dicts(
            device,
            {"e1": ("v1", "v2"), "e2": ("v1", "v3"), "e3": ("v2", "v3")},
            {"e1": rows, "e2": rows, "e3": rows})
        triangle_join(triangle_query(), inst, CountingEmitter())
        rep = device.phases.report()
        assert rep.get("partition", 0) > 0
