"""Tests for the observability layer: tracer, rollups, baselines."""

import json
import pathlib
import sys

import pytest

from repro import Device, Instance, Tracer, line_query
from repro.core import CountingEmitter, line3_join
from repro.em import PoolConfig
from repro.obs import (UNATTRIBUTED, IOBreakdown, ProfiledEmitter,
                       SpanProfiler, compare_baselines, load_baseline,
                       write_baseline)
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.workloads import fig3_line3_instance

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
TABLE1 = load_baseline(BENCH_DIR / "BENCH_table1.json")["classes"]


def traced_line3(M=4, B=2, pool=None, **tracer_kwargs):
    """Run the fixed L3 instance with a tracer; return (device, tracer)."""
    tracer = Tracer(**tracer_kwargs)
    device = Device(M=M, B=B, buffer_pool=pool, tracer=tracer)
    schemas, data = fig3_line3_instance(32, 32)
    instance = Instance.from_dicts(device, schemas, data)
    line3_join(line_query(3), instance, CountingEmitter())
    device.flush_pool()
    return device, tracer


def bench_util():
    """The ``benchmarks/_util.py`` module (not a package)."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import _util
    finally:
        sys.path.pop(0)
    return _util


def run_table1_class(name, leg, *, observed):
    """One leg of a pinned Table-1 class as ``measure_class`` runs it,
    with a tracer and a profiler attached when ``observed``; returns
    (device, tracer, profiler, results)."""
    util = bench_util()
    query, schemas, data, M, B, runner = util.table1_baseline_cases()[name]
    pool = util._baseline_pool(M, B) if leg == "pool_on" else None
    tracer = Tracer() if observed else None
    profiler = SpanProfiler() if observed else None
    device = Device(M=M, B=B, buffer_pool=pool, tracer=tracer,
                    profiler=profiler)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance,
           ProfiledEmitter(emitter, profiler) if observed else emitter)
    device.flush_pool()
    return device, tracer, profiler, emitter.count


class TestTracer:
    def test_rollups_sum_to_device_total(self):
        device, tracer = traced_line3()
        s = tracer.summary()
        assert s["io"]["reads"] == device.stats.reads == 325
        assert s["io"]["writes"] == device.stats.writes == 146
        per_phase = sum(v["total"] for v in s["per_phase"].values())
        assert per_phase == device.stats.total
        per_file = sum(v["total"] for v in s["per_file"].values())
        assert per_file == device.stats.total

    @pytest.mark.parametrize("leg", ["pool_off", "pool_on"])
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_per_phase_matches_phase_tracker(self, name, leg):
        """Tracer rollups, phase report and profiler all read the one
        device stack: they agree with each other, with the pinned
        phases, and with an unobserved run."""
        device, tracer, profiler, results = run_table1_class(
            name, leg, observed=True)
        bare, _, _, bare_results = run_table1_class(name, leg,
                                                    observed=False)
        report = device.phases.report()
        per_phase = {k: v["total"]
                     for k, v in tracer.summary()["per_phase"].items()}
        assert per_phase == report
        assert report == TABLE1[name][leg]["phases"]
        assert (device.stats.reads, device.stats.writes, results) == (
            bare.stats.reads, bare.stats.writes, bare_results)
        assert device.stats.cache == bare.stats.cache
        assert report == bare.phases.report()
        s = profiler.summary()
        exclusive = sum(sp.exclusive_io for sp in profiler.iter_spans())
        assert exclusive + s["unattributed_io"] == device.stats.total

    def test_memory_peak_matches_gauge(self):
        device, tracer = traced_line3()
        assert tracer.summary()["memory"]["peak"] == device.memory.peak

    def test_pooled_cache_rollup_matches_cache_stats(self):
        device, tracer = traced_line3(pool=PoolConfig(frames=8))
        c = device.stats.cache
        s = tracer.summary()
        assert s["cache"] == {"hits": c.hits, "misses": c.misses,
                              "evictions": c.evictions,
                              "writebacks": c.writebacks}
        assert c.hits + c.misses == c.logical_reads

    def test_sampling_keeps_rollups_exact(self):
        exact_device, exact = traced_line3()
        device, sampled = traced_line3(sample_every=13)
        assert (device.stats.reads, device.stats.writes) == (
            exact_device.stats.reads, exact_device.stats.writes)
        assert sampled.summary()["io"] == exact.summary()["io"]
        assert sampled.summary()["per_phase"] == \
            exact.summary()["per_phase"]
        ev = sampled.summary()["events"]
        assert ev["sampled_out"] > 0
        assert ev["stored"] < ev["seen"]

    def test_ring_buffer_overwrites_oldest(self):
        device, tracer = traced_line3(capacity=32)
        events = tracer.events()
        assert len(events) == 32
        ev = tracer.summary()["events"]
        assert ev["overwritten"] == ev["seen"] - 32
        # Oldest first, and strictly increasing sequence numbers.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        # Rollups were unaffected by the overwrites.
        assert tracer.summary()["io"]["total"] == device.stats.total

    def test_export_jsonl_is_parseable(self, tmp_path):
        _, tracer = traced_line3()
        path = tmp_path / "trace.jsonl"
        n = tracer.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == n == len(tracer.events())
        reads = writes = 0
        for line in lines:
            obj = json.loads(line)
            assert obj["kind"] in EVENT_KINDS
            reads += obj["kind"] == "read"
            writes += obj["kind"] == "write"
        # Unsampled export carries every physical I/O.
        assert reads == 325 and writes == 146

    def test_io_events_carry_file_page_phase(self):
        _, tracer = traced_line3()
        io_events = [e for e in tracer.events()
                     if e.kind in ("read", "write")]
        assert io_events
        for e in io_events:
            assert e.file and e.page is not None and e.page >= 0

    def test_suspended_io_is_invisible(self):
        tracer = Tracer()
        device = Device(M=16, B=4, tracer=tracer)
        device.file_from_tuples_free([(i,) for i in range(64)])
        assert tracer.seen == 0
        assert tracer.summary()["io"]["total"] == 0

    def test_reset_stats_resets_tracer(self):
        device, tracer = traced_line3()
        device.reset_stats()
        assert tracer.seen == 0 and tracer.events() == []
        assert tracer.summary()["io"]["total"] == 0

    def test_detach_stops_observation(self):
        tracer = Tracer()
        device = Device(M=16, B=4, tracer=tracer)
        f = device.file_from_tuples_free([(i,) for i in range(8)])
        device.detach_tracer()
        list(f.reader())
        assert device.stats.reads == 2 and tracer.seen == 0

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_event_as_dict_omits_none_fields(self):
        e = TraceEvent(seq=3, kind="mem_peak", value=7)
        assert e.as_dict() == {"seq": 3, "kind": "mem_peak", "value": 7}

    def test_unattributed_phase_key(self):
        tracer = Tracer()
        device = Device(M=16, B=4, tracer=tracer)
        f = device.file_from_tuples_free([(i,) for i in range(8)])
        list(f.reader())
        assert tracer.summary()["per_phase"] == {
            UNATTRIBUTED: IOBreakdown(reads=2).as_dict()}


class TestInclusiveRollups:
    def test_exclusive_sums_to_total_inclusive_overlaps(self):
        device, tracer = traced_line3()
        s = tracer.summary()
        exclusive = sum(v["total"] for v in s["per_phase"].values())
        assert exclusive == device.stats.total
        # Inclusive rows overlap whenever phases nest, so their sum
        # can only meet or exceed the exclusive partition.
        inclusive = sum(v["total"] for v in
                        s["per_phase_inclusive"].values())
        assert inclusive >= exclusive

    def test_inclusive_dominates_exclusive_per_label(self):
        _, tracer = traced_line3()
        s = tracer.summary()
        assert set(s["per_phase"]) == set(s["per_phase_inclusive"])
        for label, b in s["per_phase"].items():
            inc = s["per_phase_inclusive"][label]
            assert inc["reads"] >= b["reads"]
            assert inc["writes"] >= b["writes"]

    def test_nested_charge_goes_to_innermost_exclusively(self):
        from repro.obs import Rollups

        r = Rollups()
        r.record_io("read", "f", ("outer", "inner"))
        r.record_io("write", "f", ("outer",))
        r.record_io("read", "f", ())
        assert {k: v.total for k, v in r.per_phase.items()} == {
            "inner": 1, "outer": 1, UNATTRIBUTED: 1}
        assert {k: v.total for k, v in r.per_phase_inclusive.items()} \
            == {"inner": 1, "outer": 2, UNATTRIBUTED: 1}

    def test_recursive_label_charged_once_inclusively(self):
        from repro.obs import Rollups

        r = Rollups()
        r.record_io("read", "f", ("sort", "merge", "sort"))
        assert r.per_phase["sort"].reads == 1
        assert r.per_phase_inclusive["sort"].reads == 1
        assert r.per_phase_inclusive["merge"].reads == 1

    def test_reset_clears_inclusive_view(self):
        from repro.obs import Rollups

        r = Rollups()
        r.record_io("read", "f", ("p",))
        r.reset()
        assert r.per_phase_inclusive == {}


class TestBaseline:
    def doc(self):
        return {"classes": {
            "line3": {"machine": {"M": 4, "B": 2},
                      "pool_off": {"io": {"reads": 325, "writes": 146,
                                          "total": 471},
                                   "results": 1024,
                                   "phases": {"sort": 200},
                                   "peak_mem": 8}}}}

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_baseline(path, self.doc()["classes"], meta={"note": "t"})
        loaded = load_baseline(path)
        assert loaded["classes"] == self.doc()["classes"]
        assert loaded["meta"] == {"note": "t"}

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "classes": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(path)

    def test_no_drift_on_identical_docs(self):
        assert compare_baselines(self.doc(), self.doc()) == []

    def test_integer_drift_is_reported(self):
        fresh = json.loads(json.dumps(self.doc()))
        fresh["classes"]["line3"]["pool_off"]["io"]["reads"] = 326
        drift = compare_baselines(self.doc(), fresh)
        assert drift == ["line3.pool_off.io.reads: 325 -> 326"]

    def test_missing_class_is_reported_both_ways(self):
        fresh = {"classes": {}}
        assert "not re-measured" in compare_baselines(
            self.doc(), fresh)[0]
        assert "missing from the committed" in compare_baselines(
            fresh, self.doc())[0]

    def test_float_tolerance(self):
        old = {"classes": {"c": {"hit_rate": 0.5}}}
        new = {"classes": {"c": {"hit_rate": 0.5 + 1e-12}}}
        assert compare_baselines(old, new) == []
        new = {"classes": {"c": {"hit_rate": 0.51}}}
        assert compare_baselines(old, new) == [
            "c.hit_rate: 0.5 -> 0.51"]

    def test_committed_table1_baseline_matches_fresh_run(self):
        """The committed BENCH_table1.json must reproduce exactly —
        the same check CI runs, minus the subprocess."""
        committed = load_baseline(BENCH_DIR / "BENCH_table1.json")
        fresh = {"classes": bench_util().table1_baseline()}
        assert compare_baselines(committed, fresh) == []
