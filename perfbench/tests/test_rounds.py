"""The closed loop and its between-rounds hook."""

import random
import threading
import time

import workloads
import pytest


class FakeService:
    """Requests that take a random few milliseconds; a replace that
    checks nothing is in flight and takes time of its own."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inflight = 0
        self.events = []          # (kind, start, end)
        self.replaced = []

    def send(self, client, rnd):
        with self.lock:
            self.inflight += 1
        start = time.perf_counter()
        time.sleep(random.uniform(0.0005, 0.004))
        end = time.perf_counter()
        with self.lock:
            self.inflight -= 1
            self.events.append(("query", start, end))
        return workloads.Record(template=0, variant=rnd, latency_s=end - start)

    def replace(self, rnd):
        with self.lock:
            assert self.inflight == 0, "replace ran beside a query"
        start = time.perf_counter()
        time.sleep(0.002)
        self.events.append(("replace", start, time.perf_counter()))
        self.replaced.append(rnd)


def no_calibration():
    return 0.001


def test_replace_never_overlaps_a_query():
    svc = FakeService()
    loop = workloads.run_rounds(3, svc.send, seconds=0.6, round_size=4,
                              between_rounds=svc.replace,
                              calibrate=no_calibration)
    assert svc.replaced == list(range(1, loop.rounds))
    assert len(svc.replaced) >= 3
    queries = [(s, e) for k, s, e in svc.events if k == "query"]
    for kind, start, end in svc.events:
        if kind == "replace":
            assert all(e <= start or s >= end for s, e in queries)


def test_rounds_cap_requests_per_client_and_tag_the_round():
    svc = FakeService()
    loop = workloads.run_rounds(2, svc.send, seconds=0.4, round_size=3,
                              between_rounds=svc.replace,
                              calibrate=no_calibration)
    for per_client in loop.records:
        by_round = {}
        for rec in per_client:
            by_round[rec.variant] = by_round.get(rec.variant, 0) + 1
        assert max(by_round.values()) <= 3
        assert sorted(by_round) == list(range(len(by_round)))


def test_time_up_ends_the_round_and_the_loop():
    svc = FakeService()
    t0 = time.perf_counter()
    loop = workloads.run_rounds(2, svc.send, seconds=0.2, round_size=10**6,
                              between_rounds=svc.replace,
                              calibrate=no_calibration)
    assert loop.rounds == 1 and not svc.replaced
    assert 0.2 <= loop.elapsed_s <= time.perf_counter() - t0
    assert all(len(r) > 5 for r in loop.records)


def test_a_failing_hook_stops_the_loop():
    svc = FakeService()

    def boom(rnd):
        raise RuntimeError("replace failed")

    with pytest.raises(RuntimeError, match="replace failed"):
        workloads.run_rounds(2, svc.send, seconds=5, round_size=2,
                           between_rounds=boom, calibrate=no_calibration,
                           barrier_timeout=5)
    assert not [t for t in threading.enumerate()
                if t.name.startswith("perfbench-client")]


def test_calibration_runs_at_start_and_after_every_round_while_idle():
    svc = FakeService()

    def calibrate():
        with svc.lock:
            assert svc.inflight == 0
        return 0.001

    loop = workloads.run_rounds(2, svc.send, seconds=0.3, round_size=2,
                              between_rounds=svc.replace,
                              calibrate=calibrate)
    assert len(loop.calibration_s) == loop.rounds + 1
    assert all(rec.variant < loop.rounds for per in loop.records
               for rec in per)


def test_calibrate_is_a_positive_time():
    assert 0 < workloads.calibrate() < 5
