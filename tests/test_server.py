"""The service layer: catalog, sessions, shared pool, HTTP surface.

The headline assertion is the ISSUE's acceptance criterion: a query
run through a server session reports I/O counters *byte-identical* to
a solo run — checked against the committed ``BENCH_table1.json``
``line3_planner`` class, not against a fresh measurement, so a
regression in either path trips it.
"""

import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.em import BufferPoolError
from repro.query import line_query
from repro.server import (AdmissionRejected, AdmissionTimeout, Catalog,
                          CatalogError, QueryService, ServiceError,
                          SessionClosed, start_http_server)
from repro.workloads import fig3_line3_instance

BENCH_TABLE1 = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "BENCH_table1.json")

M, B = 8, 2  # the pinned line3_planner machine


def pinned_line3():
    doc = json.loads(BENCH_TABLE1.read_text(encoding="utf-8"))
    return doc["classes"]["line3_planner"]


def line3_service(**kwargs) -> QueryService:
    svc = QueryService(M=256, B=B, default_query_M=M, **kwargs)
    schemas, data = fig3_line3_instance(16, 16)
    svc.add_instance("default", schemas, data)
    return svc


# ----------------------------------------------------------- catalog


class TestCatalog:
    LAYOUTS = {"r": ("a", "b")}
    ROWS = {"r": [(1, 2), (3, 4)]}

    def test_add_get_and_refcount(self):
        cat = Catalog()
        cat.add("d", self.LAYOUTS, self.ROWS)
        entry = cat.acquire("d")
        assert entry.pins == 1 and cat.stats["hits"] == 1
        assert entry.rows["r"] == [(1, 2), (3, 4)]
        cat.release(entry)
        assert entry.pins == 0

    def test_unknown_instance(self):
        with pytest.raises(CatalogError):
            Catalog().acquire("nope")

    def test_duplicate_requires_replace(self):
        cat = Catalog()
        cat.add("d", self.LAYOUTS, self.ROWS)
        with pytest.raises(CatalogError):
            cat.add("d", self.LAYOUTS, self.ROWS)
        e2 = cat.add("d", self.LAYOUTS, self.ROWS, replace=True)
        assert e2.generation == 2  # stale caches can tell
        assert cat.stats["replaced"] == 1

    def test_layouts_and_rows_validated(self):
        with pytest.raises(ValueError):
            Catalog().add("d", {"r": ("a", "b")}, {"s": []})
        with pytest.raises(ValueError):
            Catalog().add("d", {"r": ("a", "b")}, {"r": [(1, 2, 3)]})

    def test_repeated_row_rejected_naming_relation_and_tuple(self):
        """Relations are sets: a bag would reach Algorithm 2 through a
        session's materialization and break its peel-plan agreement."""
        rows = {"r": [(1, 2), (3, 4), (1, 2)]}
        with pytest.raises(CatalogError, match=r"'r'.*\(1, 2\)"):
            Catalog().add("d", self.LAYOUTS, rows)
        with QueryService(M=256, B=B) as svc:
            with pytest.raises(CatalogError, match=r"'r'.*\(1, 2\)"):
                svc.add_instance("d", self.LAYOUTS, rows)
            assert "d" not in svc.catalog

    def test_eviction_skips_pinned(self):
        cat = Catalog(capacity=2)
        cat.add("a", self.LAYOUTS, self.ROWS)
        held = cat.acquire("a")  # pins a, refreshes its recency
        cat.add("b", self.LAYOUTS, self.ROWS)
        cat.add("c", self.LAYOUTS, self.ROWS)  # b is LRU and unpinned
        assert "a" in cat and "b" not in cat and "c" in cat
        cat.release(held)
        cat.add("d", self.LAYOUTS, self.ROWS)  # a LRU, now evictable
        assert "a" not in cat
        assert cat.stats["evictions"] == 2

    def test_force_evict_only_when_unpinned(self):
        cat = Catalog()
        cat.add("d", self.LAYOUTS, self.ROWS)
        held = cat.acquire("d")
        assert cat.evict("d") is False  # refused: in use
        assert cat.evict("d", force=True) is True
        cat.release(held)  # releasing a ghost entry still works

    def test_load_csv_matches_solo_normalization(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n3,4\n1,2\n3,4\n", encoding="utf-8")
        cat = Catalog()
        entry = cat.load_csv("d", {"r": str(p)})
        # Same normalization as repro.data.io.load_csv: typed, deduped,
        # sorted — so served instances equal solo-loaded ones.
        assert entry.rows["r"] == [(1, 2), (3, 4)]
        assert cat.stats["loads"] == 1


# ------------------------------------------- the byte-identity proof


class TestByteIdentity:
    def test_session_counters_equal_pinned_solo_run(self):
        pinned = pinned_line3()
        assert pinned["machine"] == {"M": M, "B": B}
        with line3_service() as svc:
            s = svc.session("alice")
            r = s.execute(line_query(3), M=M, B=B)
        want = pinned["pool_off"]
        assert r.io["reads"] == want["io"]["reads"]
        assert r.io["writes"] == want["io"]["writes"]
        assert r.io["total"] == want["io"]["total"]
        assert r.results == want["results"]
        assert r.peak_mem == want["peak_mem"]
        assert r.phases == want["phases"]

    def test_repeated_queries_stay_identical(self):
        """A long-lived device must report every query as its first."""
        want = pinned_line3()["pool_off"]
        with line3_service() as svc:
            s = svc.session("alice")
            for _ in range(3):
                r = s.execute(line_query(3), M=M, B=B)
                assert r.io["total"] == want["io"]["total"]
                assert r.phases == want["phases"]
                assert r.peak_mem == want["peak_mem"]

    def test_sessions_do_not_see_each_other(self):
        with line3_service() as svc:
            a = svc.session("a")
            b = svc.session("b")
            ra = a.execute(line_query(3), M=M, B=B)
            rb = b.execute(line_query(3), M=M, B=B)
        assert ra.io == rb.io  # same query, same cost, no bleed
        assert ra.session == "a" and rb.session == "b"

    def test_result_shape_and_algorithm(self):
        with line3_service() as svc:
            r = svc.execute(line_query(3), M=M, B=B)
        assert r.shape == "line"
        assert "1" in r.algorithm  # Algorithm 1 handles L3
        assert r.machine == {"M": M, "B": B}
        assert r.admission["need"] == M


# ------------------------------------------------------- shared pool


class TestSharedPool:
    def test_second_session_reads_for_free(self):
        pinned = pinned_line3()["pool_off"]
        with line3_service(pool_frames=4096) as svc:
            a = svc.session("a")
            ra = a.execute(line_query(3), M=M, B=B)
            b = svc.session("b")
            rb = b.execute(line_query(3), M=M, B=B)
        # a faulted the 17 base pages in; b misses nothing.
        assert ra.cache["misses"] == 17
        assert rb.cache["misses"] == 0
        # every logical read hit
        assert rb.cache["hits"] == pinned["io"]["reads"]
        assert rb.io["reads"] == 0
        # own intermediates still cost
        assert rb.io["writes"] == pinned["io"]["writes"]

    def test_logical_reads_match_pool_off_physical(self):
        pinned = pinned_line3()["pool_off"]
        with line3_service(pool_frames=4096) as svc:
            r = svc.execute(line_query(3), M=M, B=B)
        assert (r.cache["hits"] + r.cache["misses"]
                == pinned["io"]["reads"])
        assert r.results == pinned["results"]

    def test_different_B_session_skips_the_pool(self):
        with line3_service(pool_frames=64) as svc:
            r = svc.execute(line_query(3), M=16, B=4)  # B != pool B
        assert r.cache is None  # no view attached: pool-off semantics

    def test_pin_relation_survives_other_sessions(self):
        with line3_service(pool_frames=64) as svc:
            a = svc.session("a")
            pages = a.pin_relation("e1", M=M, B=B)
            assert pages == 8  # 16 tuples at B=2
            assert svc.pool.stats()["pins"]["a"]["pins"] == 8
            b = svc.session("b")
            b.execute(line_query(3), M=M, B=B)  # churns the pool
            # a's pinned pages never left residency: re-reading them
            # through a's device is all hits.
            ra = a.execute(line_query(3), M=M, B=B)
            assert ra.results == 256
            svc.close_session("a")
            assert svc.pool.stats()["pins"] == {}  # pins died with a

    def test_pin_leak_regression_close_releases_only_own_pins(self):
        """Satellite: closing one session must unpin its frames and
        nobody else's."""
        with line3_service(pool_frames=64) as svc:
            a = svc.session("a")
            b = svc.session("b")
            a.pin_relation("e1", M=M, B=B)
            b.pin_relation("e3", M=M, B=B)
            svc.close_session("a")
            pins = svc.pool.stats()["pins"]
            assert "a" not in pins
            assert pins["b"]["pins"] == 8  # b's pins untouched
            svc.close_session("b")
            assert svc.pool.stats()["pins"] == {}

    def test_pin_cap_fairness(self):
        """One session cannot pin the pool out from under the others."""
        with line3_service(pool_frames=16, max_pin_share=0.25) as svc:
            a = svc.session("a")
            with pytest.raises(BufferPoolError, match="fairness cap"):
                a.pin_relation("e1", M=M, B=B)  # 8 pages > 4-frame cap

    def test_pin_relation_needs_a_pool(self):
        with line3_service() as svc:
            with pytest.raises(RuntimeError, match="shared pool"):
                svc.session("a").pin_relation("e1", M=M, B=B)


# --------------------------------------------------------- admission


class TestAdmissionThroughSessions:
    def test_impossible_need_rejected(self):
        with line3_service() as svc:  # global budget 256
            with pytest.raises(AdmissionRejected):
                svc.execute(line_query(3), M=512, B=B)

    def test_queue_timeout_surfaces(self):
        with line3_service() as svc:
            hog = svc.admission.acquire(256)  # hold the whole budget
            with pytest.raises(AdmissionTimeout):
                svc.execute(line_query(3), M=M, B=B, timeout=0.05)
            svc.admission.release(hog)
            r = svc.execute(line_query(3), M=M, B=B, timeout=5)
            assert r.results == 256

    def test_wait_time_reported(self):
        with line3_service() as svc:
            r = svc.execute(line_query(3), M=M, B=B)
            assert r.admission["wait_ms"] >= 0


# ---------------------------------------------------------- sessions


class TestSessionsAndService:
    def test_unknown_relation_and_layout_mismatch(self):
        with line3_service() as svc:
            s = svc.session("a")
            with pytest.raises(CatalogError, match="e9"):
                s.execute("e9(v1,v2)", M=M, B=B)
            with pytest.raises(CatalogError, match="attributes"):
                s.execute("e1(v1,wrong)", M=M, B=B)

    def test_closed_session_refuses_queries(self):
        with line3_service() as svc:
            s = svc.session("a")
            svc.close_session("a")
            with pytest.raises(SessionClosed):
                s.execute(line_query(3), M=M, B=B)
            with pytest.raises(ServiceError):
                svc.close_session("a")  # already gone

    def test_session_rejoin_by_name(self):
        with line3_service() as svc:
            a1 = svc.session("alice")
            a1.execute(line_query(3), M=M, B=B)
            a2 = svc.session("alice")
            assert a2 is a1  # the connection abstraction
            assert a2.queries == 1

    def test_one_shot_sessions_are_reaped(self):
        with line3_service() as svc:
            svc.execute(line_query(3), M=M, B=B)
            assert svc.sessions() == []

    def test_execute_batch_order_and_counters(self):
        pinned = pinned_line3()["pool_off"]
        with line3_service() as svc:
            rs = svc.execute_batch(
                [{"query": line_query(3), "M": M, "B": B}
                 for _ in range(6)], concurrency=3)
        assert len(rs) == 6
        # pool off: every query costs what it costs solo
        assert all(r.io["total"] == pinned["io"]["total"] for r in rs)
        assert {r.session for r in rs} == {"w0", "w1", "w2"}

    def test_execute_batch_error_propagates(self):
        with line3_service() as svc:
            good = {"query": line_query(3), "M": M, "B": B}
            with pytest.raises(ServiceError, match="request 1"):
                svc.execute_batch([good, {"query": "e9(v1,v2)"}, good])

    def test_text_query_and_collected_rows(self):
        with line3_service() as svc:
            r = svc.execute("e1(v1,v2), e2(v2,v3), e3(v3,v4)",
                            M=M, B=B, collect=True)
        assert r.results == 256 and len(r.rows) == 256
        doc = r.as_dict()
        assert doc["rows"][0].keys() == {"e1", "e2", "e3"}

    def test_closed_service_refuses_everything(self):
        svc = line3_service()
        svc.close()
        with pytest.raises(ServiceError):
            svc.session("a")
        with pytest.raises(ServiceError):
            svc.execute_batch([{"query": line_query(3)}])

    def test_service_metrics_aggregate(self):
        with line3_service() as svc:
            svc.execute(line_query(3), M=M, B=B)
            svc.execute(line_query(3), M=M, B=B)
            text = svc.prometheus()
        assert "repro_service_queries 2" in text
        assert "repro_service_shape_line 2" in text

    def test_stats_document(self):
        with line3_service(pool_frames=64) as svc:
            svc.session("alice").execute(line_query(3), M=M, B=B)
            doc = svc.stats()
        assert doc["machine"]["M"] == 256
        assert doc["admission"]["budget"] == 256
        assert doc["catalog"]["entries"][0]["name"] == "default"
        assert doc["pool"]["frames"] == 64
        assert any(s["name"] == "alice" for s in doc["sessions"])


# --------------------------------------------------------------- http


@pytest.fixture(scope="module")
def http_service():
    svc = line3_service(pool_frames=4096)
    server = start_http_server(svc, port=0)
    base = f"http://127.0.0.1:{server.server_port}"
    yield svc, base
    server.shutdown()
    svc.close()


def _post(base, doc, path="/query"):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.load(resp)


class TestHttp:
    QUERY = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"

    def test_query_round_trip(self, http_service):
        _, base = http_service
        status, doc = _post(base, {"query": self.QUERY, "M": M, "B": B})
        assert status == 200
        pinned = pinned_line3()["pool_off"]
        assert doc["results"] == pinned["results"]
        assert doc["shape"] == "line"
        assert doc["io"]["writes"] == pinned["io"]["writes"]

    def test_sticky_session(self, http_service):
        _, base = http_service
        for _ in range(2):
            status, doc = _post(base, {"query": self.QUERY, "M": M,
                                       "B": B, "session": "web"})
            assert status == 200 and doc["session"] == "web"

    def test_metrics_and_health(self, http_service):
        _, base = http_service
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as resp:
            assert resp.status == 200
            assert "version=0.0.4" in resp.headers["Content-Type"]
            body = resp.read().decode("utf-8")
        assert "repro_service_queries" in body
        with urllib.request.urlopen(base + "/healthz",
                                    timeout=10) as resp:
            assert json.load(resp)["ok"] is True

    def test_stats_and_catalog_routes(self, http_service):
        _, base = http_service
        for path in ("/stats", "/catalog"):
            with urllib.request.urlopen(base + path, timeout=10) as resp:
                assert resp.status == 200
                json.load(resp)  # valid JSON

    def test_unknown_route_404_lists_routes(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            urllib.request.urlopen(base + "/nope", timeout=10)
        assert e.value.code == 404
        assert "/metrics" in json.load(e.value)["routes"]

    def test_bad_body_400(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"not_a_query": 1})
        assert e.value.code == 400

    def test_unknown_relation_400(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": "e9(v1,v2)", "M": M, "B": B})
        assert e.value.code == 400

    def test_non_numeric_machine_params_400(self, http_service):
        _, base = http_service
        for doc in ({"query": self.QUERY, "M": "eight", "B": B},
                    {"query": self.QUERY, "M": M, "B": B,
                     "timeout_s": "soon"},
                    {"query": self.QUERY, "M": [8], "B": B}):
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, doc)
            assert e.value.code == 400
            assert "bad request body" in json.load(e.value)["error"]

    def test_internal_error_is_500_json_not_dropped(self, http_service):
        svc, base = http_service
        original = svc.execute

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        svc.execute = boom
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, {"query": self.QUERY, "M": M, "B": B})
            assert e.value.code == 500
            doc = json.load(e.value)
            assert doc["kind"] == "internal"
            assert "RuntimeError" in doc["error"]
        finally:
            svc.execute = original
        # The handler survived; the service keeps answering.
        status, doc = _post(base, {"query": self.QUERY, "M": M, "B": B})
        assert status == 200 and doc["results"] == 256

    def test_internal_keyerror_is_500_not_400(self, http_service):
        svc, base = http_service
        original = svc.execute

        def missing(*args, **kwargs):
            raise KeyError("frame_table")

        svc.execute = missing
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, {"query": self.QUERY, "M": M, "B": B})
            assert e.value.code == 500  # used to masquerade as 400
        finally:
            svc.execute = original

    def test_impossible_need_422(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": self.QUERY, "M": 4096, "B": B})
        assert e.value.code == 422
        assert json.load(e.value)["kind"] == "rejected"

    def test_busy_503_with_retry_after(self, http_service):
        svc, base = http_service
        hog = svc.admission.acquire(256)  # hold the whole budget
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, {"query": self.QUERY, "M": M, "B": B,
                             "timeout_s": 0.05})
            assert e.value.code == 503
            assert e.value.headers["Retry-After"] == "1"
        finally:
            svc.admission.release(hog)
