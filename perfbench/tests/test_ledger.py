"""The traced run: wrappers are transparent and spans add up."""

import importlib

import workloads
import ledger
from repro.server.service import QueryService


def originals():
    out = []
    for module, path, *_ in ledger.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append(vars(owner)[attr])
    return out


def run(service, queries):
    return [service.execute(q, session="s", instance="i").as_dict()
            for q in queries]


def small_service(pool_frames):
    data = workloads._reduce_heavy_data(7)["uniform"][0]
    schemas, rows = data
    rows = {r: t[:300] for r, t in rows.items()}
    svc = QueryService(M=64, B=8, pool_frames=pool_frames)
    svc.add_instance("i", schemas, rows)
    return svc


def test_install_wraps_and_uninstall_restores():
    before = originals()
    rec = ledger.Recorder()
    with rec:
        assert all(a is not b for a, b in zip(before, originals()))
    assert all(a is b for a, b in zip(before, originals()))


def test_traced_queries_match_untraced_and_io_is_attributed():
    for frames in (0, 16):
        plain = run(small_service(frames), ["e1(v1,v2), e2(v2,v3), "
                                            "e3(v3,v4)"] * 2)
        rec = ledger.Recorder()
        with rec:
            traced = run(small_service(frames), ["e1(v1,v2), e2(v2,v3), "
                                                 "e3(v3,v4)"] * 2)
        assert [d["results"] for d in traced] == \
            [d["results"] for d in plain]
        if not frames:
            assert [d["io"] for d in traced] == [d["io"] for d in plain]
        roots = [s for s in rec.spans if s.name == ledger.ROOT]
        assert len(roots) == 2
        for s in rec.spans:
            assert s.start <= s.end
            if s.name != ledger.CATALOG_ADD:     # outside any query
                assert s.query in {r.id for r in roots}
        records = [workloads.Record(0, 0, 0.001) for _ in traced]
        for r, d in zip(records, traced):
            r.fill(d)
        m = ledger.layer_metrics(rec.spans, records, since_ns=0,
                                 http=False, flight_lost=0,
                                 overhead_ratio=1.0)
        assert m["trace.unattributed_io_frac"][0] == 0.0
        assert m["em.sort.calls"][0] > 0
        assert 0 < m["core.reducer_em.kept_frac"][0] <= 1
        assert (m["server.pool.calls"][0] > 0) == bool(frames)
        # Self I/O of the operator layers adds up to the query's I/O.
        io = sum(d["io"]["total"] for d in traced) / 2
        owned = (m["core.reducer_em.io"][0] + m["em.sort.io"][0]
                 + m["core.join.io"][0])
        assert owned <= io
        if not frames:
            assert owned == io


def test_pool_page_calls_are_counted_on_their_span():
    rec = ledger.Recorder()
    with rec:
        run(small_service(16), ["e1(v1,v2), e2(v2,v3), e3(v3,v4)"])
    assert sum(s.page_calls for s in rec.spans) > 0
    assert all(s.page_ns <= s.end - s.start for s in rec.spans)
    doc = ledger.chrome_trace(rec)
    assert {e["name"] for e in doc["traceEvents"]} >= {
        ledger.ROOT, ledger.POOL_END_QUERY, ledger.SORT}
    assert sum(e["args"].get("pool_page_calls", 0)
               for e in doc["traceEvents"]) == \
        sum(s.page_calls for s in rec.spans)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in doc["traceEvents"])
