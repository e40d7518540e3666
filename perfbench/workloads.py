"""The three workloads and the closed loop that runs them.

A workload names its machine, its client count, its request templates
and the seeded stream that picks among them.  :func:`setup` builds a
service for it (timed: that is ``setup_s``), :func:`run_rounds` drives
the clients for a fixed time, and :func:`expected_outcomes` computes
what every request must return before any timing starts.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator

import inputs
from repro.core.emit import CountingEmitter
from repro.core.planner import execute
from repro.data.instance import Instance
from repro.em.device import Device
from repro.internal import join_count
from repro.query.parse import parse_query_and_layouts
from repro.server.http import start_http_server
from repro.server.service import QueryService

Dataset = tuple[inputs.Schemas, inputs.Rows]


@dataclass(frozen=True)
class Template:
    """One kind of request: a query text against a catalog instance."""

    instance: str
    query: str
    reduce_first: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    M: int                # memory each query declares and runs with
    B: int
    service_M: int        # the service's global admission budget
    pool_frames: int      # 0: no shared pool
    http: bool            # requests over loopback HTTP, else in-process
    templates: tuple[Template, ...]
    #: seed -> {instance: [variant datasets]}; an instance with several
    #: variants is replaced by the next one between rounds.
    make_data: Callable[[int], dict[str, list[Dataset]]]
    #: (seed, client) -> endless stream of template indices
    make_stream: Callable[[int, int], Iterator[int]]
    #: requests per client per round; between rounds (nothing in
    #: flight) the machine's speed is sampled and multi-variant
    #: instances are replaced
    round_size: int


def _reduce_heavy_data(seed: int) -> dict[str, list[Dataset]]:
    return {"uniform": [inputs.uniform_line3(
        inputs.UNIFORM_TUPLES, inputs.UNIFORM_DOMAIN,
        inputs.sub_seed(seed, "uniform"))]}


def _join_heavy_data(seed: int) -> dict[str, list[Dataset]]:
    return {"fig3": [inputs.fig3(inputs.sub_seed(seed, "fig3"))],
            "star": [inputs.star3(inputs.sub_seed(seed, "star"))]}


def _pooled_data(seed: int) -> dict[str, list[Dataset]]:
    return {
        "hot": [inputs.uniform_line3(inputs.HOT_TUPLES, inputs.HOT_DOMAIN,
                                     inputs.sub_seed(seed, f"hot{g}"))
                for g in range(inputs.HOT_VARIANTS)],
        "cold": [inputs.uniform_line3(inputs.COLD_TUPLES,
                                      inputs.COLD_DOMAIN,
                                      inputs.sub_seed(seed, "cold"))],
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="reduce_heavy",
        why=("1 client, closed loop, pool off: line-3 over 3x3000 uniform "
             "tuples, domain 6000, M=256 B=16 (each relation ~12M); the "
             "full reducer and its sorts dominate, output is small"),
        clients=1, M=256, B=16, service_M=256, pool_frames=0, http=False,
        templates=(Template("uniform", inputs.LINE3),),
        make_data=_reduce_heavy_data,
        make_stream=lambda seed, c: inputs.cycle_stream([0]),
        round_size=8),
    Workload(
        name="join_heavy",
        why=("1 client, closed loop, pool off, reducer skipped: Fig. 3 "
             "line-3 (250x250, 62500 results) twice per 3-petal star "
             "(22^3 results), M=64 B=8; join kernels and emit dominate"),
        clients=1, M=64, B=8, service_M=64, pool_frames=0, http=False,
        templates=(Template("fig3", inputs.LINE3, reduce_first=False),
                   Template("star", inputs.STAR3, reduce_first=False)),
        make_data=_join_heavy_data,
        make_stream=lambda seed, c: inputs.cycle_stream([0, 0, 1]),
        round_size=6),
    Workload(
        name="pooled_http",
        why=("2 clients, closed loop, sticky sessions over HTTP; pool 128 "
             "frames of B=16: hot 3x400 fits, cold 3x2000 does not; M=256 "
             "per query of 512; hot replaced every round"),
        clients=2, M=256, B=16, service_M=512, pool_frames=128, http=True,
        templates=(Template("hot", inputs.LINE3),
                   Template("cold", inputs.LINE3)),
        make_data=_pooled_data,
        make_stream=lambda seed, c: inputs.zipf_stream(
            seed, c, inputs.zipf_weights(2, inputs.ZIPF_S), block=12),
        round_size=12),
)}


# -- correctness ---------------------------------------------------------

def expected_outcomes(wl: Workload, data: dict[str, list[Dataset]]
                      ) -> dict[tuple[int, int], tuple[int, int | None]]:
    """``{(template, variant): (result count, solo io.total)}``.

    The count comes from the in-memory oracle.  Without a pool the I/O
    is exact, so each query is also run solo through
    :func:`repro.core.planner.execute` on a fresh device with the same
    ``(M, B)``; every service query must then charge exactly that.
    With a pool the I/O depends on what else is resident, so it is
    ``None`` (not checked).
    """
    out = {}
    for t, tpl in enumerate(wl.templates):
        query = parse_query_and_layouts(tpl.query)[0]
        for v, (schemas, rows) in enumerate(data[tpl.instance]):
            count = join_count(query, rows, schemas)
            io = None
            if not wl.pool_frames:
                inst = Instance.from_dicts(Device(M=wl.M, B=wl.B), schemas,
                                           rows)
                emitter = CountingEmitter()
                report = execute(query, inst, emitter,
                                 reduce_first=tpl.reduce_first)
                if emitter.count != count:
                    raise AssertionError(
                        f"{wl.name}: solo run of template {t} variant {v} "
                        f"emitted {emitter.count}, oracle says {count}")
                io = report.total_io
            out[(t, v)] = (count, io)
    return out


# -- one request ---------------------------------------------------------

@dataclass
class Record:
    """What one request returned, as the client saw it."""

    template: int
    variant: int
    latency_s: float
    rnd: int = 0
    error: str | None = None
    results: int = 0
    io: int = 0
    peak_mem: int = 0
    M: int = 1
    wall_ms: float = 0.0
    admission: dict = field(default_factory=dict)
    cache: dict | None = None
    ok: bool = False

    def fill(self, doc: dict) -> None:
        """Copy the fields of a result document (``QueryResult.as_dict``
        or the HTTP response body)."""
        self.results = doc["results"]
        self.io = doc["io"]["total"]
        self.peak_mem = doc["peak_mem"]
        self.M = doc["machine"]["M"]
        self.wall_ms = doc["wall_ms"]
        self.admission = doc["admission"]
        self.cache = doc.get("cache")


class Env:
    """A service built for one workload, plus how clients reach it."""

    def __init__(self, wl: Workload, data: dict[str, list[Dataset]]):
        self.wl = wl
        self.data = data
        self.service = QueryService(M=wl.service_M, B=wl.B,
                                    default_query_M=wl.M,
                                    pool_frames=wl.pool_frames)
        for name, variants in data.items():
            self.service.add_instance(name, *variants[0])
        self.server = start_http_server(self.service) if wl.http else None

    def send(self, client: int, template: int, rnd: int) -> Record:
        tpl = self.wl.templates[template]
        variants = len(self.data[tpl.instance])
        rec = Record(template, rnd % variants, 0.0, rnd=rnd)
        session = f"c{client}"
        t0 = time.perf_counter()
        try:
            if self.server is None:
                doc = self.service.execute(
                    tpl.query, session=session, instance=tpl.instance,
                    reduce_first=tpl.reduce_first).as_dict()
            else:
                doc = self._request("POST", "/query", {
                    "query": tpl.query, "instance": tpl.instance,
                    "session": session})
            rec.latency_s = time.perf_counter() - t0
            rec.fill(doc)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            rec.latency_s = time.perf_counter() - t0
            rec.error = f"{type(exc).__name__}: {exc}"
        return rec

    def _request(self, method: str, path: str, body: dict | None = None):
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, payload,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status}: {doc.get('error')}")
        return doc

    def warm_up(self) -> list[Record]:
        """First query of every client session on every instance, so each
        session has materialized what it will read."""
        firsts: dict[str, int] = {}
        for t, tpl in enumerate(self.wl.templates):
            firsts.setdefault(tpl.instance, t)
        return [self.send(c, t, 0) for c in range(self.wl.clients)
                for t in firsts.values()]

    def replace_round(self, rnd: int) -> None:
        """Between rounds: supersede every multi-variant instance with
        its next variant (a catalog generation bump)."""
        for name, variants in self.data.items():
            if len(variants) > 1:
                self.service.add_instance(
                    name, *variants[rnd % len(variants)], replace=True)

    def flight_lost(self) -> int:
        """``seen - stored - overwritten`` of the flight ring; 0 when the
        recorder is loss-honest."""
        if self.server is None:
            doc = self.service.flight.stats()
        else:
            doc = self._request("GET", "/debug/queries?n=0")
        return doc["seen"] - doc["stored"] - doc["overwritten"]

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        self.service.close()


def setup(wl: Workload, data: dict[str, list[Dataset]]
          ) -> tuple[Env, list[Record], float]:
    """Build the service, load the catalog, warm every session up.

    Returns the environment, the warm-up records and the seconds taken.
    """
    t0 = time.perf_counter()
    env = Env(wl, data)
    warm = env.warm_up()
    return env, warm, time.perf_counter() - t0


# -- machine speed -------------------------------------------------------

_CAL_RNG = random.Random(0)
_CAL_ROWS = [(_CAL_RNG.randrange(1 << 20), _CAL_RNG.randrange(1 << 20))
             for _ in range(20000)]


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes right now.

    Sorting tuples by a key and folding them into a dict is the same
    kind of work the engine does, so the kernel slows down when the
    machine does, by about the same factor.  Nothing in the engine runs
    in it, so no change to the engine moves it.
    """
    t0 = time.perf_counter()
    fold: dict[int, int] = {}
    for a, b in sorted(_CAL_ROWS, key=itemgetter(1)):
        fold[a & 1023] = fold.get(a & 1023, 0) + b
    return time.perf_counter() - t0


# -- the closed loop -----------------------------------------------------

class RoundViolation(RuntimeError):
    """The between-rounds hook ran while a request was in flight."""


@dataclass
class LoopResult:
    records: list[list[Record]]   # per client, in send order
    round_s: list[float]          # wall time of each round
    calibration_s: list[float]    # calibrate() at the start and after
                                  # each round

    @property
    def elapsed_s(self) -> float:
        return sum(self.round_s)

    @property
    def rounds(self) -> int:
        return len(self.round_s)


def run_rounds(clients: int, send: Callable[[int, int], Record], *,
               seconds: float, round_size: int,
               between_rounds: Callable[[int], None],
               calibrate: Callable[[], float],
               barrier_timeout: float = 300.0) -> LoopResult:
    """Drive ``clients`` closed-loop threads for ``seconds``.

    Each client calls ``send(client, round)`` and sends its next request
    only when the previous one returned.  After ``round_size`` requests
    a client pauses; once all are paused (none in flight)
    ``calibrate()`` runs, then ``between_rounds(next_round)`` does, both
    on the calling thread, and the next round starts.  A client also
    ends its round when time is up, after which the loop stops.  Round
    times include ``between_rounds`` but not ``calibrate``.
    """
    lock = threading.Lock()
    inflight = [0]
    stop = [False]
    barrier = threading.Barrier(clients + 1, timeout=barrier_timeout)
    records: list[list[Record]] = [[] for _ in range(clients)]
    calibrations = [calibrate()]
    round_s: list[float] = []
    round_start = time.perf_counter()
    deadline = round_start + seconds

    def client(c: int) -> None:
        rnd = 0
        while True:
            done = 0
            while done < round_size and time.perf_counter() < deadline:
                with lock:
                    inflight[0] += 1
                try:
                    records[c].append(send(c, rnd))
                finally:
                    with lock:
                        inflight[0] -= 1
                done += 1
            try:
                barrier.wait()  # round over for this client
                barrier.wait()  # the coordinator has decided
            except threading.BrokenBarrierError:
                return  # the coordinator failed and reports why
            if stop[0]:
                return
            rnd += 1

    threads = [threading.Thread(target=client, args=(c,),
                                name=f"perfbench-client{c}")
               for c in range(clients)]
    for t in threads:
        t.start()
    try:
        while True:
            barrier.wait()
            round_s.append(time.perf_counter() - round_start)
            with lock:
                if inflight[0]:
                    raise RoundViolation(
                        f"{inflight[0]} request(s) in flight at the end "
                        f"of round {len(round_s) - 1}")
            calibrations.append(calibrate())
            if time.perf_counter() >= deadline:
                stop[0] = True
            else:
                round_start = time.perf_counter()
                between_rounds(len(round_s))
            barrier.wait()
            if stop[0]:
                break
    except BaseException:
        barrier.abort()
        raise
    finally:
        for t in threads:
            t.join(timeout=barrier_timeout)
    return LoopResult(records=records, round_s=round_s,
                      calibration_s=calibrations)
