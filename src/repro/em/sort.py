"""External merge sort with exact I/O accounting.

The standard EM sort: form sorted runs of ``M`` tuples in memory, then
merge them with fan-in ``M/B - 1`` until a single run remains.  Total
cost is ``O((N/B) log_{M/B}(N/M))`` I/Os — the ``sort(N)`` bound the
paper's Õ-notation absorbs (Section 1.1).

Both phases are block-at-a-time: run formation reads each ``M``-chunk
as one block, and the tournament merge feeds the heap from materialized
page blocks and flushes the output a page block at a time.  The charges
land on the same pages *in the same order* as a tuple-at-a-time merge:
the sequence of page accesses, not just their count, is observable
through the buffer pool, and ``benchmarks/BENCH_table1.json`` pins it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.em.device import Device
from repro.em.file import EMFile, FileSegment, Tuple

Key = Callable[[Tuple], Any]


# em-cost: N/B * log(N/M) + N/B -- form runs in one pass, then
# log_{M/B}(N/M) merge levels each re-reading and re-writing the data
def external_sort(source: EMFile | FileSegment, key: Key,
                  name: str | None = None) -> EMFile:
    """Sort ``source`` by ``key`` into a new file on the same device.

    The sort is stable within the limits of the run-merge structure
    (run formation chunks the source in order and the tournament breaks
    ties by run index).
    """
    if isinstance(source, EMFile):
        source = source.whole()
    device = source.device

    with device.span("external_sort", n=len(source)):
        runs = _form_runs(source, key, name)
        merged = _merge_runs(device, runs, key, name)
    return merged


# em-cost: N/B -- each input tuple is read once and written into a run once
def _form_runs(segment: FileSegment, key: Key,
               name: str | None) -> list[EMFile]:
    """Phase 1: read ``M`` tuples at a time, sort in memory, write runs."""
    device = segment.device
    run_lengths = device.metrics.histogram("sort.run_tuples")
    runs: list[EMFile] = []
    reader = segment.reader()
    i = 0
    with device.span("form_runs"):
        # em-loop-bound: N/M -- one memory-load chunk per iteration
        while not reader.exhausted:
            # Charge the gauge *before* reading: the chunk occupies
            # memory as it streams in, so a strict budget must police
            # the read itself, not just the sort that follows.
            n = min(device.M, reader.remaining())
            with device.memory.hold(n):
                chunk = reader.read_block(n)
                chunk.sort(key=key)
                run = device.new_file(
                    None if name is None else f"{name}.run{i}")
                with run.writer() as w:
                    w.append_block(chunk)
            run_lengths.observe(n)
            runs.append(run)
            i += 1
    if not runs:
        empty = device.new_file(name)
        empty.writer().close()
        runs.append(empty)
    # Count the runs actually returned: an empty source still yields
    # one (synthesized, empty) run, so ``sort.runs`` never reads 0 for
    # a sort that happened.
    device.metrics.counter("sort.runs").inc(len(runs))
    return runs


# em-cost: N/B * log(N/M) -- one full read-and-write pass per merge level
def _merge_runs(device: Device, runs: list[EMFile], key: Key,
                name: str | None) -> EMFile:
    """Phase 2: repeatedly merge with fan-in ``max(2, M//B - 1)``."""
    fan_in = max(2, device.M // device.B - 1)
    level = 0
    # em-loop-bound: log(N/M) -- fan-in M/B shrinks the run count
    # geometrically, so the level count is log_{M/B}(N/M)
    while len(runs) > 1:
        with device.span("merge_level", level=level, runs=len(runs),
                         fan_in=fan_in):
            next_runs: list[EMFile] = []
            # em-loop-bound: 1 -- the batches partition this level's
            # runs, so one level's merges together read and write each
            # tuple once; _merge_once is counted in whole-level units
            for j in range(0, len(runs), fan_in):
                batch = runs[j:j + fan_in]
                out_name = (None if name is None
                            else f"{name}.merge{level}.{j // fan_in}")
                next_runs.append(_merge_once(device, batch, key, out_name))
        device.metrics.counter("sort.merge_levels").inc()
        runs = next_runs
        level += 1
    result = runs[0]
    if name is not None:
        result.name = name
    return result


# em-cost: amortized N/B -- one pass over the batch: every page of the
# input runs is read once and every output page is written once
def _merge_once(device: Device, runs: list[EMFile], key: Key,
                name: str | None) -> EMFile:
    """Merge up to fan-in runs into one sorted file via a tournament."""
    if len(runs) == 1:
        return runs[0]
    out = device.new_file(name)
    B = device.B
    # Each open run holds one buffered page; the output holds one more.
    with device.memory.hold((len(runs) + 1) * B):
        with out.writer() as w:
            # A tournament whose heap entries, tie-breaking counter and
            # pop -> flush -> refill order fix the sequence of page
            # accesses (observable with a buffer pool): each run feeds
            # from a materialized page block, charged when fetched --
            # exactly when a tuple-at-a-time reader would cross the
            # boundary -- and the output flushes a full page block at
            # the B-tuple boundaries a per-tuple writer flushes at.
            readers = [r.reader() for r in runs]
            bufs: list[list[Tuple]] = [[] for _ in runs]
            kbufs: list[list[Any]] = [[] for _ in runs]
            bpos = [0] * len(runs)
            counter = itertools.count()
            heappush, heappop = heapq.heappush, heapq.heappop
            heap: list[tuple[Any, int, int, Tuple]] = []
            for idx, rd in enumerate(readers):
                if not rd.exhausted:
                    buf = rd.read_page_block()
                    bufs[idx] = buf
                    kbufs[idx] = list(map(key, buf))
                    bpos[idx] = 1
                    heappush(heap, (kbufs[idx][0], next(counter),
                                    idx, buf[0]))
            outbuf: list[Tuple] = []
            append_out = outbuf.append
            while heap:
                _, _, idx, t = heappop(heap)
                append_out(t)
                if len(outbuf) == B:
                    w.append_block(outbuf)
                    outbuf.clear()
                buf = bufs[idx]
                i = bpos[idx]
                if i < len(buf):
                    bpos[idx] = i + 1
                    heappush(heap, (kbufs[idx][i], next(counter),
                                    idx, buf[i]))
                else:
                    rd = readers[idx]
                    if not rd.exhausted:
                        buf = rd.read_page_block()
                        bufs[idx] = buf
                        kb = list(map(key, buf))
                        kbufs[idx] = kb
                        bpos[idx] = 1
                        heappush(heap, (kb[0], next(counter),
                                        idx, buf[0]))
            if outbuf:
                w.append_block(outbuf)
    return out


def is_sorted(source: EMFile | FileSegment, key: Key) -> bool:  # em-effects: FREE_PEEK -- sortedness oracle for tests; never on a counted path
    """Check sortedness **without charging I/O** (test helper)."""
    tuples = source.peek_tuples()
    return all(key(tuples[i]) <= key(tuples[i + 1])
               for i in range(len(tuples) - 1))
