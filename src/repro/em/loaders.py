"""The chunk-loading operations of Section 2.3 of the paper.

The paper defines skew relative to the memory size ``M``: a value ``a``
of attribute ``v`` is *heavy* in ``R(e)`` if at least ``M`` tuples of
``R(e)`` carry it, and *light* otherwise.  After sorting ``R(e)`` on
``v`` the file decomposes into maximal runs of equal ``v``-value
(groups), and the paper manipulates them with three operations, all
reproduced here with exact I/O accounting:

* ``load R(e)|_{v=a} into memory as M(e)`` — read the next ``M`` tuples
  of one (heavy) group: :func:`load_group_chunks`.
* ``load R(e) by v into memory as M(e)`` — read light tuples in value
  order until at least ``M`` are fetched, never splitting a group
  (yields at most ``2M`` tuples with at most ``M`` distinct values):
  :func:`load_light_chunks`.
* ``load R(e) into memory as M(e)`` — read the next ``M`` tuples of an
  unsorted file: :func:`load_chunks`.

:func:`group_boundaries` performs the single partitioning scan that
identifies groups (and hence heavy values) after a sort.  The semijoin
primitives sit beside the loaders: :func:`scan_matching` filters one
segment against a memory-resident value set, :func:`merge_matching`
merges two sorted cursors (the full reducer's and Algorithm 2's bud
semijoin), and :func:`take_matching` advances a shared sorted cursor
one memory load of light values at a time (Algorithms 1 and 2).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.em.file import FileSegment, SequentialReader, Tuple

Key = Callable[[Tuple], Any]


@dataclass(frozen=True)
class Group:
    """A maximal run of tuples sharing one value on the sort attribute."""

    value: Any
    start: int
    stop: int

    @property
    def count(self) -> int:
        return self.stop - self.start

    def is_heavy(self, M: int) -> bool:
        """Heavy means at least ``M`` tuples carry this value (§2.3)."""
        return self.count >= M


# em-cost: N/B -- one sequential scan of the sorted segment
def group_boundaries(segment: FileSegment, key: Key) -> list[Group]:
    """Scan a sorted segment once and return its value groups in order.

    Costs one sequential read of the segment.  The returned boundary
    list is query-size metadata (one entry per distinct value) which the
    model lets us keep for free relative to the data pages; algorithms
    that cannot afford it only ever iterate it streamingly anyway.
    """
    groups: list[Group] = []
    reader = segment.reader()
    current_value: Any = None
    current_start = segment.start
    first = True
    pos = segment.start
    append = groups.append
    # em-loop-bound: N/B -- one page block per iteration
    while not reader.exhausted:
        block = reader.read_page_block()
        keys = list(map(key, block))
        if first and keys:
            current_value, current_start, first = keys[0], pos, False
        if keys[0] == keys[-1] and keys[0] == current_value:
            pos += len(keys)  # whole page inside the current group
            continue
        for i, v in enumerate(keys):
            if v != current_value:
                append(Group(current_value, current_start, pos + i))
                current_value, current_start = v, pos + i
        pos += len(keys)
    if not first:
        groups.append(Group(current_value, current_start, segment.stop))
    return groups


def split_heavy_light(groups: list[Group], M: int) -> tuple[list[Group], list[Group]]:
    """Partition groups into (heavy, light) with respect to ``M``."""
    heavy = [g for g in groups if g.is_heavy(M)]
    light = [g for g in groups if not g.is_heavy(M)]
    return heavy, light


# em-cost: N/B -- each page of the segment is read exactly once
# em-yields: N/M
def load_chunks(segment: FileSegment, M: int) -> Iterator[list[Tuple]]:
    """Yield successive memory loads of up to ``M`` tuples.

    This is the paper's ``load R(e) into memory as M(e)`` for unsorted
    files (and for one heavy group when applied to its segment).
    """
    reader = segment.reader()
    # em-loop-bound: N/M -- one memory-load of tuples per iteration
    while not reader.exhausted:
        chunk = reader.read_block(M)
        with segment.device.memory.hold(len(chunk)):
            yield chunk


# em-cost: N/B -- one pass over the group's pages (via load_chunks)
# em-yields: N/M
def load_group_chunks(segment: FileSegment, group: Group, M: int) -> Iterator[list[Tuple]]:
    """Yield ``M``-tuple loads of one group: ``load R(e)|_{v=a}``."""
    yield from load_chunks(segment.subsegment(group.start, group.stop), M)


# em-cost: amortized N/B -- the group spans read are disjoint and in
# file order, so together they touch each page of the segment at most
# once; per-group accounting would overcount shared boundary pages
# em-yields: N/M
def load_light_chunks(segment: FileSegment, light_groups: list[Group],
                      M: int) -> Iterator[list[Tuple]]:
    """Yield memory loads covering the light groups, in value order.

    Implements ``load R(e) by v into memory as M(e)``: tuples with the
    same value are loaded together, and loading stops as soon as at
    least ``M`` tuples are resident.  Because every group is light
    (< ``M`` tuples), each yielded chunk holds fewer than ``2M`` tuples
    and fewer than ``M`` distinct values — the properties the paper's
    analysis relies on.

    Heavy groups interleaved between the light ones in the underlying
    file are skipped with a free seek; their pages are not charged.
    """
    reader = segment.reader()
    chunk: list[Tuple] = []
    for g in light_groups:
        if g.count >= M:
            raise ValueError(
                f"group for value {g.value!r} has {g.count} >= M={M} tuples; "
                "light loader requires light groups only")
    # Batch contiguous groups into one span read per chunk: the
    # span's pages are charged ascending on entry, exactly the
    # sequence the per-group (and per-tuple) reads produce.  The
    # span ends with the first group that lifts the chunk to >= M
    # — the same group after which a group-at-a-time loader yields.
    i, n = 0, len(light_groups)
    while i < n:
        g = light_groups[i]
        if reader.position < g.start:
            reader.skip_to(g.start)
        start = reader.position
        stop = g.stop
        while (stop - start + len(chunk) < M and i + 1 < n
               and light_groups[i + 1].start == stop):
            i += 1
            stop = light_groups[i].stop
        chunk.extend(reader.read_block(stop - start))
        if len(chunk) >= M:
            with segment.device.memory.hold(len(chunk)):
                yield chunk
            chunk = []
        i += 1
    if chunk:
        with segment.device.memory.hold(len(chunk)):
            yield chunk


# em-cost: N/B -- one sequential scan of the segment
# em-yields: N
def scan_matching(segment: FileSegment, key: Key,
                  wanted: set) -> Iterator[Tuple]:
    """Stream the tuples of a segment whose key value is in ``wanted``.

    One sequential read of the segment; ``wanted`` is assumed to be
    memory-resident (the caller charges it).  This is the semijoin
    primitive ``R(e') ⋉ M_1`` used when peeling light chunks.
    """
    for block in segment.scan_blocks():
        for t in block:
            if key(t) in wanted:
                yield t


# em-cost: N/B -- one merge pass: both cursors only advance, so each
# page of either sorted input is entered at most once
# em-yields: N
def merge_matching(left: SequentialReader, right: SequentialReader,
                   key_l: Key, key_r: Key) -> Iterator[Tuple]:
    """Stream the tuples of ``left`` whose key value occurs in ``right``.

    The semijoin ``left ⋉ right`` as one merge pass over two cursors
    sorted on the join key.  Both advance through materialized page
    blocks; each page is charged once, when a tuple-at-a-time merge
    would first peek into it.  The right side keeps its current page's
    keys precomputed, so the per-left-tuple advance is one
    :func:`bisect` (C speed) within the page; pages exhausted below the
    probe key are fetched exactly when a per-tuple boundary peek would
    have charged them.
    """
    rblock: list = []
    rkeys: list = []
    ri = 0
    # em-loop-bound: N/B -- one left page block per iteration
    while not left.exhausted:
        lblock = left.read_page_block()
        # em-loop-bound: 1 -- the right cursor advances monotonically,
        # so all probe fetches across the whole pass total one scan;
        # the inner advance is counted in whole-pass units
        for t, kv in zip(lblock, map(key_l, lblock)):
            # em-loop-bound: 1 -- fetches at most one new right page
            # beyond the shared single pass
            while True:
                if ri >= len(rblock):
                    if right.exhausted:
                        rblock, rkeys, ri = [], [], 0
                        break
                    rblock = right.read_page_block()
                    rkeys = list(map(key_r, rblock))
                    ri = 0
                ri = bisect_left(rkeys, kv, ri)
                if ri < len(rkeys):
                    break
            if ri < len(rblock) and rkeys[ri] == kv:
                yield t


# em-cost: N/B -- at most one pass over the sorted cursor's pages
def take_matching(reader: SequentialReader, index: int, upto: Any,
                  wanted: set) -> list[Tuple]:
    """Advance a sorted cursor through every tuple whose ``index``
    column is at most ``upto``; return those whose value is in
    ``wanted``.

    The block form of a ``peek()``-bounded take-while: fetch the
    current page (charged exactly as a peek would), consume its
    ``<= upto`` prefix in memory, and stop at the first page holding a
    larger value.  Light-value peeling calls it once per memory load
    with increasing ``upto`` on one cursor per relation, so all calls
    together make a single pass over the relation.
    """
    matched: list[Tuple] = []
    # em-loop-bound: N/B -- one page per iteration
    while not reader.exhausted:
        page = reader.peek_page_block()
        taken = 0
        for t in page:
            v = t[index]
            if v > upto:
                break
            taken += 1
            if v in wanted:
                matched.append(t)
        reader.skip_to(reader.position + taken)
        if taken < len(page):
            break
    return matched
