"""On-disk tuple files for the simulated external-memory machine.

An :class:`EMFile` is an append-only sequence of tuples laid out in
pages of ``B`` tuples.  Physically the tuples live in a columnar
:class:`~repro.em.pages.ColumnStore` (struct-packed ``array`` columns
for integers); logically nothing changes — all access goes through
cursors that charge the device's :class:`~repro.em.stats.IOStats`:

* :class:`Writer` buffers up to ``B`` tuples and charges one write per
  flushed page (including the final partial page).
* :class:`SequentialReader` charges one read each time it enters a page
  it has not yet buffered.  Re-scanning a file with a fresh reader
  charges again, exactly as re-reading from disk would.

A :class:`FileSegment` is a contiguous ``[start, stop)`` slice of a
file — e.g. ``R(e)|_{v=a}`` inside a file sorted on ``v`` — and reads
through the same page-granular accounting.

Block APIs
----------

Every operator in the engine moves whole blocks, amortizing the Python
interpreter over many tuples per call:

* :meth:`SequentialReader.read_block` — up to ``n`` tuples in one call;
* :meth:`SequentialReader.read_page_block` — the rest of the current
  page (never more than ``B`` tuples, so it needs no memory hold);
* :meth:`Writer.append_block` / :meth:`Writer.write_block` — bulk
  append, flushing full pages as they fill.

The per-tuple :meth:`SequentialReader.peek` / :meth:`SequentialReader.next`
and :meth:`Writer.append` define what a charge is, and every block call
charges **exactly** the page I/Os the equivalent per-tuple loop would,
in the same order: a block read entering pages ``p..q`` charges them
ascending, just as ``next()`` would when crossing each boundary, and a
block append charges one write per page at the same fill points
``append()`` flushes at.  The order is observable (it drives the buffer
pool's hit/miss sequence), so ``benchmarks/BENCH_table1.json`` pins a
digest of each workload's full page-access stream.  Blocks larger than
one page occupy real memory; callers account for them with
``device.memory.hold``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, TYPE_CHECKING

from repro.em.pages import ColumnStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device

Tuple = tuple
Key = Callable[[Tuple], Any]


class EMFile:
    """A sequence of tuples stored on the simulated disk.

    Files are created through :meth:`repro.em.device.Device.new_file`
    and populated through :meth:`writer`.  Once the writer is closed the
    file is sealed and read-only; sealing struct-packs the integer
    columns of the backing :class:`~repro.em.pages.ColumnStore`.
    """

    def __init__(self, device: "Device", name: str) -> None:
        self.device = device
        self.name = name
        self._store = ColumnStore()
        self._sealed = False

    # -- writing -----------------------------------------------------

    def writer(self) -> "Writer":
        """Return a page-buffered writer; usable as a context manager."""
        if self._sealed:
            raise RuntimeError(f"file {self.name!r} is sealed")
        return Writer(self)

    # -- metadata ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    @property
    def n_pages(self) -> int:
        """Pages occupied on disk."""
        return self.device.pages(len(self._store))

    @property
    def column_kinds(self) -> tuple[str, ...]:
        """Physical column layout (``"i64"`` packed / ``"obj"`` list)."""
        return self._store.column_kinds

    # -- reading -----------------------------------------------------

    def reader(self) -> "SequentialReader":
        """A sequential reader over the whole file."""
        return SequentialReader(self, 0, len(self._store))

    def segment(self, start: int, stop: int) -> "FileSegment":
        """The contiguous slice ``[start, stop)`` of this file."""
        if not (0 <= start <= stop <= len(self._store)):
            raise IndexError(f"segment [{start}, {stop}) out of range "
                             f"for file of length {len(self._store)}")
        return FileSegment(self, start, stop)

    def whole(self) -> "FileSegment":
        """The file viewed as a single segment."""
        return FileSegment(self, 0, len(self._store))

    # em-cost: amortized N/B -- one full sequential pass over the file
    # em-yields: N
    def scan(self) -> Iterator[Tuple]:
        """Iterate all tuples, charging sequential read I/Os."""
        return iter(self.reader())

    # em-cost: amortized N/B -- one full sequential pass over the file
    # em-yields: N/B
    def scan_blocks(self) -> Iterator[list[Tuple]]:
        """Iterate page-sized blocks, charging the same read I/Os."""
        return self.reader().blocks()

    def peek_tuples(self) -> Sequence[Tuple]:
        """Direct access to the stored tuples **without charging I/O**.

        For test oracles and result verification only; algorithms must
        never call this.
        """
        return self._store.rows(0, len(self._store))


class Writer:
    """Page-buffered appender for an :class:`EMFile`."""

    def __init__(self, f: EMFile) -> None:
        self._file = f
        self._buffer: list[Tuple] = []
        self._closed = False

    # em-cost: amortized 1/B -- the buffer flushes one page write per B appends
    def append(self, t: Tuple) -> None:
        """Append one tuple, flushing a page write when the buffer fills."""
        if self._closed:
            raise RuntimeError("writer is closed")
        self._buffer.append(t)
        if len(self._buffer) >= self._file.device.B:
            self._flush()

    # em-cost: amortized 1 -- one write per page filled; callers' loop
    # bounds count the appended pages in whole-file units
    def append_block(self, ts: Sequence[Tuple]) -> None:
        """Append a whole block of tuples.

        Charges one write per page filled, at exactly the fill points a
        loop of :meth:`append` would flush at — only the per-tuple
        Python overhead disappears.  Full pages bypass the staging
        buffer and land in the columnar store directly.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        f = self._file
        B = f.device.B
        buf = self._buffer
        i, n = 0, len(ts)
        if buf:
            take = min(B - len(buf), n)
            buf.extend(ts[:take])
            i = take
            if len(buf) >= B:
                self._flush()
        full = (n - i) // B
        if full:
            store = f._store
            base = len(store) // B
            stop = i + full * B
            store.append_rows(ts[i:stop] if (i or stop != n) else ts)
            charge = f.device.charge_write
            # em-loop-bound: 1 -- pages of one appended block; callers
            # account for them through their own loop bounds
            for page in range(base, base + full):
                charge(f, page)
            i = stop
        if i < n:
            buf.extend(ts[i:])

    #: Alias: a block write is a block append on an append-only file.
    write_block = append_block

    # em-cost: N/B -- one write per page of appended tuples
    def extend(self, ts) -> None:
        """Append each tuple of ``ts``.

        In-memory sequences take the :meth:`append_block` fast path;
        lazy iterables keep the tuple-at-a-time loop so any I/O their
        production charges stays interleaved exactly as before.
        """
        if isinstance(ts, (list, tuple)):
            self.append_block(ts)
            return
        # em-loop-bound: N -- at most one iteration per input tuple
        for t in ts:
            self.append(t)

    # em-cost: 1 -- writes at most the one buffered page
    def _flush(self) -> None:
        if self._buffer:
            f = self._file
            page = len(f._store) // f.device.B
            f._store.append_rows(self._buffer)
            self._buffer.clear()
            f.device.charge_write(f, page)

    def close(self) -> None:
        """Flush the final partial page and seal the file."""
        if not self._closed:
            self._flush()
            self._closed = True
            self._file._sealed = True
            self._file._store.seal()

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialReader:
    """Forward cursor over ``[start, stop)`` of a file.

    One read I/O is charged per distinct page entered.  The reader keeps
    a single page buffered, so interleaving several readers is exactly
    as expensive as it would be on a one-page-per-stream buffer pool —
    the configuration the model's merge arguments assume.
    """

    def __init__(self, f: EMFile, start: int, stop: int) -> None:
        self._file = f
        self._pos = start
        self._stop = stop
        self._buffered_page = -1
        # Materialized rows of the buffered page.
        self._page_rows: list[Tuple] | None = None
        self._page_base = 0

    @property
    def position(self) -> int:
        """Absolute index of the next tuple to be returned."""
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._stop

    def remaining(self) -> int:
        return self._stop - self._pos

    # em-cost: amortized 1/B -- charges only when the cursor enters a
    # page it has not buffered: one read per B sequential advances
    def _touch(self, index: int) -> None:
        page = index // self._file.device.B
        if page != self._buffered_page:
            self._file.device.charge_read(self._file, page)
            self._buffered_page = page
            self._page_rows = None

    def peek(self) -> Tuple:
        """Return the next tuple without consuming it."""
        if self.exhausted:
            raise StopIteration("reader exhausted")
        self._touch(self._pos)
        if self._page_rows is None:
            f = self._file
            B = f.device.B
            self._page_base = self._buffered_page * B
            self._page_rows = f._store.rows(
                self._page_base, min(self._page_base + B, len(f._store)))
        return self._page_rows[self._pos - self._page_base]

    def next(self) -> Tuple:
        """Return the next tuple and advance."""
        t = self.peek()
        self._pos += 1
        return t

    # em-cost: amortized M/B -- callers request at most a memory-load,
    # and each page of the block is charged exactly once
    def read_block(self, n: int) -> list[Tuple]:
        """Read at most ``n`` further tuples as one block.

        Charges each page entered exactly once, ascending — the same
        pages, in the same order, a :meth:`next` loop over the block
        would charge.  Blocks larger than ``B`` occupy more than the
        reader's one-page buffer; the caller holds that memory (the
        chunk loaders do).
        """
        if n <= 0 or self.exhausted:
            return []
        f = self._file
        device = f.device
        B = device.B
        stop = min(self._pos + n, self._stop)
        first = self._pos // B
        last = (stop - 1) // B
        page = first
        if self._buffered_page == first:
            page += 1
        # em-loop-bound: M/B -- pages spanned by one bounded block
        for p in range(page, last + 1):
            device.charge_read(f, p)
        if last != self._buffered_page:
            self._buffered_page = last
            self._page_rows = None
        block = f._store.rows(self._pos, stop)
        self._pos = stop
        return block

    # em-cost: amortized 1 -- reads at most the one current page
    def peek_page_block(self) -> list[Tuple]:
        """The rest of the current page **without consuming it**.

        Charges the page exactly as :meth:`peek` would (once, on first
        entry); callers consume a prefix with :meth:`skip_to`.  This is
        the block form of peek-bounded loops: fetch the page, decide in
        memory how far the bound lets you go, advance for free.
        """
        if self.exhausted:
            return []
        self._touch(self._pos)
        f = self._file
        B = f.device.B
        if self._page_rows is None:
            self._page_base = self._buffered_page * B
            self._page_rows = f._store.rows(
                self._page_base, min(self._page_base + B, len(f._store)))
        page_end = self._page_base + len(self._page_rows)
        return self._page_rows[self._pos - self._page_base:
                               min(page_end, self._stop) - self._page_base]

    # em-cost: amortized 1 -- reads at most the one current page
    def read_page_block(self) -> list[Tuple]:
        """Read from the cursor to the end of the current page.

        At most ``B`` tuples — the natural streaming unit that fits the
        reader's own one-page buffer, so no extra memory hold is
        needed.
        """
        if self.exhausted:
            return []
        B = self._file.device.B
        page_end = (self._pos // B + 1) * B
        return self.read_block(min(page_end, self._stop) - self._pos)

    # em-yields: N/B
    def blocks(self) -> Iterator[list[Tuple]]:
        """Iterate the remaining tuples one page block at a time."""
        # em-loop-bound: N/B -- one iteration per page of the segment
        while not self.exhausted:
            yield self.read_page_block()

    def skip_to(self, index: int) -> None:
        """Jump the cursor forward to absolute index ``index``.

        Seeking itself is free (disk arms move without transferring
        data); the page containing ``index`` is charged when next read.
        """
        if index < self._pos:
            raise ValueError("sequential reader cannot move backwards")
        self._pos = min(index, self._stop)

    # em-yields: N
    def __iter__(self) -> Iterator[Tuple]:
        # em-loop-bound: N -- one iteration per tuple of the segment
        while not self.exhausted:
            yield self.next()


class FileSegment:
    """A contiguous slice of an :class:`EMFile`.

    Segments arise when a file sorted on an attribute is partitioned by
    that attribute's values (``R(e)|_{v=a}``), and when sorted runs are
    handed to a merge.
    """

    def __init__(self, f: EMFile, start: int, stop: int) -> None:
        self.file = f
        self.start = start
        self.stop = stop

    @property
    def device(self) -> "Device":
        return self.file.device

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def n_pages(self) -> int:
        """Pages this segment's tuples span (including straddled ones)."""
        if len(self) == 0:
            return 0
        B = self.device.B
        return self.stop // B - self.start // B + (1 if self.stop % B else 0)

    def reader(self) -> SequentialReader:
        return SequentialReader(self.file, self.start, self.stop)

    # em-cost: amortized N/B -- one sequential pass over the segment
    # em-yields: N
    def scan(self) -> Iterator[Tuple]:
        return iter(self.reader())

    # em-cost: amortized N/B -- one sequential pass over the segment
    # em-yields: N/B
    def scan_blocks(self) -> Iterator[list[Tuple]]:
        """Page-sized blocks of the segment, same charges as a scan."""
        return self.reader().blocks()

    def subsegment(self, start: int, stop: int) -> "FileSegment":
        """Absolute-indexed sub-slice; must lie within this segment."""
        if not (self.start <= start <= stop <= self.stop):
            raise IndexError("subsegment out of range")
        return FileSegment(self.file, start, stop)

    def peek_tuples(self) -> Sequence[Tuple]:
        """Uncharged access for test oracles only."""
        return self.file._store.rows(self.start, self.stop)
