"""The instance catalog: load data once, serve many queries.

A one-shot ``repro run`` pays the host-side cost of parsing CSVs and
materializing relations for every invocation.  The catalog keeps each
named dataset host-resident — attribute layouts plus typed rows, the
exact value :meth:`~repro.data.instance.Instance.from_dicts` consumes —
so sessions materialize instances onto their devices from memory,
byte-identically to a solo run (inputs are uncharged either way).

Entries are ref-counted (:meth:`acquire` / :meth:`release`): eviction
under a capacity limit only removes entries no session is using, in
least-recently-acquired order.  Replacing an entry bumps its
``generation`` so sessions holding materialized copies of the old data
can tell they are stale.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.data.io import read_csv_rows
from repro.data.relation import repeated_tuple


class CatalogError(KeyError):
    """Unknown instance name, or invalid catalog operation."""


class CatalogEntry:
    """One named dataset: layouts, typed rows, and bookkeeping."""

    __slots__ = ("name", "layouts", "rows", "generation", "pins")

    def __init__(self, name: str,
                 layouts: Mapping[str, tuple[str, ...]],
                 rows: Mapping[str, list[tuple]],
                 generation: int = 1) -> None:
        if set(layouts) != set(rows):
            raise ValueError(
                f"layouts and rows disagree on relations: "
                f"{sorted(set(layouts) ^ set(rows))}")
        for rel, attrs in layouts.items():
            width = len(attrs)
            for t in rows[rel]:
                if len(t) != width:
                    raise ValueError(
                        f"instance {name!r}, relation {rel!r}: row {t!r} "
                        f"has {len(t)} fields, layout has {width}")
        self.name = name
        self.layouts = {rel: tuple(attrs) for rel, attrs in layouts.items()}
        self.rows = {rel: list(rs) for rel, rs in rows.items()}
        self.generation = generation
        self.pins = 0

    @property
    def sizes(self) -> dict[str, int]:
        return {rel: len(rs) for rel, rs in self.rows.items()}

    def info(self) -> dict[str, object]:
        return {"name": self.name, "generation": self.generation,
                "pins": self.pins, "relations": self.sizes}


class Catalog:
    """Named, ref-counted, evictable instances (thread-safe)."""

    def __init__(self, *, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        # Insertion/refresh order doubles as least-recently-acquired.
        self._entries: dict[str, CatalogEntry] = {}  # em-guarded-by: _lock
        self.stats = {"loads": 0, "hits": 0,  # em-guarded-by: _lock
                      "evictions": 0, "replaced": 0}

    # -- loading -------------------------------------------------------

    def add(self, name: str, layouts: Mapping[str, tuple[str, ...]],
            rows: Mapping[str, list[tuple]], *,
            replace: bool = False) -> CatalogEntry:
        """Register a dataset from in-memory rows (each relation a set)."""
        for rel, rs in rows.items():
            dup = repeated_tuple([tuple(t) for t in rs])
            if dup is not None:
                raise CatalogError(
                    f"instance {name!r}, relation {rel!r} repeats the "
                    f"tuple {dup!r}; relations are sets")
        with self._lock:
            old = self._entries.get(name)
            if old is not None and not replace:
                raise CatalogError(
                    f"instance {name!r} is already loaded "
                    f"(pass replace=True to supersede it)")
            generation = 1 if old is None else old.generation + 1
            entry = CatalogEntry(name, layouts, rows, generation)
            if old is not None:
                self.stats["replaced"] += 1
                del self._entries[name]  # re-insert at the fresh end
            self._entries[name] = entry
            self.stats["loads"] += 1
            self._evict_over_capacity()
            return entry

    def load_csv(self, name: str,  # em-effects: HOST_ONLY -- reads host CSVs once, outside any measured run
                 tables: Mapping[str, str], *,
                 delimiter: str = ",", header: bool = True,
                 replace: bool = False) -> CatalogEntry:
        """Load ``{relation: csv path}`` from disk, once, as ``name``.

        Rows are normalized exactly like :func:`repro.data.io.load_csv`
        (sorted, de-duplicated), so a session materializing from this
        entry sees the same relation a solo ``repro run`` would.
        """
        layouts: dict[str, tuple[str, ...]] = {}
        rows: dict[str, list[tuple]] = {}
        for rel, path in tables.items():
            attrs, typed = read_csv_rows(path, delimiter=delimiter,
                                         header=header)
            layouts[rel] = attrs
            rows[rel] = sorted(set(typed))
        return self.add(name, layouts, rows, replace=replace)

    # -- lookup and ref-counting --------------------------------------

    def get(self, name: str) -> CatalogEntry:
        """Look up without pinning (introspection only)."""
        with self._lock:
            return self._get(name)

    def acquire(self, name: str) -> CatalogEntry:
        """Pin an entry for use; pairs with :meth:`release`."""
        with self._lock:
            entry = self._get(name)
            entry.pins += 1
            self.stats["hits"] += 1
            # Refresh recency: move to the most-recently-acquired end.
            del self._entries[name]
            self._entries[name] = entry
            return entry

    def release(self, entry: CatalogEntry) -> None:
        with self._lock:
            if entry.pins <= 0:
                raise CatalogError(
                    f"release of instance {entry.name!r} without a "
                    f"matching acquire")
            entry.pins -= 1

    # -- eviction ------------------------------------------------------

    def evict(self, name: str, *, force: bool = False) -> bool:
        """Drop an entry; refuses (returns False) while it is pinned,
        unless ``force``."""
        with self._lock:
            entry = self._get(name)
            if entry.pins > 0 and not force:
                return False
            del self._entries[name]
            self.stats["evictions"] += 1
            return True

    def names(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def info(self) -> dict[str, object]:
        with self._lock:
            return {"capacity": self.capacity,
                    "entries": [e.info() for e in self._entries.values()],
                    **self.stats}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    # -- internals -----------------------------------------------------

    def _get(self, name: str) -> CatalogEntry:  # em-holds: _lock
        entry = self._entries.get(name)
        if entry is None:
            raise CatalogError(
                f"no instance {name!r} in the catalog "
                f"(loaded: {sorted(self._entries)})")
        return entry

    def _evict_over_capacity(self) -> None:  # em-holds: _lock
        """Drop least-recently-acquired unpinned entries over capacity.

        Pinned entries are immune, so the catalog may transiently sit
        over capacity while everything is in use.
        """
        if self.capacity is None:
            return
        while len(self._entries) > self.capacity:
            victim = next((n for n, e in self._entries.items()
                           if e.pins == 0), None)
            if victim is None:
                return
            del self._entries[victim]
            self.stats["evictions"] += 1
