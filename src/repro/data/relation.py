"""On-disk relations for the external-memory algorithms.

A :class:`Relation` couples a :class:`~repro.data.schema.RelationSchema`
with the on-disk tuples (an :class:`~repro.em.file.EMFile` or a
:class:`~repro.em.file.FileSegment` of one), remembers which attribute
the data is currently sorted on, and records columns whose value is
fixed by an enclosing restriction (``R(e)|_{v=a}`` fixes ``v = a``).

Fixed columns matter for the *emit model*: when the recursion of the
paper's Algorithm 2 drops a bud, the participating bud tuple must still
be reconstructible at emit time; every physical column of a dropped bud
is either its one remaining query attribute or a fixed column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, TYPE_CHECKING

from repro.data.schema import RelationSchema
from repro.em.file import EMFile, FileSegment
from repro.em.sort import external_sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device


def repeated_tuple(rows: list[tuple]) -> tuple | None:
    """A tuple occurring more than once in ``rows``, or ``None``.

    Relations are sets; the entry points taking caller-supplied rows
    (:meth:`~repro.data.instance.Instance.from_dicts`,
    :meth:`~repro.server.catalog.Catalog.add`) reject bags with this.
    """
    if len(set(rows)) == len(rows):
        return None
    seen: set[tuple] = set()
    for t in rows:
        if t in seen:
            return t
        seen.add(t)
    return None  # pragma: no cover - unreachable: set() found a repeat


@dataclass(frozen=True)
class Relation:
    """An on-disk relation with sorting and restriction metadata."""

    schema: RelationSchema
    data: FileSegment
    sorted_on: str | None = None
    fixed: Mapping[str, Any] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def from_tuples(cls, device: "Device", schema: RelationSchema,
                    tuples: Iterable[tuple], *,
                    charge_io: bool = False) -> "Relation":
        """Materialize ``tuples`` on ``device`` under ``schema``.

        By default the write I/Os are *not* charged: inputs pre-exist on
        disk in the paper's model.  Pass ``charge_io=True`` for
        intermediate results an algorithm pays to write.
        """
        ts = [tuple(t) for t in tuples]
        width = len(schema.attributes)
        for t in ts:
            if len(t) != width:
                raise ValueError(
                    f"tuple {t} has arity {len(t)}, schema {schema.name} "
                    f"expects {width}")
        maker = (device.file_from_tuples if charge_io
                 else device.file_from_tuples_free)
        f = maker(ts, schema.name)
        return cls(schema=schema, data=f.whole())

    # -- basic accessors ------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def device(self) -> "Device":
        return self.data.device

    def __len__(self) -> int:
        return len(self.data)

    def key(self, attribute: str):
        return self.schema.key(attribute)

    # -- physical operations (charged) -----------------------------------

    def sort_by(self, attribute: str) -> "Relation":
        """Return this relation externally sorted on ``attribute``.

        A no-op (returning ``self``) when already sorted on it.  The
        sort cost is charged to the device.
        """
        if self.sorted_on == attribute:
            return self
        with self.device.span("sort", kind="phase"):
            out = external_sort(self.data, self.key(attribute),
                                name=f"{self.name}.by_{attribute}")
        return replace(self, data=out.whole(), sorted_on=attribute)

    def restrict(self, start: int, stop: int, *, attribute: str,
                 value: Any) -> "Relation":
        """The contiguous slice ``[start, stop)`` where ``attribute = value``.

        Requires the relation to be sorted on ``attribute`` so that the
        slice is physically contiguous (no I/O is charged here; reads of
        the slice are charged when performed).
        """
        if self.sorted_on != attribute:
            raise ValueError(
                f"restrict on {attribute!r} requires sorting on it first "
                f"(currently sorted on {self.sorted_on!r})")
        fixed = dict(self.fixed)
        fixed[attribute] = value
        return replace(self, data=self.data.subsegment(start, stop),
                       fixed=fixed)

    def rewrite(self, tuples: Iterable[tuple], *, label: str = "tmp",
                sorted_on: str | None = None) -> "Relation":
        """Write ``tuples`` to a new file (charged) with the same schema."""
        f = self.device.file_from_tuples(tuples, f"{self.name}.{label}")
        return replace(self, data=f.whole(), sorted_on=sorted_on)

    # -- uncharged helpers (oracles and tests only) ----------------------

    def peek_tuples(self):
        """All tuples, free of I/O charges.  For tests/oracles only."""
        return self.data.peek_tuples()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Relation({self.name}, n={len(self)}, "
                f"sorted_on={self.sorted_on!r}, fixed={dict(self.fixed)})")
