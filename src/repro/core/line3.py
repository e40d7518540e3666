"""Algorithm 1: the 3-relation line join (Section 3).

``R1(v1,v2) ⋈ R2(v2,v3) ⋈ R3(v3,v4)`` in ``Õ(N1·N3/(MB))`` I/Os
(Theorem 1), matching the external-memory counterpart of the AGM bound
``N1·N3`` — the naive 3-deep nested loop would pay ``N1·N2·N3/(M²B)``.

Heavy values ``a`` of ``v2`` in ``R1`` (line 4–7): materialize
``T_a = R2|_{v2=a} ⋈ R3`` by a merge join — every tuple of
``R2|_{v2=a}`` has a distinct ``v3``, so no value of ``v3`` is heavy
and the merge is one pass; ``|T_a| ≤ N3`` so writing it is affordable —
then block-nested-loop ``R1|_{v2=a}`` against ``T_a``.

Light values (line 8–12): load ``R1`` by ``v2`` one memory chunk ``M1``
at a time, semijoin ``R2(M1) = R2 ⋉ M1`` (one scan of ``R2`` across
all chunks), and sort-merge ``R2(M1) ⋈ R3``, matching results back to
``M1`` in memory.

Emitted results carry all three participating tuples (emit model).
"""

from __future__ import annotations

from repro.core.emit import CallbackEmitter, Emitter, emit_block
from repro.core.twoway import sort_merge_join
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import (group_boundaries, load_chunks,
                              load_light_chunks, split_heavy_light,
                              take_matching)
from repro.query.hypergraph import JoinQuery
from repro.query.shapes import detect_line


# em-cost: N^2/(M*B) + N/B -- Theorem 1: Õ(N1·N3/(MB)) plus the
# sorting and scanning passes the Õ absorbs
def line3_join(query: JoinQuery, instance: Instance,
               emitter: Emitter) -> None:
    """Run Algorithm 1 on a 3-relation line join."""
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 3:
        raise ValueError("line3_join requires a 3-relation line query")
    e1, e2, e3 = chain.edges
    v2, v3 = chain.join_attrs
    _line3(instance[e1], instance[e2], instance[e3], v2, v3, emitter)


def _line3(r1: Relation, r2: Relation, r3: Relation, v2: str, v3: str,
           emitter: Emitter) -> None:
    device = r1.device
    M = device.M

    with device.span("line3_join", kind="algorithm",
                     n1=len(r1), n2=len(r2), n3=len(r3)):
        r1s = r1.sort_by(v2)
        r2s = r2.sort_by(v2)
        r3s = r3.sort_by(v3)

        groups1 = group_boundaries(r1s.data, r1s.key(v2))
        heavy, light = split_heavy_light(groups1, M)
        groups2 = {g.value: g
                   for g in group_boundaries(r2s.data, r2s.key(v2))}

        with device.span("heavy_values", groups=len(heavy)):
            _heavy_values(r1s, r2s, r3s, v2, v3, heavy, groups2, emitter)
        with device.span("light_values", groups=len(light)):
            _light_values(r1s, r2s, r3s, v2, v3, light, emitter)


def _heavy_values(r1s, r2s, r3s, v2, v3, heavy_groups, groups2,
                  emitter) -> None:
    """Lines 4-7: per heavy value, materialize R2|a ⋈ R3 then NLJ with R1|a."""
    device = r1s.device
    M = device.M
    # em-loop-bound: 1 -- Σ over heavy values a: the groups R2|a are
    # disjoint (Σ|R2|a| ≤ N2) and there are at most N1/M heavy values,
    # so the per-value merges and nested loops are counted together in
    # whole-input units (the Σ argument of Theorem 1)
    for g in heavy_groups:
        a = g.value
        g2 = groups2.get(a)
        if g2 is None:
            continue
        r2a = r2s.restrict(g2.start, g2.stop, attribute=v2, value=a)
        # R2|_{v2=a} ⋈ R3: no heavy v3 on the R2 side (values distinct),
        # so the instance-optimal two-way join is a single merge pass.
        r2a_by_v3 = r2a.sort_by(v3)
        t_file = device.new_file(f"T.{r2s.name}.{a}")
        writer = t_file.writer()

        def write_pair(result, _w=writer):
            _w.append((result[r2s.name], result[r3s.name]))

        # em-charges: N/B -- every tuple of R2|a has a distinct v3, so
        # no v3 value is heavy and the hybrid join is one merge pass
        sort_merge_join(r2a_by_v3, r3s, CallbackEmitter(write_pair))
        writer.close()

        seg1 = r1s.data.subsegment(g.start, g.stop)
        n1, n2, n3 = r1s.name, r2s.name, r3s.name
        for chunk in load_chunks(seg1, M):
            for block in t_file.scan_blocks():
                emit_block(emitter, [
                    {n1: t1, n2: t2, n3: t3}
                    for t2, t3 in block
                    for t1 in chunk])  # all share v2 = a


def _light_values(r1s, r2s, r3s, v2, v3, light_groups, emitter) -> None:
    """Lines 8-12: chunked light values with one total scan of R2."""
    M = r1s.device.M
    i1 = r1s.schema.index(v2)
    i2 = r2s.schema.index(v2)
    cursor2 = r2s.data.reader()

    for chunk in load_light_chunks(r1s.data, light_groups, M):
        values = {t[i1] for t in chunk}
        by_value: dict[object, list[tuple]] = {}
        for t in chunk:
            by_value.setdefault(t[i1], []).append(t)
        vmax = max(values)
        # cursor2 is shared across chunks: one pass over R2 in total
        matched = take_matching(cursor2, i2, vmax, values)
        if not matched:
            continue
        r2m = r2s.rewrite(matched, label="sj", sorted_on=v2)
        r2m_by_v3 = r2m.sort_by(v3)

        def match_back(result, _by_value=by_value, _i2=i2):
            t2 = result[r2s.name]
            t3 = result[r3s.name]
            for t1 in _by_value.get(t2[_i2], ()):
                emitter.emit({r1s.name: t1, r2s.name: t2, r3s.name: t3})

        # em-charges: N/B -- |R2(M1)| ≤ 2M with no heavy v3 value, so
        # the hybrid join is one merge pass over R2(M1) and R3
        sort_merge_join(r2m_by_v3, r3s, CallbackEmitter(match_back))
