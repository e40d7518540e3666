"""Algorithm 2: ``AcyclicJoin`` — the paper's main contribution (Section 4).

The recursion peels the query one relation at a time:

* a single remaining relation emits its tuples (line 1–2);
* a **bud** (one join attribute, no unique attribute) is eliminated
  (line 3–4) — see the correctness note below;
* an **island** (no join attribute) is loaded chunk by chunk, the rest
  of the query solved recursively per chunk, and each recursive result
  combined with every memory-resident island tuple (line 5–9);
* otherwise a **leaf** ``e`` is picked *nondeterministically*
  (line 11).  Its relation and all neighbors Γ are sorted on the join
  attribute ``v``.  **Heavy** values ``a`` (≥ ``M`` tuples, §2.3)
  restrict every neighbor to ``R(e')|_{v=a}``, remove both ``e`` and
  ``v`` from the query (possibly disconnecting it), and recurse per
  memory load of ``R(e)|_{v=a}``, cross-combining with the load
  (line 14–20).  **Light** values are loaded value-aligned (< 2M tuples,
  < M distinct values per load); each neighbor is semijoin-filtered
  against the load, ``e`` (but not ``v``) is removed, and recursive
  results are matched back to the load on ``v`` (line 21–27).

Sorting once per branch.  Sibling recursive calls (one per heavy value
and memory load, one per light load, one per island chunk) receive many
relations unchanged, and each would re-sort them on the same attribute.
:func:`acyclic_join` therefore keeps a sort memo for its branch, keyed
by relation identity.  It covers the branch's input relations for the
whole run, and every relation a peel hands unchanged to several sibling
calls while those calls run: the relations a leaf peel leaves alone,
a heavy value's restrictions ``R(e')|_{v=a}`` across its memory loads,
an island's fellow relations across its chunks.  The first sort of a
covered relation on an attribute is charged and the copy reused, so the
memo holds at most one sorted copy per (relation, attribute).  Other
intermediates (semijoin results, restrictions whose loop has finished)
are never pinned.

Nondeterminism.  The paper simulates all branches round-robin and stops
with the first to finish, attaining the best branch's cost up to a
constant factor (constant query size).  We realize the same guarantee
deterministically: :func:`enumerate_plans` lists every *peel plan* (a
choice of leaf per reachable query structure — exactly the information
a branch of the nondeterministic machine uses), and
:func:`acyclic_join_best` runs each plan on a fresh device, returning
the minimum I/O cost alongside per-plan measurements.

Correctness note on buds (deviation, documented in DESIGN.md).  The
paper's line 3–4 drops a bud outright, which is only sound if every
value of the bud's attribute appearing elsewhere also appears in the
bud — true on fully reduced inputs, but restriction during recursion
can break it.  We therefore semijoin-filter the relations sharing the
bud's attribute against the bud before dropping it (one sort + merge
pass, absorbed by the Õ(·) bounds), and reconstruct the bud's
participating tuple at emit time, keeping the emit model exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping

from repro.core.emit import Emitter
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.device import Device
from repro.em.loaders import (group_boundaries, load_chunks,
                              load_group_chunks, load_light_chunks,
                              merge_matching, split_heavy_light,
                              take_matching)
from repro.query.classify import (find_buds, find_islands, find_leaves,
                                  leaf_info)
from repro.query.hypergraph import JoinQuery, require_berge_acyclic

#: Phase names this module attributes I/O to (emlint EM006).
PHASES = ("semijoin",)

EmitFn = Callable[[Mapping[str, tuple]], None]
Chooser = Callable[[JoinQuery, Instance], str]
PlanKey = frozenset
Plan = dict[PlanKey, str]
#: ``id(covered relation) -> {attribute: sorted copy}`` for one branch.
SortMemo = dict[int, dict[str, Relation]]


# ---------------------------------------------------------------------------
# Single-branch execution
# ---------------------------------------------------------------------------

# em-cost: N^6/(M^5*B) + N/B -- one branch of Algorithm 2: the _run
# recursion's declared summary, stated up to the L8 depth the line
# dispatcher handles (Theorems 2-3 give the per-shape tight forms)
def acyclic_join(query: JoinQuery, instance: Instance, emitter: Emitter,
                 chooser: Chooser | None = None, *,
                 paper_literal_buds: bool = False,
                 trace: "RecursionTrace | None" = None) -> None:
    """Run Algorithm 2 with one leaf-choice strategy.

    ``chooser`` picks which leaf to peel given the current (sub)query
    and instance; it defaults to the first leaf in name order.  All I/O
    is charged to the instance's device.

    ``paper_literal_buds`` reproduces the paper's lines 3–4 *verbatim*:
    a bud is dropped without filtering the relations that share its
    attribute.  That is only sound on instances whose restrictions stay
    reduced; on others it **over-emits** (see DESIGN.md inconsistency
    #3 and ``tests/test_ablations.py``).  Leave it off for correct
    results; it exists to make the discrepancy measurable.
    """
    require_berge_acyclic(query)
    _check_alignment(query, instance)
    pick = chooser or first_leaf_chooser
    edges = query.edge_names
    if not edges:
        return
    device = instance[edges[0]].device
    memo: SortMemo = {}
    with device.span("acyclic_join", kind="algorithm", edges=len(edges)), \
            _covering(memo, instance.values()):
        _run(query, instance, emitter.emit, pick, memo,
             literal_buds=paper_literal_buds, trace=trace)


def first_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Deterministic default: the lexicographically first leaf."""
    return find_leaves(query)[0]


def smallest_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Greedy heuristic: peel the leaf with the fewest tuples.

    Mirrors the paper's remark that a "smart" algorithm compares
    relation sizes before choosing a peeling strategy (Section 4.1's
    ``L_4`` discussion).  Not always best-branch, but a single run.
    """
    return min(find_leaves(query), key=lambda e: (len(instance[e]), e))


def largest_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Greedy heuristic: peel the leaf with the most tuples."""
    return max(find_leaves(query), key=lambda e: (len(instance[e]), e))


def end_chooser(decisions: str) -> Chooser:
    """A staged left/right chooser for line-shaped queries.

    ``decisions[k]`` says which end to peel at stage ``k`` (number of
    leaves already peeled): ``"L"`` = lowest edge index, ``"R"`` =
    highest.  Runs past the string's end keep using its last character.
    This encodes the paper's line-join strategies (e.g. peeling
    ``{e1,e2}`` vs ``{e4,e5}`` first on ``L_5``) as single plans.
    """

    def choose(query: JoinQuery, instance: Instance) -> str:
        leaves = sorted(find_leaves(query), key=_edge_index)
        stage = getattr(choose, "_initial", None)
        if stage is None:
            choose._initial = len(query.edges)  # type: ignore[attr-defined]
        peeled = max(0, choose._initial - len(query.edges))  # type: ignore[attr-defined]
        d = decisions[min(peeled, len(decisions) - 1)] if decisions else "L"
        return leaves[0] if d.upper() == "L" else leaves[-1]

    return choose


def _edge_index(name: str) -> tuple[int, str]:
    digits = "".join(c for c in name if c.isdigit())
    return (int(digits) if digits else 0, name)


def plan_chooser(plan: Plan) -> Chooser:
    """A chooser following a peel plan, falling back to the first leaf."""

    def choose(query: JoinQuery, instance: Instance) -> str:
        return plan.get(query.structure_key()) or find_leaves(query)[0]

    return choose


@contextmanager
def _covering(memo: SortMemo, rels: Iterable[Relation]) -> Iterator[None]:
    """Cover ``rels`` in ``memo`` while sibling calls share them.

    Each covered relation is sorted at most once per attribute until
    the block exits; relations already covered stay as they are.  The
    caller keeps ``rels`` alive for the whole block, so their ids stay
    unique.
    """
    added = [id(r) for r in rels if id(r) not in memo]
    memo.update((k, {}) for k in added)
    try:
        yield
    finally:
        for k in added:
            del memo[k]


# em-cost: N/B * log(N/M) -- at most one external sort of ``rel``
def _sorted(rel: Relation, attr: str, memo: SortMemo) -> Relation:
    """``rel`` sorted on ``attr``; a covered relation is sorted once."""
    copies = memo.get(id(rel))          # None: not covered
    if copies is not None and attr in copies:
        return copies[attr]
    out = rel.sort_by(attr)
    if copies is not None:
        copies[attr] = out
    return out


def _check_alignment(query: JoinQuery, instance: Instance) -> None:
    for e in query.edge_names:
        if e not in instance:
            raise ValueError(f"query edge {e!r} has no relation bound")
        rel = instance[e]
        physical = set(rel.schema.attributes)
        expected = set(query.edges[e]) | set(rel.fixed)
        if physical != expected:
            raise ValueError(
                f"relation {e!r}: physical columns {sorted(physical)} != "
                f"query attrs + fixed {sorted(expected)}")


# em-cost: amortized N^6/(M^5*B) + N/B * log(N/M) -- Algorithm 2's
# recursion: peel depth and branch fan-out are query-size constants;
# each level sorts and semijoins its relations (N/B*log(N/M)) and
# re-runs children once per memory load, multiplying by at most N/M
# per level, stated up to the L8 depth the line dispatcher handles
def _run(query: JoinQuery, inst: Instance, emit: EmitFn,
         pick: Chooser, memo: SortMemo, *, literal_buds: bool = False,
         trace=None, depth: int = 0) -> None:
    edges = query.edge_names
    if not edges:
        return
    if len(edges) == 1:
        e = edges[0]
        if trace is not None:
            trace.record(depth, "scan", e, f"{len(inst[e])} tuples")
        for t in inst[e].data.scan():
            emit({e: t})
        return

    buds = find_buds(query)
    if buds:
        if trace is not None:
            trace.record(depth, "bud", buds[0])
        _peel_bud(query, inst, emit, pick, memo, buds[0],
                  literal=literal_buds, trace=trace, depth=depth)
        return

    islands = find_islands(query)
    if islands:
        if trace is not None:
            trace.record(depth, "island", islands[0],
                         f"{len(inst[islands[0]])} tuples")
        _peel_island(query, inst, emit, pick, memo, islands[0],
                     literal_buds=literal_buds, trace=trace, depth=depth)
        return

    leaf = pick(query, inst)
    if not find_leaves(query) or leaf not in find_leaves(query):
        raise ValueError(f"chooser returned {leaf!r}, not a leaf of "
                         f"{dict(query.edges)}")
    _peel_leaf(query, inst, emit, pick, memo, leaf,
               literal_buds=literal_buds, trace=trace, depth=depth)


# ---------------------------------------------------------------------------
# Bud elimination (lines 3-4, with the correctness-preserving semijoin)
# ---------------------------------------------------------------------------

def _peel_bud(query: JoinQuery, inst: Instance, emit: EmitFn,
              pick: Chooser, memo: SortMemo, bud: str, *,
              literal: bool = False, trace=None, depth: int = 0) -> None:
    (w,) = query.edges[bud]
    bud_rel = _sorted(inst[bud], w, memo)
    sharers = [e for e in query.edge_names
               if e != bud and w in query.edges[e]]

    rebound = dict(inst)
    del rebound[bud]
    if not literal:
        # em-loop-bound: 1 -- one sharer per query edge, and the edge
        # count is a query-size constant
        for e2 in sharers:
            rel2 = _sorted(inst[e2], w, memo)
            rebound[e2] = _merge_semijoin(rel2, bud_rel, w)

    bud_schema = bud_rel.schema
    fixed = dict(bud_rel.fixed)
    w_idx = bud_schema.index(w)

    # Designate one sharer to resolve w's value from child results.
    probe = sharers[0]
    probe_idx = rebound[probe].schema.index(w)

    def child_emit(result: Mapping[str, tuple]) -> None:
        w_val = result[probe][probe_idx]
        t = tuple(w_val if i == w_idx else fixed[a]
                  for i, a in enumerate(bud_schema.attributes))
        out = dict(result)
        out[bud] = t
        emit(out)

    _run(query.drop_edges([bud]), Instance(rebound), child_emit, pick,
         memo, literal_buds=literal, trace=trace, depth=depth + 1)


def _merge_semijoin(rel: Relation, filter_rel: Relation,
                    attr: str) -> Relation:
    """``rel ⋉ filter_rel`` on ``attr``; both sorted on ``attr``.

    One merge pass over both inputs; the (smaller) output is written
    back to disk, preserving sort order on ``attr``.
    """
    matches = merge_matching(rel.data.reader(), filter_rel.data.reader(),
                             rel.key(attr), filter_rel.key(attr))
    with rel.device.span("semijoin", kind="phase"):
        return rel.rewrite(matches, label=f"sj_{filter_rel.name}",
                           sorted_on=attr)


# ---------------------------------------------------------------------------
# Island elimination (lines 5-9)
# ---------------------------------------------------------------------------

def _peel_island(query: JoinQuery, inst: Instance, emit: EmitFn,
                 pick: Chooser, memo: SortMemo, island: str, *,
                 literal_buds: bool = False, trace=None,
                 depth: int = 0) -> None:
    child_q = query.drop_edges([island])
    child_inst = inst.drop(island)
    with _covering(memo, child_inst.values()):
        for chunk in load_chunks(inst[island].data, inst[island].device.M):

            def child_emit(result, _chunk=chunk):
                out = dict(result)
                for t in _chunk:
                    out[island] = t
                    emit(dict(out))

            _run(child_q, child_inst, child_emit, pick, memo,
                 literal_buds=literal_buds, trace=trace, depth=depth + 1)


# ---------------------------------------------------------------------------
# Leaf peeling (lines 10-27)
# ---------------------------------------------------------------------------

def _peel_leaf(query: JoinQuery, inst: Instance, emit: EmitFn,
               pick: Chooser, memo: SortMemo, leaf: str, *,
               literal_buds: bool = False, trace=None,
               depth: int = 0) -> None:
    info = leaf_info(query, leaf)
    v = info.join_attr
    device = inst[leaf].device
    M = device.M

    rel_e = _sorted(inst[leaf], v, memo)                # line 12
    # em-loop-bound: 1 -- one sort per neighbor, and the neighbor
    # count is a query-size constant
    neighbors = {e2: _sorted(inst[e2], v, memo)         # line 13
                 for e2 in sorted(info.neighbors)}

    key_e = rel_e.key(v)
    groups = group_boundaries(rel_e.data, key_e)
    heavy, light = split_heavy_light(groups, M)
    group_sizes = device.metrics.histogram("acyclic.group_tuples")
    for g in groups:
        group_sizes.observe(g.count)

    # em-loop-bound: 1 -- one boundary scan per neighbor, and the
    # neighbor count is a query-size constant
    nb_groups = {
        e2: {g.value: g
             for g in group_boundaries(neighbors[e2].data,
                                       neighbors[e2].key(v))}
        for e2 in neighbors}

    if trace is not None:
        trace.record(depth, "leaf", leaf,
                     f"v={info.join_attr} heavy={len(heavy)} "
                     f"light={len(light)}")
    # every heavy value's and light load's call gets the relations
    # the peel leaves unchanged
    with _covering(memo, inst.values()):
        _peel_leaf_heavy(query, inst, emit, pick, memo, leaf, info, rel_e,
                         neighbors, nb_groups, heavy, M,
                         literal_buds=literal_buds, trace=trace,
                         depth=depth)
        _peel_leaf_light(query, inst, emit, pick, memo, leaf, info, rel_e,
                         neighbors, light, M, literal_buds=literal_buds,
                         trace=trace, depth=depth)


def _peel_leaf_heavy(query, inst, emit, pick, memo, leaf, info, rel_e,
                     neighbors, nb_groups, heavy_groups, M, *,
                     literal_buds: bool = False, trace=None,
                     depth: int = 0) -> None:
    """Lines 14-20: one restricted, disconnected subquery per heavy value."""
    v = info.join_attr
    child_q = (query.drop_edges([leaf])
               .drop_attributes(set(info.unique_attrs) | {v}))
    # em-loop-bound: N/M -- a heavy value owns at least M tuples of
    # R(e) (section 2.3), so at most N/M values are heavy
    for g in heavy_groups:
        a = g.value
        restricted: dict[str, Relation] = {}
        missing = False
        for e2, rel2 in neighbors.items():
            grp = nb_groups[e2].get(a)
            if grp is None:
                missing = True
                break
            restricted[e2] = rel2.restrict(grp.start, grp.stop,
                                           attribute=v, value=a)
        if missing:
            continue  # value a joins with nothing; no I/O needed for it
        rebound = dict(inst)
        del rebound[leaf]
        rebound.update(restricted)
        child_inst = Instance(rebound)
        # every load of R(e)|a recurses on the same restrictions
        with _covering(memo, restricted.values()):
            for chunk in load_group_chunks(rel_e.data, g, M):

                def child_emit(result, _chunk=chunk):
                    out = dict(result)
                    for t in _chunk:      # all share v = a: cross-combine
                        out[leaf] = t
                        emit(dict(out))

                _run(child_q, child_inst, child_emit, pick, memo,
                     literal_buds=literal_buds, trace=trace,
                     depth=depth + 1)


def _peel_leaf_light(query, inst, emit, pick, memo, leaf, info, rel_e,
                     neighbors, light_groups, M, *, literal_buds: bool = False,
                     trace=None, depth: int = 0) -> None:
    """Lines 21-27: chunked light values with semijoin-filtered neighbors.

    Each neighbor keeps one persistent cursor: the chunks arrive in
    increasing ``v`` order, so computing every ``R(e')(M_1)`` costs a
    single scan of ``R(e')`` in total — the property the paper's
    analysis of lines 22–23 relies on.
    """
    v = info.join_attr
    child_q = query.drop_edges([leaf])
    v_idx = rel_e.schema.index(v)
    cursors = {e2: rel2.data.reader() for e2, rel2 in neighbors.items()}
    nb_vidx = {e2: rel2.schema.index(v) for e2, rel2 in neighbors.items()}

    # Resolve v from any one neighbor when matching child results back.
    probe = sorted(neighbors)[0]
    probe_idx = nb_vidx[probe]

    for chunk in load_light_chunks(rel_e.data, light_groups, M):
        values = {t[v_idx] for t in chunk}
        vmax = max(values)
        by_value: dict[object, list[tuple]] = {}
        for t in chunk:
            by_value.setdefault(t[v_idx], []).append(t)

        rebound = dict(inst)
        del rebound[leaf]
        empty = False
        # em-loop-bound: 1 -- one filter per neighbor, and the
        # neighbor count is a query-size constant
        for e2, rel2 in neighbors.items():
            matched = take_matching(cursors[e2], nb_vidx[e2], vmax, values)
            rebound[e2] = rel2.rewrite(matched, label=f"sj_{leaf}",
                                       sorted_on=v)
            if not matched:
                empty = True
        if empty:
            continue
        child_inst = Instance(rebound)

        def child_emit(result, _by_value=by_value):
            w_val = result[probe][probe_idx]
            out = dict(result)
            for t in _by_value.get(w_val, ()):
                out[leaf] = t
                emit(dict(out))

        _run(child_q, child_inst, child_emit, pick, memo,
             literal_buds=literal_buds, trace=trace, depth=depth + 1)


# ---------------------------------------------------------------------------
# Peel plans: deterministic stand-in for the round-robin simulation
# ---------------------------------------------------------------------------

def enumerate_plans(query: JoinQuery, limit: int | None = None
                    ) -> list[Plan]:
    """All consistent leaf-choice strategies over reachable structures.

    A plan assigns one leaf to every query *structure* reachable during
    the recursion (heavy and light children both explored).  Each plan
    corresponds to a branch of the paper's nondeterministic machine;
    running all of them and taking the cheapest realizes the round-robin
    guarantee deterministically.  ``limit`` caps the number of plans
    kept per reachable structure (and overall) — enumeration is
    deterministic, exploring leaves in name order, so truncated sets
    are stable.  Queries with many symmetric leaves (large stars) need
    a limit; their branches are cost-equivalent up to petal renaming.
    """
    memo: dict[frozenset, list[Plan]] = {}
    plans = _plans_for(query, memo, limit)
    if limit is not None:
        plans = plans[:limit]
    return plans


def _plans_for(query: JoinQuery, memo: dict[frozenset, list[Plan]],
               limit: int | None) -> list[Plan]:
    key = query.structure_key()
    if key in memo:
        return memo[key]
    if len(query.edges) <= 1:
        memo[key] = [{}]
        return memo[key]
    buds = find_buds(query)
    if buds:
        memo[key] = _plans_for(query.drop_edges([buds[0]]), memo, limit)
        return memo[key]
    islands = find_islands(query)
    if islands:
        memo[key] = _plans_for(query.drop_edges([islands[0]]), memo, limit)
        return memo[key]

    result: list[Plan] = []
    seen: set[frozenset] = set()
    for leaf in find_leaves(query):
        info = leaf_info(query, leaf)
        heavy_child = (query.drop_edges([leaf])
                       .drop_attributes(set(info.unique_attrs)
                                        | {info.join_attr}))
        light_child = query.drop_edges([leaf])
        for ph in _plans_for(heavy_child, memo, limit):
            for pl in _plans_for(light_child, memo, limit):
                merged = _merge_plans(ph, pl)
                if merged is None:
                    continue
                merged[key] = leaf
                sig = frozenset(merged.items())
                if sig not in seen:
                    seen.add(sig)
                    result.append(merged)
                if limit is not None and len(result) >= limit:
                    memo[key] = result
                    return result
    memo[key] = result
    return result


def _merge_plans(a: Plan, b: Plan) -> Plan | None:
    merged = dict(a)
    for k, choice in b.items():
        if merged.setdefault(k, choice) != choice:
            return None
    return merged


# ---------------------------------------------------------------------------
# Best-branch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRun:
    """Measured cost of one peel plan."""

    plan: Plan
    reads: int
    writes: int
    emitted: int
    checksum: int

    @property
    def io(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class BestRun:
    """Result of running every peel plan and keeping the cheapest."""

    runs: tuple[PlanRun, ...]
    best_index: int

    @property
    def best(self) -> PlanRun:
        return self.runs[self.best_index]

    @property
    def io(self) -> int:
        """Best-branch I/O — the quantity Theorem 3 bounds."""
        return self.best.io

    @property
    def round_robin_io(self) -> int:
        """Pessimistic round-robin cost: #branches × best branch."""
        return len(self.runs) * self.best.io


# em-cost: N^6/(M^5*B) + N/B -- every peel plan (a query-constant
# number, capped by ``limit``) runs one Algorithm 2 branch on a cloned
# device, then the best branch runs once for real
def acyclic_join_best(query: JoinQuery, instance: Instance,
                      emitter: Emitter | None = None, *,
                      limit: int | None = None) -> BestRun:
    """Run Algorithm 2 under every peel plan; keep the cheapest.

    Each plan is *explored* on a fresh device (same ``M``, ``B``) with
    the input relations copied free of charge, so measured per-branch
    I/O is clean.  All branches are checked to emit identical result
    sets.  When ``emitter`` is given, the best branch is then run for
    real on the *original* instance — its device is charged exactly the
    best branch's cost, which is the quantity Theorem 3 bounds (the
    paper's round-robin simulation pays the same up to the constant
    branch count, reported as :attr:`BestRun.round_robin_io`).
    """
    from repro.core.emit import CountingEmitter

    plans = enumerate_plans(query, limit=limit)
    if not plans:
        plans = [{}]
    runs: list[PlanRun] = []
    # em-loop-bound: 1 -- the peel-plan count depends only on query
    # structure (and is capped by ``limit``), a query-size constant in
    # data-complexity terms
    for plan in plans:
        dev, inst = clone_instance(instance)
        counter = CountingEmitter()
        acyclic_join(query, inst, counter, chooser=plan_chooser(plan))
        runs.append(PlanRun(plan=plan, reads=dev.stats.reads,
                            writes=dev.stats.writes, emitted=counter.count,
                            checksum=counter.checksum))
    signatures = {(r.emitted, r.checksum) for r in runs}
    if len(signatures) > 1:
        raise AssertionError(
            f"peel plans disagree on the result set: {sorted(signatures)}")
    best_index = min(range(len(runs)), key=lambda i: runs[i].io)
    if instance:
        # Exploration runs on cloned throw-away devices; record the
        # branch cost distribution on the real device's registry.
        metrics = next(iter(instance.values())).device.metrics
        branch_io = metrics.histogram("acyclic.branch_io")
        for r in runs:
            branch_io.observe(r.io)
        metrics.counter("acyclic.branches").inc(len(runs))
    if emitter is not None:
        acyclic_join(query, instance, emitter,
                     chooser=plan_chooser(runs[best_index].plan))
    return BestRun(runs=tuple(runs), best_index=best_index)


def clone_instance(instance: Instance,  # em-effects: FREE_PEEK -- re-creates pre-existing inputs on a fresh device; the copy models "the input is already on disk", so reading it must not bill the candidate run
                   M: int | None = None, B: int | None = None
                   ) -> tuple[Device, Instance]:
    """Copy an instance onto a fresh device (inputs written free)."""
    devices = {rel.device for rel in instance.values()}
    if len(devices) != 1:
        raise ValueError("instance spans multiple devices")
    (src,) = devices
    dev = Device(M=M or src.M, B=B or src.B,
                 mem_slack=src.memory.slack,
                 strict_memory=src.memory.strict,
                 buffer_pool=src.pool_config)
    rels = {}
    for name, rel in instance.items():
        copy = Relation.from_tuples(dev, rel.schema, rel.peek_tuples())
        # keep the order and restriction metadata too: a copy that
        # forgot ``sorted_on`` would pay sorts the real run skips
        rels[name] = replace(copy, sorted_on=rel.sorted_on,
                             fixed=rel.fixed)
    return dev, Instance(rels)
