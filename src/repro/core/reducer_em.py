"""External-memory full reducer (Yannakakis phase one, with I/O charges).

Two semijoin passes over the ear-elimination order of
:func:`repro.query.reduce.elimination_order`; each semijoin brings both
sides into order on the shared attribute and performs one merge pass,
writing the filtered relation back to disk (in that order).  The
filter's sorted copy is kept in place of the relation, so a later
semijoin — or the join kernel after the reducer — that needs the same
order finds it already paid for instead of sorting again.  Total cost
``Õ(Σ N(e)/B)`` — the linear term the paper's bounds absorb.

The paper's optimality statements assume fully reduced inputs
(Section 1.2); the planner runs this reducer first unless told the
input is already reduced.
"""

from __future__ import annotations

from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import merge_matching
from repro.query.hypergraph import JoinQuery
from repro.query.reduce import elimination_order


# em-cost: N/B * log(N/M) -- two semijoin sweeps over the elimination
# order, each sorting and merge-scanning every relation once
def full_reduce_em(query: JoinQuery, instance: Instance) -> Instance:
    """Return a fully reduced copy of ``instance`` (I/O charged)."""
    rels: dict[str, Relation] = dict(instance)
    steps = elimination_order(query)
    # em-loop-bound: 1 -- one semijoin per query edge, and the edge
    # count is query-size (constant in data-complexity terms); the
    # per-edge Σ N(e) is what the semijoin's own N/B accounts
    for step in steps:  # upward: parents filtered by children
        if step.parent is None:
            continue
        rels[step.edge] = rels[step.edge].sort_by(step.shared_attr)
        rels[step.parent] = _semijoin_em(rels[step.parent],
                                         rels[step.edge], step.shared_attr)
    # em-loop-bound: 1 -- the mirrored downward sweep, same accounting
    for step in reversed(steps):  # downward: children by parents
        if step.parent is None:
            continue
        rels[step.parent] = rels[step.parent].sort_by(step.shared_attr)
        rels[step.edge] = _semijoin_em(rels[step.edge],
                                       rels[step.parent], step.shared_attr)
    return Instance(rels)


def _semijoin_em(rel: Relation, filt: Relation, attr: str) -> Relation:
    """``rel ⋉ filt`` on ``attr`` by sort + merge, written back to disk."""
    rel_s = rel.sort_by(attr)
    filt_s = filt.sort_by(attr)
    matches = merge_matching(rel_s.data.reader(), filt_s.data.reader(),
                             rel_s.key(attr), filt_s.key(attr))
    return rel_s.rewrite(matches, label=f"red_{filt.name}",
                         sorted_on=attr)
