"""Edge covers and the AGM bound (Sections 2.2.1, 7.1).

The AGM bound states ``max_R |Q(R)| = min_x ∏_e N(e)^{x(e)}`` over
fractional edge covers ``x`` (``Σ_{e∋v} x(e) ≥ 1`` for every attribute
``v``).  Lemma 2 of the paper shows the optimal cover of an acyclic
query is integral (0/1), so for our constant-size queries we compute it
exactly — both by an exact rational linear program (a dual simplex over
:class:`fractions.Fraction`) and by exhaustive search over integral
covers — and cross-check the two in tests.

Section 7.1 needs the *minimum edge cover* (all sizes equal) computed
by the paper's greedy (Algorithm 6), along with the LP-dual *vertex
packing* used to build the worst-case instance of Theorem 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.query.classify import edge_unique_attributes
from repro.query.hypergraph import JoinQuery


@dataclass(frozen=True)
class EdgeCover:
    """A fractional (or integral) edge cover and its AGM value."""

    weights: dict[str, Fraction]
    agm_bound: float

    def support(self) -> frozenset[str]:
        """Edges with positive weight."""
        return frozenset(e for e, x in self.weights.items() if x > 0)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.weights.values())


def fractional_edge_cover(query: JoinQuery) -> EdgeCover:
    """The optimal fractional edge cover, solved exactly.

    Minimizes ``Σ_e x(e) · ln N(e)`` (so the AGM bound ``∏ N^x`` is
    minimized) subject to covering every attribute.  Falls back to unit
    costs when the query has no sizes (minimum fractional edge cover).

    The LP ``min c·x s.t. A x ≥ 1, x ≥ 0`` is solved by the dual simplex
    method on a :class:`~fractions.Fraction` tableau.  Every cost is
    positive, so the all-slack basis is dual feasible from the start and
    no phase 1 is needed; Bland's smallest-index rule (for the leaving
    row and for ties in the ratio test) guarantees termination.  The
    float costs enter as exact rationals, so every comparison is exact
    and the weights come out as exact rationals.
    """
    edges = query.edge_names
    if not edges:
        return EdgeCover(weights={}, agm_bound=1.0)
    if query.sizes is not None:
        cost = [Fraction(math.log(max(query.size(e), 2))) for e in edges]
    else:
        cost = [Fraction(1)] * len(edges)
    attrs = sorted(query.attributes)
    n, m = len(edges), len(attrs)
    # Row i is attribute i's constraint as an equality with slack s_i:
    # -Σ_{e∋v} x_e + s_i = -1.  Columns: x_0..x_{n-1}, s_0..s_{m-1}, rhs.
    rows = [[Fraction(-(v in query.edges[e])) for e in edges]
            + [Fraction(i == k) for k in range(m)] + [Fraction(-1)]
            for i, v in enumerate(attrs)]
    reduced = cost + [Fraction(0)] * m
    basis = list(range(n, n + m))
    while True:
        infeasible = [i for i in range(m) if rows[i][-1] < 0]
        if not infeasible:
            break
        r = min(infeasible, key=basis.__getitem__)
        row = rows[r]
        # x = 1 is feasible, so an infeasible row has a negative entry.
        j = min((j for j in range(n + m) if row[j] < 0),
                key=lambda j: (reduced[j] / -row[j], j))
        pivot = row[j]
        row[:] = [a / pivot for a in row]
        for other in rows:
            if other is not row and other[j]:
                f = other[j]
                other[:] = [a - f * b for a, b in zip(other, row)]
        f = reduced[j]
        reduced = [a - f * b for a, b in zip(reduced, row)]
        basis[r] = j
    weights = {e: Fraction(0) for e in edges}
    for i, b in enumerate(basis):
        if b < n:
            weights[edges[b]] = rows[i][-1]
    return EdgeCover(weights=weights, agm_bound=_agm_value(query, weights))


def optimal_integral_cover(query: JoinQuery) -> EdgeCover:
    """The best 0/1 edge cover by exhaustive search.

    By Lemma 2 this matches :func:`fractional_edge_cover` on acyclic
    queries.  Exponential in the (constant) query size.
    """
    edges = query.edge_names
    attrs = query.attributes
    best: tuple[float, frozenset[str]] | None = None
    for mask in range(1 << len(edges)):
        chosen = frozenset(edges[i] for i in range(len(edges))
                           if mask >> i & 1)
        covered: set[str] = set()
        for e in chosen:
            covered |= query.edges[e]
        if covered != set(attrs):
            continue
        if query.sizes is not None:
            value = math.fsum(math.log(max(query.size(e), 2)) for e in chosen)
        else:
            value = float(len(chosen))
        if best is None or value < best[0]:
            best = (value, chosen)
    if best is None:
        raise ValueError("query has an attribute covered by no edge")
    weights = {e: Fraction(e in best[1]) for e in edges}
    return EdgeCover(weights=weights, agm_bound=_agm_value(query, weights))


def _agm_value(query: JoinQuery, weights: dict[str, Fraction]) -> float:
    if query.sizes is None:
        return float("nan")
    return math.prod(query.size(e) ** float(x)
                     for e, x in weights.items() if x > 0)


def agm_bound(query: JoinQuery) -> float:
    """``min_x ∏ N(e)^{x(e)}`` — the worst-case join size (AGM)."""
    return fractional_edge_cover(query).agm_bound


@dataclass(frozen=True)
class GreedyCover:
    """Output of the paper's Algorithm 6 greedy minimum edge cover.

    ``packing`` holds one witness attribute per chosen edge — a vertex
    packing by LP duality — used by Theorem 7's instance construction.
    """

    cover: tuple[str, ...]
    packing: tuple[str, ...]

    @property
    def c(self) -> int:
        """The minimum edge cover number."""
        return len(self.cover)


def greedy_minimum_edge_cover(query: JoinQuery) -> GreedyCover:
    """Algorithm 6: repeatedly take an edge containing a unique attribute.

    Each chosen edge contributes one of its (current) unique attributes
    to the vertex packing; the edge and all its attributes are then
    removed.  Residues can contain *buds* — single-attribute edges
    whose attribute other edges also hold; per the Theorem 7 proof
    ("buds can always be ignored as they do not appear … in the minimum
    edge cover") they are dropped without being selected.  For acyclic
    queries this greedy is optimal (Section 7.1): a residue with no
    unique attribute and no bud would have minimum incidence degree 2
    everywhere, i.e. a cycle.  A defensive fallback covers degenerate
    non-acyclic input.
    """
    q = query
    cover: list[str] = []
    packing: list[str] = []
    while q.attributes:
        pick = None
        witness = None
        for e in q.edge_names:
            uniq = edge_unique_attributes(q, e)
            if uniq:
                pick, witness = e, min(uniq)
                break
        if pick is None:
            buds = [e for e in q.edge_names if len(q.edges[e]) == 1]
            if buds:
                q = q.drop_edges([buds[0]])
                continue
            pick = next(e for e in q.edge_names if q.edges[e])
            witness = min(q.edges[pick])
        cover.append(pick)
        packing.append(witness)  # type: ignore[arg-type]
        removed = q.edges[pick]
        q = q.drop_edges([pick]).drop_attributes(removed)
        q = q.drop_edges([e for e in q.edge_names if not q.edges[e]])
    return GreedyCover(cover=tuple(cover), packing=tuple(packing))


def cover_number(query: JoinQuery) -> int:
    """``c``: the minimum edge cover number of the hypergraph."""
    return greedy_minimum_edge_cover(query).c
