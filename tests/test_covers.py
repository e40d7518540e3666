"""Tests for edge covers and the AGM bound (Sections 2.2.1, 7.1)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (JoinQuery, agm_bound, cover_number,
                         fractional_edge_cover, greedy_minimum_edge_cover,
                         line_query, lollipop_query, optimal_integral_cover,
                         star_query, triangle_query)
from repro.query.builders import dumbbell_query

#: The 4-cycle ``C4``: ρ* = 2.
C4 = JoinQuery(edges={"e1": {"a", "b"}, "e2": {"b", "c"},
                      "e3": {"c", "d"}, "e4": {"d", "a"}})
#: Loomis-Whitney ``LW_4``: one edge per 3-subset of 4 attributes,
#: ρ* = 4/3 (each attribute lies in 3 of the 4 edges).
LW4 = JoinQuery(edges={f"e{i}": set("abcd") - {v}
                       for i, v in enumerate("abcd", 1)})


@st.composite
def random_hypergraphs(draw):
    """Small, possibly cyclic queries, with or without sizes."""
    attrs = "abcde"[:draw(st.integers(1, 5))]
    edge_sets = draw(st.lists(
        st.sets(st.sampled_from(attrs), min_size=1), min_size=1,
        max_size=6))
    edges = {f"e{i}": s for i, s in enumerate(edge_sets, 1)}
    if draw(st.booleans()):
        return JoinQuery(edges=edges)
    return JoinQuery(edges=edges, sizes={
        e: draw(st.integers(1, 500)) for e in edges})


def _lp_cost(query, weights):
    """``Σ c_e x_e`` in exact arithmetic, with the LP's own costs."""
    if query.sizes is None:
        return sum(weights.values(), Fraction(0))
    return sum((Fraction(math.log(max(query.size(e), 2))) * x
                for e, x in weights.items()), Fraction(0))


class TestFractionalCover:
    def test_l3_cover_is_1_0_1(self):
        # Section 3: optimal cover of L3 is x1=1, x2=0, x3=1.
        q = line_query(3, [100, 100, 100])
        cover = fractional_edge_cover(q)
        assert cover.weights["e1"] == pytest.approx(1.0)
        assert cover.weights["e2"] == pytest.approx(0.0, abs=1e-8)
        assert cover.weights["e3"] == pytest.approx(1.0)
        assert cover.agm_bound == pytest.approx(10000.0)

    def test_lemma2_integrality_on_acyclic_queries(self):
        # Lemma 2: acyclic queries have 0/1 optimal covers.
        for q in [line_query(5, [10, 20, 30, 40, 50]),
                  star_query(3, [5, 10, 10, 10]),
                  lollipop_query(3, [4, 8, 8, 8, 8]),
                  dumbbell_query(2, 4, [3, 9, 9, 9, 3])]:
            assert fractional_edge_cover(q).is_integral()

    def test_triangle_cover_is_fractional(self):
        # The cyclic C3 has the famous half-half-half cover.
        q = triangle_query([100, 100, 100])
        cover = fractional_edge_cover(q)
        assert not cover.is_integral()
        assert cover.weights == {e: Fraction(1, 2) for e in q.edge_names}
        assert cover.agm_bound == pytest.approx(100 ** 1.5, rel=1e-6)

    def test_lp_matches_brute_force_on_acyclic(self):
        for sizes in ([10, 10, 10, 10], [100, 2, 2, 100],
                      [3, 50, 3, 50]):
            q = line_query(4, sizes)
            lp = fractional_edge_cover(q)
            brute = optimal_integral_cover(q)
            assert lp.agm_bound == pytest.approx(brute.agm_bound,
                                                 rel=1e-6)

    def test_unit_costs_without_sizes(self):
        for query, rho in [(line_query(5), 3), (C4, 2),
                           (LW4, Fraction(4, 3))]:
            cover = fractional_edge_cover(query)
            assert sum(cover.weights.values()) == rho
            # Equal sizes N make the AGM bound N^ρ*.
            sized = query.with_sizes({e: 8 for e in query.edges})
            assert agm_bound(sized) == pytest.approx(8 ** float(rho),
                                                     rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(random_hypergraphs())
    def test_cover_is_feasible_and_beats_integral(self, query):
        cover = fractional_edge_cover(query)
        for v in query.attributes:
            assert sum((x for e, x in cover.weights.items()
                        if v in query.edges[e]), Fraction(0)) >= 1
        assert all(x >= 0 for x in cover.weights.values())
        brute = optimal_integral_cover(query)
        assert _lp_cost(query, cover.weights) <= _lp_cost(query,
                                                          brute.weights)

    def test_empty_query(self):
        assert fractional_edge_cover(JoinQuery(edges={})).agm_bound == 1.0


class TestAGM:
    def test_agm_l4_picks_cheaper_cover(self):
        # covers (1,0,1,1) vs (1,1,0,1): min(N1 N3 N4, N1 N2 N4).
        q = line_query(4, [10, 3, 7, 10])
        assert agm_bound(q) == pytest.approx(10 * 3 * 10)
        q2 = line_query(4, [10, 7, 3, 10])
        assert agm_bound(q2) == pytest.approx(10 * 3 * 10)

    def test_agm_star_is_product_of_petals(self):
        q = star_query(3, [1000, 4, 5, 6])
        assert agm_bound(q) == pytest.approx(4 * 5 * 6)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 200), min_size=2, max_size=7))
    def test_agm_equals_brute_force_on_lines(self, sizes):
        q = line_query(len(sizes), sizes)
        assert (fractional_edge_cover(q).agm_bound
                == pytest.approx(optimal_integral_cover(q).agm_bound,
                                 rel=1e-6))


class TestGreedyCover:
    def test_line_cover_numbers(self):
        # c(L_n) = ceil(n+1)/2 edges needed to cover n+1 path vertices.
        assert cover_number(line_query(2)) == 2
        assert cover_number(line_query(3)) == 2
        assert cover_number(line_query(4)) == 3
        assert cover_number(line_query(5)) == 3
        assert cover_number(line_query(7)) == 4

    def test_star_cover_number_is_petal_count(self):
        assert cover_number(star_query(4)) == 4

    def test_greedy_matches_brute_force_minimum(self):
        for q in [line_query(6), star_query(3), lollipop_query(3),
                  dumbbell_query(2, 5)]:
            greedy = greedy_minimum_edge_cover(q)
            brute = optimal_integral_cover(q)  # unit costs
            assert greedy.c == sum(
                1 for x in brute.weights.values() if x > 0.5)

    def test_cover_actually_covers(self):
        q = lollipop_query(4)
        greedy = greedy_minimum_edge_cover(q)
        covered = set()
        for e in greedy.cover:
            covered |= q.edges[e]
        assert covered == set(q.attributes)

    def test_packing_is_valid(self):
        # Each packing vertex belongs to the edge chosen for it, and no
        # chosen edge contains two packing vertices (LP duality).
        q = line_query(7)
        greedy = greedy_minimum_edge_cover(q)
        assert len(greedy.packing) == len(greedy.cover)
        for e, v in zip(greedy.cover, greedy.packing):
            assert v in q.edges[e]
        for e in greedy.cover:
            assert len(set(greedy.packing) & q.edges[e]) <= 1

    def test_uncoverable_query_rejected(self):
        q = JoinQuery(edges={"e1": frozenset({"a"})})
        q2 = q.drop_edges(["e1"])
        # empty query covers trivially
        assert greedy_minimum_edge_cover(q2).c == 0
