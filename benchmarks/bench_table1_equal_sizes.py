"""Experiment T1-equal — Table 1, row "Acyclic join with equal N_i",
Theorem 7.

Paper claim: with all relations of size ``N``, Algorithm 2 costs
``Õ((N/M)^c · M/B)`` where ``c`` is the minimum edge cover number, and
this is optimal (vertex-packing construction).  We sweep ``N`` for
query classes with different ``c`` and check the measured growth
exponent: doubling ``N`` should multiply I/O by about what it
multiplies the bound by.  That is ``2^c`` once ``(N/M)^c`` dominates,
but at these small ``N`` the linear ``|E|·N/B`` term still counts, so
the bound itself grows with an exponent that can differ from ``c``.
"""

import math

from _util import best_branch, print_table
from repro.analysis import equal_size_bound
from repro.query import cover_number, line_query, lollipop_query, star_query
from repro.workloads import equal_size_packing_instance


M, B = 4, 2

FAMILIES = [
    ("L3 (c=2)", line_query(3), (8, 16, 32)),
    ("L5 (c=3)", line_query(5), (6, 12)),
    ("star3 (c=3)", star_query(3), (6, 12)),
    ("lollipop3 (c=4)", lollipop_query(3), (4, 8)),
]


def sweep():
    rows = []
    for label, q, ns in FAMILIES:
        c = cover_number(q)
        prev = None
        for n in ns:
            schemas, data = equal_size_packing_instance(q, n)
            m = best_branch(q, schemas, data, M, B, limit=8)
            bound = equal_size_bound(q, n, M, B)
            growth = (m["io"] / prev) if prev else float("nan")
            prev = m["io"]
            rows.append({"family": label, "c": c, "N": n, "io": m["io"],
                         "(N/M)^c*M/B": round(bound, 1),
                         "io/bound": m["io"] / bound,
                         "growth": growth,
                         "results(N^c)": m["results"]})
    return rows


def test_equal_size_scaling(benchmark, capsys):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Table 1 / equal sizes: (N/M)^c scaling (Theorem 7)",
                rows, capsys)
    for r in rows:
        assert r["results(N^c)"] == r["N"] ** r["c"]
        assert r["io/bound"] <= 20.0
    # Growth exponent check per doubling: log2(growth) is within 1.2
    # of the bound's own exponent over the same doubling.
    for label, q, ns in FAMILIES:
        fam = [r for r in rows if r["family"] == label]
        for a, b in zip(fam, fam[1:]):
            exponent = math.log2(b["io"] / a["io"])
            expected = math.log2(equal_size_bound(q, b["N"], M, B)
                                 / equal_size_bound(q, a["N"], M, B))
            assert expected - 1.2 <= exponent <= expected + 1.2, (
                label, a["N"], exponent, expected)
