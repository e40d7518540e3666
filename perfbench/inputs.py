"""Seeded inputs and request mixes for the benchmark's workloads.

Everything here is a pure function of the seed: the same seed gives the
same rows and the same request sequence, another seed gives other ones.
The engine only ever sees the generated rows, through the catalog.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.query.builders import line_query
from repro.workloads.generators import uniform_instance
from repro.workloads.worstcase import (fig3_line3_instance,
                                       star_worstcase_instance)

Schemas = dict[str, tuple[str, ...]]
Rows = dict[str, list[tuple]]

LINE3 = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"
STAR3 = "e0(v1,v2,v3), e1(u1,v1), e2(u2,v2), e3(u3,v3)"

# reduce_heavy: the reducer keeps ~18% of the tuples; ~750 results.
UNIFORM_TUPLES, UNIFORM_DOMAIN = 3000, 6000
# join_heavy: 250*250 = 62500 and 22^3 = 10648 results per query.
FIG3_FANOUT = 250
STAR_PETAL = 22
# pooled_http: the hot instance fits the pool, the cold one does not.
HOT_TUPLES, HOT_DOMAIN = 400, 800
COLD_TUPLES, COLD_DOMAIN = 2000, 4000
#: Distinct hot-instance contents the between-rounds replace cycles
#: through (the catalog generation still grows every round).
HOT_VARIANTS = 4
#: Zipf exponent over the (hot, cold) ranks: P(hot) = 1/(1 + 2^-s) ~ 0.75.
ZIPF_S = 1.6


def sub_seed(seed: int, label: str) -> int:
    """A deterministic integer seed for one named input of a run."""
    return random.Random(f"{seed}/{label}").randrange(2 ** 31)


def relabel(schemas: Schemas, rows: Rows, seed: int) -> Rows:
    """Rename every attribute's values by a seeded injection.

    Join attributes are renamed consistently across relations, so the
    join structure (and every result count) is unchanged while the
    values, and hence the sort orders, depend on the seed.
    """
    rng = random.Random(seed)
    domains: dict[str, set] = {}
    for rel, attrs in schemas.items():
        for i, attr in enumerate(attrs):
            domains.setdefault(attr, set()).update(t[i] for t in rows[rel])
    maps = {}
    for attr in sorted(domains):
        values = sorted(domains[attr])
        maps[attr] = dict(zip(values, rng.sample(range(1 << 30),
                                                 len(values))))
    return {rel: sorted(tuple(maps[a][v] for a, v in zip(attrs, t))
                        for t in rows[rel])
            for rel, attrs in schemas.items()}


def uniform_line3(tuples: int, domain: int, seed: int
                  ) -> tuple[Schemas, Rows]:
    return uniform_instance(line_query(3), tuples, domain, seed=seed)


def fig3(seed: int) -> tuple[Schemas, Rows]:
    schemas, rows = fig3_line3_instance(FIG3_FANOUT, FIG3_FANOUT)
    return schemas, relabel(schemas, rows, seed)


def star3(seed: int) -> tuple[Schemas, Rows]:
    schemas, rows = star_worstcase_instance([STAR_PETAL] * 3)
    return schemas, relabel(schemas, rows, seed)


def zipf_weights(k: int, s: float) -> list[float]:
    """Normalized Zipf weights for ranks ``1..k``."""
    raw = [1.0 / r ** s for r in range(1, k + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def block_counts(n: int, weights: Sequence[float]) -> list[int]:
    """Split ``n`` requests by ``weights`` (largest remainder first)."""
    exact = [n * w for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_stream(seed: int, client: int, weights: Sequence[float],
                block: int) -> Iterator[int]:
    """An endless, seeded stream of template indices for one client.

    Every ``block`` consecutive requests hold each template in its Zipf
    share exactly, in a seeded random order: the mix is skewed, but a
    run's hot/cold proportion does not wander with the seed.
    """
    rng = random.Random(f"{seed}/mix/{client}")
    deck = [i for i, c in enumerate(block_counts(block, weights))
            for _ in range(c)]
    while True:
        rng.shuffle(deck)
        yield from deck


def cycle_stream(pattern: Sequence[int]) -> Iterator[int]:
    """An endless repetition of ``pattern``."""
    while True:
        yield from pattern

