"""Sort once per query: no relation pays the same external sort twice.

The full reducer keeps the filter side's sorted copy in place of the
relation, so the second semijoin sweep and the join kernel find the
order already paid for; Algorithm 2 shares one sorted copy of each
branch input per attribute across all sibling recursive calls.  Each
test wraps the one sort entry point :meth:`Relation.sort_by` uses and
records which segment was sorted on which attribute.
"""

from collections import Counter

import pytest

import repro.data.relation as relation_module
from repro import Device, Instance
from repro.core import CountingEmitter, acyclic_join, execute
from repro.query import line_query, star_query
from repro.workloads import star_worstcase_instance, uniform_instance


@pytest.fixture
def sorts(monkeypatch):
    """Every external sort as ``(source segment, target name)``.

    The segment objects are kept alive by the list, so their ids (and
    their files') stay unique for the whole test.
    """
    log: list = []
    real = relation_module.external_sort

    def recording(source, key, name=None):
        log.append((source, name))
        return real(source, key, name=name)

    monkeypatch.setattr(relation_module, "external_sort", recording)
    return log


def _repeats(log) -> list:
    """(file, start, stop, name) sorted more than once."""
    seen = Counter((id(seg.file), seg.start, seg.stop, name)
                   for seg, name in log)
    return [key for key, n in seen.items() if n > 1]


def test_reduced_line3_sorts_each_input_once(sorts):
    # the perfbench reduce_heavy shape: 3 x 3000 tuples, M=256, B=16
    q = line_query(3)
    schemas, data = uniform_instance(q, 3000, 6000, seed=3)
    device = Device(M=256, B=16)
    report = execute(q, Instance.from_dicts(device, schemas, data),
                     CountingEmitter())
    assert report.algorithm == "algorithm-1"
    names = [name for _, name in sorts]
    # the reducer: each relation once per attribute it joins on ...
    assert sorted(names[:4]) == ["e1.by_v2", "e2.by_v2", "e2.by_v3",
                                 "e3.by_v3"]
    # ... and the join kernel re-sorts none of the reduced inputs
    assert len(sorts) == 8
    assert _repeats(sorts) == []


@pytest.mark.parametrize("case", ["star-worstcase", "star3-uniform"])
def test_acyclic_join_sorts_each_branch_input_once(sorts, case):
    if case == "star-worstcase":
        q = star_query(2)
        schemas, data = star_worstcase_instance([16, 16])
        device = Device(M=4, B=2)   # every petal value heavy, 4 loads
    else:
        q = star_query(3)
        schemas, data = uniform_instance(q, 120, 30, seed=5)
        device = Device(M=8, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    acyclic_join(q, inst, CountingEmitter())
    assert sorts
    assert _repeats(sorts) == []
    inputs = {id(rel.data.file) for rel in inst.values()}
    per_input = Counter(name for seg, name in sorts
                        if id(seg.file) in inputs)
    assert all(n == 1 for n in per_input.values()), per_input
