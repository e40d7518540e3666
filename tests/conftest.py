"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib
import random
import sys

import pytest

from repro import Device, Instance
from repro.core import AssignmentEmitter
from repro.internal import join_query
from repro.workloads import schemas_for


def make_random_data(query, sizes, domain, seed=0):
    """Deterministic random (schemas, data) for a query."""
    rng = random.Random(seed)
    schemas = schemas_for(query)
    data = {}
    for e, attrs in schemas.items():
        want = sizes if isinstance(sizes, int) else sizes[e]
        rows = set()
        guard = 0
        while len(rows) < want and guard < want * 100:
            rows.add(tuple(rng.randrange(domain) for _ in attrs))
            guard += 1
        data[e] = sorted(rows)
    return schemas, data


def bench_util():
    """The ``benchmarks/_util.py`` module (not a package)."""
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent
                           / "benchmarks"))
    try:
        import _util
    finally:
        sys.path.pop(0)
    return _util


def run_and_compare(query, schemas, data, runner, *, M=16, B=4,
                    mem_slack=None):
    """Run an EM algorithm and assert exact agreement with the oracle.

    ``runner(query, instance, emitter)`` executes the algorithm; the
    emitted assignments must equal the in-memory hash-join oracle both
    as a set and in count (no duplicate emissions).  Returns the device
    for I/O inspection.
    """
    kwargs = {} if mem_slack is None else {"mem_slack": mem_slack}
    device = Device(M=M, B=B, **kwargs)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = AssignmentEmitter(schemas)
    runner(query, instance, emitter)
    oracle = join_query(query, data, schemas)
    assert emitter.count == len(oracle), (
        f"emitted {emitter.count} results, oracle has {len(oracle)}")
    assert emitter.assignment_set() == oracle
    return device


@pytest.fixture
def small_device():
    """A small EM machine: M=16 tuples, B=4 tuples/page."""
    return Device(M=16, B=4)
