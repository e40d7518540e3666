"""Seeded generators and the request mix."""

import itertools

import workloads
import inputs
import pytest
from repro.internal import join_count
from repro.query.parse import parse_query_and_layouts
from repro.workloads.worstcase import fig3_line3_instance


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_data_is_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name].make_data
    assert make(3) == make(3)
    assert make(3) != make(4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_stream_is_a_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]

    def head(seed, client):
        return list(itertools.islice(wl.make_stream(seed, client), 200))

    for c in range(wl.clients):
        assert head(3, c) == head(3, c)
        assert all(0 <= t < len(wl.templates) for t in head(3, c))


def test_zipf_mix_differs_by_seed_and_client_and_is_skewed():
    weights = inputs.zipf_weights(2, inputs.ZIPF_S)
    assert weights[0] > 0.74 and abs(sum(weights) - 1) < 1e-12

    def head(seed, client, n=120):
        return list(itertools.islice(
            inputs.zipf_stream(seed, client, weights, block=12), n))

    assert head(1, 0) == head(1, 0)
    assert head(1, 0) != head(2, 0)
    assert head(1, 0) != head(1, 1)
    for start in range(0, 120, 12):      # 9 hot and 3 cold per block
        assert head(1, 0)[start:start + 12].count(0) == 9


@pytest.mark.parametrize("n, weights, want", [
    (12, [0.752, 0.248], [9, 3]),
    (10, [0.5, 0.3, 0.2], [5, 3, 2]),
    (3, [0.4, 0.35, 0.25], [1, 1, 1]),
    (0, [1.0], [0]),
])
def test_block_counts_split_by_largest_remainder(n, weights, want):
    assert inputs.block_counts(n, weights) == want


def test_relabel_keeps_the_join_and_changes_the_values():
    schemas, rows = fig3_line3_instance(5, 7)
    query = parse_query_and_layouts(inputs.LINE3)[0]
    a = inputs.relabel(schemas, rows, seed=1)
    b = inputs.relabel(schemas, rows, seed=2)
    assert a != b and a != rows
    assert join_count(query, a, schemas) == join_count(query, b, schemas) \
        == 35
    assert {r: len(t) for r, t in a.items()} == \
        {r: len(t) for r, t in rows.items()}


def test_sub_seeds_are_stable_and_distinct():
    assert inputs.sub_seed(5, "hot0") == inputs.sub_seed(5, "hot0")
    assert inputs.sub_seed(5, "hot0") != inputs.sub_seed(5, "hot1")
    assert inputs.sub_seed(5, "hot0") != inputs.sub_seed(6, "hot0")
