"""Property tests for the CSR neighbour order.

Every CSR the package builds has its neighbour lists sorted by (vertex,
neighbour), with parallel edges in input order.  ``_build_csr`` and
``CSRGraph.with_random_weights`` get that order from one fused-key sort;
here both are compared with a direct reference built on ``np.lexsort``,
over random edge lists full of parallel edges and self-loops.  Every edge
carries a distinct weight, so any change in tie order shows up in the
weight arrays.

The suite needs ``hypothesis``; it is skipped wholesale where the package
is unavailable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.graph.builder import MAX_KEYED_VERTICES, _build_csr, _sort_edges  # noqa: E402
from repro.graph.csr import GraphError  # noqa: E402

FIELDS = ("out_index", "out_targets", "in_index", "in_sources", "out_weights", "in_weights")


@st.composite
def edge_lists(draw):
    """``(num_vertices, sources, targets, weights)`` with distinct weights.

    Few vertices and many edges, so parallel edges and self-loops are common.
    """
    num_vertices = draw(st.integers(min_value=0, max_value=8))
    if num_vertices == 0:
        pairs = []
    else:
        vertex = st.integers(min_value=0, max_value=num_vertices - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    order = draw(st.permutations(range(len(pairs))))
    sources = np.array([s for s, _ in pairs], dtype=np.int64)
    targets = np.array([t for _, t in pairs], dtype=np.int64)
    weights = np.array(order, dtype=np.float64) + 0.5
    return num_vertices, sources, targets, weights


def _index(num_vertices, group):
    counts = np.bincount(group, minlength=num_vertices)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def reference_csr(num_vertices, sources, targets, weights, remove_self_loops, deduplicate):
    """The six CSR arrays, ordered by ``np.lexsort`` (stable)."""
    if remove_self_loops:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
        weights = None if weights is None else weights[keep]
    if deduplicate:
        seen = set()
        first = []
        for i, pair in enumerate(zip(sources.tolist(), targets.tolist())):
            if pair not in seen:
                seen.add(pair)
                first.append(i)
        first = np.array(first, dtype=np.int64)
        sources, targets = sources[first], targets[first]
        weights = None if weights is None else weights[first]
    out_order = np.lexsort((targets, sources))
    in_order = np.lexsort((sources, targets))
    return {
        "out_index": _index(num_vertices, sources),
        "out_targets": targets[out_order],
        "in_index": _index(num_vertices, targets),
        "in_sources": sources[in_order],
        "out_weights": None if weights is None else weights[out_order],
        "in_weights": None if weights is None else weights[in_order],
    }


def assert_matches(graph, expected):
    for field in FIELDS:
        actual, wanted = getattr(graph, field), expected[field]
        if wanted is None:
            assert actual is None, field
            continue
        assert actual.dtype == (np.float64 if "weights" in field else np.int64), field
        assert actual.shape == wanted.shape, field
        assert actual.tobytes() == wanted.astype(actual.dtype).tobytes(), field


EMPTY = np.empty(0, dtype=np.int64)


@given(
    edge_lists(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@example((0, EMPTY, EMPTY, np.empty(0)), True, False, False)
@example((1, EMPTY, EMPTY, np.empty(0)), False, True, True)
@example((1, np.zeros(3, np.int64), np.zeros(3, np.int64), np.array([2.5, 0.5, 1.5])),
         True, False, True)
@settings(max_examples=300, deadline=None)
def test_build_csr_matches_lexsort_reference(edges, weighted, remove_self_loops, deduplicate):
    num_vertices, sources, targets, weights = edges
    if not weighted:
        weights = None
    graph = _build_csr(
        num_vertices, sources, targets, weights=weights,
        remove_self_loops=remove_self_loops, deduplicate=deduplicate,
    )
    assert_matches(
        graph,
        reference_csr(num_vertices, sources, targets, weights, remove_self_loops, deduplicate),
    )


@given(edge_lists(), st.integers(min_value=0, max_value=2**16))
@example((0, EMPTY, EMPTY, np.empty(0)), 0)
@example((1, np.zeros(4, np.int64), np.zeros(4, np.int64), np.arange(4.0)), 3)
@settings(max_examples=200, deadline=None)
def test_with_random_weights_mirrors_onto_lexsort_in_order(edges, seed):
    num_vertices, sources, targets, _ = edges
    graph = _build_csr(num_vertices, sources, targets).with_random_weights(
        low=1, high=1 << 20, seed=seed
    )
    out_sources, out_targets = graph.edge_arrays()
    expected = graph.out_weights[np.lexsort((out_sources, out_targets))]
    assert graph.in_weights.dtype == np.float64
    assert graph.in_weights.tobytes() == expected.tobytes()
    # Each in-edge carries the weight of the out-edge it mirrors.
    for v in range(num_vertices):
        for s, w in zip(graph.in_neighbors(v).tolist(), graph.in_edge_weights(v).tolist()):
            assert w in graph.out_edge_weights(s)[graph.out_neighbors(s) == v].tolist()


def test_vertex_limit_is_the_largest_whose_keys_fit_in_int64():
    int64_max = int(np.iinfo(np.int64).max)
    assert MAX_KEYED_VERTICES**2 - 1 <= int64_max < (MAX_KEYED_VERTICES + 1) ** 2 - 1
    one = np.zeros(1, dtype=np.int64)
    _sort_edges(MAX_KEYED_VERTICES, one, one)
    with pytest.raises(GraphError, match="int64"):
        _sort_edges(MAX_KEYED_VERTICES + 1, one, one)
