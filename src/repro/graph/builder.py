"""Construction of :class:`~repro.graph.csr.CSRGraph` objects from edge lists.

Applications obtain graphs through :func:`repro.graph.load`; the generators,
file loaders and transformations inside :mod:`repro.graph` build them with
the private ``_build_csr``.

Every CSR array in the package follows one ordering rule, implemented once by
:func:`_sort_edges`: each neighbour list is sorted by (vertex, neighbour), and
parallel edges keep their input order, so their weights do too.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import INDEX_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, CSRGraph, GraphError

#: Largest vertex count whose ``(vertex, neighbour)`` keys fit in an int64.
MAX_KEYED_VERTICES = 3_037_000_499


def _sort_edges(
    num_vertices: int,
    group: np.ndarray,
    other: np.ndarray,
    weights: Optional[np.ndarray] = None,
    unique: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Return ``(group, other, weights)`` ordered by ``(group, other)``.

    Both endpoint arrays hold IDs in ``[0, num_vertices)``, so the int64 key
    ``group * num_vertices + other`` sorts in exactly that order.  Equal keys
    keep their input order.  ``unique=True`` keeps only the first edge of
    every ``(group, other)`` pair.
    """
    if num_vertices > MAX_KEYED_VERTICES:
        raise GraphError(
            f"{num_vertices} vertices exceed the {MAX_KEYED_VERTICES} whose edge keys fit in int64"
        )
    keys = group * np.int64(num_vertices) + other
    if weights is None:
        # Equal keys are the same edge, so no tie order needs keeping and the
        # endpoints can be recovered from the sorted keys.
        keys.sort()
        if unique:
            keys = keys[_run_starts(keys)]
        sorted_group, sorted_other = np.divmod(keys, num_vertices)
        return sorted_group, sorted_other, None
    order = np.argsort(keys, kind="stable")
    if unique:
        order = order[_run_starts(keys[order])]
    return group[order], other[order], weights[order]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values."""
    starts = np.ones(sorted_keys.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _csr_from_pairs(
    num_vertices: int,
    group_by: np.ndarray,
    other: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Group edges by ``group_by`` and return (index, adjacency, weights)."""
    counts = np.bincount(group_by, minlength=num_vertices).astype(INDEX_DTYPE)
    index = np.concatenate(([0], np.cumsum(counts))).astype(INDEX_DTYPE)
    _, adjacency, ordered_weights = _sort_edges(num_vertices, group_by, other, weights)
    return index, adjacency, ordered_weights


def _build_csr(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    remove_self_loops: bool = False,
    deduplicate: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel source/target arrays.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex IDs must lie in ``[0, num_vertices)``.
    sources, targets:
        Parallel arrays of edge endpoints.
    weights:
        Optional parallel array of edge weights.
    remove_self_loops:
        Drop edges whose endpoints coincide.
    deduplicate:
        Collapse parallel edges (the first weight wins for weighted graphs).
    name:
        Human-readable graph name carried through transformations.
    """
    sources = np.asarray(sources, dtype=VERTEX_DTYPE).ravel()
    targets = np.asarray(targets, dtype=VERTEX_DTYPE).ravel()
    if sources.shape != targets.shape:
        raise GraphError("sources and targets must have the same length")
    if weights is not None:
        weights = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if weights.shape != sources.shape:
            raise GraphError("weights must be aligned with the edge list")
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    if sources.size:
        if sources.min() < 0 or targets.min() < 0:
            raise GraphError("vertex IDs must be non-negative")
        if max(int(sources.max()), int(targets.max())) >= num_vertices:
            raise GraphError("edge list references vertex IDs >= num_vertices")

    if remove_self_loops and sources.size:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
        if weights is not None:
            weights = weights[keep]

    if deduplicate and sources.size:
        sources, targets, weights = _sort_edges(
            num_vertices, sources, targets, weights, unique=True
        )

    out_index, out_targets, out_weights = _csr_from_pairs(num_vertices, sources, targets, weights)
    in_index, in_sources, in_weights = _csr_from_pairs(num_vertices, targets, sources, weights)
    return CSRGraph(
        out_index=out_index,
        out_targets=out_targets,
        in_index=in_index,
        in_sources=in_sources,
        out_weights=out_weights,
        in_weights=in_weights,
        name=name,
    )


def _from_edge_list(
    edges: Iterable[Sequence[int]],
    num_vertices: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    name: str = "graph",
    **kwargs,
) -> CSRGraph:
    edge_array = np.asarray(list(edges), dtype=VERTEX_DTYPE)
    if edge_array.size == 0:
        sources = np.empty(0, dtype=VERTEX_DTYPE)
        targets = np.empty(0, dtype=VERTEX_DTYPE)
    else:
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (source, target) pairs")
        sources, targets = edge_array[:, 0], edge_array[:, 1]
    if num_vertices is None:
        num_vertices = int(edge_array.max()) + 1 if edge_array.size else 0
    weight_array = None if weights is None else np.asarray(weights, dtype=WEIGHT_DTYPE)
    return _build_csr(num_vertices, sources, targets, weights=weight_array, name=name, **kwargs)
