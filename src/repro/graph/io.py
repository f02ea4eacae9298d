"""Persistence of graphs as edge-list text files and compressed NumPy archives.

These are the format back ends of :func:`repro.graph.load` and
:func:`repro.graph.save` (see :mod:`repro.graph.source`); real-world files go
through the chunked parsers of :mod:`repro.graph.ingest`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph

PathLike = Union[str, Path]

#: Edges formatted per block by the vectorized writer.
_WRITE_CHUNK_EDGES = 1 << 20


# ---------------------------------------------------------------------------
# vectorized edge-list formatting
# ---------------------------------------------------------------------------


def _format_edge_block(sources: np.ndarray, targets: np.ndarray,
                       weights: Optional[np.ndarray] = None) -> bytes:
    """Format one block of edges as ``src dst [weight]`` lines, vectorized.

    A single C-level ``%``-format over the interleaved columns replaces the
    per-edge Python f-string loop (roughly 2x faster unweighted and 10x for
    the integral weights :meth:`CSRGraph.with_random_weights` produces; see
    ``benchmarks/bench_ingest.py``).  Non-integral weights keep ``%g``
    semantics through a per-line fallback.
    """
    count = int(sources.shape[0])
    if count == 0:
        return b""
    if weights is None:
        merged = [None] * (2 * count)
        merged[0::2] = sources.tolist()
        merged[1::2] = targets.tolist()
        text = ("%d %d\n" * count) % tuple(merged)
        return text.encode("ascii")
    integral = bool(np.all(weights == np.floor(weights))) and bool(
        np.all(np.abs(weights) < 2**53)
    )
    merged = [None] * (3 * count)
    merged[0::3] = sources.tolist()
    merged[1::3] = targets.tolist()
    if integral:
        # "%g" of an integer prints exactly like "%d", and formatting ints
        # through the bulk pattern is ~10x faster than formatting floats.
        merged[2::3] = weights.astype(np.int64).tolist()
        text = ("%d %d %g\n" * count) % tuple(merged)
        return text.encode("ascii")
    merged[2::3] = weights.tolist()
    text = ("%d %d %g\n" * count) % tuple(merged)
    return text.encode("ascii")


def _save_edge_list(graph: CSRGraph, path: PathLike) -> None:
    path = Path(path)
    sources, targets = graph.edge_arrays()
    with path.open("wb") as handle:
        handle.write(f"# repro edge list: {graph.name}\n".encode("utf-8"))
        handle.write(
            f"# vertices={graph.num_vertices} edges={graph.num_edges}\n".encode("utf-8")
        )
        for start in range(0, sources.shape[0], _WRITE_CHUNK_EDGES):
            stop = start + _WRITE_CHUNK_EDGES
            weights = graph.out_weights[start:stop] if graph.is_weighted else None
            handle.write(_format_edge_block(sources[start:stop], targets[start:stop], weights))


def _load_edge_list(path: PathLike, num_vertices: Optional[int] = None) -> CSRGraph:
    from repro.graph.ingest import ParseOptions, graph_name_for, parse_graph

    return parse_graph(
        path,
        ParseOptions(fmt="edgelist", num_vertices=num_vertices),
        name=graph_name_for(path),
    )


# ---------------------------------------------------------------------------
# npz round-trip
# ---------------------------------------------------------------------------


def _save_npz(graph: CSRGraph, path: PathLike) -> None:
    path = Path(path)
    payload = {
        "out_index": graph.out_index,
        "out_targets": graph.out_targets,
        "in_index": graph.in_index,
        "in_sources": graph.in_sources,
        "name": np.array(graph.name),
    }
    if graph.out_weights is not None:
        payload["out_weights"] = graph.out_weights
        payload["in_weights"] = graph.in_weights
    np.savez_compressed(path, **payload)


def _load_npz(path: PathLike) -> CSRGraph:
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        return CSRGraph(
            out_index=data["out_index"],
            out_targets=data["out_targets"],
            in_index=data["in_index"],
            in_sources=data["in_sources"],
            out_weights=data["out_weights"] if "out_weights" in data else None,
            in_weights=data["in_weights"] if "in_weights" in data else None,
            name=str(data["name"]),
        )
