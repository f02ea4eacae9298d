"""Graph substrate: CSR representation, acquisition, ingestion and analysis.

This subpackage provides everything the rest of the library needs to model
the graph datasets the paper evaluates on:

* :class:`~repro.graph.csr.CSRGraph` — Compressed Sparse Row graph with both
  out- and in-adjacency, optional edge weights, and relabelling support;
  :class:`~repro.graph.csr.MmapCSRGraph` is the ``np.memmap``-backed variant
  for graphs larger than RAM.
* :func:`~repro.graph.source.load` — the unified acquisition entry point:
  ``load("lj")``, ``load("rmat:scale=18,seed=7")``,
  ``load("file:web-Google.txt.gz")``, ``load("mtx:graph.mtx")``.
* :mod:`~repro.graph.ingest` — chunked parsers for real-world graph files,
  the binary-CSR on-disk cache, out-of-core CSR construction and dataset
  download/verify tooling.
* :mod:`~repro.graph.properties` — degree/skew analysis used to reproduce
  Table I.
"""

from repro.graph.csr import CSRGraph, GraphError, MmapCSRGraph
from repro.graph.datasets import DatasetSpec, list_datasets
from repro.graph.ingest import fetch_dataset, ingest_graph, verify_file
from repro.graph.properties import (
    DegreeStatistics,
    SkewProfile,
    SkewReport,
    degree_statistics,
    edge_coverage,
    hot_vertex_mask,
    skew_report,
)
from repro.graph.source import (
    GraphSource,
    LoadContext,
    canonical_spec,
    describe_spec,
    list_sources,
    load,
    load_for_experiment,
    register_source,
    save,
)

__all__ = [
    "CSRGraph",
    "DatasetSpec",
    "DegreeStatistics",
    "GraphError",
    "GraphSource",
    "LoadContext",
    "MmapCSRGraph",
    "SkewProfile",
    "SkewReport",
    "canonical_spec",
    "degree_statistics",
    "describe_spec",
    "edge_coverage",
    "fetch_dataset",
    "hot_vertex_mask",
    "ingest_graph",
    "list_datasets",
    "list_sources",
    "load",
    "load_for_experiment",
    "register_source",
    "save",
    "skew_report",
    "verify_file",
]
