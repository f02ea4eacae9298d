"""On-disk memoisation of workloads, filtered traces and policy runs.

The in-memory memo tables in :mod:`repro.experiments.runner` only live for
one process; this module persists the same three kinds of artifacts so that
separate invocations (each figure/table benchmark, every worker of the
parallel runner) reuse each other's work:

``<root>/v3/workload/<sha256>.pkl``
    Built :class:`~repro.experiments.runner.Workload` objects, keyed by the
    in-memory workload memo key (app, dataset, reorder, scale, seed, merged).
``<root>/v3/llctrace/<sha256>.pkl``
    L1/L2-filtered :class:`~repro.experiments.runner.LLCTrace` streams, keyed
    by the workload key plus the cache hierarchy.
``<root>/v3/policy/<sha256>.pkl``
    Per-scheme :class:`~repro.cache.stats.CacheStats`, keyed by the trace key
    plus the scheme name.

The streaming pipeline (PR 5) adds three kinds with the same layout:

``<root>/v3/llcchunk/<sha256>.pkl``
    One L1/L2-filtered chunk of a full-execution stream, keyed by the stream
    key plus the chunk index.
``<root>/v3/llcstream/<sha256>.pkl``
    The stream manifest — chunk count plus aggregate L1/L2 filter counters —
    written once every chunk of a stream has been persisted; a later replay
    serves the whole stream from disk without re-filtering.
``<root>/v3/policystream/<sha256>.pkl``
    Per-scheme :class:`~repro.cache.stats.CacheStats` of a *full-execution*
    streaming replay (chunk budgets do not affect results, so they are not
    part of the key).

The multi-programmed co-run subsystem (PR 9) adds one more:

``<root>/v3/corun/<sha256>.pkl``
    Per-scheme :class:`~repro.cache.stats.CacheStats` (with per-stream
    counters) of an interleaved co-run replay, keyed by the app/dataset
    pairs, the interleaving schedule parameters and the way-partition
    shares (see :func:`repro.experiments.runner.corun_memo_key`).  Kinds
    are just directory names, so the new kind needs no ``MEMO_VERSION``
    bump — old entries stay valid.

:class:`ChunkSpill` is the unkeyed sibling of the chunk store: a scratch
directory for out-of-core intermediates that are only meaningful within one
computation (e.g. streaming OPT's per-chunk block and next-use arrays
between its reverse and forward passes).

Keys are hashed from their ``repr`` — every component is a primitive or a
frozen dataclass with a deterministic ``repr``.  Writes go through a
temporary file and ``os.replace`` so concurrent writers (the parallel
runner's worker processes) can never expose a partially-written entry; a
corrupt or unreadable entry is treated as a miss and recomputed.

The store is enabled by passing a ``cache_dir`` to the parallel runner or by
setting the ``REPRO_CACHE_DIR`` environment variable, in which case the
serial runner uses it too.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Optional

import numpy as np

#: Environment variable naming the on-disk memo root directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Layout version; bump when any persisted type changes incompatibly *or*
#: when a simulation-semantics fix invalidates previously computed results
#: (v1 -> v2: the PIN policy-state bugfix — pinned insertions now feed the
#: DRRIP set duel and pin-on-hit refreshes the RRPV — changed PIN-X stats,
#: which v1 stores would otherwise keep serving; v2 -> v3: the trace
#: generator's np.insert tie-ordering fix — per-vertex property updates now
#: precede the next vertex's Vertex-Array load — changed every generated
#: trace and therefore every downstream llctrace/policy result).
MEMO_VERSION = 3


def default_cache_dir() -> Optional[Path]:
    """Cache root from ``REPRO_CACHE_DIR``, or ``None`` when unset."""
    value = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return Path(value) if value else None


def key_digest(key: Any) -> str:
    """Content digest of a memo key — the entry's filename stem.

    The sweep service (:mod:`repro.experiments.service`) reuses these digests
    as task ids, so "is this task done" and "does this memo entry exist" are
    literally the same question.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class DiskMemo:
    """A pickle-per-entry store keyed by (kind, memo key)."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root) / f"v{MEMO_VERSION}"

    def path_for(self, kind: str, key: Any) -> Path:
        """File that does (or would) hold the entry for ``key``."""
        return self.root / kind / f"{key_digest(key)}.pkl"

    def contains(self, kind: str, key: Any) -> bool:
        """Whether a *readable* entry exists (corrupt entries count as absent).

        This is the completion probe, and it loads: it unpickles the whole
        entry rather than testing the path, because a truncated or
        bit-flipped file must look like a miss to schedulers and resume
        logic exactly as it does to :meth:`get`.  Probes that only steer a
        route (and whose wrong answer costs time, not results) stat
        :meth:`path_for` instead of paying for the load.
        """
        return self.get(kind, key) is not None

    def get(self, kind: str, key: Any) -> Optional[Any]:
        """Load an entry, or ``None`` on a miss or an unreadable file."""
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt, truncated or stale entry (including pickles that
            # reference since-renamed classes): treat as a miss and let the
            # caller recompute and overwrite it.
            return None

    def put(self, kind: str, key: Any, value: Any) -> None:
        """Store an entry atomically (best effort: IO errors are swallowed)."""
        path = self.path_for(kind, key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def entry_count(self, kind: Optional[str] = None) -> int:
        """Number of persisted entries (of one kind, or overall)."""
        base = self.root / kind if kind else self.root
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.pkl"))


class ChunkSpill:
    """Scratch store for per-chunk arrays of one out-of-core computation.

    Streaming consumers that need more than one pass over a chunk stream
    (e.g. OPT's reverse next-use pass followed by its forward replay) spill
    each chunk here instead of holding the stream in memory.  Entries are
    ``.npy`` files under a private temporary directory that is removed by
    :meth:`close` (or context-manager exit); unlike :class:`DiskMemo` there
    is no content key — the store is scoped to a single computation.
    """

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self._owned = directory is None
        self.root = Path(
            tempfile.mkdtemp(prefix="repro-spill-") if directory is None else directory
        )
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, index: int, array: np.ndarray) -> None:
        """Persist one chunk array under (name, index)."""
        np.save(self.root / f"{name}.{index}.npy", np.asarray(array))

    def get(self, name: str, index: int) -> np.ndarray:
        """Load the chunk array stored under (name, index)."""
        return np.load(self.root / f"{name}.{index}.npy")

    def close(self) -> None:
        """Delete the spill directory (if owned by this instance)."""
        if self._owned:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ChunkSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
