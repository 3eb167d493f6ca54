"""The compilation cache.

Keyed on ``(SDFG content hash, pipeline fingerprint, context fingerprint)``,
the cache maps a compilation request to the finished
:class:`~repro.codegen.CompiledSDFG` (plus the pipeline report and artifacts
such as the AD result), so repeated ``repro.compile`` / ``repro.grad`` calls
on an unchanged program skip parsing, simplification, AD and code emission
entirely.  Entries are evicted LRU beyond ``maxsize``; one lock makes
lookups, stores and evictions safe to call from several threads.

Besides the per-instance :class:`CacheStats`, every lookup also feeds the
process-wide metrics registry (``cache.hits`` / ``cache.misses`` /
``cache.disk_hits`` counters, plus ``cache.spills`` for persisted entries),
so cache behaviour across *all* cache instances shows up in one
observability snapshot (``repro.obs.metrics_snapshot()``) and in
``format_pipeline_report`` — see ``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.obs.metrics import METRICS

_OBS_HITS = METRICS.counter("cache.hits")
_OBS_MISSES = METRICS.counter("cache.misses")
_OBS_DISK_HITS = METRICS.counter("cache.disk_hits")
_OBS_SPILLS = METRICS.counter("cache.spills")

_MISS_COUNTER = itertools.count()


def unique_token() -> str:
    """A process-unique token for values without a stable representation.

    Embedding it in a fingerprint forces a cache *miss* (each call yields a
    new token).  Unlike ``id()``, tokens are never reused, so they cannot
    produce a false hit after an address is recycled.
    """
    return f"@miss:{next(_MISS_COUNTER)}"


_MISS_TOKEN_RE = re.compile(r"@miss:\d+\Z")


def contains_miss_token(key) -> bool:
    """True if ``key`` embeds a :func:`unique_token` marker.

    Such a key can never be looked up again (each token is minted once), so
    storing an entry under it would only evict reusable entries and pin dead
    compiled objects in memory.  Tokens always appear as standalone key
    elements, so exact matching cannot false-positive on user strings (whose
    :func:`stable_repr` form is quoted).
    """
    if isinstance(key, str):
        return _MISS_TOKEN_RE.fullmatch(key) is not None
    if isinstance(key, (tuple, list)):
        return any(contains_miss_token(item) for item in key)
    return False


def stable_repr(value) -> Optional[str]:
    """A deterministic string form of ``value`` for cache fingerprints.

    Covers primitives (including NumPy scalars) and (nested) containers of
    primitives; returns ``None`` for anything without a stable representation
    (callers either drop such values or key them with :func:`unique_token`).
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return f"{type(value).__name__}({value.item()!r})"
    if isinstance(value, (list, tuple)):
        parts = [stable_repr(item) for item in value]
        if any(part is None for part in parts):
            return None
        return "[" + ",".join(parts) + "]"
    if isinstance(value, (set, frozenset)):
        parts = [stable_repr(item) for item in value]
        if any(part is None for part in parts):
            return None
        return "{" + ",".join(sorted(parts)) + "}"
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            rendered_key = stable_repr(key)
            rendered_item = stable_repr(item)
            if rendered_key is None or rendered_item is None:
                return None
            parts.append(f"{rendered_key}:{rendered_item}")
        return "{" + ",".join(sorted(parts)) + "}"
    return None


@dataclass
class CacheEntry:
    """One cached compilation: the compiled object plus everything the
    pipeline produced alongside it."""

    key: tuple
    compiled: Any
    report: Any
    artifacts: dict[str, Any] = field(default_factory=dict)


@dataclass
class CacheStats:
    """Lookup counters of one :class:`CompilationCache` (reset by ``clear``).

    ``hits`` counts in-memory hits only; lookups served by loading a spilled
    entry from ``persist_dir`` count as ``disk_hits`` instead (both are
    "served from cache" for :attr:`hit_rate`).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (memory hits + disk hits + misses)."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0


class CompilationCache:
    """LRU cache of compiled SDFGs, with opt-in disk persistence.

    The default process-wide instance lives at
    :data:`repro.pipeline.DEFAULT_CACHE`; pass ``cache=False`` to the driver
    APIs to bypass caching for one call, or a private instance to isolate it.

    With ``persist_dir`` set, every stored entry is additionally *spilled*
    to ``<persist_dir>/<sha256(key)>.pkl`` via generated-source pickling
    (the :class:`~repro.codegen.CompiledSDFG` pickles its emitted source and
    re-``exec``-utes it on load), and an in-memory miss falls back to
    loading the spilled entry — so a warm *process start* skips parsing,
    simplification, AD and code emission, not just a warm call.  Disk loads
    count as ``stats.disk_hits``.  Entries whose artifacts cannot be
    pickled (foreign strategy objects, open handles) are simply not
    spilled; correctness never depends on persistence.  Only point
    ``persist_dir`` at a directory you trust — loading an entry executes
    its pickled source.
    """

    def __init__(self, maxsize: int = 128, persist_dir: Optional[str] = None) -> None:
        self.maxsize = maxsize
        self.persist_dir = persist_dir
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        # One lock guards _entries and stats: the cache is shared across
        # threads (DEFAULT_CACHE is process-wide; serving fallbacks compile
        # from worker threads), and a lookup's get + move_to_end must not
        # interleave with another thread's eviction.  Disk I/O runs outside.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: tuple) -> Optional[CacheEntry]:
        """Fetch the entry under ``key`` (marking it most-recently used), or
        ``None`` on a miss.  Updates :attr:`stats` either way."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if entry is not None:
            _OBS_HITS.inc()
            return entry
        entry = self._load_spilled(key)
        with self._lock:
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.disk_hits += 1
                self._insert(entry)
        (_OBS_MISSES if entry is None else _OBS_DISK_HITS).inc()
        return entry

    def store(self, entry: CacheEntry) -> CacheEntry:
        """Insert ``entry`` under its key, evicting least-recently-used
        entries beyond ``maxsize``; spill it to ``persist_dir`` if set."""
        with self._lock:
            self._insert(entry)
        self._spill(entry)
        return entry

    def clear(self) -> None:
        """Drop every in-memory entry and reset the statistics (spilled
        entries on disk are kept; delete the directory to drop those)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # -- persistence ------------------------------------------------------
    def _insert(self, entry: CacheEntry) -> None:
        """Insert and evict; the caller holds ``_lock``."""
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _spill_path(self, key: tuple) -> str:
        import hashlib
        import os

        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(self.persist_dir, f"{digest}.pkl")

    def _spill(self, entry: CacheEntry) -> bool:
        """Best-effort write of one entry to disk (atomic rename)."""
        if self.persist_dir is None:
            return False
        import os
        import pickle

        try:
            payload = pickle.dumps(entry)
            os.makedirs(self.persist_dir, exist_ok=True)
            path = self._spill_path(entry.key)
            temp = f"{path}.tmp.{os.getpid()}"
            with open(temp, "wb") as handle:
                handle.write(payload)
            os.replace(temp, path)
        except Exception:  # noqa: BLE001 - unpicklable artifact or filesystem
            # trouble (read-only dir, full disk): persistence is best-effort,
            # the in-memory entry is already stored, never fail the compile.
            return False
        _OBS_SPILLS.inc()
        return True

    def _load_spilled(self, key: tuple) -> Optional[CacheEntry]:
        if self.persist_dir is None:
            return None
        import os
        import pickle

        path = self._spill_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except Exception:  # noqa: BLE001 - stale/corrupt spill: treat as miss
            return None
        if entry.key != key:  # hash collision or foreign file
            return None
        return entry

    def __repr__(self) -> str:
        return (
            f"CompilationCache({len(self)}/{self.maxsize} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


#: Process-wide cache shared by the top-level driver APIs.
DEFAULT_CACHE = CompilationCache()
