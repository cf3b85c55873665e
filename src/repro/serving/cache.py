"""LRU cache of compiled execution plans, keyed by registry model name.

A fleet server cannot afford to keep every model's compiled engine resident
— weight codes and preallocated activation buffers are the memory budget —
so plans are compiled on demand and held in a bounded LRU.  Evicting a model
means the next request for it pays a *recompile*; the cache counts hits,
misses, evictions and recompiles (a recompile is a miss on a model that was
resident before) and records per-model compile wall time so the serving
report can surface cold-start cost.

The cache optionally gains a **disk tier** (``artifact_dir``): in-memory
misses first try to load a persistent plan artifact
(:mod:`repro.deploy.artifact`), content-addressed by the compile config's
hash via ``key_fn``.  A disk hit rebuilds the engine from the serialized
plan — prepacked weights and cached autotune choices included — so the
model comes back *without* re-lowering, re-optimization or re-profiling.
Compiles triggered by a true miss write their artifact back, so the next
process starts warm.  Unreadable artifacts (corrupt, stale, wrong version)
are counted and fall through to a fresh compile — the disk tier can only
make things faster, never wronger.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

__all__ = ["PlanCache"]


class PlanCache:
    """Bounded LRU of compiled-model entries with an optional disk tier.

    Entries are whatever ``compile_fn`` returns —
    :class:`~repro.deploy.Deployment` objects by default (required for the
    disk tier, which round-trips entries through ``entry.save(path)`` /
    ``Deployment.load(path)``).
    """

    def __init__(self, capacity: int,
                 compile_fn: Callable | None = None,
                 artifact_dir: str | Path | None = None,
                 key_fn: Callable[[str], str] | None = None,
                 disk_max_bytes: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if disk_max_bytes is not None and disk_max_bytes < 1:
            raise ValueError(f"disk_max_bytes must be >= 1, got {disk_max_bytes}")
        self.capacity = capacity
        if compile_fn is not None:
            self._compile = compile_fn
        else:
            from ..deploy import compile as deploy_compile
            self._compile = deploy_compile
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.disk_max_bytes = disk_max_bytes
        self._key_fn = key_fn
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._ever_resident: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.recompiles = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_errors = 0
        self.disk_quarantined = 0
        self.disk_evictions = 0
        self.compile_s: dict[str, float] = {}   # last compile wall time per model
        self.total_compile_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def resident(self) -> list[str]:
        """Model names currently resident, LRU-first."""
        return list(self._entries)

    def artifact_path(self, name: str) -> Path | None:
        """Disk-tier location for one model (``None`` when the tier is off)."""
        if self.artifact_dir is None:
            return None
        from ..deploy.artifact import ARTIFACT_SUFFIX
        key = self._key_fn(name) if self._key_fn is not None else "plan"
        return self.artifact_dir / f"{name}-{key}{ARTIFACT_SUFFIX}"

    def peek(self, name: str) -> object | None:
        """Resident entry or ``None`` — no LRU reorder, no counter updates."""
        return self._entries.get(name)

    def evict(self, name: str) -> bool:
        """Drop one resident entry (no recompile accounting); True if held.

        Used by fault injection to force the next :meth:`get` through the
        disk tier; a production cache would call it on memory pressure.
        """
        if name in self._entries:
            del self._entries[name]
            return True
        return False

    def put(self, name: str, entry: object) -> None:
        """Seed a precompiled entry (e.g. a warm deployment), evicting LRU.

        With a disk tier configured, the seeded entry is persisted too (if
        its artifact is not already on disk) — a preloaded deployment should
        warm future processes just like a compiled-on-miss one does.
        """
        if name in self._entries:
            self._entries.move_to_end(name)
        self._entries[name] = entry
        self._ever_resident.add(name)
        path = self.artifact_path(name)
        if path is not None and not path.exists():
            self._store_to_disk(name, entry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def _load_from_disk(self, name: str) -> object | None:
        path = self.artifact_path(name)
        if path is None or not path.exists():
            return None
        from ..deploy import ArtifactError, Deployment
        try:
            entry = Deployment.load(path)
        except ArtifactError:
            # Corrupt/stale artifact: quarantine it aside so the same bad
            # file isn't re-read (and re-failed) on every future miss — the
            # fresh compile below re-stores a good artifact at the live
            # path.  ``.corrupt`` doesn't match the tier's glob, so GC and
            # future loads ignore it; it stays on disk for post-mortems.
            self.disk_errors += 1
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
                self.disk_quarantined += 1
            except OSError:
                pass
            return None
        except OSError:
            # Plain I/O failure (permissions, a cleanup racing the exists()
            # check): fall through to a fresh compile — the disk tier must
            # never make serving *fail*.
            self.disk_errors += 1
            return None
        self.disk_hits += 1
        try:
            path.touch()   # refresh the disk tier's LRU-by-mtime signal
        except OSError:
            pass
        return entry

    def _store_to_disk(self, name: str, entry: object) -> None:
        path = self.artifact_path(name)
        if path is None or not hasattr(entry, "save"):
            return
        try:
            entry.save(path)
            self.disk_stores += 1
        except OSError:
            self.disk_errors += 1
            return
        self._gc_disk(keep=path)

    def _gc_disk(self, keep: Path | None = None) -> None:
        """Bound the artifact dir to ``disk_max_bytes``, evicting LRU-by-mtime.

        Disk hits :meth:`Path.touch` their artifact, so modification time is
        the tier's recency signal.  The just-written artifact is never
        evicted — a store must not immediately undo itself — and unreadable
        directory entries are skipped (a concurrent cleanup is not an
        error).
        """
        if self.artifact_dir is None or self.disk_max_bytes is None:
            return
        from ..deploy.artifact import ARTIFACT_SUFFIX
        entries = []
        total = 0
        try:
            for path in self.artifact_dir.glob(f"*{ARTIFACT_SUFFIX}"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        except OSError:
            return
        entries.sort()   # oldest mtime first
        for mtime, size, path in entries:
            if total <= self.disk_max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.disk_evictions += 1

    def get(self, name: str) -> object:
        """Fetch a compiled model: memory, then disk artifact, then compile."""
        entry = self._entries.get(name)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(name)
            return entry
        self.misses += 1
        entry = self._load_from_disk(name)
        if entry is None:
            # Only an actual compile of a previously resident model counts
            # as a recompile; a disk-tier load pays no compile cost.
            if name in self._ever_resident:
                self.recompiles += 1
            start = time.perf_counter()
            entry = self._compile(name)
            elapsed = time.perf_counter() - start
            self.compile_s[name] = elapsed
            self.total_compile_s += elapsed
            self._store_to_disk(name, entry)
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[name] = entry
        self._ever_resident.add(name)
        return entry

    def stats(self) -> dict:
        """JSON-serializable counters for the serving report."""
        return {
            "capacity": self.capacity,
            "resident": self.resident,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "recompiles": self.recompiles,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "disk_quarantined": self.disk_quarantined,
            "disk_evictions": self.disk_evictions,
            "disk_max_bytes": self.disk_max_bytes,
            "artifact_dir": str(self.artifact_dir) if self.artifact_dir else None,
            "total_compile_s": self.total_compile_s,
            "compile_s": dict(self.compile_s),
        }
