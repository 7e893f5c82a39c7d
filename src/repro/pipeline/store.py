"""Memoized artifact store: an in-memory LRU over an optional disk tier.

The store holds the products of pipeline stages keyed by deterministic
content identity (see :mod:`repro.pipeline.keys`).  Lookups walk two
tiers:

1. an in-process LRU bounded by entry count (``REPRO_ARTIFACT_ENTRIES``
   overrides the default), which is what repeated sweep points inside
   one process hit;
2. an optional directory of pickles named by key digest, enabled by
   pointing ``REPRO_ARTIFACT_DIR`` at a directory (or by
   :func:`repro.pipeline.configure`).  The directory is shared by
   every process that sees the same environment, which is how sweep
   workers hydrate stage prefixes instead of rebuilding scenes.

Disk writes are atomic (temp file + ``os.replace``) so concurrent
workers racing to produce the same artifact simply overwrite each
other with identical bytes; unreadable or truncated pickles are
treated as misses and recomputed.  The store keeps no counters of its
own: :func:`stats` reads them from the :mod:`repro.obs` registry.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import parse_qualified, registry
from repro.obs.spans import span
from repro.pipeline.keys import fingerprint

#: Directory for the shared disk tier (unset = memory only).
ARTIFACT_DIR_ENV_VAR = "REPRO_ARTIFACT_DIR"
#: Override for the in-memory LRU entry bound.
ARTIFACT_ENTRIES_ENV_VAR = "REPRO_ARTIFACT_ENTRIES"
#: Default in-memory LRU entry bound.
DEFAULT_MAX_ENTRIES = 512
#: Registry series behind :func:`stats`: the ``pipeline.*`` counters and
#: the ``stage.<stage>`` (compute) and ``load.<stage>`` (disk) spans.
STATS_PREFIXES = ("pipeline.", "span.stage.", "span.load.")


def publish(series: str, stage: str, amount: int = 1) -> None:
    """Add ``amount`` to the ``pipeline.<series>{stage=<stage>}`` counter."""
    registry().counter(f"pipeline.{series}").labels(stage=stage).inc(amount)


class ArtifactStore:
    """Two-tier (memory LRU + disk) store for pipeline artifacts."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[os.PathLike] = None,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"store needs >= 1 entry, got {max_entries}")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        #: Keys whose values must never be spilled to disk.
        self._memory_only: set = set()

    # -- lookup ------------------------------------------------------

    def get_or_compute(
        self,
        stage: str,
        key: str,
        compute: Callable[[], object],
        disk: bool = True,
    ) -> object:
        """Return the artifact for ``stage``/``key``, computing at most once.

        ``disk=False`` keeps the artifact out of the disk tier (used
        for cheap-to-assemble products that are large to serialize).
        """
        found, value = self._lookup(stage, key, disk)
        if not found:
            with span(f"stage.{stage}", key=key):
                value = compute()
            with self._lock:
                self._remember(f"{stage}/{key}", value, disk)
            if disk:
                self._disk_write(stage, key, value)
        return value

    def peek(self, stage: str, key: str) -> Tuple[bool, object]:
        """Look up ``stage``/``key`` without computing: ``(found, value)``.

        Walks both tiers like :meth:`get_or_compute` (a disk hit is
        promoted into memory) but never runs a computation; the miss is
        recorded and ``(False, None)`` returned.  Used by the job
        service's content-addressed result store, which populates the
        store explicitly with :meth:`put`.
        """
        return self._lookup(stage, key, disk=True)

    def put(self, stage: str, key: str, value: object) -> None:
        """Store a value computed elsewhere under ``stage``/``key``,
        writing through to the disk tier."""
        with self._lock:
            self._remember(f"{stage}/{key}", value, disk=True)
        self._disk_write(stage, key, value)

    def _lookup(self, stage: str, key: str, disk: bool) -> Tuple[bool, object]:
        """Count one call of ``stage`` and serve it from memory or disk."""
        full_key = f"{stage}/{key}"
        publish("calls", stage)
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)
                publish("memory_hits", stage)
                return True, self._entries[full_key]
        loaded, value = self._disk_read(stage, key) if disk else (False, None)
        if loaded:
            publish("disk_hits", stage)
            with self._lock:
                self._remember(full_key, value, disk)
        return loaded, value

    def contains(self, stage: str, key: str) -> bool:
        """True when the artifact is resident in the memory tier."""
        with self._lock:
            return f"{stage}/{key}" in self._entries

    def _remember(self, full_key: str, value: object, disk: bool) -> None:
        self._entries[full_key] = value
        self._entries.move_to_end(full_key)
        if not disk:
            self._memory_only.add(full_key)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._memory_only.discard(evicted)

    # -- disk tier ---------------------------------------------------

    def _disk_path(self, stage: str, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / stage / f"{fingerprint(key)}.pkl"

    def _disk_read(self, stage: str, key: str):
        path = self._disk_path(stage, key)
        if path is None or not path.exists():
            return False, None
        with span(f"load.{stage}"):
            try:
                with open(path, "rb") as handle:
                    return True, pickle.load(handle)
            except Exception:
                # Truncated or stale pickle: treat as a miss and recompute.
                return False, None

    def _disk_write(self, stage: str, key: str, value: object) -> None:
        path = self._disk_path(stage, key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(temp_name, path)
            except BaseException:
                os.unlink(temp_name)
                raise
        except OSError:
            # A full or read-only disk degrades to memory-only caching.
            return
        publish("stored_bytes", stage, len(payload))

    def attach_disk(self, disk_dir: Optional[os.PathLike]) -> None:
        """Point the disk tier at ``disk_dir``, or detach it (``None``); memory stays."""
        with self._lock:
            self.disk_dir = None if disk_dir is None else Path(disk_dir)

    def flush_to_disk(self) -> int:
        """Spill every disk-eligible memory entry; returns the count.

        Called before fanning out worker processes so they hydrate the
        parent's already-computed prefixes instead of rebuilding them.
        """
        if self.disk_dir is None:
            return 0
        with self._lock:
            items = [
                (full_key, value)
                for full_key, value in self._entries.items()
                if full_key not in self._memory_only
            ]
        written = 0
        for full_key, value in items:
            stage, _, key = full_key.partition("/")
            path = self._disk_path(stage, key)
            if path is not None and not path.exists():
                self._disk_write(stage, key, value)
                written += 1
        return written

    def clear(self) -> None:
        """Drop every memory entry and the series :func:`stats` reads.

        The disk tier is untouched.
        """
        with self._lock:
            self._entries.clear()
            self._memory_only.clear()
        registry().reset(*STATS_PREFIXES)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# -- module-level singleton ------------------------------------------

_store: Optional[ArtifactStore] = None
_store_lock = threading.Lock()


def _entries_from_env() -> int:
    raw = os.environ.get(ARTIFACT_ENTRIES_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ENTRIES
    try:
        entries = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{ARTIFACT_ENTRIES_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if entries < 1:
        raise ConfigurationError(
            f"{ARTIFACT_ENTRIES_ENV_VAR} must be >= 1, got {entries}"
        )
    return entries


def store() -> ArtifactStore:
    """The process-wide artifact store (created from the env on first use)."""
    global _store
    if _store is None:
        with _store_lock:
            if _store is None:
                _store = ArtifactStore(
                    max_entries=_entries_from_env(),
                    disk_dir=os.environ.get(ARTIFACT_DIR_ENV_VAR),
                )
    return _store


@contextmanager
def shared_store() -> Iterator[Path]:
    """A disk tier for the ``with`` block; yields its directory.

    A configured tier (``REPRO_ARTIFACT_DIR`` or :func:`configure`) is
    used as is and kept.  Otherwise a temporary directory is attached
    and exported through ``REPRO_ARTIFACT_DIR`` (so worker processes
    inherit it) for the block only: on exit it is detached, the
    variable is put back and the directory removed, so the process's
    later artifacts stay in memory.
    :func:`repro.analysis.parallel.run_tasks` holds one around its
    pool, so workers hydrate stage prefixes instead of rebuilding them.
    """
    current = store()
    if current.disk_dir is not None:
        yield current.disk_dir
        return
    exported = os.environ.get(ARTIFACT_DIR_ENV_VAR)
    temp = tempfile.mkdtemp(prefix="repro-artifacts-")
    os.environ[ARTIFACT_DIR_ENV_VAR] = temp
    current.attach_disk(temp)
    try:
        yield Path(temp)
    finally:
        current.attach_disk(None)
        if exported is None:
            del os.environ[ARTIFACT_DIR_ENV_VAR]
        else:
            os.environ[ARTIFACT_DIR_ENV_VAR] = exported
        shutil.rmtree(temp, ignore_errors=True)


def configure(
    max_entries: Optional[int] = None,
    disk_dir: Optional[os.PathLike] = None,
) -> ArtifactStore:
    """Replace the process-wide store (e.g. to attach a disk directory).

    The previous store's memory entries and the series :func:`stats`
    reads are dropped; artifacts already on disk remain readable
    through the new store if it points at the same directory.
    """
    global _store
    with _store_lock:
        _store = ArtifactStore(
            max_entries=max_entries if max_entries is not None else _entries_from_env(),
            disk_dir=disk_dir,
        )
    registry().reset(*STATS_PREFIXES)
    return _store


# -- stage stats, read from the obs registry ---------------------------


def stats() -> Dict[str, Dict[str, float]]:
    """Per-stage counters, sorted by stage, read from the obs registry.

    ``calls`` counts artifact requests (for an uncached stage such as
    ``timing``, executions); each is exactly one memory hit, disk hit
    or miss, so ``misses`` is what the hits leave.  ``compute_seconds``
    and ``load_seconds`` are the sums of the ``span.stage.<stage>`` and
    ``span.load.<stage>`` histograms.
    """
    snapshot = registry().snapshot()
    counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(int))
    for qualified, value in snapshot["counters"].items():
        name, labels = parse_qualified(qualified)
        if name.startswith("pipeline.") and "stage" in labels:
            counts[labels["stage"]][name[len("pipeline."):]] = value
    spans = snapshot["histograms"]
    return {
        stage: {
            "calls": row["calls"],
            "memory_hits": row["memory_hits"],
            "disk_hits": row["disk_hits"],
            "misses": row["calls"] - row["memory_hits"] - row["disk_hits"],
            "compute_seconds": spans.get(f"span.stage.{stage}", {}).get("sum", 0.0),
            "load_seconds": spans.get(f"span.load.{stage}", {}).get("sum", 0.0),
            "stored_bytes": row["stored_bytes"],
        }
        for stage, row in sorted(counts.items())
    }


def render_stats(snapshot: Dict[str, Dict[str, float]]) -> str:
    """Plain-text table of a :func:`stats` snapshot."""
    headers = ["stage", "calls", "mem hits", "disk hits", "misses",
               "compute s", "load s", "stored KB"]
    rows = [
        [name, *(str(row[key]) for key in ("calls", "memory_hits", "disk_hits", "misses")),
         f"{row['compute_seconds']:.3f}", f"{row['load_seconds']:.3f}",
         f"{row['stored_bytes'] / 1024.0:.1f}"]
        for name, row in snapshot.items()
    ]
    if not rows:
        return "pipeline: no stages have run"
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "pipeline stage timings\n" + "\n".join(lines)
