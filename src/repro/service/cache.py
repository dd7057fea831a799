"""Content-addressed artifact caches: two-tier, and hash-prefix sharded.

Tier 1 is an in-process LRU bounded by ``max_entries``; tier 2 is an
optional on-disk store (one compressed pickle per fingerprint under
``cache_dir``)
that survives the process and is shared between runs — the warm-sweep
path of the Fig. 4 heat maps and the auto-tuner.

The cache must be an *invisible* optimization.  Both tiers hold each
artifact as one immutable blob: ``zlib.compress(pickle.dumps(artifact),
1)`` at the highest pickle protocol, taken once in ``put``.
:meth:`~ArtifactCache.get_blob` returns the decompressed pickle bytes
(the daemon sends them to its clients as they are), and ``get`` returns
``pickle.loads`` of them, so every caller receives its own object and
no two callers — nor a caller and the cache — can ever alias one, by
construction.  A cache hit is observationally identical to a fresh
compile (byte-identical PTX, identical instruction counters).  The
disk tier writes that same compressed blob, so an artifact is
serialised once however many tiers it lands in; a LUD artifact's
9.0 KB pickle is stored in about 2.7 KB.  Failures are cacheable too —
the compiler models are deterministic, so a module PGI rejects today it
will reject tomorrow; the scheduler stores a marker and replays the
error.

All operations are thread-safe (the scheduler's worker pool and the
``repro serve`` daemon's connection handlers share one cache).  The lock
guards only *index* mutation — never serialisation or file I/O: pickling
a large artifact, or a multi-megabyte blob landing on a slow disk, must
not stall every other client's lookups.  Disk publishes are atomic
(``os.replace``), so lock-free readers never observe a partial entry.

Two implementations share the contract:

* :class:`ArtifactCache` — one LRU + one flat directory; the in-process
  default.
* :class:`ShardedArtifactCache` — N independent shards selected by the
  fingerprint's hash prefix, each with its own lock, LRU slice, and
  ``cache_dir/<prefix>/`` subdirectory.  Concurrent clients touching
  different fingerprints contend on nothing; the ``repro serve`` daemon
  default.

Both accept ``peer_dirs``: read-only sibling stores (another daemon's
cache directory, a shared warm seed) consulted on a local disk miss and
copied through on a hit — the read-through peer mode of docs/SERVER.md.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: returned by :meth:`ArtifactCache.get` on a miss (``None`` is a valid
#: cached value in principle, so a dedicated sentinel keeps it unambiguous)
MISS = object()

#: shard prefixes are the first ``_PREFIX_LEN`` hex chars of the
#: fingerprint (fingerprints are SHA-256 hex digests)
_PREFIX_LEN = 2


class CacheDirError(NotADirectoryError):
    """A cache directory that cannot be used: the path is occupied by a
    file, cannot be created, or is not writable.  Raised *eagerly* at
    cache construction so a CLI ``--cache-dir`` mistake is one clear
    usage error (exit 2), not a traceback mid-sweep."""


def ensure_writable_dir(path: str | os.PathLike[str]) -> Path:
    """Create *path* (and parents) and prove it is a writable directory.

    The probe actually creates and removes a file: permission bits are
    not trustworthy (root ignores them; network mounts lie), so the only
    honest check is the write itself.
    """
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise CacheDirError(
            f"cache dir {directory} exists and is not a directory"
        ) from None
    except OSError as exc:
        raise CacheDirError(f"cannot create cache dir {directory}: {exc}") \
            from None
    probe = directory / f".probe.{os.getpid()}.{threading.get_ident()}"
    try:
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise CacheDirError(
            f"cache dir {directory} is not writable: {exc}"
        ) from None
    return directory


def shard_prefix(fingerprint: str) -> str:
    """The hash-prefix shard key of a fingerprint.

    Fingerprints are SHA-256 hex digests, so the first two characters
    *are* a uniform hash prefix; any other key (tests, ad-hoc callers)
    is first hashed to keep the distribution uniform.
    """
    prefix = fingerprint[:_PREFIX_LEN].lower()
    if len(prefix) == _PREFIX_LEN and all(c in "0123456789abcdef"
                                          for c in prefix):
        return prefix
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:_PREFIX_LEN]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    #: read-through hits served from a peer directory (and copied into
    #: the local disk tier)
    peer_hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_stores: int = 0
    #: ``put`` calls for a fingerprint that was already stored — e.g. a
    #: timed-out worker's discarded result landing after a retry or a
    #: hedge already published the artifact.  Skipped, never re-written.
    redundant_stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.peer_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "peer_hits": self.peer_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_stores": self.disk_stores,
            "redundant_stores": self.redundant_stores,
            "hit_rate": self.hit_rate,
        }

    def add(self, other: "CacheStats") -> None:
        """Accumulate *other*'s counters (shard aggregation)."""
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.peer_hits += other.peer_hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.stores += other.stores
        self.disk_stores += other.disk_stores
        self.redundant_stores += other.redundant_stores

    def publish(self, registry, prefix: str = "cache") -> None:
        """Publish the tier counters into a
        :class:`repro.telemetry.MetricsRegistry` (gauges: idempotent)."""
        for name, value in self.snapshot().items():
            registry.gauge(f"{prefix}.{name}").set(float(value))


@dataclass
class ArtifactCache:
    """LRU memory tier + optional pickle-per-fingerprint disk tier."""

    max_entries: int = 512
    cache_dir: str | os.PathLike[str] | None = None
    #: read-only sibling stores consulted on a local disk miss; a hit is
    #: copied through into the local tiers (never written back)
    peer_dirs: tuple[str | os.PathLike[str], ...] = ()
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._lock = threading.RLock()
        #: fingerprint -> compressed pickled artifact, in LRU order
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        if self.cache_dir is not None:
            self.cache_dir = ensure_writable_dir(self.cache_dir)
        self.peer_dirs = tuple(Path(p) for p in self.peer_dirs)

    # -- lookup ---------------------------------------------------------------

    def get(self, fingerprint: str) -> Any:
        """The artifact stored under *fingerprint* (a fresh object on
        every call), or :data:`MISS`."""
        blob = self.get_blob(fingerprint)
        return blob if blob is MISS else pickle.loads(blob)

    def get_blob(self, fingerprint: str) -> Any:
        """The pickle bytes of the artifact stored under *fingerprint*
        (``pickle.dumps`` at the highest protocol), or :data:`MISS`.
        Counts one hit or one miss, like :meth:`get`."""
        with self._lock:
            stored = self._entries.get(fingerprint)
            if stored is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.memory_hits += 1
        if stored is not None:
            return zlib.decompress(stored)
        # the slow tiers run unlocked: reading a large artifact (or a
        # peer NFS read) must not stall other fingerprints' lookups
        entry = self._disk_load(fingerprint)
        if entry is not None:
            stored, blob = entry
            with self._lock:
                self.stats.disk_hits += 1
                self._install(fingerprint, stored)
            return blob
        entry = self._peer_load(fingerprint)
        if entry is not None:
            stored, blob = entry
            self._disk_store(fingerprint, stored, count=False)  # copy through
            with self._lock:
                self.stats.peer_hits += 1
                self._install(fingerprint, stored)
            return blob
        with self._lock:
            self.stats.misses += 1
        return MISS

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
        disk = self._disk_path(fingerprint)
        if disk is not None and disk.exists():
            return True
        return any(path.exists() for path in self._peer_paths(fingerprint))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- store ----------------------------------------------------------------

    def put(self, fingerprint: str, artifact: Any) -> None:
        """Store *artifact* in both tiers under *fingerprint*.

        The artifact is pickled and compressed once, before the lock is
        taken; later mutation of *artifact* by the caller cannot reach
        the cache.
        Idempotent per fingerprint: a second ``put`` for a stored key is
        a counted no-op (``stats.redundant_stores``).  The compilers are
        content-addressed pure functions, so a repeat store can only be
        a *discarded duplicate* — a timed-out worker finishing after its
        result was abandoned, or the losing side of a hedged pair — and
        must not double-count stores or re-write the disk tier.
        """
        stored = zlib.compress(
            pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL), 1)
        with self._lock:
            if fingerprint in self._entries:
                self.stats.redundant_stores += 1
                return
            self.stats.stores += 1
            self._install(fingerprint, stored)
        disk = self._disk_path(fingerprint)
        if disk is None:
            return
        if disk.exists():
            with self._lock:
                self.stats.redundant_stores += 1
            return
        self._disk_store(fingerprint, stored)

    def clear(self, memory_only: bool = True) -> None:
        """Drop the memory tier (and the disk tier if asked)."""
        with self._lock:
            self._entries.clear()
        if not memory_only and self.cache_dir is not None:
            for path in Path(self.cache_dir).glob("*.pkl"):
                path.unlink(missing_ok=True)

    # -- internals -------------------------------------------------------------

    def _install(self, fingerprint: str, stored: bytes) -> None:
        self._entries[fingerprint] = stored
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / f"{fingerprint}.pkl"

    def _peer_paths(self, fingerprint: str) -> Iterable[Path]:
        for peer in self.peer_dirs:
            yield Path(peer) / f"{fingerprint}.pkl"

    def _disk_load(self, fingerprint: str) -> tuple[bytes, bytes] | None:
        path = self._disk_path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            return _read_entry(path)
        except Exception:
            # a truncated, corrupt or uncompressed (legacy) entry is a
            # miss, not an error; drop it so the fresh artifact replaces it
            path.unlink(missing_ok=True)
            return None

    def _peer_load(self, fingerprint: str) -> tuple[bytes, bytes] | None:
        for path in self._peer_paths(fingerprint):
            if not path.exists():
                continue
            try:
                return _read_entry(path)
            except Exception:
                continue  # peers are read-only: never delete their entries
        return None

    def _disk_store(self, fingerprint: str, stored: bytes,
                    count: bool = True) -> None:
        path = self._disk_path(fingerprint)
        if path is None:
            return
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(stored)
            os.replace(tmp, path)  # atomic publish: readers never see partial
            if count:
                with self._lock:
                    self.stats.disk_stores += 1
        except Exception:
            tmp.unlink(missing_ok=True)  # disk tier is best-effort


def _read_entry(path: Path) -> tuple[bytes, bytes]:
    """One stored entry and the pickle bytes it holds.  The decompression
    doubles as the integrity check: zlib's checksum makes a truncated or
    corrupt entry, or a legacy uncompressed one, raise here, never after
    install."""
    stored = path.read_bytes()
    return stored, zlib.decompress(stored)


class ShardedArtifactCache:
    """N independent :class:`ArtifactCache` shards keyed by fingerprint
    hash prefix.

    Each shard owns its own lock, its own LRU slice
    (``max_entries / shards``, at least 1), and — with a ``cache_dir`` —
    its own ``cache_dir/<prefix>/`` subdirectory, so two clients hitting
    different fingerprints never touch the same lock and never serialize
    on each other's disk I/O.  Peer directories are expected to use the
    same sharded layout (i.e. to be another instance's ``cache_dir``).
    """

    def __init__(
        self,
        shards: int = 16,
        max_entries: int = 512,
        cache_dir: str | os.PathLike[str] | None = None,
        peer_dirs: tuple[str | os.PathLike[str], ...] = (),
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.cache_dir = (
            ensure_writable_dir(cache_dir) if cache_dir is not None else None
        )
        self.peer_dirs = tuple(Path(p) for p in peer_dirs)
        per_shard = max(1, (max_entries + shards - 1) // shards)
        self._shards: list[ArtifactCache] = []
        for index in range(shards):
            self._shards.append(
                ArtifactCache(
                    max_entries=per_shard,
                    cache_dir=self._bucket_dir(self.cache_dir, index),
                    peer_dirs=tuple(
                        p for p in (self._bucket_dir(peer, index)
                                    for peer in self.peer_dirs)
                        if p is not None
                    ),
                )
            )

    def _bucket_dir(self, root: Path | None, index: int) -> Path | None:
        if root is None:
            return None
        return Path(root) / f"shard-{index:02x}"

    def shard_for(self, fingerprint: str) -> ArtifactCache:
        """The shard owning *fingerprint* (hash-prefix selection)."""
        return self._shards[int(shard_prefix(fingerprint), 16) % self.shards]

    # -- the ArtifactCache contract --------------------------------------------

    def get(self, fingerprint: str) -> Any:
        return self.shard_for(fingerprint).get(fingerprint)

    def get_blob(self, fingerprint: str) -> Any:
        return self.shard_for(fingerprint).get_blob(fingerprint)

    def put(self, fingerprint: str, artifact: Any) -> None:
        self.shard_for(fingerprint).put(fingerprint, artifact)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.shard_for(fingerprint)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def clear(self, memory_only: bool = True) -> None:
        for shard in self._shards:
            shard.clear(memory_only=memory_only)

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters across every shard (a fresh snapshot
        object: mutating it does not touch any shard)."""
        merged = CacheStats()
        for shard in self._shards:
            merged.add(shard.stats)
        return merged

    def shard_snapshot(self) -> list[dict[str, int | float]]:
        """Per-shard counter snapshots (the server's stats endpoint)."""
        return [shard.stats.snapshot() for shard in self._shards]
