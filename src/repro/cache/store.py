"""The tiered explanation result store: in-proc LRU over an append-only log.

Tier 0 is a plain ``OrderedDict`` LRU holding live
:class:`~repro.explain.explanation.Explanation` objects.  Tier 1 (optional)
is a length-prefixed append-only log on disk — the one durable format for
explanations: service and session memoization and checkpointed
``explain_many`` runs all write it.

* **Write-through, fsynced appends.**  ``put`` pickles the explanation once,
  inserts it into tier 0 and appends one framed record to the log under an
  exclusive ``flock`` — a single ``write`` in ``O_APPEND`` mode, flushed and
  fsynced, so concurrent writer *processes* interleave whole records, never
  bytes.
* **Torn-tail and corrupt-entry tolerance.**  Opening a store scans the log
  and indexes every intact record; the scan stops at the first record that
  is incomplete (a crash landed mid-append: fewer bytes than a header, or a
  header whose declared length runs past end of file) or fails its CRC-32.
  A corrupt record blocks the *frontier* for good; a torn tail is cut by
  the next append, under the exclusive lock, so entries written after a
  crash stay reachable on every later open.  Lost entries cost a
  recompute, never a wrong answer.
* **Refusal over garbage.**  A file that does not start with the store magic
  is refused with :class:`~repro.utils.errors.CacheError` (it is not a cache,
  and appending to it would destroy someone's data).  A ``get`` re-validates
  its record — magic, fingerprint, CRC, payload type — and raises
  ``CacheError`` on any mismatch rather than returning bytes that merely
  unpickled.
* **Cross-process visibility.**  The index remembers the scan frontier; when
  a lookup misses but the file has grown (another process appended), the
  scan resumes from the frontier under a shared lock, so two service
  processes sharing one store see each other's entries without re-reading
  the whole log.

Eviction from tier 0 is *demotion*, not loss, whenever the entry was
written through to disk: the next hit re-reads and re-validates the record
and promotes it back into memory.  A memory-only cache (``path=None``)
simply forgets evicted entries.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.explain.explanation import Explanation
from repro.utils.errors import CacheError

try:  # pragma: no cover - fcntl exists on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: File header: identifies a result-cache log (and its format version).
STORE_MAGIC = b"REPROCACHE1\n"
#: Per-record magic, the frame boundary the scanner resynchronises on.
RECORD_MAGIC = b"RC1\n"
#: Fingerprints are sha256 hex digests.
_FP_LEN = 64
#: ``payload_length`` and ``crc32`` ride as two big-endian uint32s.
_LEN_STRUCT = struct.Struct(">II")
_HEADER_LEN = len(RECORD_MAGIC) + _FP_LEN + _LEN_STRUCT.size


@dataclass(frozen=True)
class TierStats:
    """Counters for one cache tier (memory or disk)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    entries: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a :class:`ResultCache` — one :class:`TierStats` per tier."""

    memory: TierStats = field(default_factory=TierStats)
    disk: Optional[TierStats] = None
    path: Optional[str] = None

    @property
    def hits(self) -> int:
        return self.memory.hits + (self.disk.hits if self.disk else 0)

    @property
    def lookups(self) -> int:
        """End-to-end lookups: every ``get`` counts exactly once."""
        return self.memory.hits + self.memory.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        disk = ""
        if self.disk is not None:
            disk = (
                f", disk {self.disk.entries} entries/{self.disk.bytes}B "
                f"({self.disk.hits} hits)"
            )
        return (
            f"result cache: {self.hits}/{self.lookups} hits "
            f"({self.hit_rate:.1%}), memory {self.memory.entries} entries"
            f"{disk}"
        )


class _Counters:
    """Mutable tier counters (snapshotted into frozen :class:`TierStats`)."""

    __slots__ = ("hits", "misses", "stores", "evictions", "corrupt")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0


def _validate_fingerprint(fingerprint: str) -> bytes:
    try:
        raw = fingerprint.encode("ascii")
    except (UnicodeEncodeError, AttributeError) as error:
        raise CacheError(f"invalid cache fingerprint {fingerprint!r}") from error
    if len(raw) != _FP_LEN:
        raise CacheError(
            f"invalid cache fingerprint {fingerprint!r}: expected a "
            f"{_FP_LEN}-char sha256 hex digest"
        )
    return raw


class ResultCache:
    """Tiered memoization store for whole explanations.

    Parameters
    ----------
    path:
        Tier-1 log file, or ``None`` for a memory-only cache.  Parent
        directories are created; an existing file must be a result-cache log
        (wrong magic is refused with :class:`CacheError`).
    max_memory_entries:
        Tier-0 LRU capacity.  Evicted entries stay servable from disk.

    Thread-safe (one internal lock); cross-process safe for a shared ``path``
    via ``flock`` single-writer appends.  Use as a context manager or call
    :meth:`close` to release the file handle.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        max_memory_entries: int = 4096,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max_memory_entries
        self._lock = threading.Lock()
        # fingerprint -> (explanation, pickled size)
        self._memory: "OrderedDict[str, Tuple[Explanation, int]]" = OrderedDict()
        self._memory_bytes = 0
        self._mem = _Counters()
        self._disk = _Counters()
        # fingerprint -> (record offset, total record length)
        self._index: Dict[str, Tuple[int, int]] = {}
        self._frontier = 0
        # Set when the scan hit a corrupt record: rescans past it would
        # re-read the same broken bytes forever, so incremental rescan stops.
        self._frontier_blocked = False
        self._handle: Optional[io.BufferedRandom] = None
        self._closed = False
        if self.path is not None:
            self._open_store()

    # ------------------------------------------------------------------ disk

    def _open_store(self) -> None:
        assert self.path is not None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            # O_APPEND ("a+b"): every write lands at the true end of file no
            # matter who appended since we last looked — the property that
            # makes multi-process sharing safe under flock.
            self._handle = open(self.path, "a+b")  # noqa: SIM115 - long-lived
        except OSError as error:
            raise CacheError(f"cannot open result cache {self.path}: {error}") from error
        head: Optional[bytes] = None
        with self._file_lock(exclusive=True):
            self._handle.seek(0, os.SEEK_END)
            size = self._handle.tell()
            if size == 0:
                self._handle.write(STORE_MAGIC)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            else:
                self._handle.seek(0)
                head = self._handle.read(len(STORE_MAGIC))
        if head is not None and head != STORE_MAGIC:
            self._handle.close()
            self._handle = None
            raise CacheError(
                f"{self.path} is not a result-cache store (bad magic); "
                f"refusing to read or append"
            )
        self._frontier = len(STORE_MAGIC)
        self._scan_forward()

    def _file_lock(self, *, exclusive: bool):
        """An advisory flock over the whole file (no-op without fcntl)."""
        handle = self._handle

        class _Lock:
            def __enter__(self_inner):
                if fcntl is not None and handle is not None:
                    fcntl.flock(
                        handle.fileno(),
                        fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH,
                    )
                return self_inner

            def __exit__(self_inner, *exc_info):
                if fcntl is not None and handle is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

        return _Lock()

    def _scan_forward(self) -> int:
        """Index records from the frontier to EOF; returns how many were added.

        Called on open and whenever a lookup misses but the file has grown
        (another process appended).  Stops at an incomplete tail (the next
        append cuts it) and — permanently — at the first corrupt record:
        everything before it stays servable, everything after it is
        unreachable, and nothing broken is ever indexed.
        """
        if self._handle is None or self._frontier_blocked:
            return 0
        with self._file_lock(exclusive=False):
            return self._scan_unlocked()

    def _scan_unlocked(self) -> int:
        """The scan body, for callers already holding the flock.

        ``flock`` calls on an fd *convert* the lock they hold — taking the
        shared lock inside a section that holds the exclusive one would
        silently downgrade it, and the inner release would drop it entirely
        — so the append path, which rescans under its exclusive lock, must
        reach the scanner without touching the lock again.
        """
        if self._handle is None or self._frontier_blocked:
            return 0
        added = 0
        self._handle.seek(0, os.SEEK_END)
        end = self._handle.tell()
        offset = self._frontier
        while offset + _HEADER_LEN <= end:
            self._handle.seek(offset)
            header = self._handle.read(_HEADER_LEN)
            if len(header) < _HEADER_LEN or header[: len(RECORD_MAGIC)] != RECORD_MAGIC:
                self._frontier_blocked = True
                self._disk.corrupt += 1
                break
            fp_raw = header[len(RECORD_MAGIC) : len(RECORD_MAGIC) + _FP_LEN]
            payload_len, crc = _LEN_STRUCT.unpack(header[len(RECORD_MAGIC) + _FP_LEN :])
            total = _HEADER_LEN + payload_len
            if offset + total > end:
                # Torn tail: the crash landed mid-append.  Not corruption,
                # and the next append cuts it, so the frontier stays open.
                break
            payload = self._handle.read(payload_len)
            if len(payload) < payload_len or zlib.crc32(payload) != crc:
                self._frontier_blocked = True
                self._disk.corrupt += 1
                break
            try:
                fingerprint = fp_raw.decode("ascii")
            except UnicodeDecodeError:
                self._frontier_blocked = True
                self._disk.corrupt += 1
                break
            if fingerprint not in self._index:
                self._index[fingerprint] = (offset, total)
                added += 1
            offset += total
            self._frontier = offset
        return added

    def _read_record(self, fingerprint: str, offset: int, total: int) -> Explanation:
        """Read one indexed record back, re-validating everything.

        The index was built from bytes that checked out, but the file is
        shared and long-lived — re-validate at read time and *refuse* (typed
        error) rather than serve anything that no longer adds up.
        """
        assert self._handle is not None
        with self._file_lock(exclusive=False):
            self._handle.seek(offset)
            raw = self._handle.read(total)
        header, payload = raw[:_HEADER_LEN], raw[_HEADER_LEN:]
        corrupt = (
            len(raw) < total
            or header[: len(RECORD_MAGIC)] != RECORD_MAGIC
            or header[len(RECORD_MAGIC) : len(RECORD_MAGIC) + _FP_LEN]
            != fingerprint.encode("ascii")
            or zlib.crc32(payload) != _LEN_STRUCT.unpack(header[len(RECORD_MAGIC) + _FP_LEN :])[1]
        )
        explanation = None
        if not corrupt:
            try:
                explanation = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - any unpickle failure is corruption
                corrupt = True
        if corrupt or not isinstance(explanation, Explanation):
            self._disk.corrupt += 1
            self._index.pop(fingerprint, None)
            raise CacheError(
                f"corrupt result-cache entry for {fingerprint[:12]}… in "
                f"{self.path}; refusing to serve it"
            )
        return explanation

    def _append_record(self, fingerprint: str, fp_raw: bytes, blob: bytes) -> None:
        assert self._handle is not None
        record = (
            RECORD_MAGIC
            + fp_raw
            + _LEN_STRUCT.pack(len(blob), zlib.crc32(blob))
            + blob
        )
        with self._file_lock(exclusive=True):
            # Another process may have stored this fingerprint while we
            # computed; indexing what they wrote beats appending a duplicate.
            # The unlocked scan variant is mandatory here: re-flocking the
            # fd we hold exclusively would downgrade and then drop the lock.
            self._scan_unlocked()
            if fingerprint in self._index:
                return
            self._handle.seek(0, os.SEEK_END)
            offset = self._handle.tell()
            try:
                if offset > self._frontier and not self._frontier_blocked:
                    # The scan stopped short of EOF without finding
                    # corruption, so the bytes past the frontier are a torn
                    # record.  No writer is mid-append under this lock and
                    # nothing past the frontier is servable: cut them, or
                    # every later open would stop there and never reach the
                    # record appended below.
                    self._handle.truncate(self._frontier)
                    offset = self._frontier
                self._handle.write(record)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as error:
                raise CacheError(
                    f"cannot append to result cache {self.path}: {error}"
                ) from error
            self._index[fingerprint] = (offset, len(record))
            if self._frontier == offset and not self._frontier_blocked:
                self._frontier = offset + len(record)
            self._disk.stores += 1

    # ----------------------------------------------------------------- tiers

    def _memory_insert(self, fingerprint: str, explanation: Explanation, nbytes: int) -> None:
        existing = self._memory.pop(fingerprint, None)
        if existing is not None:
            self._memory_bytes -= existing[1]
        self._memory[fingerprint] = (explanation, nbytes)
        self._memory_bytes += nbytes
        while len(self._memory) > self.max_memory_entries:
            _, (_, dropped) = self._memory.popitem(last=False)
            self._memory_bytes -= dropped
            self._mem.evictions += 1

    # ------------------------------------------------------------------- api

    def get(self, fingerprint: str) -> Optional[Explanation]:
        """The stored explanation for ``fingerprint``, or ``None`` on miss.

        Tier 0 hit promotes the entry to most-recently-used; a tier-1 hit
        re-validates the record and promotes it into tier 0.  A record that
        fails validation raises :class:`CacheError` — never garbage.
        """
        _validate_fingerprint(fingerprint)
        with self._lock:
            self._check_open()
            entry = self._memory.get(fingerprint)
            if entry is not None:
                self._memory.move_to_end(fingerprint)
                self._mem.hits += 1
                return entry[0]
            self._mem.misses += 1
            if self._handle is None:
                return None
            location = self._index.get(fingerprint)
            if location is None:
                # The file may have grown under another process's appends.
                self._scan_forward()
                location = self._index.get(fingerprint)
            if location is None:
                self._disk.misses += 1
                return None
            explanation = self._read_record(fingerprint, *location)
            self._disk.hits += 1
            self._memory_insert(fingerprint, explanation, location[1] - _HEADER_LEN)
            return explanation

    def put(self, fingerprint: str, explanation: Explanation) -> None:
        """Store ``explanation`` under ``fingerprint`` (write-through).

        Idempotent: storing a fingerprint that is already on disk appends
        nothing (results are pure functions of their fingerprint, so the
        existing record is the same value).
        """
        fp_raw = _validate_fingerprint(fingerprint)
        if not isinstance(explanation, Explanation):
            raise CacheError(
                f"result cache stores Explanation objects, got "
                f"{type(explanation).__name__}"
            )
        blob = pickle.dumps(explanation)
        with self._lock:
            self._check_open()
            self._memory_insert(fingerprint, explanation, len(blob))
            self._mem.stores += 1
            if self._handle is not None and fingerprint not in self._index:
                self._append_record(fingerprint, fp_raw, blob)

    def refresh(self) -> int:
        """Index records appended by other processes; returns how many."""
        with self._lock:
            self._check_open()
            if self._handle is None:
                return 0
            return self._scan_forward()

    def stats(self) -> CacheStats:
        """A frozen snapshot of both tiers' counters."""
        with self._lock:
            memory = TierStats(
                hits=self._mem.hits,
                misses=self._mem.misses,
                stores=self._mem.stores,
                evictions=self._mem.evictions,
                corrupt=0,
                entries=len(self._memory),
                bytes=self._memory_bytes,
            )
            disk = None
            if self.path is not None:
                disk_bytes = 0
                if self._handle is not None:
                    try:
                        disk_bytes = os.fstat(self._handle.fileno()).st_size
                    except OSError:
                        disk_bytes = 0
                disk = TierStats(
                    hits=self._disk.hits,
                    misses=self._disk.misses,
                    stores=self._disk.stores,
                    evictions=0,  # append-only: disk entries are never evicted
                    corrupt=self._disk.corrupt,
                    entries=len(self._index),
                    bytes=disk_bytes,
                )
            return CacheStats(
                memory=memory,
                disk=disk,
                path=str(self.path) if self.path is not None else None,
            )

    def __len__(self) -> int:
        with self._lock:
            if self.path is None:
                return len(self._memory)
            return len(set(self._memory) | set(self._index))

    # ------------------------------------------------------------- lifecycle

    def _check_open(self) -> None:
        if self._closed:
            raise CacheError("this result cache has been closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the tier-1 file handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._memory.clear()
            self._memory_bytes = 0
            self._closed = True

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CacheStats",
    "ResultCache",
    "TierStats",
]
