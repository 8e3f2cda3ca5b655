"""Per-node index-entry storage.

Each overlay node stores, for every index it participates in, the entries
whose (rotated) keys fall in its ownership interval.  An entry is
``(key, index_point, object_id)``; keys are stored *unrotated* (pure LPH
output) because query prefixes live in unrotated space — rotation is applied
only when deciding ownership/routing.

Shards hold columnar NumPy arrays **sorted by key**: the claimed-key-range
filter of query resolution then reduces to two ``searchsorted`` calls and the
rectangle mask runs only over the candidate slice — profiling the query loop
showed the full-shard mask dominating local solve time on hot shards (see
``bench_perf_microbench.py``).

Two storage shapes share that invariant:

* :class:`Shard` — one node's slice, grown with **amortised doubling** and
  sorted **lazily** on first read after a batch of appends.  A stable sort
  of the appended batches in append order produces exactly the array the
  old sort-on-every-``add`` produced (stable sorts compose), so the change
  is value-identical while index distribution drops from O(n log n) *per
  replica batch* to one deferred sort per shard.
* :class:`ShardStore` — the scale path: **all** nodes' entries of one index
  in a single CSR-like columnar block (one global sort by ``(owner, key)``
  plus an offsets array), so a 100k-node index costs three arrays instead
  of 100k Python shard objects.  Used by :mod:`repro.core.scale`.

The live-deployment path (:mod:`repro.net`) adds durability on top:

* :class:`WriteAheadLog` — append-only JSONL of entry batches, flushed per
  record and sequence-numbered, tolerant of a torn final line (the state a
  SIGKILL mid-append leaves behind);
* :class:`PersistentShard` — a :class:`Shard` plus its WAL, a compacting
  snapshot, and a small ``meta.json`` carrying the node's overlay state
  (successor list, predecessor), so a killed node restarts with the exact
  entries — bit-identical, via :mod:`repro.util.arrays` raw-buffer
  encoding — and ring hints it held before the crash.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.util.arrays import decode_array, encode_array

__all__ = ["Shard", "ShardStore", "WriteAheadLog", "PersistentShard"]


def _range_scan(
    keys: np.ndarray,
    points: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    key_lo: int | None,
    key_hi: int | None,
) -> np.ndarray:
    """Positions of rows inside the rectangle and the key range.

    ``keys`` must be non-decreasing: the key range then bounds a contiguous
    slice found by two ``searchsorted`` calls, and the rectangle mask runs
    over that slice only.  The kernel of both :meth:`Shard.range_search`
    and :meth:`ShardStore.range_search`.
    """
    start, stop = 0, len(keys)
    if key_lo is not None:
        start = int(np.searchsorted(keys, np.uint64(key_lo), side="left"))
    if key_hi is not None:
        stop = int(np.searchsorted(keys, np.uint64(key_hi), side="right"))
    if start >= stop:
        return np.empty(0, dtype=np.int64)
    window = points[start:stop]
    mask = np.all((window >= lows) & (window <= highs), axis=1)
    return np.flatnonzero(mask) + start


class Shard:
    """Columnar store of the index entries held by one node for one index.

    Invariant: ``keys`` is non-decreasing; ``points``/``object_ids`` are
    aligned with it.  The columns are exposed as read-only views of the
    live prefix of preallocated capacity buffers; ``add`` appends in
    amortised O(batch) and the key order is re-established lazily on the
    next read.
    """

    __slots__ = ("_k", "_keys", "_points", "_ids", "_n", "_dirty")

    def __init__(self, k: int) -> None:
        self._k = int(k)
        self._keys = np.empty(0, dtype=np.uint64)
        self._points = np.empty((0, self._k), dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        self._n = 0
        self._dirty = False

    def __len__(self) -> int:
        return self._n

    @property
    def load(self) -> int:
        """The paper's load measure: number of index entries stored."""
        return self._n

    @property
    def keys(self) -> np.ndarray:
        self._ensure_sorted()
        return self._keys[: self._n]

    @property
    def points(self) -> np.ndarray:
        self._ensure_sorted()
        return self._points[: self._n]

    @property
    def object_ids(self) -> np.ndarray:
        self._ensure_sorted()
        return self._ids[: self._n]

    def _grow(self, extra: int) -> None:
        need = self._n + extra
        cap = len(self._keys)
        if need <= cap:
            return
        new_cap = max(need, 2 * cap, 8)
        keys = np.empty(new_cap, dtype=np.uint64)
        points = np.empty((new_cap, self._k), dtype=np.float64)
        ids = np.empty(new_cap, dtype=np.int64)
        n = self._n
        keys[:n] = self._keys[:n]
        points[:n] = self._points[:n]
        ids[:n] = self._ids[:n]
        self._keys, self._points, self._ids = keys, points, ids

    def _ensure_sorted(self) -> None:
        if not self._dirty:
            return
        n = self._n
        order = np.argsort(self._keys[:n], kind="stable")
        self._keys[:n] = self._keys[:n][order]
        self._points[:n] = self._points[:n][order]
        self._ids[:n] = self._ids[:n][order]
        self._dirty = False

    def add(self, keys: np.ndarray, points: np.ndarray, object_ids: np.ndarray) -> None:
        """Append a batch of entries; key order is restored on next read."""
        keys = np.asarray(keys, dtype=np.uint64)
        m = len(keys)
        if m == 0:
            return
        self._grow(m)
        n = self._n
        self._keys[n : n + m] = keys
        self._points[n : n + m] = np.asarray(points, dtype=np.float64)
        self._ids[n : n + m] = np.asarray(object_ids, dtype=np.int64)
        self._n = n + m
        self._dirty = True

    def clear(self) -> None:
        self._n = 0
        self._dirty = False

    def range_search(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        key_lo: int | None = None,
        key_hi: int | None = None,
    ) -> np.ndarray:
        """Positions of entries inside the rectangle (and key range, if given).

        The key-range filter restricts to the subquery's *claimed* cuboid key
        interval, which both prevents double counting when one node is
        surrogate for several sibling subqueries of the same query, and —
        thanks to the sorted-key invariant — narrows the rectangle test to a
        contiguous slice.
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_sorted()
        return _range_scan(self._keys[:n], self._points, lows, highs, key_lo, key_hi)


class ShardStore:
    """All nodes' entries of one index in a single columnar block.

    Entries are held sorted by ``(owner_slot, key)``; ``offsets[s] :
    offsets[s+1]`` delimits node slot ``s``'s shard, within which keys are
    non-decreasing — i.e. each slice satisfies the :class:`Shard` invariant
    without a per-node Python object.  This is the storage half of the
    scale refactor: at 100k nodes the per-node dict-of-``Shard`` layout costs
    hundreds of MB of object headers before a single entry is stored.
    """

    __slots__ = ("n_slots", "keys", "points", "object_ids", "offsets")

    def __init__(
        self,
        n_slots: int,
        keys: np.ndarray,
        points: np.ndarray,
        object_ids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.n_slots = int(n_slots)
        self.keys = keys
        self.points = points
        self.object_ids = object_ids
        self.offsets = offsets

    @classmethod
    def build(
        cls,
        owner_slots: np.ndarray,
        keys: np.ndarray,
        points: np.ndarray,
        object_ids: np.ndarray,
        n_slots: int,
    ) -> ShardStore:
        """Distribute ``(keys, points, object_ids)`` to their owners at once.

        One stable lexicographic sort by ``(owner, key)`` replaces the
        per-node append loop; ties within ``(owner, key)`` keep input order,
        matching what per-shard stable sorts would produce.
        """
        owner_slots = np.asarray(owner_slots, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        order = np.lexsort((keys, owner_slots))
        counts = np.bincount(owner_slots, minlength=n_slots)
        offsets = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            n_slots,
            keys[order],
            np.asarray(points, dtype=np.float64)[order],
            np.asarray(object_ids, dtype=np.int64)[order],
            offsets,
        )

    def __len__(self) -> int:
        return len(self.keys)

    def loads(self) -> np.ndarray:
        """Stored-entry count per node slot (the paper's load measure)."""
        return np.diff(self.offsets)

    def slice(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, points, object_ids)`` views of one node's shard."""
        lo, hi = int(self.offsets[slot]), int(self.offsets[slot + 1])
        return self.keys[lo:hi], self.points[lo:hi], self.object_ids[lo:hi]

    def range_search(
        self,
        slot: int,
        lows: np.ndarray,
        highs: np.ndarray,
        key_lo: int | None = None,
        key_hi: int | None = None,
    ) -> np.ndarray:
        """Positions (into :meth:`slice` arrays) matching rectangle + key range.

        Same semantics as :meth:`Shard.range_search`, evaluated against one
        slot's slice of the block.
        """
        keys, pts, _ = self.slice(slot)
        return _range_scan(keys, pts, lows, highs, key_lo, key_hi)


class WriteAheadLog:
    """Append-only JSONL log of shard mutations.

    Every record is one JSON object on one line, stamped with a monotonic
    ``seq`` by the caller.  :meth:`append` flushes to the OS after each
    record, which is durable against process death (SIGKILL) — the crash
    mode the live backend recovers from; ``fsync=True`` extends that to
    power loss at a per-append cost.

    :meth:`replay` yields records in order and **stops silently at the
    first undecodable line** — a process killed mid-``append`` leaves a
    torn final line, which is indistinguishable from the record never
    having been acknowledged, so dropping it is the correct recovery.
    A corrupt line *followed by* valid ones indicates real damage and
    raises ``ValueError``.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fh: Any = None
        #: byte offset after the last valid record seen by :meth:`replay`
        self._valid_end = 0

    def _handle(self) -> Any:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict[str, Any]) -> None:
        fh = self._handle()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def replay(self) -> list[dict[str, Any]]:
        self._valid_end = 0
        if not self.path.exists():
            return []
        records: list[dict[str, Any]] = []
        torn_at: int | None = None
        pos = 0
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh):
                pos += len(raw)
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    if torn_at is None:
                        self._valid_end = pos
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    torn_at = lineno
                    continue
                if torn_at is not None:
                    raise ValueError(
                        f"{self.path}: undecodable record at line {torn_at + 1} "
                        "followed by valid records — log is damaged, not torn"
                    )
                if isinstance(obj, dict):
                    records.append(obj)
                self._valid_end = pos
        return records

    def trim_torn_tail(self) -> None:
        """Truncate whatever trails the last valid record :meth:`replay` saw.

        A SIGKILL mid-append leaves a torn final line; appending after it
        would weld the new record onto the torn bytes and lose both.  The
        recovery path replays, then trims, then resumes appending.
        """
        if self.path.exists() and self.path.stat().st_size > self._valid_end:
            self.close()
            with open(self.path, "rb+") as fh:
                fh.truncate(self._valid_end)

    def truncate(self) -> None:
        """Reset the log (after its records were folded into a snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write ``payload`` as JSON via a same-directory rename (atomic on POSIX)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class PersistentShard:
    """A :class:`Shard` with crash recovery: snapshot + WAL + node meta.

    Directory layout (one per node per index)::

        <data_dir>/snapshot.json   compacted entries + the WAL seq they cover
        <data_dir>/wal.jsonl       entry batches appended since the snapshot
        <data_dir>/meta.json       overlay state (successors, predecessor, ...)

    Recovery order is snapshot first, then every WAL record whose ``seq``
    exceeds the snapshot's high-water mark — so a crash *between* writing
    the snapshot and truncating the WAL cannot double-apply a batch.  All
    arrays ride :mod:`repro.util.arrays` raw-buffer encoding, making the
    restored columns bit-identical to what was acknowledged before the
    crash (asserted by :meth:`digest` equality in the recovery tests).
    """

    SNAPSHOT = "snapshot.json"
    WAL = "wal.jsonl"
    META = "meta.json"

    def __init__(self, data_dir: str | Path, k: int, fsync: bool = False) -> None:
        self.dir = Path(data_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.k = int(k)
        self.shard = Shard(self.k)
        self.wal = WriteAheadLog(self.dir / self.WAL, fsync=fsync)
        self._seq = 0
        self._snapshot_seq = 0
        self._wal_records = 0
        self.meta: dict[str, Any] = {}
        self._recover()

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> None:
        snap_path = self.dir / self.SNAPSHOT
        if snap_path.exists():
            with open(snap_path, encoding="utf-8") as fh:
                snap = json.load(fh)
            if int(snap.get("k", self.k)) != self.k:
                raise ValueError(
                    f"{snap_path}: snapshot k={snap.get('k')} != shard k={self.k}"
                )
            keys = decode_array(snap["keys"])
            if len(keys):
                self.shard.add(keys, decode_array(snap["points"]), decode_array(snap["ids"]))
            self._snapshot_seq = int(snap.get("seq", 0))
            self._seq = self._snapshot_seq
        for rec in self.wal.replay():
            self._wal_records += 1
            seq = int(rec.get("seq", 0))
            if seq <= self._snapshot_seq:
                continue  # already folded into the snapshot
            self.shard.add(
                decode_array(rec["keys"]),
                decode_array(rec["points"]),
                decode_array(rec["ids"]),
            )
            self._seq = max(self._seq, seq)
        self.wal.trim_torn_tail()
        meta_path = self.dir / self.META
        if meta_path.exists():
            with open(meta_path, encoding="utf-8") as fh:
                self.meta = json.load(fh)

    # -- mutation ---------------------------------------------------------------

    def add(self, keys: np.ndarray, points: np.ndarray, object_ids: np.ndarray) -> int:
        """Durably append a batch: WAL record first, then the in-memory shard.

        Returns the record's sequence number (0 for an empty batch).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return 0
        points = np.asarray(points, dtype=np.float64).reshape(len(keys), self.k)
        object_ids = np.asarray(object_ids, dtype=np.int64)
        self._seq += 1
        self.wal.append({
            "seq": self._seq,
            "keys": encode_array(keys),
            "points": encode_array(points),
            "ids": encode_array(object_ids),
        })
        self._wal_records += 1
        self.shard.add(keys, points, object_ids)
        return self._seq

    def set_meta(self, **fields: Any) -> None:
        """Merge and persist overlay state (successors, predecessor, ...)."""
        self.meta.update(fields)
        _atomic_write_json(self.dir / self.META, self.meta)

    def snapshot(self) -> int:
        """Fold the WAL into a compacted snapshot; returns entries covered."""
        _atomic_write_json(self.dir / self.SNAPSHOT, {
            "k": self.k,
            "seq": self._seq,
            "keys": encode_array(self.shard.keys),
            "points": encode_array(self.shard.points),
            "ids": encode_array(self.shard.object_ids),
        })
        self.wal.truncate()
        self._snapshot_seq = self._seq
        self._wal_records = 0
        return len(self.shard)

    # -- inspection -------------------------------------------------------------

    @property
    def wal_records(self) -> int:
        """Records currently in the live WAL segment."""
        return self._wal_records

    def digest(self) -> int:
        """CRC32 over the sorted columns — equal iff the entries are
        bit-identical (the crash-recovery acceptance check)."""
        crc = zlib.crc32(self.shard.keys.tobytes())
        crc = zlib.crc32(self.shard.points.tobytes(), crc)
        return zlib.crc32(self.shard.object_ids.tobytes(), crc)

    def close(self) -> None:
        self.wal.close()
