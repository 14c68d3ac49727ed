"""Rolling per-chunk KV cache with pinned sink entries and eviction.

Sink chunks, the first `sink_chunks` chunks of a stream by chunk index,
live outside the ring and are never evicted; window entries are FIFO with
a fixed chunk capacity. Evicted entries are returned to the caller, which
routes them into the attached linear states. Entries store unrotated keys,
and the cache holds no position other than each entry's chunk index:
visible_kv gives each entry's distance in chunks behind a querying chunk,
and the model turns that distance into a temporal position at attention
time, so cached content never needs re-rotation as the window slides.
The engine lays out the rotated visible keys and the visible values once
per query chunk, for every layer and head, in a workspace held by the
cache's memo. The next query chunk rewrites the same arrays in place when
their shape still fits; snapshots never carry them.

A snapshot (format version 8) is a length-prefixed JSON manifest, the
entries' keys and values and the linear states' L and H (no model weight),
each f64 array an HFT1 tensor of its float32 view (the last axis doubled,
so every bit round-trips), then a CRC-32 of every byte before it, so a
flipped byte anywhere fails to restore. Its entries carry only their chunk
index; restore appends each one, so append alone routes, orders and
shape-checks them. The manifest and each of its records must hold exactly
the keys snapshot() writes.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import FormatError, SequenceError, ShapeError
from .linear_history import LinearState

_SNAPSHOT_VERSION = 8


def _read_f64(f) -> np.ndarray:
    """The next f64 array of a snapshot, read back from its float32 view."""
    a = numerics.read_tensor_from(f)
    if a.ndim == 0 or a.shape[-1] % 2:
        raise FormatError(f"tensor of shape {a.shape} is no float32 view of an f64 array")
    return a.view("<f8")


def _field(meta, name: str, kind: type, low: int | None = None):
    """meta[name] from a snapshot manifest, raising FormatError unless meta is
    a JSON object whose field has exactly type `kind` (so a bool is not an
    int) and, when `low` is given, a value of at least `low`. The field is
    popped, so whatever is left once a record is read is a key that
    snapshot() does not write (_no_more)."""
    if not isinstance(meta, dict) or name not in meta:
        raise FormatError(f"snapshot manifest lacks field {name!r}")
    value = meta.pop(name)
    if type(value) is not kind or (low is not None and value < low):
        want = kind.__name__ + ("" if low is None else f" >= {low}")
        raise FormatError(f"snapshot field {name!r} is {value!r}; want {want}")
    return value


def _no_more(meta: dict, record: str) -> None:
    """Raise FormatError naming a key left in a record once _field read it."""
    if meta:
        raise FormatError(f"snapshot {record} has unknown field {min(meta)!r}")


@dataclass
class ChunkKV:
    """Per-layer, per-head keys/values for one chunk of frames. Whether it
    is a sink follows from its chunk_index (RollingCache.append)."""

    chunk_index: int
    keys: np.ndarray    # [layers, heads, chunk_tokens, head_dim], unrotated
    values: np.ndarray  # same shape

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.keys.ndim != 4:
            raise ShapeError(f"keys must be [layers, heads, tokens, head_dim], got {self.keys.shape}")
        if self.keys.shape != self.values.shape:
            raise ShapeError(f"keys {self.keys.shape} and values {self.values.shape} differ")

    @property
    def tokens(self) -> int:
        return self.keys.shape[2]


class RollingCache:
    """FIFO chunk window plus pinned sinks plus per-layer linear states."""

    def __init__(
        self,
        capacity_chunks: int,
        sink_chunks: int,
        linear_states: list[LinearState] | None = None,
    ):
        if capacity_chunks < 1:
            raise ValueError("capacity_chunks must be >= 1")
        if sink_chunks < 0:
            raise ValueError("sink_chunks must be >= 0")
        self.capacity_chunks = capacity_chunks
        self.sink_chunks = sink_chunks
        self.sink_entries: list[ChunkKV] = []
        self.window_entries: list[ChunkKV] = []
        self.linear_states: list[LinearState] = linear_states or []
        self._next_index = 0
        self._memo: tuple | None = None  # (key, value) of memo()

    @property
    def next_index(self) -> int:
        return self._next_index

    @property
    def total_cached_tokens(self) -> int:
        return sum(e.tokens for e in self.sink_entries) + sum(
            e.tokens for e in self.window_entries
        )

    def evicts(self, kv: ChunkKV) -> ChunkKV | None:
        """The entry append(kv) would evict, if any, with nothing changed. A
        chunk append refuses raises here as it does there."""
        if kv.chunk_index != self._next_index:
            raise SequenceError(
                f"expected chunk {self._next_index}, got {kv.chunk_index}"
            )
        mismatch = self.shape_mismatch(kv.keys.shape)
        if mismatch:
            raise ShapeError(f"chunk {kv.chunk_index}: {mismatch}")
        if kv.chunk_index < self.sink_chunks or len(self.window_entries) < self.capacity_chunks:
            return None
        return self.window_entries[0]

    def append(self, kv: ChunkKV) -> ChunkKV | None:
        """Insert the next chunk; returns the evicted entry, if any.

        The caller owns routing the evicted entry into the linear states
        (absorb before the next attention call). Chunks 0 .. sink_chunks - 1
        go to the pinned list and never count against capacity. A chunk out
        of sequence or of a shape that does not fit (shape_mismatch) raises
        before anything changes, as it does in evicts.
        """
        evicted = self.evicts(kv)
        self._next_index += 1
        if kv.chunk_index < self.sink_chunks:
            self.sink_entries.append(kv)
            return None
        if evicted is not None:
            self.window_entries.pop(0)
        self.window_entries.append(kv)
        return evicted

    def memo(self, key, build):
        """What `build(stale)` returns for `key` over the current entries:
        built on the first call, then reused until the key changes or the
        next append. `stale` is the value it replaces (None at first), which
        build may overwrite to reuse its arrays. It lives in memory only."""
        key = (self._next_index, key)
        if self._memo is None or self._memo[0] != key:
            stale = None if self._memo is None else self._memo[1]
            self._memo = None  # a build that raises leaves no half-written value
            self._memo = (key, build(stale))
        return self._memo[1]

    def entries(self) -> list[ChunkKV]:
        return list(self.sink_entries) + list(self.window_entries)

    def visible_kv(self, query_chunk_index: int) -> list[tuple[ChunkKV, int]]:
        """Sink + window entries, oldest first, each paired with its distance
        query_chunk_index - chunk_index: how many chunks it lies behind the
        querying chunk. An entry newer than that chunk raises ValueError."""
        out = [(e, query_chunk_index - e.chunk_index) for e in self.entries()]
        if out and out[-1][1] < 0:
            raise ValueError("entry newer than the querying chunk")
        return out

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> bytes:
        entries = self.entries()
        manifest = {
            "version": _SNAPSHOT_VERSION,
            "capacity_chunks": self.capacity_chunks,
            "sink_chunks": self.sink_chunks,
            "next_index": self._next_index,
            "entries": [{"chunk_index": e.chunk_index} for e in entries],
            "linear_states": [
                {"evicted_tokens": s.evicted_tokens} for s in self.linear_states
            ],
        }
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        out = io.BytesIO()
        out.write(struct.pack("<I", len(blob)))
        out.write(blob)
        arrays = [a for e in entries for a in (e.keys, e.values)]
        arrays += [a for s in self.linear_states for a in (s.L, s.H)]
        for a in arrays:
            numerics.write_tensor(out, np.ascontiguousarray(a, "<f8").view("<f4"))
        out.write(struct.pack("<I", zlib.crc32(out.getbuffer())))
        return out.getvalue()

    @classmethod
    def restore(cls, data: bytes) -> "RollingCache":
        """Rebuild a cache from snapshot() bytes. The manifest's version (an
        int) is read first, so a blob of another format version is named as such;
        the CRC-32 trailer is then checked before any other field or payload
        byte is decoded. A key that snapshot() does not write is refused.

        The entries must be as many as a stream at next_index keeps, counted
        before any payload is read. They are then appended: the sinks from
        chunk 0, then, past the chunks such a stream evicted, the window, so
        a chunk append would refuse (out of order, or of another shape) is
        refused here. The linear states must be none or one per layer of the
        entries, of their heads and head_dim (shape_mismatch), each holding
        the tokens of every evicted chunk. Every failure is a FormatError."""
        body, trailer = data[:-4], data[-4:]
        f = io.BytesIO(body)
        head = f.read(4)
        if len(head) != 4:
            raise FormatError("snapshot shorter than its length prefix")
        (mlen,) = struct.unpack("<I", head)
        blob = f.read(mlen)
        if len(blob) != mlen:
            raise FormatError("snapshot manifest truncated")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"snapshot manifest is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise FormatError("snapshot manifest is not a JSON object")
        version = manifest.pop("version", None)
        if type(version) is not int or version != _SNAPSHOT_VERSION:  # 8.0 is not 8
            raise FormatError(f"unsupported snapshot version {version!r}")
        if struct.unpack("<I", trailer)[0] != zlib.crc32(body):
            raise FormatError("snapshot checksum mismatch")

        cache = cls(
            capacity_chunks=_field(manifest, "capacity_chunks", int, 1),
            sink_chunks=_field(manifest, "sink_chunks", int, 0),
        )
        n = _field(manifest, "next_index", int, 0)
        entries = _field(manifest, "entries", list)
        states = _field(manifest, "linear_states", list)
        _no_more(manifest, "manifest")
        # counted before any payload is read, so the work is bounded by the
        # entries present, not by next_index or sink_chunks
        sinks = min(n, cache.sink_chunks)
        window = min(n - sinks, cache.capacity_chunks)
        if len(entries) != sinks + window:
            raise FormatError(f"{len(entries)} entries, but a stream at next_index {n} with "
                              f"capacity {cache.capacity_chunks} keeps {sinks} sink and "
                              f"{window} window entries")
        for i, meta in enumerate(entries):
            if i == sinks:
                cache._next_index = n - window  # over the chunks the stream evicted
            chunk_index = _field(meta, "chunk_index", int, 0)
            _no_more(meta, f"entry {chunk_index}")
            try:
                cache.append(ChunkKV(chunk_index, _read_f64(f), _read_f64(f)))
            except (SequenceError, ShapeError) as exc:
                raise FormatError(f"snapshot entry {chunk_index} of a stream at next_index "
                                  f"{n}: {exc}") from exc
        for meta in states:
            evicted_tokens = _field(meta, "evicted_tokens", int, 0)
            _no_more(meta, "linear state")
            L, H = _read_f64(f), _read_f64(f)
            if L.ndim != 3 or L.shape[1] != L.shape[2] or H.shape != L.shape[:2]:
                raise FormatError(f"linear state shapes L {L.shape} and H {H.shape} do not "
                                  f"fit one heads x head_dim")
            if not (np.isfinite(L).all() and np.isfinite(H).all()):
                raise FormatError("linear state L or H holds a non-finite value")
            cache.linear_states.append(LinearState(L, H, evicted_tokens))
        if f.read(1):
            raise FormatError("trailing bytes after snapshot payload")
        if entries:
            mismatch = cache.shape_mismatch(cache.entries()[0].keys.shape)
            if mismatch:
                raise FormatError(mismatch)
        # chunks are evicted only from a full window, so one is there to count
        evicted = n - sinks - window
        tokens = evicted * cache.window_entries[0].tokens if evicted else 0
        for s in cache.linear_states:
            if s.evicted_tokens != tokens:
                raise FormatError(f"a linear state holds {s.evicted_tokens} evicted tokens; a "
                                  f"stream at next_index {n} evicted {evicted} chunks, {tokens} "
                                  f"tokens")
        return cache

    def shape_mismatch(self, shape: tuple) -> str:
        """Why keys and values of `shape` ([layers, heads, tokens, head_dim])
        do not fit this cache, or "" if they do: they must have the entries'
        shape, and the linear states must be none or one per layer, each of
        their heads and head_dim."""
        entries = self.sink_entries or self.window_entries
        if entries and entries[0].keys.shape != shape:
            return f"keys and values {shape} unlike the entries' {entries[0].keys.shape}"
        if len(self.linear_states) not in (0, shape[0]):
            return (f"{len(self.linear_states)} linear states for entries of {shape[0]} "
                    f"layers; want 0 or {shape[0]}")
        for s in self.linear_states:
            if (shape[1], shape[3]) != (s.heads, s.head_dim):
                return (f"entry keys {shape} do not match a linear state of "
                        f"{s.heads} heads x head_dim {s.head_dim}")
        return ""
