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

A snapshot (format version 9) is a fixed little-endian header (_HEADER),
the entries' keys and values and the linear states' L and H (no model
weight), each f64 array an HFT1 tensor of its float32 view (the last axis
doubled, so every bit round-trips), then a CRC-32 of every byte before it,
so a flipped byte anywhere fails to restore. It stores nothing restore can
derive: the header fixes which chunks a stream at next_index keeps and how
many tokens it evicted, and restore appends each entry, so append alone
routes, orders and shape-checks them.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ContractViolationError, FormatError, SequenceError, ShapeError
from .linear_history import LinearState

_SNAPSHOT_MAGIC = b"HSNP"
_SNAPSHOT_VERSION = 9
_HEADER = struct.Struct("<4sIQQQI")  # magic, version, capacity, sinks, next_index, states


def _kept_chunks(capacity: int, sinks: int, next_index: int) -> tuple[range, range]:
    """The chunks a stream at next_index keeps (RollingCache.append): the
    sinks from chunk 0, then the window ending at chunk next_index - 1."""
    kept = min(next_index, sinks)
    return range(kept), range(next_index - min(next_index - kept, capacity), next_index)


def _read_f64(f) -> np.ndarray:
    """The next f64 array of a snapshot, read back from its float32 view."""
    a = numerics.read_tensor_from(f)
    if a.ndim == 0 or a.shape[-1] % 2:
        raise FormatError(f"tensor of shape {a.shape} is no float32 view of an f64 array")
    return a.view("<f8")


@dataclass
class ChunkKV:
    """Per-layer, per-head keys/values for one chunk of frames. Whether it
    is a sink follows from its chunk_index (RollingCache.append)."""

    chunk_index: int
    keys: np.ndarray    # [layers, heads, chunk_tokens, head_dim], unrotated
    values: np.ndarray  # same shape

    def __post_init__(self):
        self.chunk_index = numerics.as_index(self.chunk_index, "chunk_index")
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
        capacity_chunks = numerics.as_index(capacity_chunks, "capacity_chunks")
        sink_chunks = numerics.as_index(sink_chunks, "sink_chunks")
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

    def _evicted_tokens(self) -> int:
        """The tokens of the chunks this stream appended and no longer keeps:
        every entry of a stream has the same token count."""
        entries = self.entries()
        return (self._next_index - len(entries)) * (entries[0].tokens if entries else 0)

    def snapshot(self) -> bytes:
        """The cache as format-9 bytes (module docstring). Raises
        ContractViolationError if the entries are not, in order, the chunks a
        stream at next_index keeps (_kept_chunks), if an entry's keys or
        values do not fit the cache (shape_mismatch), or if a linear state
        holds other than the evicted chunks' tokens, which only a hand-edited
        cache can: restore derives or refuses each, so such a snapshot could
        not round-trip."""
        entries = self.entries()
        held = [e.chunk_index for e in entries]
        kept = [i for chunks in _kept_chunks(self.capacity_chunks, self.sink_chunks,
                                            self._next_index) for i in chunks]
        if held != kept:
            raise ContractViolationError(f"entries of chunks {held}; a stream at next_index "
                                         f"{self._next_index} keeps chunks {kept}")
        for e in entries:
            mismatch = self.shape_mismatch(e.keys.shape) or self.shape_mismatch(e.values.shape)
            if mismatch:
                raise ContractViolationError(f"entry {e.chunk_index}: {mismatch}")
        tokens = self._evicted_tokens()
        for s in self.linear_states:
            if s.evicted_tokens != tokens:
                raise ContractViolationError(
                    f"a linear state holds {s.evicted_tokens} evicted tokens; a stream at "
                    f"next_index {self._next_index} evicted {tokens} tokens")
        out = io.BytesIO()
        out.write(_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, self.capacity_chunks,
                               self.sink_chunks, self._next_index, len(self.linear_states)))
        arrays = [a for e in entries for a in (e.keys, e.values)]
        arrays += [a for s in self.linear_states for a in (s.L, s.H)]
        for a in arrays:
            numerics.write_tensor(out, np.ascontiguousarray(a, "<f8").view("<f4"))
        out.write(struct.pack("<I", zlib.crc32(out.getbuffer())))
        return out.getvalue()

    @classmethod
    def restore(cls, data: bytes) -> "RollingCache":
        """Rebuild a cache from snapshot() bytes. The magic and version are
        read first, so a blob of another format version is named as such;
        the CRC-32 trailer is then checked before any other field or payload
        byte is used.

        The header fixes the entries a stream at next_index keeps
        (_kept_chunks). Each is read and appended, so a tensor that is
        missing, or that a chunk append would refuse, is named with its
        entry; the work is bounded by the payload present, not by
        next_index. The linear states must be none or one per layer of the
        entries, of their heads and head_dim (shape_mismatch). Every failure
        is a FormatError."""
        if len(data) < _HEADER.size + 4:
            raise FormatError("snapshot shorter than its header and trailer")
        magic, version, capacity, sinks, n, states = _HEADER.unpack_from(data)
        if magic != _SNAPSHOT_MAGIC:
            raise FormatError(f"not a snapshot of format version {_SNAPSHOT_VERSION}: it "
                              f"starts {magic!r}, not {_SNAPSHOT_MAGIC!r}")
        if version != _SNAPSHOT_VERSION:
            raise FormatError(f"unsupported snapshot version {version}")
        if data[-4:] != struct.pack("<I", zlib.crc32(data[:-4])):
            raise FormatError("snapshot checksum mismatch")
        if capacity < 1:
            raise FormatError("snapshot capacity_chunks is 0; want >= 1")
        cache, f = cls(capacity, sinks), io.BytesIO(data[_HEADER.size:-4])
        for chunks in _kept_chunks(capacity, sinks, n):
            cache._next_index = chunks.start  # past the chunks the stream evicted
            for i in chunks:
                try:
                    cache.append(ChunkKV(i, _read_f64(f), _read_f64(f)))
                except (FormatError, ShapeError) as exc:
                    raise FormatError(f"snapshot entry {i} of a stream at "
                                      f"next_index {n}: {exc}") from exc
        for _ in range(states):
            L, H = _read_f64(f), _read_f64(f)
            if L.ndim != 3 or L.shape[1] != L.shape[2] or H.shape != L.shape[:2]:
                raise FormatError(f"linear state shapes L {L.shape} and H {H.shape} do not "
                                  f"fit one heads x head_dim")
            if not (np.isfinite(L).all() and np.isfinite(H).all()):
                raise FormatError("linear state L or H holds a non-finite value")
            cache.linear_states.append(LinearState(L, H, cache._evicted_tokens()))
        if f.read(1):
            raise FormatError("trailing bytes after snapshot payload")
        if cache.entries():
            mismatch = cache.shape_mismatch(cache.entries()[0].keys.shape)
            if mismatch:
                raise FormatError(mismatch)
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
