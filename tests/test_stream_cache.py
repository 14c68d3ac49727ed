"""Rolling cache tests: FIFO eviction, sink pinning, each entry's distance
behind a querying chunk, snapshot round trips."""

import io
import json
import struct
import time
import zlib
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from hybridstream.engine import StreamConfig, ToyDenoiser, append_and_absorb, chunk_step
from hybridstream.errors import ContractViolationError, FormatError, SequenceError, ShapeError
from hybridstream.linear_history import LinearState
from hybridstream.numerics import SeededRng, write_tensor
from hybridstream.rope import RoPEConfig, temporal_index
from hybridstream.stream_cache import ChunkKV, RollingCache

LAYERS, HEADS, TOKENS, HEAD_DIM = 2, 2, 6, 8
CAP = 21  # the model's RoPE cap; the cache holds none
# a format-9 snapshot's header: magic, version, capacity_chunks, sink_chunks,
# next_index, the number of linear states
HEADER = struct.Struct("<4sIQQQI")


def make_kv(idx, seed=None):
    rng = SeededRng(1000 + idx if seed is None else seed)
    return ChunkKV(idx, rng.normal((LAYERS, HEADS, TOKENS, HEAD_DIM)),
                   rng.normal((LAYERS, HEADS, TOKENS, HEAD_DIM)))


def fill(cache, n):
    evicted = []
    for i in range(n):
        out = cache.append(make_kv(i))
        if out is not None:
            evicted.append(out)
    return evicted


class TestAppendEviction:
    def test_fifo_without_sink(self):
        cache = RollingCache(3, 0)
        for i in range(3):
            assert cache.append(make_kv(i)) is None
        evicted = cache.append(make_kv(3))
        assert evicted is not None and evicted.chunk_index == 0
        assert [e.chunk_index for e in cache.window_entries] == [1, 2, 3]

    def test_sink_never_evicted(self):
        cache = RollingCache(3, 1)
        evicted = fill(cache, 6)
        assert [e.chunk_index for e in cache.sink_entries] == [0]
        assert [e.chunk_index for e in cache.window_entries] == [3, 4, 5]
        assert [e.chunk_index for e in evicted] == [1, 2]

    def test_eviction_sequence_enumeration(self):
        cache = RollingCache(3, 1)
        evictions = []
        for i in range(12):
            out = cache.append(make_kv(i))
            evictions.append(None if out is None else out.chunk_index)
        assert evictions == [None, None, None, None, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_non_consecutive_rejected(self):
        cache = RollingCache(3, 0)
        cache.append(make_kv(0))
        with pytest.raises(SequenceError):
            cache.append(make_kv(2))

    @pytest.mark.parametrize("shape", [
        (LAYERS, 3, TOKENS, HEAD_DIM),        # heads
        (LAYERS, HEADS, TOKENS + 1, HEAD_DIM),  # tokens
        (LAYERS, HEADS, TOKENS, 4),           # head_dim
        (3, HEADS, TOKENS, HEAD_DIM),          # layers
    ])
    def test_shape_mismatch_rejected_before_any_change(self, shape):
        stream = TestSnapshot.STREAM
        cache = RollingCache(3, 1, make_states())
        for i in range(6):  # chunks 1 and 2 absorbed; the next append evicts
            append_and_absorb(cache, make_kv(i), stream)
        entries = cache.entries()
        states = [(s.L.copy(), s.H.copy(), s.evicted_tokens) for s in cache.linear_states]
        rng = SeededRng(9)
        bad = ChunkKV(6, rng.normal(shape), rng.normal(shape))
        with pytest.raises(ShapeError, match="unlike the entries'"):
            append_and_absorb(cache, bad, stream)
        assert cache.next_index == 6
        assert all(a is b for a, b in zip(cache.entries(), entries))
        assert len(cache.entries()) == len(entries)
        for s, (L, H, evicted) in zip(cache.linear_states, states):
            assert np.array_equal(s.L, L) and np.array_equal(s.H, H)
            assert s.evicted_tokens == evicted
        assert append_and_absorb(cache, make_kv(6), stream).chunk_index == 3

    def test_first_chunk_checked_against_linear_states(self):
        # an empty cache has no entries to compare with: the states decide
        for shape, match in [((LAYERS, 3, TOKENS, HEAD_DIM), "2 heads x head_dim 8"),
                             ((LAYERS, HEADS, TOKENS, 4), "2 heads x head_dim 8"),
                             ((3, HEADS, TOKENS, HEAD_DIM), "2 linear states for entries of 3")]:
            cache = RollingCache(3, 0, make_states())
            rng = SeededRng(10)
            with pytest.raises(ShapeError, match=match):
                cache.append(ChunkKV(0, rng.normal(shape), rng.normal(shape)))
            assert cache.next_index == 0 and cache.entries() == []
        # without states any first shape is taken, and later ones must match it
        cache = RollingCache(3, 0)
        cache.append(ChunkKV(0, np.zeros((1, 3, 5, 4)), np.zeros((1, 3, 5, 4))))
        with pytest.raises(ShapeError):
            cache.append(make_kv(1))

    def test_non_integer_index_rejected(self):
        # RollingCache(3.5, 0.5) kept 4 window entries and took chunk 0.0 for
        # a sink, and ChunkKV(1.0, ...) was appended as chunk 1 holding 1.0
        for args, name in [((3.5, 0), "capacity_chunks"), ((True, 0), "capacity_chunks"),
                           ((3, 0.5), "sink_chunks"), ((3, False), "sink_chunks")]:
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                RollingCache(*args)
        cache = RollingCache(np.int64(3), np.int64(1))
        assert (type(cache.capacity_chunks), type(cache.sink_chunks)) == (int, int)
        kv = make_kv(0)
        for bad in (0.0, False):
            with pytest.raises(TypeError, match="chunk_index must be an integer"):
                ChunkKV(bad, kv.keys, kv.values)
        assert cache.next_index == 0 and cache.entries() == []
        cache.append(ChunkKV(np.int64(0), kv.keys, kv.values))
        assert type(cache.sink_entries[0].chunk_index) is int

    def test_memory_bound_for_any_stream_length(self):
        for n in [1, 3, 4, 10, 50]:
            cache = RollingCache(3, 1)
            fill(cache, n)
            want = (min(1, n) + min(max(n - 1, 0), 3)) * TOKENS
            assert cache.total_cached_tokens == want

    def test_evicted_and_visible_partition_all_chunks(self):
        cache = RollingCache(3, 1)
        evicted = fill(cache, 30)
        evicted_ids = {e.chunk_index for e in evicted}
        visible_ids = {e.chunk_index for e in cache.entries()}
        assert evicted_ids & visible_ids == set()
        assert evicted_ids | visible_ids == set(range(30))


class TestRelativeIndices:
    """visible_kv pairs each entry with its distance behind the querying
    chunk; rope.temporal_index (tested in test_rope) caps it."""

    def test_stream_start_identity(self):
        cache = RollingCache(3, 0)
        cache.append(make_kv(0))
        [(entry, dist)] = cache.visible_kv(0)
        assert entry.chunk_index == 0 and dist == 0

    def test_indices_capped_for_long_streams(self):
        cache = RollingCache(3, 1)
        fill(cache, 1200)
        dists = [dist for _, dist in cache.visible_kv(1199)]
        assert dists == [1199, 2, 1, 0]  # sink 0, window 1197-1199
        rels = [temporal_index(1199, RoPEConfig(HEAD_DIM, max_temporal_index=CAP), d)
                for d in dists]
        assert rels == [0, CAP - 2, CAP - 1, CAP]

    def test_entry_newer_than_query_rejected(self):
        cache = RollingCache(3, 1)
        fill(cache, 5)
        assert [dist for _, dist in cache.visible_kv(4)] == [4, 2, 1, 0]
        with pytest.raises(ValueError, match="newer than the querying chunk"):
            cache.visible_kv(3)


def make_states():
    return [LinearState.zeros(HEADS, HEAD_DIM) for _ in range(LAYERS)]


class TestSnapshot:
    # the stream geometry matching the module constants: 6 tokens per chunk
    STREAM = StreamConfig(tokens_per_frame=2, heads=HEADS, head_dim=HEAD_DIM, layers=LAYERS,
                          max_temporal_index=CAP)

    def build_cache(self, chunks, capacity=3, sinks=1):
        cache = RollingCache(capacity, sinks, make_states())
        for i in range(chunks):
            append_and_absorb(cache, make_kv(i), self.STREAM)
        return cache

    def format_8_blob(self, cache, version=8, **state_fields):
        """The cache in format 8's layout: a u32 length and a JSON manifest
        listing each entry's chunk index and each linear state's evicted
        tokens, then the format-9 payload and a trailer. Formats 1-7 began
        with that length too."""
        states = [{"evicted_tokens": s.evicted_tokens, **state_fields}
                  for s in cache.linear_states]
        manifest = json.dumps({
            "version": version, "capacity_chunks": cache.capacity_chunks,
            "sink_chunks": cache.sink_chunks, "next_index": cache.next_index,
            "entries": [{"chunk_index": e.chunk_index} for e in cache.entries()],
            "linear_states": states}, sort_keys=True).encode()
        payload = cache.snapshot()[HEADER.size:-4]
        return sealed(struct.pack("<I", len(manifest)) + manifest + payload)

    def assert_other_version_refused(self, version, trailer=True):
        # a blob of the old layout fails on the format-9 magic; a format-9
        # header carrying the old version number fails on its version
        cache = self.build_cache(5)  # sink 0, window 2-4
        cut = None if trailer else -4
        with pytest.raises(FormatError, match="not a snapshot of format version 9"):
            RollingCache.restore(self.format_8_blob(cache, version)[:cut])
        with pytest.raises(FormatError, match=f"unsupported snapshot version {version}"):
            RollingCache.restore(with_header(cache.snapshot(), version=version)[:cut])

    def test_other_format_version_is_format_error(self):
        self.assert_other_version_refused(8)

    def test_version_one_snapshot_is_unsupported(self):
        # version 1 was format 8's layout without the trailer
        self.assert_other_version_refused(1, trailer=False)

    def test_version_2_snapshot_is_format_error(self):
        # versions 2-6 held the RoPE cap in the manifest, and some of them
        # further per-record keys
        for version in (2, 3, 4, 5, 6):
            self.assert_other_version_refused(version)

    def test_version_7_snapshot_is_format_error(self):
        # version 7 had format 8's manifest, but stored each f64 array as a
        # [2, *shape] tensor of its high, then its low 32-bit halves
        self.assert_other_version_refused(7)

    @pytest.mark.parametrize("field, value", [("capacity_chunks", 0)])
    def test_malformed_scalar_field_is_format_error(self, field, value):
        blob = with_header(self.build_cache(5).snapshot(), **{field: value})
        with pytest.raises(FormatError, match=f"{field} is {value}"):
            RollingCache.restore(blob)

    @pytest.mark.parametrize("chunks", range(7))
    def test_every_appended_state_restores(self, chunks):
        for capacity, sinks in [(3, 1), (3, 0), (3, 2), (1, 1)]:
            cache = self.build_cache(chunks, capacity, sinks)
            restored = RollingCache.restore(cache.snapshot())
            assert [e.chunk_index for e in restored.sink_entries] == \
                [e.chunk_index for e in cache.sink_entries]
            assert [e.chunk_index for e in restored.window_entries] == \
                [e.chunk_index for e in cache.window_entries]
            assert restored.next_index == cache.next_index
            assert restored.snapshot() == cache.snapshot()

    def edited_snapshot_error(self, chunks=8, **fields):
        blob = with_header(self.build_cache(chunks).snapshot(), **fields)
        with pytest.raises(FormatError) as info:
            RollingCache.restore(blob)
        return str(info.value)

    def test_window_over_capacity_is_format_error(self):
        # sink 0, window 5-7 read under capacity 1: sink 0 and window 7 take
        # the first two entries, and the third's tensors are no linear state
        assert "linear state shapes" in self.edited_snapshot_error(capacity_chunks=1)

    def test_next_index_disagreeing_with_entries_is_format_error(self):
        # sink 0 and window 1 read at next_index 99: window 96-98 takes the
        # second entry, then the first linear state's tensors
        message = self.edited_snapshot_error(2, next_index=99)
        assert "snapshot entry 97 of a stream at next_index 99" in message

    @pytest.mark.parametrize("chunks", [0, 2, 5, 8])
    def test_edited_geometry_is_refused_or_round_trips(self, chunks):
        # a header that keeps entries other than the payload holds is
        # refused; one that keeps as many of the same shapes restores to a
        # cache whose snapshot is the edited blob, evicted tokens derived
        blob = self.build_cache(chunks).snapshot()
        accepted = []
        for capacity, sinks, n in product([1, 2, 3, 9], [0, 1, 2, 9],
                                          [0, 1, 2, 5, 8, 99, 2**64 - 1]):
            edited = with_header(blob, capacity_chunks=capacity, sink_chunks=sinks,
                                 next_index=n)
            try:
                restored = RollingCache.restore(edited)
            except FormatError:
                continue
            assert restored.snapshot() == edited
            accepted.append((capacity, sinks, n))
        assert (3, 1, chunks) in accepted and len(accepted) > 1

    @pytest.mark.parametrize("fields", [dict(next_index=10**12),
                                        dict(next_index=10**12, sink_chunks=10**12)],
                             ids=["next_index", "next_index-sink_chunks"])
    def test_huge_next_index_is_refused_by_the_missing_entry(self, fields):
        # the work must not grow with next_index: building the chunk lists a
        # stream at 10**12 keeps would take terabytes
        blob = with_header(RollingCache(3, 1).snapshot(), **fields)
        start = time.perf_counter()
        with pytest.raises(FormatError) as info:
            RollingCache.restore(blob)
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert len(message) < 200 and "snapshot entry 0 of a stream at next_index" in message

    @pytest.mark.parametrize("count", [0, 30])
    def test_evicted_tokens_unlike_the_evictions_are_format_error(self, count):
        # sink 0, window 5-7: chunks 1-4 were evicted, 6 tokens each; 30 is
        # one chunk too many. Format 8 stored the count, and restore refused
        # one unlike the evictions; format 9 stores none, so restore derives
        # it, and snapshot() refuses a state that holds another (appended
        # without absorbing, say)
        cache = self.build_cache(8)
        assert [s.evicted_tokens for s in cache.linear_states] == [24, 24]
        with pytest.raises(FormatError, match="not a snapshot of format version 9"):
            RollingCache.restore(self.format_8_blob(cache, evicted_tokens=count))
        cache.linear_states[1] = replace(cache.linear_states[1], evicted_tokens=count)
        with pytest.raises(ContractViolationError,
                           match=f"holds {count} evicted tokens.* evicted 24 tokens"):
            cache.snapshot()

    def test_stream_without_evictions_restores_with_none_absorbed(self):
        cache = self.build_cache(4)  # sink 0, window 1-3
        restored = RollingCache.restore(cache.snapshot())
        assert [s.evicted_tokens for s in restored.linear_states] == [0, 0]
        cache.linear_states[0] = replace(cache.linear_states[0], evicted_tokens=6)
        with pytest.raises(ContractViolationError, match="holds 6 evicted tokens.* evicted 0"):
            cache.snapshot()

    def test_entries_other_than_the_kept_chunks_are_refused_by_snapshot(self):
        # sink 0, window 3-5. Without linear states nothing else compares the
        # entries: a window missing chunk 3 was written, then failed to read
        # ("entry 5 ... bad magic"), and a reversed window restored as chunks
        # 3, 4, 5 with chunk 5's keys read as chunk 3's
        bare = RollingCache(3, 1)
        fill(bare, 6)
        bare.window_entries.pop(0)
        with pytest.raises(ContractViolationError, match=r"chunks \[0, 4, 5\].*\[0, 3, 4, 5\]"):
            bare.snapshot()
        cache = self.build_cache(6)
        cache.window_entries.reverse()
        with pytest.raises(ContractViolationError, match=r"chunks \[0, 5, 4, 3\]"):
            cache.snapshot()
        cache.window_entries.reverse()
        assert RollingCache.restore(cache.snapshot()).snapshot() == cache.snapshot()

    # snapshot() refuses entries that do not fit the cache (shape_mismatch)
    # when it writes them; restore refuses the same bytes written without
    # that check (unchecked_snapshot)

    def test_entry_shapes_that_differ_are_format_error(self):
        cache = self.build_cache(8)
        assert unchecked_snapshot(cache) == cache.snapshot()
        kv = cache.window_entries[1]
        cache.window_entries[1] = ChunkKV(kv.chunk_index, kv.keys[:, :, :4], kv.values[:, :, :4])
        with pytest.raises(ContractViolationError, match="entry 6: .*unlike the entries'"):
            cache.snapshot()
        with pytest.raises(FormatError, match="unlike the entries'"):
            RollingCache.restore(unchecked_snapshot(cache))
        cache.window_entries[1] = kv
        kv.values = kv.values[:, :, :4]  # keys and values of one entry differ
        with pytest.raises(ContractViolationError, match="entry 6: .*unlike the entries'"):
            cache.snapshot()
        with pytest.raises(FormatError, match="snapshot entry 6"):
            RollingCache.restore(unchecked_snapshot(cache))

    def test_entry_shape_unlike_linear_states_is_format_error(self):
        cache = RollingCache(3, 1)
        for i in range(3):
            kv = make_kv(i)
            cache.append(ChunkKV(i, kv.keys[..., :4], kv.values[..., :4]))
        cache.linear_states = make_states()  # append refuses such chunks; attach them after
        with pytest.raises(ContractViolationError, match="entry 0: .*head_dim 8"):
            cache.snapshot()
        with pytest.raises(FormatError, match="head_dim 8"):
            RollingCache.restore(unchecked_snapshot(cache))

    def test_linear_state_count_unlike_layers_is_format_error(self):
        cache = self.build_cache(5)  # entries of 2 layers, one state per layer
        del cache.linear_states[1]
        with pytest.raises(ContractViolationError,
                           match="entry 0: 1 linear states for entries of 2 layers"):
            cache.snapshot()
        with pytest.raises(FormatError, match="1 linear states for entries of 2 layers"):
            RollingCache.restore(unchecked_snapshot(cache))
        cache.linear_states.clear()  # no history pathway at all restores
        assert RollingCache.restore(cache.snapshot()).linear_states == []

    def test_restored_cache_missing_a_layer_state_cannot_stream(self):
        # an empty cache has no entries for restore to count layers against,
        # so the missing state restores; the first chunk of 2 layers is refused
        model = ToyDenoiser(self.STREAM)
        cache = model.new_cache()
        del cache.linear_states[1]
        restored = RollingCache.restore(cache.snapshot())
        assert len(restored.linear_states) == 1
        ts, cfg = self.STREAM.denoise_timesteps, self.STREAM
        noise = SeededRng(7).normal((cfg.chunk_tokens, cfg.model_dim), count=len(ts))
        with pytest.raises(ShapeError, match="1 linear states for entries of 2 layers"):
            chunk_step(model, restored, ts, noise)
        assert restored.next_index == 0 and restored.entries() == []

    def test_linear_state_shapes_that_disagree_are_format_error(self):
        cache = self.build_cache(5)
        state = cache.linear_states[1]
        cache.linear_states[1] = replace(state, H=state.H[:, :4])  # head_dim 4 against L's 8
        with pytest.raises(FormatError, match="linear state shapes"):
            RollingCache.restore(cache.snapshot())

    @pytest.mark.parametrize("name, value", [("L", np.nan), ("L", -np.inf), ("H", np.inf)])
    def test_non_finite_linear_state_is_format_error(self, name, value):
        cache = self.build_cache(8)
        state = cache.linear_states[0]
        bad = getattr(state, name).copy()  # a state's own arrays are read-only
        bad.flat[3] = value
        cache.linear_states[0] = replace(state, **{name: bad})
        with pytest.raises(FormatError, match="non-finite"):
            RollingCache.restore(cache.snapshot())  # sealed: its CRC-32 holds

    def test_round_trip_preserves_visible_kv(self):
        cache = self.build_cache(7)
        restored = RollingCache.restore(cache.snapshot())
        got = restored.visible_kv(6)
        want = cache.visible_kv(6)
        assert len(got) == len(want)
        for (e1, r1), (e2, r2) in zip(want, got):
            assert r1 == r2 and e1.chunk_index == e2.chunk_index
            assert np.array_equal(e1.keys, e2.keys)
            assert np.array_equal(e1.values, e2.values)

    def test_round_trip_preserves_linear_state_exactly(self):
        cache = self.build_cache(9)
        restored = RollingCache.restore(cache.snapshot())
        for s1, s2 in zip(cache.linear_states, restored.linear_states):
            assert np.array_equal(s1.L, s2.L)
            assert np.array_equal(s1.H, s2.H)
            assert s1.evicted_tokens == s2.evicted_tokens

    def test_restored_cache_keeps_streaming(self):
        cache = self.build_cache(7)
        restored = RollingCache.restore(cache.snapshot())
        evicted = restored.append(make_kv(7))
        assert evicted is not None and evicted.chunk_index == 4

    def test_truncated_snapshot_rejected(self):
        blob = self.build_cache(5).snapshot()
        with pytest.raises(FormatError):
            RollingCache.restore(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            RollingCache.restore(blob[:3])

    def test_checksum_covers_every_byte(self):
        blob = self.build_cache(5).snapshot()
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))
        # payload bytes (a key, a linear state) and the trailer itself
        for pos in (HEADER.size + 40, len(blob) - 100, len(blob) - 4, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[pos] ^= 0x01
            with pytest.raises(FormatError, match="checksum"):
                RollingCache.restore(bytes(flipped))

    def test_round_trip_keeps_every_f64_bit(self):
        # +-0, the least subnormal, +-inf, NaN, and NaNs with payloads
        bits = np.array([0, 1 << 63, 1, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48,
                         0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001], dtype="<u8")
        cache = self.build_cache(5)
        entry = cache.window_entries[0]
        entry.keys.view("<u8").flat[:bits.size] = bits
        entry.values.view("<u8").flat[-bits.size:] = bits[::-1]
        blob = cache.snapshot()
        restored = RollingCache.restore(blob)
        for a, b in zip(cache.entries(), restored.entries()):
            assert a.keys.view("<u8").tobytes() == b.keys.view("<u8").tobytes()
            assert a.values.view("<u8").tobytes() == b.values.view("<u8").tobytes()
        got = restored.window_entries[0]
        assert np.array_equal(got.keys.view("<u8").flat[:bits.size], bits)
        assert np.array_equal(got.values.view("<u8").flat[-bits.size:], bits[::-1])
        assert restored.snapshot() == blob

    @pytest.mark.parametrize("shape", [(1, 4, 7), ()])
    def test_tensor_that_is_no_f64_view_is_format_error(self, shape):
        # a linear state's L tensor of an odd last axis, or of none, cannot
        # be the float32 view of an f64 array
        blob = RollingCache(3, 1, [LinearState.zeros(1, 4)]).snapshot()
        payload = io.BytesIO()
        write_tensor(payload, np.zeros(shape, dtype=np.float32))
        write_tensor(payload, np.zeros((1, 8), dtype=np.float32))  # H, as written
        with pytest.raises(FormatError, match="no float32 view of an f64 array"):
            RollingCache.restore(sealed(blob[:HEADER.size] + payload.getvalue()))
        assert RollingCache.restore(blob).linear_states[0].head_dim == 4

    def test_snapshot_holds_no_model_weight(self):
        # equal entries and states from models that differ in every weight,
        # history_proj included, snapshot to the same bytes
        blobs = []
        for seed in (0, 1):
            cache = ToyDenoiser(replace(self.STREAM, seed=seed)).new_cache()
            for i in range(8):
                append_and_absorb(cache, make_kv(i), self.STREAM)
            assert all(s.evicted_tokens == 24 for s in cache.linear_states)
            blobs.append(cache.snapshot())
        assert blobs[0] == blobs[1]

    def test_corrupt_manifest_rejected(self):
        blob = bytearray(self.build_cache(5).snapshot())
        blob[8] ^= 0xFF  # flip a header byte
        with pytest.raises(FormatError):
            RollingCache.restore(bytes(blob))

    def test_snapshot_size_constant_in_stream_length(self):
        short = self.build_cache(10).snapshot()
        long = self.build_cache(100).snapshot()
        # a fixed header, and no chunk index stored anywhere
        assert len(short) == len(long)


def sealed(body):
    """A snapshot body followed by its CRC-32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def unchecked_snapshot(cache):
    """The format-9 bytes snapshot() writes for `cache`, without its checks:
    the header, each entry's keys and values and each linear state's L and
    H, each an HFT1 tensor of its float32 view, then the CRC-32 trailer."""
    out = io.BytesIO()
    out.write(HEADER.pack(b"HSNP", 9, cache.capacity_chunks, cache.sink_chunks,
                          cache.next_index, len(cache.linear_states)))
    arrays = [a for e in cache.entries() for a in (e.keys, e.values)]
    arrays += [a for s in cache.linear_states for a in (s.L, s.H)]
    for a in arrays:
        write_tensor(out, np.ascontiguousarray(a, "<f8").view("<f4"))
    return sealed(out.getvalue())


def with_header(blob, **fields):
    """The snapshot with the named header fields replaced and its CRC-32
    trailer sealed again over the edited bytes."""
    names = ("magic", "version", "capacity_chunks", "sink_chunks", "next_index",
             "linear_states")
    values = {**dict(zip(names, HEADER.unpack_from(blob))), **fields}
    return sealed(HEADER.pack(*values.values()) + blob[HEADER.size:-4])
