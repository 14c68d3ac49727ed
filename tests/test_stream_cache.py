"""Rolling cache tests: FIFO eviction, sink pinning, each entry's distance
behind a querying chunk, snapshot round trips."""

import io
import json
import struct
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from hybridstream.engine import StreamConfig, ToyDenoiser, append_and_absorb, chunk_step
from hybridstream.errors import FormatError, SequenceError, ShapeError
from hybridstream.linear_history import LinearState
from hybridstream.numerics import SeededRng, write_tensor
from hybridstream.rope import RoPEConfig, temporal_index
from hybridstream.stream_cache import ChunkKV, RollingCache

LAYERS, HEADS, TOKENS, HEAD_DIM = 2, 2, 6, 8
CAP = 21  # the model's RoPE cap; the cache holds none


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

    @staticmethod
    def with_manifest(blob, edit):
        """The snapshot with its JSON manifest passed through `edit`, and its
        CRC-32 trailer sealed again over the edited bytes."""
        (mlen,) = struct.unpack("<I", blob[:4])
        manifest = json.loads(blob[4:4 + mlen])
        edit(manifest)
        new = json.dumps(manifest, sort_keys=True).encode("utf-8")
        body = struct.pack("<I", len(new)) + new + blob[4 + mlen:-4]
        return body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("field", ["capacity_chunks", "next_index", "entries",
                                       "linear_states"])
    def test_missing_manifest_field_is_format_error(self, field):
        blob = self.with_manifest(self.build_cache(5).snapshot(),
                                  lambda m: m.pop(field))
        with pytest.raises(FormatError, match=field):
            RollingCache.restore(blob)

    def test_version_2_snapshot_is_format_error(self):
        # versions 2-6 held the RoPE cap as "max_temporal_index"; version 5
        # also had a projection tensor after each linear state's L and H,
        # version 4 also an "encoding" field, version 3 gave each entry a sink
        # flag, and version 2 named each linear state's feature map
        for version in (2, 3, 4, 5, 6):
            def edit(manifest):
                manifest["version"] = version
                manifest["max_temporal_index"] = CAP
                if version <= 4:
                    manifest["encoding"] = "f64-bit-split-pairs"
                if version <= 3:
                    for meta in manifest["entries"]:
                        meta["is_sink"] = meta["chunk_index"] < manifest["sink_chunks"]
                if version == 2:
                    for meta in manifest["linear_states"]:
                        meta["feature_map"] = "elu1"

            blob = self.with_manifest(self.build_cache(5).snapshot(), edit)
            with pytest.raises(FormatError, match=f"unsupported snapshot version {version}"):
                RollingCache.restore(blob)

    @pytest.mark.parametrize("record, edit", [
        ("manifest", lambda m: m.update(note="restored twice")),
        pytest.param("manifest", lambda m: m.update(max_temporal_index=CAP),
                     id="manifest-max_temporal_index"),  # versions up to 6 had it
        ("entry 2", lambda m: m["entries"][1].update(is_sink=True)),
        ("linear state", lambda m: m["linear_states"][0].update(feature_map="elu1")),
    ])
    def test_unknown_key_is_format_error(self, record, edit):
        # restore reads exactly the keys snapshot() writes (sink 0, window 2-4)
        blob = self.with_manifest(self.build_cache(5).snapshot(), edit)
        with pytest.raises(FormatError, match=f"snapshot {record} has unknown field"):
            RollingCache.restore(blob)

    def test_deeply_nested_manifest_is_format_error(self):
        manifest = b"[" * 200_000 + b"]" * 200_000
        body = struct.pack("<I", len(manifest)) + manifest  # sealed with a valid CRC-32
        with pytest.raises(FormatError, match="not valid JSON"):
            RollingCache.restore(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("field, value", [
        ("capacity_chunks", "3"),
        ("capacity_chunks", 0),
        ("sink_chunks", -1),
        ("evicted_tokens", "x"),
    ])
    def test_malformed_scalar_field_is_format_error(self, field, value):
        def edit(manifest):
            if field == "evicted_tokens":
                manifest["linear_states"][0][field] = value
            else:
                manifest[field] = value

        blob = self.with_manifest(self.build_cache(5).snapshot(), edit)
        with pytest.raises(FormatError, match=f"'{field}' is {value!r}"):
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

    def edited_snapshot_error(self, edit):
        blob = self.with_manifest(self.build_cache(8).snapshot(), edit)  # sink 0, window 5-7
        with pytest.raises(FormatError) as info:
            RollingCache.restore(blob)
        return str(info.value)

    def test_window_over_capacity_is_format_error(self):
        assert "capacity" in self.edited_snapshot_error(
            lambda m: m.update(capacity_chunks=1))

    def test_non_consecutive_window_is_format_error(self):
        def edit(manifest):
            manifest["entries"][1]["chunk_index"] = 4

        assert "expected chunk 5, got 4" in self.edited_snapshot_error(edit)

        def misplaced_sink(manifest):
            manifest["entries"][0]["chunk_index"] = 1

        assert "expected chunk 0, got 1" in self.edited_snapshot_error(misplaced_sink)

    def test_next_index_disagreeing_with_entries_is_format_error(self):
        assert "next_index 99" in self.edited_snapshot_error(
            lambda m: m.update(next_index=99))

    def test_huge_next_index_is_refused_by_the_entry_count(self):
        # the work must not grow with next_index: building the chunk lists a
        # stream at 10**12 keeps would take terabytes
        n = 10**12
        blob = self.with_manifest(RollingCache(3, 1).snapshot(),
                                  lambda m: m.update(next_index=n, sink_chunks=n))
        start = time.perf_counter()
        with pytest.raises(FormatError) as info:
            RollingCache.restore(blob)
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert len(message) < 200 and f"{n} sink and 0 window entries" in message

    @pytest.mark.parametrize("count", [0, 30])
    def test_evicted_tokens_unlike_the_evictions_are_format_error(self, count):
        # sink 0, window 5-7: chunks 1-4 were evicted, 6 tokens each; 30 is
        # one chunk too many
        cache = self.build_cache(8)
        assert [s.evicted_tokens for s in cache.linear_states] == [24, 24]
        blob = self.with_manifest(
            cache.snapshot(), lambda m: m["linear_states"][1].update(evicted_tokens=count))
        with pytest.raises(FormatError, match=f"holds {count} evicted tokens.* 4 chunks, 24"):
            RollingCache.restore(blob)

    def test_stream_without_evictions_restores_with_none_absorbed(self):
        cache = self.build_cache(4)  # sink 0, window 1-3
        restored = RollingCache.restore(cache.snapshot())
        assert [s.evicted_tokens for s in restored.linear_states] == [0, 0]
        blob = self.with_manifest(
            cache.snapshot(), lambda m: m["linear_states"][0].update(evicted_tokens=6))
        with pytest.raises(FormatError, match="holds 6 evicted tokens.* 0 chunks, 0"):
            RollingCache.restore(blob)

    def test_entry_shapes_that_differ_are_format_error(self):
        cache = self.build_cache(8)
        kv = cache.window_entries[1]
        cache.window_entries[1] = ChunkKV(kv.chunk_index, kv.keys[:, :, :4], kv.values[:, :, :4])
        with pytest.raises(FormatError, match="unlike the entries'"):
            RollingCache.restore(cache.snapshot())
        cache.window_entries[1] = kv
        kv.values = kv.values[:, :, :4]  # keys and values of one entry differ
        with pytest.raises(FormatError, match="snapshot entry 6"):
            RollingCache.restore(cache.snapshot())

    def test_entry_shape_unlike_linear_states_is_format_error(self):
        cache = RollingCache(3, 1)
        for i in range(3):
            kv = make_kv(i)
            cache.append(ChunkKV(i, kv.keys[..., :4], kv.values[..., :4]))
        cache.linear_states = make_states()  # append refuses such chunks; attach them after
        with pytest.raises(FormatError, match="head_dim 8"):
            RollingCache.restore(cache.snapshot())

    def test_linear_state_count_unlike_layers_is_format_error(self):
        cache = self.build_cache(5)  # entries of 2 layers, one state per layer
        del cache.linear_states[1]
        with pytest.raises(FormatError, match="1 linear states for entries of 2 layers"):
            RollingCache.restore(cache.snapshot())
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
        with pytest.raises(ShapeError, match="1 linear states for entries of 2 layers"):
            chunk_step(model, restored, self.STREAM.denoise_timesteps, SeededRng(7))
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
        (mlen,) = struct.unpack("<I", blob[:4])
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))
        # payload bytes (a key, a linear state) and the trailer itself
        for pos in (4 + mlen + 40, len(blob) - 100, len(blob) - 4, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[pos] ^= 0x01
            with pytest.raises(FormatError, match="checksum"):
                RollingCache.restore(bytes(flipped))

    def test_version_of_another_json_type_is_format_error(self):
        # read first, as the int snapshot() writes: 8.0 is not version 8
        blob = self.with_manifest(self.build_cache(5).snapshot(),
                                  lambda m: m.update(version=float(m["version"])))
        with pytest.raises(FormatError, match=r"unsupported snapshot version 8\.0"):
            RollingCache.restore(blob)

    def test_version_7_snapshot_is_format_error(self):
        # version 7 had this manifest, but stored each f64 array as a
        # [2, *shape] tensor of its high, then its low 32-bit halves
        cache = self.build_cache(5)
        blob = cache.snapshot()
        (mlen,) = struct.unpack("<I", blob[:4])
        manifest = json.loads(blob[4:4 + mlen])
        manifest["version"] = 7
        text = json.dumps(manifest, sort_keys=True).encode("utf-8")
        body = io.BytesIO(struct.pack("<I", len(text)) + text)
        body.seek(0, io.SEEK_END)
        arrays = [a for e in cache.entries() for a in (e.keys, e.values)]
        for a in arrays + [a for s in cache.linear_states for a in (s.L, s.H)]:
            bits = a.view("<u8")
            halves = [(bits >> np.uint64(32)).astype("<u4"), bits.astype("<u4")]
            write_tensor(body, np.stack(halves).view("<f4"))
        body = body.getvalue()
        with pytest.raises(FormatError, match="unsupported snapshot version 7"):
            RollingCache.restore(body + struct.pack("<I", zlib.crc32(body)))

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
        (mlen,) = struct.unpack("<I", blob[:4])
        payload = io.BytesIO()
        write_tensor(payload, np.zeros(shape, dtype=np.float32))
        write_tensor(payload, np.zeros((1, 8), dtype=np.float32))  # H, as written
        body = blob[:4 + mlen] + payload.getvalue()
        with pytest.raises(FormatError, match="no float32 view of an f64 array"):
            RollingCache.restore(body + struct.pack("<I", zlib.crc32(body)))
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

    def test_version_one_snapshot_is_unsupported(self):
        # version 1 was this layout without the trailer
        blob = self.with_manifest(self.build_cache(5).snapshot(),
                                  lambda m: m.update(version=1))[:-4]
        with pytest.raises(FormatError, match="unsupported snapshot version 1"):
            RollingCache.restore(blob)

    def test_corrupt_manifest_rejected(self):
        blob = bytearray(self.build_cache(5).snapshot())
        blob[8] ^= 0xFF  # flip a manifest byte
        with pytest.raises(FormatError):
            RollingCache.restore(bytes(blob))

    def test_snapshot_size_constant_in_stream_length(self):
        short = self.build_cache(10).snapshot()
        long = self.build_cache(100).snapshot()
        # the tensor payload is byte-for-byte the same size; only the JSON
        # manifest may drift by a few digits of chunk index
        payload_short = len(short) - struct.unpack("<I", short[:4])[0]
        payload_long = len(long) - struct.unpack("<I", long[:4])[0]
        assert payload_short == payload_long
        assert abs(len(short) - len(long)) < 64
