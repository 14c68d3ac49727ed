#!/usr/bin/env python3
"""Walk through the rolling KV cache: sink pinning, FIFO eviction, and the
capped relative temporal indices the model gives entries from their
distance behind a querying chunk.
"""

import numpy as np

from hybridstream import ChunkKV, RollingCache, RoPEConfig, SeededRng, temporal_index

rng = SeededRng(0)


def make_chunk(idx):
    shape = (1, 1, 4, 8)  # layers, heads, tokens, head_dim
    return ChunkKV(idx, rng.normal(shape), rng.normal(shape))


# A window of 3 chunks plus one pinned sink chunk; the model's temporal cap is 21.
cache = RollingCache(capacity_chunks=3, sink_chunks=1)
rope_cfg = RoPEConfig(8, max_temporal_index=21)

print("appending chunks 0..9 (chunk 0 is the sink)\n")
for i in range(10):
    evicted = cache.append(make_chunk(i))
    window = [e.chunk_index for e in cache.window_entries]
    note = f"evicted chunk {evicted.chunk_index}" if evicted else "no eviction"
    print(f"  append {i}: window={window}  ({note})")

print("\nThe sink never leaves:", [e.chunk_index for e in cache.sink_entries])
print("Cached tokens stay bounded:", cache.total_cached_tokens)

# Relative temporal indices: the cache gives each entry's distance behind the
# querying chunk; the querying chunk saturates at the cap, nearer entries get
# larger indices, and the sink pins to the origin.
def show(cache, query):
    for entry, dist in cache.visible_kv(query):
        kind = "sink  " if entry.chunk_index < cache.sink_chunks else "window"
        rel = temporal_index(query, rope_cfg, dist)
        print(f"  {kind} chunk {entry.chunk_index:3d} (distance {dist:3d}) -> "
              f"relative temporal index {rel}")


print("\nvisible_kv for query chunk 9:")
show(cache, 9)

print("\nvisible_kv for query chunk 500 (same window shape; the query saturates at the cap):")
cache2 = RollingCache(capacity_chunks=3, sink_chunks=1)
for i in range(501):
    cache2.append(make_chunk(i))
show(cache2, 500)

# Snapshots round-trip exactly, including float64 content.
blob = cache.snapshot()
restored = RollingCache.restore(blob)
same = all(
    np.array_equal(a.keys, b.keys) and da == db
    for (a, da), (b, db) in zip(cache.visible_kv(9), restored.visible_kv(9))
)
print(f"\nsnapshot is {len(blob)} bytes; restore reproduces visible_kv: {same}")
