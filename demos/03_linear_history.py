#!/usr/bin/env python3
"""The compressed history pathway: absorb evicted chunks into the (L, H)
state, query it in constant time, and verify against direct batch sums.
The state holds only what it absorbed; the readout's output projection is
a layer weight of the model (ToyDenoiser's "history_proj"), passed in.
"""

import numpy as np

from hybridstream import (
    LinearState,
    RoPEConfig,
    SeededRng,
    absorb_evicted,
    apply_rope,
    elu_plus_one,
    history_output,
    position_tables,
)

HEADS, HEAD_DIM, TOKENS = 2, 8, 6
MODEL_DIM = HEADS * HEAD_DIM
rope_cfg = RoPEConfig(HEAD_DIM, max_temporal_index=21)
rng = SeededRng(3)

# the layer's output projection: a model weight, not part of the state
projection = rng.normal((MODEL_DIM, MODEL_DIM)) / np.sqrt(MODEL_DIM)
state = LinearState.zeros(HEADS, HEAD_DIM)
print(f"fresh state: {state.evicted_tokens} tokens absorbed, {state.nbytes} bytes")

# Queries are rotated at their chunk's temporal index and each token's place
# in the chunk; position_tables builds those tables once, and a readout
# takes its temporal index's row.
q = rng.normal((HEADS, 4, HEAD_DIM))
cos, sin = position_tables(rope_cfg, 4)
tables_5 = cos[5], sin[5]
tables_21 = cos[21], sin[21]

# Queries against an empty state are exactly zero: no history, no signal.
out = history_output(state, q, *tables_5, projection)
print("empty-state output is all zeros:", bool((out == 0).all()))

# Absorb a stream of evicted chunks and track direct sums alongside.
L_direct = np.zeros_like(state.L)
H_direct = np.zeros_like(state.H)
chunks = []
for c in range(30):
    k = rng.normal((HEADS, TOKENS, HEAD_DIM))
    v = rng.normal((HEADS, TOKENS, HEAD_DIM))
    chunks.append((k, v))
    state = absorb_evicted(state, k, v, rope_cfg)  # a new state; the old one is unchanged
    fk = elu_plus_one(k)
    for h in range(HEADS):
        rot = apply_rope(fk[h], 0, rope_cfg)
        L_direct[h] += rot.T @ v[h]
        H_direct[h] += fk[h].mean(axis=0)

print(f"\nafter 30 evicted chunks ({state.evicted_tokens} tokens):")
print(f"  |L - direct sums| = {np.abs(state.L - L_direct).max():.2e}")
print(f"  |H - direct sums| = {np.abs(state.H - H_direct).max():.2e}")
print(f"  state is still {state.nbytes} bytes; it never grows")

out = history_output(state, q, *tables_21, projection)
print(f"  query output shape {out.shape}, finite: {bool(np.isfinite(out).all())}")

# The feature map (elu + 1) keeps the normalizer strictly positive even for
# adversarial queries.
hostile = rng.normal((HEAD_DIM,)) * 50
dens = [elu_plus_one(hostile) @ state.H[h] + 1e-6 for h in range(HEADS)]
print(f"  worst-case denominator for a 50-sigma query: {min(dens):.3e} (> 0)")

# Scaling every absorbed value by c scales the output by c: the state is
# linear in what it stores.
scaled = LinearState.zeros(HEADS, HEAD_DIM)
for k, v in chunks:
    scaled = absorb_evicted(scaled, k, 2.0 * v, rope_cfg)
out2 = history_output(scaled, q, *tables_21, projection)
print(f"  linearity in V: |out(2v) - 2 out(v)| = {np.abs(out2 - 2 * out).max():.2e}")
