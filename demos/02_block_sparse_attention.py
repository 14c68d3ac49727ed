#!/usr/bin/env python3
"""Block-sparse attention step by step: pool blocks into importance scores,
keep the top slice per query row (plus forced blocks), then gather each
row's active blocks into one softmax and compare against dense attention
and against the online-softmax reference that visits blocks one at a time.
"""

import numpy as np

from hybridstream import (
    BlockConfig,
    SeededRng,
    block_means,
    block_scores,
    build_mask,
    softmax_rows,
    sparse_attention,
)
from hybridstream.verify import row_loop_attention

rng = SeededRng(1)
BLOCK = 4
d = 8
q = rng.normal((2 * BLOCK, d))   # 2 query blocks
k = rng.normal((6 * BLOCK, d))   # 6 key blocks
v = rng.normal((6 * BLOCK, d))

# Pooled importance: mean of each query block dotted with each key block mean.
cfg = BlockConfig(keep_ratio=0.34, forced_blocks=frozenset({0}))
scores = block_scores(block_means(q, BLOCK), block_means(k, BLOCK))
print("pooled block scores (2 query blocks x 6 key blocks):")
print(np.array_str(scores, precision=3))

mask = build_mask(scores, cfg)
print("\nmask (block 0 forced, quota = max(1 forced, ceil(0.34 * 6)) = 3):")
for i, row in enumerate(mask.active.astype(int)):
    print(f"  query block {i}: {row}  active={np.flatnonzero(row).tolist()}")

scale = 1.0 / np.sqrt(d)
sparse_out = sparse_attention(q, k, v, mask, scale)

# Ground truth: dense attention with -inf on the inactive blocks.
s = (q @ k.T) * scale
for i in range(mask.shape[0]):
    for j in range(mask.shape[1]):
        if not mask.active[i, j]:
            s[i * BLOCK:(i + 1) * BLOCK, j * BLOCK:(j + 1) * BLOCK] = -np.inf
dense_out = softmax_rows(s) @ v
print(f"\nmax |gathered softmax - masked dense| = {np.abs(sparse_out - dense_out).max():.2e}")

# The online softmax folds in one active block at a time. Visit order never
# matters: the running max / normalizer make the accumulation exact in any
# block order, and it agrees with the gathered softmax.
in_order = row_loop_attention(q, k, v, mask, scale, range(6))
perm = [int(j) for j in np.random.default_rng(2).permutation(6)]
permuted = row_loop_attention(q, k, v, mask, scale, perm)
print(f"max drift of the online softmax when visiting blocks in order {perm}: "
      f"{np.abs(permuted - in_order).max():.2e}")
print(f"max |online softmax - gathered softmax| = {np.abs(in_order - sparse_out).max():.2e}")

# keep_ratio = 1.0 is plain dense attention.
dense_cfg = BlockConfig(keep_ratio=1.0)
full_mask = build_mask(scores, dense_cfg)
full = sparse_attention(q, k, v, full_mask, scale)
plain = softmax_rows((q @ k.T) * scale) @ v
print(f"dense limit check: {np.abs(full - plain).max():.2e}")
