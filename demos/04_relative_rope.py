#!/usr/bin/env python3
"""Capped relative rotary positions: indices saturate at the fixed cap
MAX_TEMPORAL_INDEX, rotations preserve norms, and attention logits depend
only on the offset between query and key positions.
"""

import numpy as np

from hybridstream import MAX_TEMPORAL_INDEX, SeededRng, apply_rope, temporal_index

rng = SeededRng(4)

print(f"temporal_index saturates at the cap, {MAX_TEMPORAL_INDEX}:")
for pos in (0, 5, 20, 21, 22, 300, 10**6):
    print(f"  position {pos:>7} -> {temporal_index(pos)}")

x = rng.normal((5, 16))
rot = apply_rope(x, 13)
drift = np.abs(np.linalg.norm(rot, axis=1) - np.linalg.norm(x, axis=1)).max()
print(f"\nrotations are isometries: max per-token norm drift {drift:.2e}")

# Relative property: shift query and key positions by the same amount and
# the dot product (the attention logit) does not move.
q = rng.normal((1, 16))
k = rng.normal((1, 16))
print("\nq at m, k at n: logit depends only on m - n")
for m, n in [(9, 4), (14, 9), (21, 16)]:
    logit = (apply_rope(q, m) @ apply_rope(k, n).T)[0, 0]
    print(f"  m={m:2d} n={n:2d} (offset 5): logit = {logit:+.10f}")

# Each token's spatial index is its place in the chunk; that axis has no
# cap, so a long chunk rotates its last token as exactly as its first.
long = rng.normal((4096, 16))
far = apply_rope(long, 21)
drift = np.abs(np.linalg.norm(far, axis=1) - np.linalg.norm(long, axis=1)).max()
print(f"\na 4096-token chunk (spatial indices 0..4095): finite={np.isfinite(far).all()}, "
      f"max norm drift {drift:.2e}")

# Past the cap the caller must saturate first; handing an uncapped index to
# apply_rope is a contract violation.
try:
    apply_rope(x, 22)
except Exception as exc:
    print(f"apply_rope(t_index=22) -> {type(exc).__name__}: {exc}")
