#!/usr/bin/env python3
"""Run the full streaming loop and compare attention modes: dense with a
long window against the hybrid design (short sparse window + history
state). Operation counts are exact; timing is indicative.
"""

import numpy as np

from hybridstream import StreamConfig, config_for_mode, run_stream

cfg = StreamConfig()  # 3 frames/chunk, window 9, sink 1, top-20% blocks
CHUNKS = 30

print(f"generating {CHUNKS} chunks per mode "
      f"({cfg.chunk_tokens} tokens/chunk, {cfg.layers} layers, {cfg.heads} heads)\n")
print(f"{'mode':>8} | {'ms/chunk':>9} | {'score evals/chunk':>17} | {'peak tokens':>11}")
print("-" * 56)
results = {}
for mode in ("dense21", "swa", "swa_sink", "hybrid"):
    res = run_stream(config_for_mode(mode, cfg), CHUNKS)
    results[mode] = res
    ms = float(np.median(res.chunk_ms[5:]))
    print(f"{mode:>8} | {ms:9.2f} | {res.chunk_score_evals[-1]:17d} | "
          f"{res.peak_cached_tokens:11d}")

h, d = results["hybrid"], results["dense21"]
print(f"\nhybrid does {d.chunk_score_evals[-1] // h.chunk_score_evals[-1]}x fewer "
      f"score evaluations per chunk than dense window-21,")
print(f"and runs {np.median(d.chunk_ms[5:]) / np.median(h.chunk_ms[5:]):.1f}x "
      f"faster per chunk at this scale.")

# Streams are reproducible bit for bit.
again = run_stream(config_for_mode("hybrid", cfg), CHUNKS)
identical = all(np.array_equal(a, b) for a, b in zip(h.latents, again.latents))
print(f"\nsame seed, same latents: {identical}")

norms = np.array([np.linalg.norm(x) for x in h.latents])
print(f"per-chunk output norms stay in a band: "
      f"[{norms.min():.0f}, {norms.max():.0f}] over {CHUNKS} chunks")
