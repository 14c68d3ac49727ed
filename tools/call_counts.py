"""Calls per steady chunk: python3 tools/call_counts.py ROOT [WINDOW]

Streams the hybrid-mode StreamConfig (seed 0, window WINDOW frames,
default the config's 9) with the hybridstream package under ROOT/src,
runs 30 warm-up chunks, then counts the Python and C function calls
(sys.setprofile "call" and "c_call" events) of each of the next 10
chunk_step calls, and prints their means. The counts are exact and
repeat run to run; compare two checkouts at the same window.
"""

import os
import sys

WARMUP = 30
COUNTED = 10


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1])
    sys.path.insert(0, os.path.join(root, "src"))
    from hybridstream import engine
    from hybridstream.numerics import SeededRng

    window = {"window_frames": int(argv[2])} if len(argv) == 3 else {}
    cfg = engine.config_for_mode("hybrid", engine.StreamConfig(seed=0, **window))
    model = engine.ToyDenoiser(cfg)
    cache = model.new_cache()
    rng = SeededRng(cfg.seed).derive(engine._NOISE_STREAM)
    for _ in range(WARMUP):
        engine.chunk_step(model, cache, cfg.denoise_timesteps, rng)

    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    for _ in range(COUNTED):
        sys.setprofile(profile)
        engine.chunk_step(model, cache, cfg.denoise_timesteps, rng)
        sys.setprofile(None)
    print(f"window {cfg.window_frames}: Python calls {counts['call'] / COUNTED:.1f}, "
          f"C calls {counts['c_call'] / COUNTED:.1f} per steady chunk "
          f"(mean of chunks {WARMUP}-{WARMUP + COUNTED - 1})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
