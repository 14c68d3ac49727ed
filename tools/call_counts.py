"""Calls per steady chunk or per distill step:
python3 tools/call_counts.py ROOT [WINDOW | distill]

With the hybridstream package under ROOT/src, counts Python and C
function calls (sys.setprofile "call" and "c_call" events) and prints
their means. The counts are exact and repeat run to run; compare two
checkouts at the same argument.

- WINDOW (default the config's 9): streams the hybrid-mode StreamConfig
  (seed 0, window WINDOW frames), runs 30 warm-up chunks, then counts
  each of the next 10 chunks: its noise draw and its chunk_step call,
  as run_stream makes them.
- distill: trains the default DistillConfig on the 2-D world, seeded as
  `hybridstream distill --seed 0` seeds it, once to warm up, then again
  counted, and gives the calls per generator step: from the first step's
  lambda_override call to the last one's, less the marker's own calls.
"""

import os
import sys

import numpy as np

WARMUP = 30
COUNTED = 10


def stream_counts(window: dict) -> str:
    from hybridstream import engine
    from hybridstream.numerics import SeededRng

    cfg = engine.config_for_mode("hybrid", engine.StreamConfig(seed=0, **window))
    model = engine.ToyDenoiser(cfg)
    cache = model.new_cache()
    rng = SeededRng(cfg.seed).derive(engine._NOISE_STREAM)
    ts, shape = cfg.denoise_timesteps, (cfg.chunk_tokens, cfg.model_dim)
    for _ in range(WARMUP):
        engine.chunk_step(model, cache, ts, rng.normal(shape, count=len(ts)))

    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    for _ in range(COUNTED):
        sys.setprofile(profile)
        engine.chunk_step(model, cache, ts, rng.normal(shape, count=len(ts)))
        sys.setprofile(None)
    return (f"window {cfg.window_frames}: Python calls {counts['call'] / COUNTED:.1f}, "
            f"C calls {counts['c_call'] / COUNTED:.1f} per steady chunk "
            f"(mean of chunks {WARMUP}-{WARMUP + COUNTED - 1})")


def distill_counts() -> str:
    from hybridstream import cli, distill
    from hybridstream.numerics import SeededRng

    cfg = distill.DistillConfig()

    def inputs():
        master = SeededRng(0)
        world = distill.GaussianWorld.random(master.derive(cli._WORLD_STREAM), 2)
        gen = distill.AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        return world, gen, master.derive(cli._TRAIN_STREAM)

    distill.train(cfg, *inputs())
    counts = {"call": 0, "c_call": 0}
    marks = []

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    def mark(step, s_index):
        marks.append((counts["call"], counts["c_call"]))
        return cfg.lam  # as with no override

    sys.setprofile(profile)
    distill.train(cfg, *inputs(), lambda_override=mark)
    mark(0, 0)  # two marks in a row: the marker's own calls
    mark(0, 0)
    sys.setprofile(None)
    own = np.subtract(marks[-1], marks[-2])
    per_step = np.subtract(marks[cfg.steps - 1], marks[0]) / (cfg.steps - 1) - own
    return (f"distill: Python calls {per_step[0]:.1f}, C calls {per_step[1]:.1f} per "
            f"generator step (mean of {cfg.steps - 1} step-to-step spans, default config)")


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[1], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    if len(argv) == 3 and argv[2] == "distill":
        print(distill_counts())
    else:
        print(stream_counts({"window_frames": int(argv[2])} if len(argv) == 3 else {}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
