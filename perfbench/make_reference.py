#!/usr/bin/env python3
"""Regenerate perfbench/reference.npz: the latent sketch of every chunk of the
first streams that `run.py` runs for seeds 0-19 on each stream workload.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

A later commit may change how a latent is computed but not what it is, so
the stored sketches stay valid until a change is meant to alter outputs.
"""

import numpy as np

import run

SEEDS = range(20)
STREAMS_PER_SEED = 2


def main() -> None:
    hs = run.import_package()
    sketches = {}
    for workload in run.STREAM_WORKLOADS:
        for seed in SEEDS:
            for k in range(STREAMS_PER_SEED):
                cfg = run.stream_config(hs, workload, run.stream_seed(seed, k))
                result = hs.engine.run_stream(cfg, run.STREAM_CHUNKS)
                sketches[run.reference_key(workload, cfg.seed)] = run.sketch(result.latents)
        print(f"{workload}: {len(SEEDS) * STREAMS_PER_SEED} streams")
    np.savez_compressed(run.REFERENCE, **sketches)
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
