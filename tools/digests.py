"""Bit-identity digests of a checkout's outputs: python3 tools/digests.py ROOT

Prints one 16-hex-digit sha256 prefix per output of the hybridstream
package under ROOT/src: run_stream latents and op counts for every
BENCH_MODES entry at windows 9 and 45 (40 chunks, seed 5), a 3-head
config (30 chunks), keep_ratio 0.5 at window 45 (24 chunks), the default
DistillConfig's parameter trajectory (seed 4), the snapshot bytes of the
default StreamConfig's cache after 8 chunks, and every file that
`hybridstream generate --chunks 4 --seed 3` and `hybridstream distill
--seed 4` write. Run it on two checkouts and compare the listings: a
change that keeps outputs bit-identical leaves every line equal but the
snapshot's, which changes with the snapshot format alone. A change to a
config's fields also moves the manifests that echo them (and their
config_hash), with every latent, tensor and trace line equal. When stream
lines move, tools/drift.py runs the same streams in both checkouts and
says how far their latents lie apart.
"""

import glob
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np


def stream_runs(engine):
    """The run_stream calls whose outputs the stream lines digest, in line
    order: name -> (config, chunks), built with `engine`'s StreamConfig."""
    runs = {}
    for w in (9, 45):
        for mode in engine.BENCH_MODES:
            cfg = engine.config_for_mode(mode, engine.StreamConfig(window_frames=w, seed=5))
            runs[f"{mode}@{w}"] = (cfg, 40)
    runs["3-head"] = (engine.StreamConfig(seed=5, heads=3), 30)
    runs["ratio0.5@45"] = (engine.StreamConfig(window_frames=45, keep_ratio=0.5, seed=5), 24)
    runs["snapshot@8"] = (engine.StreamConfig(), 8)
    return runs


def h(*arrays):
    m = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        m.update(str((a.dtype, a.shape)).encode())
        m.update(a.tobytes())
    return m.hexdigest()[:16]


def main(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import hybridstream as hs
    from hybridstream import cli, engine

    out = {}
    for name, (cfg, n) in stream_runs(engine).items():
        r = engine.run_stream(cfg, n)
        if name == "snapshot@8":
            out[name] = hashlib.sha256(r.final_cache.snapshot()).hexdigest()[:16]
        else:
            out[name] = h(*r.latents, r.chunk_score_evals, r.chunk_pooled_scores)
    master = hs.SeededRng(4)
    world = hs.GaussianWorld.random(master.derive(cli._WORLD_STREAM), 2)
    gen = hs.AffineGenerator(0.5 * np.eye(2), np.zeros(2))
    res = hs.distill.train(hs.DistillConfig(), world, gen, master.derive(cli._TRAIN_STREAM))
    out["distill-trajectory"] = h(res.parameter_trajectory())
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in (["generate", "--chunks", "4", "--seed", "3"], ["distill", "--seed", "4"]):
            d = os.path.join(tmp, cmd[0])
            subprocess.run([sys.executable, "-m", "hybridstream", *cmd, "--out", d],
                           env=env, check=True, capture_output=True)
            for p in sorted(glob.glob(os.path.join(d, "*"))):
                with open(p, "rb") as f:
                    out[f"{cmd[0]}/{os.path.basename(p)}"] = hashlib.sha256(f.read()).hexdigest()[:16]
    for k, v in out.items():
        print(f"{k:24s} {v}")


if __name__ == "__main__":
    main(os.path.abspath(sys.argv[1]))
