"""Latent drift between two checkouts: python3 tools/drift.py ROOT_A ROOT_B

Runs every stream of tools/digests.py (the same configs, seeds and chunk
counts) under ROOT_A/src and under ROOT_B/src, one subprocess per
checkout, and prints per stream the largest relative latent difference
(per chunk, the largest |B - A| over the largest |A|, as verify's
stream.reference_equivalence measures it) and whether the per-chunk op
counts are equal. A change that only moves rounding reads about 1e-16
here. Exits 1 when a stream drifts above 1e-12 or its op counts differ.
Each checkout's subprocess is this script run as `drift.py --dump ROOT
PATH`, which saves that checkout's latents and op counts to PATH in a
temporary directory; nothing else is written.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-12


def dump(root: str, path: str) -> None:
    """Run the streams under root/src and save each one's latents and op
    counts to path (an .npz)."""
    sys.path.insert(0, os.path.join(root, "src"))
    from hybridstream import engine

    from digests import stream_runs

    arrays = {}
    for name, (cfg, n) in stream_runs(engine).items():
        r = engine.run_stream(cfg, n)
        arrays[f"{name}/latents"] = np.stack(r.latents)
        arrays[f"{name}/counts"] = np.stack([r.chunk_score_evals, r.chunk_pooled_scores])
    np.savez(path, **arrays)


def run(root: str, path: str) -> dict:
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", root, path],
                   check=True)
    with np.load(path) as f:
        return {key: f[key] for key in f.files}


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--dump":
        dump(argv[2], argv[3])
        return 0
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        a, b = (run(os.path.abspath(root), os.path.join(tmp, f"{side}.npz"))
                for side, root in zip("AB", argv[1:]))
    ok = True
    for name in (key[:-len("/latents")] for key in a if key.endswith("/latents")):
        xa, xb = a[f"{name}/latents"], b[f"{name}/latents"]
        counts_equal = np.array_equal(a[f"{name}/counts"], b[f"{name}/counts"])
        if xa.shape == xb.shape:
            drift = max(np.abs(yb - ya).max() / np.abs(ya).max() for ya, yb in zip(xa, xb))
        else:
            drift = np.inf
        ok &= drift <= TOL and counts_equal
        print(f"{name:16s} max relative drift {drift:.1e}  op counts "
              + ("equal" if counts_equal else "DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
