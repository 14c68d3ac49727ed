"""Wall-clock gate of the cost model, in fresh processes:
python3 tools/cost_ratio.py ROOT [N]

Runs tests/test_acceptance.py's alternated_streams under ROOT (the default
StreamConfig in hybrid and dense21 mode, 40 chunks each, streamed chunk by
chunk in alternation) in N fresh processes (default 20), one after another.
Each prints the ratio test_cost_model_hybrid_vs_dense21 gates: dense21's
median chunk time over hybrid's, chunks 10 on. The ratio is bimodal across
processes, so one process says little; the median of many says more. Ends
with the median ratio and how many fall below the gate's 1.2.
"""

import os
import statistics
import subprocess
import sys

GATE = 1.2

ONE_PROCESS = """
import os, sys
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
import numpy as np
import hybridstream
from test_acceptance import TOY, alternated_streams
from hybridstream.engine import config_for_mode
if not os.path.samefile(os.path.dirname(hybridstream.__file__),
                        os.path.join(root, "src", "hybridstream")):
    raise SystemExit(f"imported hybridstream from {hybridstream.__file__}")
(_, h_ms), (_, d_ms) = alternated_streams(
    [config_for_mode("hybrid", TOY), config_for_mode("dense21", TOY)], 40)
print(float(np.median(d_ms[10:]) / np.median(h_ms[10:])))
"""


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[1], file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1])
    n = int(argv[2]) if len(argv) == 3 else 20
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    ratios = []
    for i in range(n):
        out = subprocess.run([sys.executable, "-c", ONE_PROCESS, root], env=env,
                             check=True, capture_output=True, text=True).stdout
        ratios.append(float(out.split()[-1]))
        print(f"{i + 1:3d} {ratios[-1]:.3f}", flush=True)
    below = sum(r < GATE for r in ratios)
    print(f"median {statistics.median(ratios):.3f}  range {min(ratios):.3f}-{max(ratios):.3f}  "
          f"below {GATE}: {below} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
