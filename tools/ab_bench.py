"""Alternated benchmark pairs of two checkouts:
python3 tools/ab_bench.py ROOT_A ROOT_B WORKLOAD [PAIRS] [SECONDS]

Runs `perfbench/run.py --workload WORKLOAD --seed S --seconds SECONDS
--trace 0` of ROOT_A and of ROOT_B (each under its own root, on its own
src/), one run at a time, PAIRS times (default 10, for 30 s each). Pair i
(from 1) runs seed 500 + i for both, A first in odd pairs and B first in
even ones, so neither side always meets the host warm. Prints each pair's
end-to-end metrics (the JSON result line's), then per metric A's median
and quartiles, B's median and change, and in how many pairs B was better,
"better" as BENCHMARK.json states it; for a metric BENCHMARK.json bounds,
also its bound and whether B's median is worse than A's by more than it
(the rule a change that claims no gain is held to). Exits 1 as soon as a
run exits non-zero or reports failed > 0. Beyond what run.py itself
writes (perfbench/out/), nothing is written.
"""

import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 500


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["failed"] > 0:
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{root}: seed {seed} exited {proc.returncode}"
                         + ("" if result is None else f", {result['failed']} failed ops"))
    return {name: m["value"] for name, m in result["metrics"].items()}


def end_to_end(root: str) -> dict:
    """Per end-to-end metric of BENCHMARK.json: (lower is better, bound)."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: (m["better"] == "lower", m["bound"])
                for m in json.load(f)["end_to_end"]}


def main(argv) -> int:
    if len(argv) not in (4, 5, 6):
        print(__doc__.strip().splitlines()[1], file=sys.stderr)
        return 2
    root_a, root_b = (os.path.abspath(r) for r in argv[1:3])
    workload = argv[3]
    pairs = int(argv[4]) if len(argv) > 4 else 10
    seconds = float(argv[5]) if len(argv) > 5 else 30.0
    if pairs < 2:  # quartiles need two runs a side
        print("PAIRS must be at least 2", file=sys.stderr)
        return 2
    metrics = end_to_end(root_a)
    runs = {"A": [], "B": []}
    for i in range(1, pairs + 1):
        order = "AB" if i % 2 else "BA"
        for side in order:
            runs[side].append(run(root_a if side == "A" else root_b, workload,
                                  SEED_BASE + i, seconds))
        a, b = runs["A"][-1], runs["B"][-1]
        print(f"pair {i:2d} seed {SEED_BASE + i} {order[0]} first: "
              + "  ".join(f"{name} {a[name]:.6g} -> {b[name]:.6g}" for name in a), flush=True)
    print(f"{workload}, {pairs} pairs of {seconds:g} s: A median [quartiles] -> B median")
    for name in runs["A"][0]:
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        ma, mb = statistics.median(a), statistics.median(b)
        lower, bound = metrics.get(name, (True, None))
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        line = (f"  {name:<18} {ma:.6g} [{q1:.6g}, {q3:.6g}] -> {mb:.6g} ({change}), "
                f"B better in {wins}/{pairs}")
        if bound is not None:
            worse = (mb - ma if lower else ma - mb) > bound * abs(ma)
            line += f"; bound {bound:.0%}: B {'worse by more' if worse else 'within'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
