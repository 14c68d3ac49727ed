#!/usr/bin/env python3
"""Benchmark for hybridstream.

Run from the repository root:

    python3 perfbench/run.py --workload stream_hybrid --seed 0 --seconds 30 --trace 0

Workloads (an op is one streamed chunk, or one distillation generator step):

- stream_hybrid: the default StreamConfig in hybrid mode. Its masks hold
  only the forced sink and self blocks, so top-k block selection never runs.
- stream_wide_sparse: the same with a 45-frame window, the only workload
  where top-k block selection picks blocks.
- distill: the default DistillConfig with a 2-D world, seeded the way
  `hybridstream distill` seeds it.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned. With `--trace 0` the run measures the
end-to-end metrics with nothing wrapped, timing each op next to a fixed
kernel that tells how fast the shared host runs just then (HostSpeed). With
`--trace 1` it spends half the time untraced and half traced, and reports
per-module metrics from the traced half (see spans.py). Every op is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.npz"

STREAM_WORKLOADS = {
    "stream_hybrid": {},
    "stream_wide_sparse": {"window_frames": 45},
}
WORKLOADS = (*STREAM_WORKLOADS, "distill")

STREAM_CHUNKS = 48       # per stream; both stream workloads reach steady state well before
# The host runs the same code at two speeds about 1.7x apart, switching within
# a second or staying at one for tens of seconds (README), so raw times of
# one run differ from the next by up to that factor. Every op and set-up is
# therefore timed next to a fixed kernel (HostSpeed), and the bounded timings
# are scaled to the speed at which that kernel takes CAL_REF_MS. The value
# only sets the scale: it is about the kernel's time, between the program's
# ops, at the fast speed of the 2-vCPU x86-64 VM the benchmark was set on.
CAL_REF_MS = 0.25
SETUP_REPS = 3           # set-ups timed back to back at each sampling point
SETUP_EVERY_S = 3.0      # least time between sampling points
# The printed tail is the highest of p90/p95/p99 that keeps at least ten ops
# above it in a run of run_seconds at the baseline. It is fixed per workload,
# so a change that makes ops faster is not compared at a higher percentile.
TAIL_PERCENTILE = {"stream_hybrid": 95.0, "stream_wide_sparse": 95.0, "distill": 99.0}
LATENT_RTOL = 1e-9       # reference check, relative to the chunk's latent norm
DISTILL_TOL = 1e-3       # final |b - mean| and |AA^T - cov|_F must be below this
SKETCH_DIRECTIONS = 3

SELF_TIME_SPANS = (
    "rope",
    "sparse_local.sparse_attention",
    "sparse_local.block_scores",
    "sparse_local.build_mask",
    "linear_history.history_output",
    "linear_history.absorb_evicted",
    "stream_cache.visible_kv",
    "stream_cache.append",
    "engine.forward",
    "engine.hybrid_attention",
    "numerics.rng",
    "distill.dmd_gradient",
    "distill.gaussian_kl",
    "distill.train",
)
PER_OP_COUNTS = (
    "rope.calls",
    "rope.rows_rotated",
    "sparse_local.score_evals",
    "sparse_local.pooled_scores",
    "sparse_local.selected_blocks",
    "linear_history.absorbs",
    "stream_cache.evictions",
    "engine.passes",
    "numerics.rng.draws",
)


# -- the program under test ---------------------------------------------------

def _package_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "hybridstream" or name.startswith("hybridstream.")}


def _purge_package() -> None:
    for name in _package_modules():
        del sys.modules[name]


def import_package():
    """Import hybridstream from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "hybridstream" / "__init__.py").is_file():
        raise SystemExit(f"error: no hybridstream package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    hs = importlib.import_module("hybridstream")
    if Path(hs.__file__).resolve().parent != src / "hybridstream":
        raise SystemExit(f"error: imported hybridstream from {hs.__file__}, not from {src}")
    return hs


def stream_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def stream_config(hs, workload: str, seed: int):
    base = hs.StreamConfig(seed=seed, **STREAM_WORKLOADS[workload])
    return hs.config_for_mode("hybrid", base)


def distill_inputs(hs, seed: int):
    """World, starting generator and training RNG, derived as `hybridstream
    distill --seed` derives them."""
    cli = importlib.import_module("hybridstream.cli")
    master = hs.SeededRng(seed)
    world = hs.GaussianWorld.random(master.derive(cli._WORLD_STREAM), 2)
    gen = hs.AffineGenerator(0.5 * np.eye(2), np.zeros(2))
    return world, gen, master.derive(cli._TRAIN_STREAM)


class HostSpeed:
    """A fixed kernel of the kind of work the program does (small matrix
    products, an elementwise rotation, a row softmax), a few tenths of a ms,
    timed next to each op to tell how fast the host is running just then."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 16))
        self.w = rng.standard_normal((16, 16)) / 4
        self.cos, self.sin = np.cos(self.x), np.sin(self.x)
        self.kernel_ms = []   # every measurement, in order

    def measure(self) -> float:
        """Run the kernel once; record its time and return when it ended."""
        start = time.perf_counter()
        for _ in range(6):
            a = self.x @ self.w
            a = a * self.cos + np.roll(a, 1, axis=1) * self.sin
            b = np.exp(a - a.max(axis=1, keepdims=True))
            b /= b.sum(axis=1, keepdims=True)
            for j in range(0, 64, 16):
                b[j:j + 16] @ b[j:j + 16].T
        end = time.perf_counter()
        self.kernel_ms.append((end - start) * 1e3)
        return end


def speed_model(hs, speed: HostSpeed):
    """ToyDenoiser that measures the host speed once per chunk, at the start of
    the chunk's cache pass. Its outputs are those of ToyDenoiser; run_stream
    counts the kernel in the chunk's time, and the caller takes it out."""

    class Model(hs.ToyDenoiser):
        def compute_chunk_kv(self, *args, **kwargs):
            speed.measure()
            return super().compute_chunk_kv(*args, **kwargs)

    return Model


class SetupClock:
    """Times set-ups: a fresh package import plus what the first op needs, the
    model and its cache for a stream, the world and generator for distill.
    numpy and scipy are imported once beforehand and not counted.

    Set-ups are timed SETUP_REPS at a time, at the start and again between op
    groups, at least SETUP_EVERY_S apart, so they are spread over the run.
    Each is scaled to the reference speed by the kernel timed just before it."""

    def __init__(self, workload: str, seed: int, speed: HostSpeed):
        import scipy.special  # noqa: F401

        self.workload, self.seed, self.speed = workload, seed, speed
        self.times = []       # seconds at the reference speed
        self.last = 0.0

    def sample(self):
        """Time SETUP_REPS set-ups; return the package of the last."""
        for _ in range(SETUP_REPS):
            self.speed.measure()
            _purge_package()
            start = time.perf_counter()
            hs = import_package()
            if self.workload == "distill":
                distill_inputs(hs, stream_seed(self.seed, 0))
            else:
                hs.ToyDenoiser(stream_config(hs, self.workload, stream_seed(self.seed, 0))).new_cache()
            took = time.perf_counter() - start
            self.times.append(took * CAL_REF_MS / self.speed.kernel_ms[-1])
        self.last = time.perf_counter()
        return hs

    def between_groups(self) -> None:
        """Sample again if it is time, then put back the package the run uses."""
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        in_use = _package_modules()
        self.sample()
        _purge_package()
        sys.modules.update(in_use)

    def seconds(self) -> float:
        return statistics.median(self.times)


# -- closed forms and checks --------------------------------------------------

def warmup_chunks(cfg) -> int:
    """First steady-state chunk: sink and window are full and the history
    state has absorbed at least one chunk."""
    return cfg.sink_chunks + cfg.capacity_chunks + 1


@dataclass
class StreamCounts:
    score_evals: np.ndarray    # per chunk
    pooled_scores: np.ndarray  # per chunk
    cached_tokens: np.ndarray  # after each chunk's append
    evictions: np.ndarray      # per chunk, 0 or 1


def expected_counts(cfg, chunks: int) -> StreamCounts:
    """Exact per-chunk work and cache figures, derived from the config alone.

    Chunk i sees min(i, sink) sink entries and min(i - sink, capacity)
    window entries. Every query block row keeps
    quota = max(forced, ceil(keep_ratio * t_n)) of its t_n key blocks, the
    forced ones being the visible sink blocks and the chunk's own.
    """
    bpc, bt = cfg.blocks_per_chunk, cfg.block_tokens
    units = (len(cfg.denoise_timesteps) + 1) * cfg.layers * cfg.heads

    def entries(n):
        return min(n, cfg.sink_chunks) + min(max(n - cfg.sink_chunks, 0), cfg.capacity_chunks)

    score, pooled, tokens, evictions = [], [], [], []
    for i in range(chunks):
        sinks = min(i, cfg.sink_chunks)
        t_n = (entries(i) + 1) * bpc
        quota = max((sinks + 1) * bpc, math.ceil(cfg.keep_ratio * t_n))
        score.append(units * bpc * quota * bt * bt)
        pooled.append(units * bpc * t_n)
        tokens.append(entries(i + 1) * cfg.chunk_tokens)
        evictions.append(int(i - cfg.sink_chunks >= cfg.capacity_chunks))
    return StreamCounts(*(np.asarray(v, dtype=np.int64)
                          for v in (score, pooled, tokens, evictions)))


def sketch(latents) -> np.ndarray:
    """Per chunk: the latent's norm and its projections on fixed unit vectors."""
    flat = np.stack([np.ravel(x) for x in latents])
    j = np.arange(1, SKETCH_DIRECTIONS + 1)[:, None]
    m = np.arange(flat.shape[1])[None, :]
    dirs = (np.sin(m * 12.9898 * j + 78.233 * j) * 43758.5453) % 1.0 - 0.5
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.column_stack([np.linalg.norm(flat, axis=1), flat @ dirs.T])


def load_reference() -> dict:
    with np.load(REFERENCE) as data:
        return {key: data[key] for key in data.files}


def reference_key(workload: str, seed: int) -> str:
    return f"{workload}-{seed}"


def check_stream(result, expected: StreamCounts, reference=None) -> np.ndarray:
    """Failed flag per chunk. A chunk fails if its latent is non-finite, its
    op counts differ from the closed form, or it drifts from the stored
    reference. The cache is only visible at the end of the stream, so a
    wrong final cache fails every chunk of the stream."""
    cfg = result.config
    n = len(result.latents)
    failed = np.array([not np.isfinite(x).all() for x in result.latents])
    failed |= result.chunk_score_evals != expected.score_evals[:n]
    failed |= result.chunk_pooled_scores != expected.pooled_scores[:n]
    cache = result.final_cache
    evicted = int(expected.evictions[:n].sum()) * cfg.chunk_tokens if cfg.linear_history else 0
    cache_ok = (cache.next_index == n
                and cache.total_cached_tokens == expected.cached_tokens[n - 1]
                and result.peak_cached_tokens == expected.cached_tokens[:n].max()
                and all(s.evicted_tokens == evicted for s in cache.linear_states))
    if not cache_ok:
        failed[:] = True
    if reference is not None:
        failed |= (np.abs(sketch(result.latents) - reference)
                   > LATENT_RTOL * reference[:, :1]).any(axis=1)
    return failed


def state_bytes(cache) -> int:
    """Bytes of visible keys/values plus linear states, from array sizes."""
    kv = sum(e.keys.nbytes + e.values.nbytes for e in cache.entries())
    return kv + sum(s.nbytes for s in cache.linear_states)


def latent_digest(latents) -> str:
    h = hashlib.sha256()
    for x in latents:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


# -- tracing --------------------------------------------------------------------

def install_tracing(tracer: Tracer, hs, stream_ops: bool) -> None:
    """Wrap the names engine, linear_history and distill call. For stream
    workloads a forward pass or cache append names its chunk as the op."""
    engine, lh, distill = hs.engine, hs.linear_history, hs.distill

    def rope(args, out):
        return (("rope.calls", 1), ("rope.rows_rotated", out.shape[0]))

    def pooled(args, out):
        return (("sparse_local.pooled_scores", out.size),)

    def mask(args, out):
        t_m = out.shape[0]
        active = out.active_count()
        return (("masks.active", active), ("masks.total", out.active.size),
                ("sparse_local.selected_blocks", active - t_m * len(args[1].forced_blocks)))

    def scores(args, out):
        q, k, _, m = args[:4]
        t_m, t_n = m.shape
        return (("sparse_local.score_evals",
                 m.active_count() * (q.shape[0] // t_m) * (k.shape[0] // t_n)),)

    def absorb(args, out):
        return (("linear_history.absorbs", 1),)

    def append(args, out):
        return (("stream_cache.evictions", int(out is not None)),
                ("stream_cache.appends", 1),
                ("stream_cache.tokens_after_append", args[0].total_cached_tokens))

    def forward(args, out):
        return (("engine.passes", 1),)

    def draws(args, out):
        return (("numerics.rng.draws", out.size),)

    forward_op = append_op = None
    if stream_ops:
        def forward_op(args):
            return (tracer.op[0], args[4])

        def append_op(args):
            return (tracer.op[0], args[1].chunk_index)

    for module in (engine, lh):
        tracer.wrap(module, "apply_rope", "rope", rope)
        tracer.wrap(module, "absorb_evicted", "linear_history.absorb_evicted", absorb)
    tracer.wrap(engine, "block_scores", "sparse_local.block_scores", pooled)
    tracer.wrap(engine, "build_mask", "sparse_local.build_mask", mask)
    tracer.wrap(engine, "sparse_attention", "sparse_local.sparse_attention", scores)
    tracer.wrap(engine, "history_output", "linear_history.history_output")
    tracer.wrap(engine, "hybrid_attention", "engine.hybrid_attention")
    tracer.wrap(engine.ToyDenoiser, "forward", "engine.forward", forward, forward_op)
    tracer.wrap(hs.stream_cache.RollingCache, "visible_kv", "stream_cache.visible_kv")
    tracer.wrap(hs.stream_cache.RollingCache, "append", "stream_cache.append", append, append_op)
    tracer.wrap(hs.numerics.SeededRng, "normal", "numerics.rng", draws)
    tracer.wrap(hs.numerics.SeededRng, "uniform", "numerics.rng", draws)
    tracer.wrap(distill, "dmd_gradient", "distill.dmd_gradient")
    tracer.wrap(distill, "gaussian_kl", "distill.gaussian_kl")
    tracer.wrap(distill, "train", "distill.train")


# -- workloads ------------------------------------------------------------------

def op_groups(seconds: float, between=None):
    """Yield 0, 1, ... for groups of ops (streams, or training runs) run back to
    back: at least one, then another while it should end nearer the time limit
    than stopping now would. `between` is called after each group."""
    start = time.perf_counter()
    k = 0
    while True:
        began = time.perf_counter()
        yield k
        k += 1
        took = time.perf_counter() - began
        if between is not None:
            between()
        if time.perf_counter() - start + took / 2 >= seconds:
            return


@dataclass
class Phase:
    """What one untraced or traced stretch of a run produced."""

    latency_ms: list      # per-op samples: steady-state chunks, or every step
    scaled_ms: list       # the same, scaled to the reference host speed
    classes: list | None  # distill: each sample's (timestep slot, phase) class
    ops: int              # ops attempted
    failed: int
    busy_s: float         # wall time inside the program's op loop
    digests: dict         # input seed -> output digest, to compare phases
    steady_ops: int = 0
    steady_wall_ms: float = 0.0
    steps_to_tol: float = 0.0
    state_bytes: int = 0
    note: str = ""


def run_stream_phase(hs, workload, seed, seconds, reference, speed,
                     tracer=None, compare=None, between=None) -> Phase:
    steady, scaled, failed, ops, busy, digests = [], [], 0, 0, 0.0, {}
    nbytes = warm = streams = 0
    model_class = hs.ToyDenoiser if speed is None else speed_model(hs, speed)
    for k in op_groups(seconds, between):
        if tracer is not None:
            tracer.op = (k, 0)
        cfg = stream_config(hs, workload, stream_seed(seed, k))
        model = model_class(cfg)
        measured = 0 if speed is None else len(speed.kernel_ms)
        start = time.perf_counter()
        result = hs.engine.run_stream(cfg, STREAM_CHUNKS, model)
        busy += time.perf_counter() - start
        chunk_ms, scale = result.chunk_ms, 1.0
        if speed is not None:
            if len(speed.kernel_ms) != measured + STREAM_CHUNKS:
                raise SystemExit("error: run_stream no longer calls compute_chunk_kv once per chunk")
            kernel_ms = np.asarray(speed.kernel_ms[measured:])
            chunk_ms = chunk_ms - kernel_ms
            scale = CAL_REF_MS / kernel_ms
            busy -= kernel_ms.sum() / 1e3

        expected = expected_counts(cfg, STREAM_CHUNKS)
        flags = check_stream(result, expected, reference.get(reference_key(workload, cfg.seed)))
        if tracer is not None:
            for i in range(STREAM_CHUNKS):
                flags[i] |= tracer.counts[(k, i), "stream_cache.evictions"] != expected.evictions[i]
                flags[i] |= (tracer.counts[(k, i), "stream_cache.tokens_after_append"]
                             != expected.cached_tokens[i])
        digests[cfg.seed] = latent_digest(result.latents)
        streams += 1
        if compare is not None and compare.get(cfg.seed, digests[cfg.seed]) != digests[cfg.seed]:
            flags[:] = True
        warm = warmup_chunks(cfg)
        steady.extend(chunk_ms[warm:].tolist())
        scaled.extend((chunk_ms * scale)[warm:].tolist())
        failed += int(flags.sum())
        ops += STREAM_CHUNKS
        nbytes = state_bytes(result.final_cache)
    return Phase(steady, scaled, None, ops, failed, busy, digests,
                 steady_ops=len(steady), steady_wall_ms=float(sum(steady)),
                 state_bytes=nbytes,
                 note=f"{streams} streams x {STREAM_CHUNKS} chunks, steady state from chunk {warm} "
                      f"(sink + capacity + 1)")


def run_distill_phase(hs, seed, seconds, speed, tracer=None, compare=None,
                      between=None) -> Phase:
    cfg = hs.DistillConfig()
    steps_ms, scaled, classes, to_tol = [], [], [], []
    failed, ops, busy, digests, nbytes = 0, 0, 0.0, {}, 0
    for k in op_groups(seconds, between):
        if tracer is not None:
            tracer.op = (k, 0)
        world, gen, rng = distill_inputs(hs, stream_seed(seed, k))
        ticks = []

        def step_clock(step, s_index, k=k):
            # returns the configured lambda unchanged; measures the host speed
            # and notes when each step got here, after the measurement
            ticks.append(time.perf_counter() if speed is None else speed.measure())
            if tracer is not None:
                tracer.op = (k, step + 1)
            return cfg.lam

        start = time.perf_counter()
        result = hs.distill.train(cfg, world, gen, rng, lambda_override=step_clock)
        busy += time.perf_counter() - start
        step_ms, scale = np.diff(ticks) * 1e3, 1.0
        if speed is not None:
            # each gap between ticks ends with the kernel run at the later tick
            kernel_ms = np.asarray(speed.kernel_ms[-len(ticks):])
            step_ms = step_ms - kernel_ms[1:]
            scale = CAL_REF_MS / kernel_ms[1:]
            busy -= kernel_ms.sum() / 1e3

        rows = result.rows
        bad = np.array([not all(math.isfinite(v) for v in
                                (r.loss_dmd, r.loss_reg, r.grad_norm, r.mean_err, r.cov_err,
                                 r.lambda_effective, r.loss_total))
                        for r in rows])
        digest = hashlib.sha256(np.asarray(result.parameter_trajectory()).tobytes()).hexdigest()
        digests[stream_seed(seed, k)] = digest
        if not (rows[-1].mean_err < DISTILL_TOL and rows[-1].cov_err < DISTILL_TOL):
            bad[:] = True
        if compare is not None and compare.get(stream_seed(seed, k), digest) != digest:
            bad[:] = True
        failed += int(bad.sum())
        ops += len(rows)
        # a tick falls after a step's fixture rolls, so the time between two
        # ticks is mostly the later step's fixture work: class it by that step
        steps_ms.extend(step_ms.tolist())
        scaled.extend((step_ms * scale).tolist())
        classes.extend(f"{r.s_index}-{r.phase}" for r in rows[1:])
        to_tol.append(next((i + 1 for i, r in enumerate(rows)
                            if r.mean_err < DISTILL_TOL and r.cov_err < DISTILL_TOL), len(rows)))
        nbytes = (world.mean.nbytes + world.cov.nbytes + world.chol.nbytes
                  + world.sqrt_cov.nbytes + result.generator.A.nbytes
                  + result.generator.b.nbytes + 2 * cfg.batch_size * world.n * 8)
    return Phase(steps_ms, scaled, classes, ops, failed, busy, digests,
                 steady_ops=ops, steady_wall_ms=busy * 1e3,
                 steps_to_tol=statistics.median(to_tol), state_bytes=nbytes,
                 note=f"{len(to_tol)} training run(s) x {cfg.steps} steps")


def run_phase(hs, workload, seed, seconds, reference, speed=None, tracer=None, compare=None,
              between=None) -> Phase:
    """Run ops until `seconds` have passed. With `speed`, each op is timed next
    to the host-speed kernel and scaled; without, scaled times are the raw
    ones. With `compare`, an input seed whose output digest differs from the
    one given fails all of its ops."""
    if workload == "distill":
        return run_distill_phase(hs, seed, seconds, speed, tracer, compare, between)
    return run_stream_phase(hs, workload, seed, seconds, reference, speed, tracer, compare,
                            between)


# -- metrics --------------------------------------------------------------------

def median_ms(phase: Phase, samples) -> float:
    """Median op latency. Distill steps differ in work by their timestep slot
    and phase, which are drawn uniformly, so there it is the mean over those
    classes of each class's median: the expected step latency, with no median
    falling on the edge between two classes."""
    samples = np.asarray(samples)
    if phase.classes is None:
        return float(np.median(samples))
    classes = np.asarray(phase.classes)
    return float(np.mean([np.median(samples[classes == c]) for c in np.unique(classes)]))


def end_to_end(phase: Phase, setup_s: float, percentile: float) -> tuple[dict, dict, str]:
    """The bounded metrics, the figures that are only printed, and a note."""
    samples = np.asarray(phase.latency_ms)
    tail_ms = float(np.percentile(samples, percentile))
    metrics = {
        "op_ms_p50_scaled": (median_ms(phase, phase.scaled_ms), "ms"),
        "state_bytes": (phase.state_bytes, "bytes"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Not bounded: raw times, which move with the share of the run the host
    # spent at each of its two speeds (see README).
    printed = {
        "op_ms_p50": (float(np.median(samples)), "ms"),
        "op_ms_p90": (float(np.percentile(samples, 90)), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "op_ms_mean": (float(samples.mean()), "ms"),
        "ops_per_s": (phase.ops / phase.busy_s, "1/s"),
    }
    note = f"op_ms_tail is p{percentile:g}: {int((samples > tail_ms).sum())} of {samples.size} ops above it"
    return metrics, printed, note


def per_layer(tracer: Tracer, phase: Phase, untraced: Phase, keep_op) -> dict:
    self_ms = tracer.self_ms(keep_op)
    counts = tracer.counted(keep_op)
    n = phase.steady_ops
    metrics = {f"{name}.self_ms": (self_ms.get(name, 0.0) / n, "ms") for name in SELF_TIME_SPANS}
    metrics.update({name: (counts.get(name, 0.0) / n, "count") for name in PER_OP_COUNTS})
    metrics["sparse_local.mask_density"] = (
        counts["masks.active"] / counts["masks.total"] if counts.get("masks.total") else 0.0, "ratio")
    metrics["stream_cache.cached_tokens"] = (
        counts["stream_cache.tokens_after_append"] / counts["stream_cache.appends"]
        if counts.get("stream_cache.appends") else 0.0, "count")
    metrics["distill.steps_to_tol"] = (phase.steps_to_tol, "count")
    metrics["trace.coverage"] = (sum(self_ms.values()) / phase.steady_wall_ms, "ratio")
    metrics["trace.overhead"] = (median_ms(phase, phase.latency_ms)
                                 / median_ms(untraced, untraced.latency_ms), "ratio")
    return metrics


# -- environment and output ------------------------------------------------------

def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload: str, seed: int, seeds: list) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "input_seeds": seeds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def print_metrics(metrics: dict, workload: str) -> None:
    aliases = ({"ops_per_s": "distill_steps_per_s"} if workload == "distill" else
               {"op_ms_p50": "chunk_ms_p50", "op_ms_tail": "chunk_ms_tail",
                "ops_per_s": "chunks_per_s"})
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<40} {value:>16.6g} {unit}{alias}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    setup = SetupClock(args.workload, args.seed, speed)
    hs = setup.sample()
    reference = load_reference()
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(hs, args.workload, args.seed, seconds, reference, speed,
                         between=setup.between_groups)
    phases = [untraced]
    tracer = None
    if args.trace:
        with Tracer() as tracer:
            install_tracing(tracer, hs, stream_ops=args.workload != "distill")
            traced = run_phase(hs, args.workload, args.seed, seconds, reference,
                               tracer=tracer, compare=untraced.digests)
        phases.append(traced)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    e2e, printed, note = end_to_end(untraced, setup.seconds(), TAIL_PERCENTILE[args.workload])
    if args.trace:
        keep = ((lambda op: True) if args.workload == "distill"
                else (lambda op: op[1] >= warmup_chunks(stream_config(hs, args.workload, 0))))
        metrics = per_layer(tracer, traced, untraced, keep)
    else:
        metrics = e2e
    env = environment(args.workload, args.seed, sorted({s for p in phases for s in p.digests}))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {untraced.note}")
    print("env " + json.dumps(env, sort_keys=True))
    print_metrics(e2e, args.workload)
    print(f"  {note}; setup_s is the median of {len(setup.times)} set-ups")
    print("printed only, not bounded (see perfbench/README.md):")
    print_metrics(printed, args.workload)
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6g} ({failed} failed of {attempted} ops)")
    if args.trace:
        print("per-module metrics from the traced half, per op (steady-state chunks, or all steps):")
        print_metrics(metrics, args.workload)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({**result, "env": env, "end_to_end": e2e, "printed": printed,
                   "notes": [untraced.note, note]}, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
