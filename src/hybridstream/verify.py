"""Named verification suites: oracle equivalences and property sweeps,
runnable from the command line and reusable from tests. The oracles live
here too: the dense full-history attention (dense_oracle_attention), the
masked dense and online-softmax references of sparse attention, and the
closed-form DMD gradient.

Every check returns a CheckResult instead of raising, so a verification
run reports all failures by name. The oracle checks take their sizes as
arguments, the suites small and the acceptance tests at release sizes;
each fixes its own tolerance at its comparison, where no caller sets it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import erf

from .distill import (
    AffineGenerator,
    DistillConfig,
    GaussianWorld,
    diffuse_gaussian,
    dmd_gradient,
    gaussian_score,
    train,
)
from .engine import _NOISE_STREAM, _NORM_EPS, OpCounters, StreamConfig, ToyDenoiser, \
    append_and_absorb, chunk_step, config_for_mode, hybrid_attention, rectified_flow, run_stream
from .linear_history import EPS_DIV, LinearState, absorb_evicted, elu_plus_one, history_output
from .numerics import SeededRng, read_tensor_from, softmax_rows, write_tensor
from .rope import RoPEConfig, apply_rope, position_tables, temporal_index
from .sparse_local import BlockConfig, BlockMask, build_mask, sparse_attention
from .stream_cache import ChunkKV, RollingCache


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check(name: str, condition: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(condition), detail)


def exact_dmd_gradient(gen: AffineGenerator, world: GaussianWorld, t: float):
    """Closed-form gradient of KL(fake_t || real_t) over (A, b); the
    population value the Monte Carlo estimator targets."""
    a, _ = rectified_flow(t)
    _, real_cov = diffuse_gaussian(world.mean, world.cov, t)
    fake_b, fake_cov0 = gen.induced()
    _, fake_cov = diffuse_gaussian(fake_b, fake_cov0, t)
    inv_real = np.linalg.inv(real_cov)
    inv_fake = np.linalg.inv(fake_cov)
    grad_a = (a * a) * (inv_real - inv_fake) @ gen.A
    grad_b = (a * a) * inv_real @ (gen.b - world.mean)
    return grad_a, grad_b


# ---------------------------------------------------------------------------
# suite: numerics
# ---------------------------------------------------------------------------


def _suite_numerics() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(3):
        m, k, n = rng.integers(1, 33, size=3)
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        want = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                want[i, j] = sum(a[i, p] * b[p, j] for p in range(k))
        worst = max(worst, np.abs(a @ b - want).max() / (np.abs(want).max() + 1.0))
    out.append(_check("numerics.matrix_product_oracle", worst < 1e-12, f"rel err {worst:.2e}"))

    s = softmax_rows(rng.standard_normal((20, 9)) * 30)
    err = np.abs(s.sum(axis=1) - 1.0).max()
    out.append(_check("numerics.softmax_rows_sum", err < 1e-9 and (s >= 0).all(),
                      f"max |row sum - 1| = {err:.2e}"))

    a = SeededRng(42).normal(4096)
    b = SeededRng(42).normal(4096)
    out.append(_check("numerics.rng_reproducible", np.array_equal(a, b),
                      "bit-identical streams for equal seeds"))

    buf = io.BytesIO()
    data = np.float32(rng.standard_normal((5, 3)).astype(np.float32))
    write_tensor(buf, data)
    buf.seek(0)
    back = read_tensor_from(buf)
    out.append(_check("numerics.tensor_round_trip",
                      back.shape == (5, 3) and np.array_equal(back, data),
                      "write/read bitwise equal"))
    return out


# ---------------------------------------------------------------------------
# suite: rope
# ---------------------------------------------------------------------------


def _suite_rope() -> list[CheckResult]:
    out = []
    cfg = RoPEConfig(16, max_temporal_index=21)
    capped = all(temporal_index(p, cfg) <= 21 for p in (0, 5, 21, 22, 10**6))
    out.append(_check("rope.cap", capped and temporal_index(300, cfg) == 21,
                      "min(pos, 21) for all positions"))

    x = SeededRng(1).normal((8, 16))
    rot = apply_rope(x, 13, cfg)
    err = np.abs(np.linalg.norm(rot, axis=1) - np.linalg.norm(x, axis=1)).max()
    out.append(_check("rope.norm_preserved", err < 1e-10, f"max norm drift {err:.2e}"))

    q = SeededRng(2).normal((1, 16))
    k = SeededRng(3).normal((1, 16))
    d1 = apply_rope(q, 9, cfg) @ apply_rope(k, 4, cfg).T
    d2 = apply_rope(q, 14, cfg) @ apply_rope(k, 9, cfg).T
    drift = abs(float(d1[0, 0] - d2[0, 0]))
    out.append(_check("rope.relative_offsets", drift < 1e-9,
                      f"dot drift under shift {drift:.2e}"))

    # apply_rope against a scalar loop: pair j of a token, channels (2j, 2j + 1),
    # turns by index * base_theta ** (-(j mod pairs) / pairs) with math.cos
    # and math.sin; the first `pairs` pairs take the slice's temporal index,
    # the rest the token's place n in the chunk
    xs, ts = SeededRng(5).normal((3, 8, 16)), (0, 7, 21)
    got = np.stack([apply_rope(x, t, cfg) for x, t in zip(xs, ts)])
    want = np.empty(xs.shape)
    p = cfg.pairs
    for i, n, j in np.ndindex(3, 8, 8):
        angle = float(ts[i] if j < p else n) * cfg.base_theta ** (-(j % p) / p)
        c, sn = math.cos(angle), math.sin(angle)
        even, odd = xs[i, n, 2 * j], xs[i, n, 2 * j + 1]
        want[i, n, 2 * j] = even * c - odd * sn
        want[i, n, 2 * j + 1] = odd * c + even * sn
    err = float(np.abs(got - want).max())
    out.append(_check("rope.pair_formula", err <= 1e-12,
                      f"max |apply_rope - scalar pair loop| = {err:.2e} over 3 slices"))
    return out


# ---------------------------------------------------------------------------
# suite: linear_state
# ---------------------------------------------------------------------------


def linear_state_checks(heads: int, head_dim: int, tokens: int, evictions,
                        memory_after: tuple[int, int], seed: int) -> list[CheckResult]:
    """Absorbed (L, H) against direct sums, one fresh state per count in
    `evictions`; equal footprints after the two counts in `memory_after`;
    positive readout denominators for large queries."""
    rope_cfg = RoPEConfig(head_dim)
    rng = SeededRng(seed)

    def absorb_random(state):
        k, v = rng.normal((heads, tokens, head_dim)), rng.normal((heads, tokens, head_dim))
        return absorb_evicted(state, k, v, rope_cfg), k, v

    rel = 0.0
    for n in evictions:
        state = LinearState.zeros(heads, head_dim)
        L = np.zeros_like(state.L)
        H = np.zeros_like(state.H)
        for _ in range(n):
            state, k, v = absorb_random(state)
            fk = elu_plus_one(k)
            for h in range(heads):
                L[h] += apply_rope(fk[h], 0, rope_cfg).T @ v[h]
                H[h] += fk[h].mean(axis=0)
        rel = max(rel, np.abs(state.L - L).max() / np.abs(L).max(),
                  np.abs(state.H - H).max() / np.abs(H).max())
    out = [_check("linear_state.batch_sum_equivalence", rel <= 1e-9,
                  f"rel err vs direct sums {rel:.2e} over {list(evictions)} absorbs")]

    few, many = memory_after
    state = LinearState.zeros(heads, head_dim)
    for c in range(many):
        state = absorb_random(state)[0]
        if c + 1 == few:
            n_bytes_few = state.nbytes
    out.append(_check("linear_state.constant_memory", state.nbytes == n_bytes_few,
                      f"{n_bytes_few} bytes after {few} and {state.nbytes} after {many} absorbs"))

    worst = np.inf
    for _ in range(200):
        q = rng.normal((head_dim,)) * 25
        for h in range(heads):
            worst = min(worst, elu_plus_one(q) @ state.H[h] + 1e-6)
    out.append(_check("linear_state.denominator_positive", worst >= 1e-6,
                      f"min denominator {worst:.3e}"))
    return out


# ---------------------------------------------------------------------------
# suite: sparse
# ---------------------------------------------------------------------------


def mask_invariant_check(cfg: BlockConfig,
                         name: str = "sparse.mask_invariants") -> CheckResult:
    """Mask construction invariants for a block configuration over 4 x 10
    score blocks; used with injected configurations for negative testing.
    Where the quota leaves no choice (it equals the forced count, or all
    10) they pin the mask exactly: the forced blocks, or every block."""
    t_n = 10
    scores = SeededRng(0).normal((4, t_n))
    try:
        mask = build_mask(scores, cfg)
        quota = max(len(cfg.forced_blocks), math.ceil(cfg.keep_ratio * t_n))
        per_row = mask.active.sum(axis=1)
        ok = (per_row == min(quota, t_n)).all() and mask.active.any(axis=1).all()
        for j in cfg.forced_blocks:
            ok = ok and mask.active[:, j].all()
        return _check(name, ok, f"per-row active counts {sorted(set(per_row.tolist()))}")
    except Exception as exc:  # malformed configs surface as named failures
        return _check(name, False, f"{type(exc).__name__}: {exc}")


def masked_dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                           mask: BlockMask, scale: float) -> np.ndarray:
    """Dense softmax attention with -inf scores on the inactive blocks."""
    t_m, t_n = mask.shape
    b_q = q.shape[0] // t_m
    b_kv = k.shape[0] // t_n
    s = (q @ k.T) * scale
    for i in range(t_m):
        for j in range(t_n):
            if not mask.active[i, j]:
                s[i * b_q:(i + 1) * b_q, j * b_kv:(j + 1) * b_kv] = -np.inf
    return softmax_rows(s) @ v


def row_loop_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: BlockMask,
                       scale: float, visit_order, counters=None) -> np.ndarray:
    """Reference online softmax, one query-block row at a time: each row
    folds in its active key blocks in visit_order."""
    t_m, t_n = mask.shape
    b_q = q.shape[0] // t_m
    b_kv = k.shape[0] // t_n
    out = np.empty((q.shape[0], v.shape[1]))
    for i in range(t_m):
        qi = q[i * b_q:(i + 1) * b_q]
        m = np.full(b_q, -np.inf)
        l = np.zeros(b_q)
        acc = np.zeros((b_q, v.shape[1]))
        for j in visit_order:
            if not mask.active[i, j]:
                continue
            lo = j * b_kv
            s = (qi @ k[lo:lo + b_kv].T) * scale
            if counters is not None:
                counters.score_evals += b_q * b_kv
            m_new = np.maximum(m, s.max(axis=1))
            alpha = np.exp(m - m_new)
            p = np.exp(s - m_new[:, None])
            l = alpha * l + p.sum(axis=1)
            acc = alpha[:, None] * acc + p @ v[lo:lo + b_kv]
            m = m_new
        out[i * b_q:(i + 1) * b_q] = acc / l[:, None]
    return out


def random_mask(gen: np.random.Generator, t_m: int, t_n: int) -> BlockMask:
    """A t_m x t_n block mask whose rows all keep one count c, drawn from
    1..t_n per mask, each row its own random c blocks."""
    c = int(gen.integers(1, t_n + 1))
    active = np.zeros((t_m, t_n), dtype=bool)
    active[np.arange(t_m)[:, None], gen.random((t_m, t_n)).argsort(axis=1)[:, :c]] = True
    return BlockMask(active)


def gather_check() -> CheckResult:
    """sparse_attention against row_loop_attention in a random visit order,
    to 1e-12 in output and exactly in score_evals, over 60 random masks of
    1..6 x 1..6 blocks (random_mask), with query and key block sizes drawn
    from 1..16 each."""
    trials, max_blocks = 60, 6
    gen = np.random.default_rng(12)
    worst = 0.0
    counts_equal = 0
    for trial in range(trials):
        b_q, b_kv = (int(b) for b in gen.integers(1, 17, size=2))
        t_m = int(gen.integers(1, max_blocks + 1))
        t_n = int(gen.integers(1, max_blocks + 1))
        d, d_v = (int(x) for x in gen.choice([1, 8, 16], size=2))
        q = gen.standard_normal((t_m * b_q, d))
        k = gen.standard_normal((t_n * b_kv, d))
        v = gen.standard_normal((t_n * b_kv, d_v))
        mask = random_mask(gen, t_m, t_n)
        got_counts, want_counts = OpCounters(), OpCounters()
        got = sparse_attention(q, k, v, mask, 0.3, counters=got_counts)
        want = row_loop_attention(q, k, v, mask, 0.3, gen.permutation(t_n), want_counts)
        worst = max(worst, np.abs(got - want).max())
        counts_equal += got_counts.score_evals == want_counts.score_evals
    return _check("sparse.gather_matches_row_loop",
                  worst <= 1e-12 and counts_equal == trials,
                  f"max |gather - row loop| = {worst:.2e} and score_evals equal in "
                  f"{counts_equal}/{trials} random masks")


def masked_dense_checks(trials: int, max_blocks: int, block_range: tuple[int, int],
                        seed: int, data_seed: int) -> list[CheckResult]:
    """sparse_attention against masked_dense_attention, and the drift of the
    online-softmax reference row_loop_attention between a random block
    visit order and the ascending one, over random masks (random_mask) of
    1..max_blocks query and key blocks of [lo, hi) = block_range tokens."""
    gen = np.random.default_rng(seed)
    worst = worst_perm = 0.0
    for trial in range(trials):
        b = int(gen.integers(*block_range))
        t_m = int(gen.integers(1, max_blocks + 1))
        t_n = int(gen.integers(1, max_blocks + 1))
        r = SeededRng(data_seed + trial)
        q = r.normal((t_m * b, 8))
        k = r.normal((t_n * b, 8))
        v = r.normal((t_n * b, 8))
        mask = random_mask(gen, t_m, t_n)
        scale = 1.0 / math.sqrt(8)
        permuted = row_loop_attention(q, k, v, mask, scale, gen.permutation(t_n))
        got = sparse_attention(q, k, v, mask, scale)
        worst = max(worst, np.abs(got - masked_dense_attention(q, k, v, mask, scale)).max())
        worst_perm = max(worst_perm, np.abs(
            row_loop_attention(q, k, v, mask, scale, range(t_n)) - permuted).max())
    return [
        _check("sparse.masked_dense_equivalence", worst <= 1e-6,
               f"max |sparse - masked dense| = {worst:.2e} over {trials} masks"),
        _check("sparse.visit_order_invariance", worst_perm < 1e-9,
               f"max drift of the row loop under permuted visit order {worst_perm:.2e}"),
    ]


def _suite_sparse() -> list[CheckResult]:
    return [mask_invariant_check(BlockConfig(0.2, frozenset({0}))),
            # quota 4 of 10, all forced; then every block
            mask_invariant_check(BlockConfig(0.2, frozenset({0, 1, 8, 9})),
                                 name="sparse.mask_invariants_forced_only"),
            mask_invariant_check(BlockConfig(1.0), name="sparse.mask_invariants_dense"),
            gather_check()] + \
        masked_dense_checks(20, 6, (4, 5), seed=3, data_seed=500)


# ---------------------------------------------------------------------------
# suite: cache
# ---------------------------------------------------------------------------


def _suite_cache() -> list[CheckResult]:
    out = []
    cache = RollingCache(3, 1)
    evicted_ids = []
    rng = SeededRng(4)
    for i in range(40):
        kv = ChunkKV(i, rng.normal((1, 1, 4, 8)), rng.normal((1, 1, 4, 8)))
        ev = cache.append(kv)
        if ev is not None:
            evicted_ids.append(ev.chunk_index)
    visible_ids = [e.chunk_index for e in cache.entries()]
    partition = (set(evicted_ids) | set(visible_ids) == set(range(40))
                 and not set(evicted_ids) & set(visible_ids))
    out.append(_check("cache.eviction_partition", partition,
                      f"visible {visible_ids}, {len(evicted_ids)} evicted"))
    out.append(_check("cache.memory_bound", cache.total_cached_tokens == 4 * 4,
                      f"{cache.total_cached_tokens} cached tokens"))
    rope_cfg = RoPEConfig(8, max_temporal_index=21)
    rels = [temporal_index(39, rope_cfg, dist) for _, dist in cache.visible_kv(39)]
    out.append(_check("cache.relative_index_cap",
                      all(0 <= r <= 21 for r in rels) and rels == sorted(rels),
                      f"relative indices {rels}"))

    def bits(cache):
        pairs = [(e.chunk_index, e.keys, e.values) for e in cache.entries()]
        pairs += [(s.evicted_tokens, s.L, s.H) for s in cache.linear_states]
        return cache.next_index, [(n, a.shape, b.shape, a.tobytes(), b.tobytes())
                                  for n, a, b in pairs]

    stream = random_cache(_TOY, 12, seed=5)  # eight chunks absorbed into the history
    restored = RollingCache.restore(stream.snapshot())
    out.append(_check("cache.snapshot_round_trip", bits(restored) == bits(stream),
                      f"keys, values, next_index, and L, H and evicted tokens "
                      f"{[s.evicted_tokens for s in stream.linear_states]}, bit for bit"))
    return out


# ---------------------------------------------------------------------------
# suite: hybrid
# ---------------------------------------------------------------------------

_TOY = StreamConfig(tokens_per_frame=4, heads=2, head_dim=8)


def random_cache(cfg: StreamConfig, chunks: int, seed: int,
                 model: ToyDenoiser | None = None) -> RollingCache:
    """`chunks` chunks of random keys and values, appended as the stream
    appends them (absorbing evictions into the states new_cache gives)."""
    cache = (model or ToyDenoiser(cfg)).new_cache()
    rng = SeededRng(seed)
    shape = (cfg.layers, cfg.heads, cfg.chunk_tokens, cfg.head_dim)
    for i in range(chunks):
        kv = ChunkKV(i, rng.normal(shape), rng.normal(shape))
        append_and_absorb(cache, kv, cfg)
    return cache


def dense_oracle_attention(
    q: np.ndarray,
    k_self: np.ndarray,
    v_self: np.ndarray,
    history: Sequence[ChunkKV],
    layer: int,
    cfg: StreamConfig,
    query_chunk_index: int,
) -> np.ndarray:
    """Exact softmax attention over an arbitrary retained history (plus the
    chunk itself) under the same rotation policy. Test-scale only."""
    rope_cfg = cfg.rope_config
    q_index = temporal_index(query_chunk_index, rope_cfg)
    outs = []
    for h in range(cfg.heads):
        k_parts = [
            apply_rope(e.keys[layer, h],
                       temporal_index(query_chunk_index, rope_cfg,
                                      query_chunk_index - e.chunk_index),
                       rope_cfg)
            for e in history
        ]
        k_parts.append(apply_rope(k_self[h], q_index, rope_cfg))
        v_parts = [e.values[layer, h] for e in history] + [v_self[h]]
        k_full = np.concatenate(k_parts, axis=0)
        v_full = np.concatenate(v_parts, axis=0)
        q_rot = apply_rope(q[h], q_index, rope_cfg)
        probs = softmax_rows((q_rot @ k_full.T) / math.sqrt(cfg.head_dim))
        outs.append(probs @ v_full)
    return np.concatenate(outs, axis=1)


def dense_limit_check(cfg: StreamConfig, trials: int, max_chunks: int, seed: int,
                      cache_seed: int) -> CheckResult:
    """Hybrid attention at keep_ratio 1 with an empty history state against
    the dense oracle; trial t uses 1 + t % max_chunks chunks drawn from
    cache_seed + t, and layer t % layers."""
    cfg = replace(cfg, keep_ratio=1.0, linear_history=False)
    model = ToyDenoiser(cfg)
    rng = SeededRng(seed)
    shape = (cfg.heads, cfg.chunk_tokens, cfg.head_dim)
    worst = 0.0
    for trial in range(trials):
        chunks = 1 + trial % max_chunks
        cache = random_cache(cfg, chunks, cache_seed + trial, model)
        q, ks, vs = rng.normal(shape), rng.normal(shape), rng.normal(shape)
        layer = trial % cfg.layers
        got = hybrid_attention(np.stack((q, ks, vs)), cache, layer, cfg, chunks,
                               model.layers[layer]["history_proj"])
        want = dense_oracle_attention(q, ks, vs, cache.entries(), layer, cfg, chunks)
        worst = max(worst, np.abs(got - want).max())
    return _check("hybrid.dense_limit_equivalence", worst <= 1e-6,
                  f"max |hybrid - dense oracle| = {worst:.2e} over {trials} caches")


def _suite_hybrid() -> list[CheckResult]:
    out = [dense_limit_check(_TOY, 10, 4, seed=6, cache_seed=60)]

    model = ToyDenoiser(_TOY)
    proj = model.layers[0]["history_proj"]
    cache = random_cache(_TOY, 8, seed=61, model=model)
    shape = (_TOY.heads, _TOY.chunk_tokens, _TOY.head_dim)
    rng = SeededRng(62)
    q, ks, vs = rng.normal(shape), rng.normal(shape), rng.normal(shape)
    qkv = np.stack((q, ks, vs))
    full = hybrid_attention(qkv, cache, 0, _TOY, 8, proj)
    bare = RollingCache.restore(cache.snapshot())  # the same window, no history
    bare.linear_states.clear()
    local = hybrid_attention(qkv, bare, 0, _TOY, 8, proj)
    rope_cfg = _TOY.rope_config
    t, (cos, sin) = temporal_index(8, rope_cfg), position_tables(rope_cfg, _TOY.chunk_tokens)
    hist = history_output(cache.linear_states[0], q, cos[t], sin[t], proj)
    err = np.abs(full - (local + hist)).max()
    out.append(_check("hybrid.additive_decomposition", err < 1e-9,
                      f"|hybrid - (local + history)| = {err:.2e}"))
    return out


# ---------------------------------------------------------------------------
# suite: stream
# ---------------------------------------------------------------------------


def expected_score_evals(cfg: StreamConfig, chunk_index: int) -> int:
    """Closed-form count of the S = q k^T entries that streaming one chunk
    computes: per query block the quota of key blocks (forced sink and self
    blocks, then the top of the rest), over every head, layer and pass (the
    denoise steps and the t=0 cache pass)."""
    bpc = cfg.blocks_per_chunk
    sinks = min(chunk_index, cfg.sink_chunks)
    window = min(max(chunk_index - cfg.sink_chunks, 0), cfg.capacity_chunks)
    t_n = (sinks + window + 1) * bpc
    forced = (sinks + 1) * bpc
    quota = min(max(forced, math.ceil(cfg.keep_ratio * t_n)), t_n)
    passes = len(cfg.denoise_timesteps) + 1
    return bpc * quota * cfg.block_tokens * cfg.block_tokens * cfg.heads * cfg.layers * passes


def workspace_reuse_check() -> CheckResult:
    """A stream whose cache rewrites one window workspace chunk after chunk
    against the same stream with the cache restored from its snapshot before
    every chunk, so each chunk lays its window out in fresh arrays. The
    latents must be equal bit for bit. Keep ratio 0.5 over a 12-frame window
    makes top-k selection read the key block means, and the stream runs 4
    chunks past the RoPE cap."""
    cfg = replace(_TOY, keep_ratio=0.5, window_frames=12)
    chunks = cfg.max_temporal_index + 4
    model = ToyDenoiser(cfg)
    kept, fresh = model.new_cache(), model.new_cache()
    rng, ts = SeededRng(7), cfg.denoise_timesteps
    differ = []
    for i in range(chunks):
        fresh = RollingCache.restore(fresh.snapshot())
        noise = rng.normal((cfg.chunk_tokens, cfg.model_dim), count=len(ts))
        a = chunk_step(model, kept, ts, noise)
        b = chunk_step(model, fresh, ts, noise)
        if not np.array_equal(a, b):
            differ.append(i)
    return _check("engine.workspace_reuse_bit_identical", not differ,
                  f"{chunks} chunks (RoPE cap {cfg.max_temporal_index}); "
                  f"chunks that differ: {differ or 'none'}")


def reference_stream(cfg: StreamConfig, chunks: int) -> tuple[list, float]:
    """The latents run_stream(cfg, chunks) makes, recomputed the slow way,
    and the smallest top-k margin the stream's masks chose by.

    It takes the model's weights and the stream's noise draws, and nothing
    of the engine's fast path (the window workspace, shared masks,
    sparse_attention, LinearState). Every chunk keeps its per-layer keys
    and values, [tokens, model_dim] each, from a full t=0 forward. Then one
    layer and one head at a time:
    - each visible entry's keys go through apply_rope at the entry's
      temporal_index, the query chunk's queries and own keys at its own;
    - the sink blocks and the chunk's own are forced, and each query
      block's row takes the rest of its quota by a sorted loop over the
      block-mean scores, ties to the lower index;
    - masked_dense_attention over the entries and the chunk itself;
    - the history readout from sums over the evicted chunks, summed
      afresh on every pass.
    The margin is a chosen block's score less the best unchosen one's, at
    the quota's edge; a margin near 0 is a near-tie, which rounding may
    break either way."""
    model = ToyDenoiser(cfg)
    rng = SeededRng(cfg.seed).derive(_NOISE_STREAM)
    rope_cfg, ts = cfg.rope_config, cfg.denoise_timesteps
    hd, bt, bpc = cfg.head_dim, cfg.block_tokens, cfg.blocks_per_chunk
    kept = []  # per chunk, per layer: (keys, values)
    latents, margin = [], math.inf

    def phi(x):
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))

    def layer_norm(x):
        return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True)
                                                             + _NORM_EPS)

    def local(i, sinks, entries, layer, cols, q, k, v):
        nonlocal margin
        own_t = temporal_index(i, rope_cfg)
        keys = np.concatenate([apply_rope(kept[j][layer][0][:, cols], temporal_index(
            i, rope_cfg, i - j), rope_cfg) for j in entries] + [apply_rope(k, own_t, rope_cfg)])
        values = np.concatenate([kept[j][layer][1][:, cols] for j in entries] + [v])
        q_rot = apply_rope(q, own_t, rope_cfg)
        scores = (q_rot.reshape(-1, bt, hd).mean(axis=1)
                  @ keys.reshape(-1, bt, hd).mean(axis=1).T)
        t_m, t_n = scores.shape
        forced = set(range(sinks * bpc)) | set(range(t_n - bpc, t_n))
        need = min(t_n, max(len(forced), math.ceil(cfg.keep_ratio * t_n))) - len(forced)
        active = np.zeros((t_m, t_n), dtype=bool)
        for r in range(t_m):
            ranked = sorted((b for b in range(t_n) if b not in forced),
                            key=lambda b: (-scores[r, b], b))
            for b in sorted(forced) + ranked[:need]:
                active[r, b] = True
            if 0 < need < len(ranked):
                margin = min(margin, scores[r, ranked[need - 1]] - scores[r, ranked[need]])
        return masked_dense_attention(q_rot, keys, values, BlockMask(active), 1 / math.sqrt(hd))

    def history(i, evicted, layer, cols, q):
        L, H = np.zeros((hd, hd)), np.zeros(hd)
        for j in evicted:
            k, v = (a[:, cols] for a in kept[j][layer])
            fk = phi(k)
            L += apply_rope(fk, 0, rope_cfg).T @ v
            H += fk.mean(axis=0)  # H sums each chunk's mean of phi(k), as absorb_evicted does
        fq = phi(q)
        return (apply_rope(fq, temporal_index(i, rope_cfg), rope_cfg) @ L) \
            / (fq @ H + EPS_DIV)[:, None]

    def forward(i, x, t):
        sinks = min(i, cfg.sink_chunks)
        oldest = max(cfg.sink_chunks, i - cfg.capacity_chunks)  # the window's first chunk
        entries = list(range(sinks)) + list(range(oldest, i))
        evicted = range(cfg.sink_chunks, oldest)
        h = x + model.time_table[ts.index(t) if t else len(ts)]
        kvs = []
        for layer, w in enumerate(model.layers):
            q, k, v = np.split(layer_norm(h) @ w["wqkv"], 3, axis=1)
            kvs.append((k, v))
            heads, readout = [], []
            for head in range(cfg.heads):
                cols = slice(head * hd, (head + 1) * hd)
                heads.append(local(i, sinks, entries, layer, cols, q[:, cols], k[:, cols],
                                   v[:, cols]))
                if cfg.linear_history and evicted:
                    readout.append(history(i, evicted, layer, cols, q[:, cols]))
            attended = np.concatenate(heads, axis=1)
            if readout:
                attended = attended + np.concatenate(readout, axis=1) @ w["history_proj"]
            h = h + attended @ w["wo"]
            u = layer_norm(h) @ w["w1"]
            h = h + (0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))) @ w["w2"]
        return h, kvs

    shape = (cfg.chunk_tokens, cfg.model_dim)
    for i in range(chunks):
        x = rng.normal(shape)
        for j, t in enumerate(ts):
            x0 = forward(i, x, t)[0]
            if j + 1 < len(ts):
                x = (1.0 - ts[j + 1]) * x0 + ts[j + 1] * rng.normal(shape)
        kept.append(forward(i, x0, 0.0)[1])
        latents.append(x0)
    return latents, margin


def reference_equivalence_check(configs: Sequence[StreamConfig], past_cap: int) -> CheckResult:
    """run_stream against reference_stream to 1e-12 relative (each chunk's
    largest latent difference over its largest latent magnitude), each
    config streamed max_temporal_index + past_cap chunks. The detail gives
    the smallest top-k margin, so a near-tie reads as one."""
    worst, margin = 0.0, math.inf
    for cfg in configs:
        chunks = cfg.max_temporal_index + past_cap
        want, chosen_by = reference_stream(cfg, chunks)
        for got, ref in zip(run_stream(cfg, chunks).latents, want):
            worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
        margin = min(margin, chosen_by)
    return _check("stream.reference_equivalence", worst <= 1e-12,
                  f"max relative latent difference {worst:.2e} over {len(configs)} streams "
                  f"{past_cap} chunks past the RoPE cap; smallest top-k margin {margin:.2e}")


def _suite_stream() -> list[CheckResult]:
    out = []
    res = run_stream(_TOY, 60)
    finite = all(np.isfinite(x).all() for x in res.latents)
    out.append(_check("stream.long_horizon_finite", finite, "60 chunks, no NaN/Inf"))
    steady = res.chunk_score_evals[10:]
    out.append(_check("stream.flat_cost_counts", len(set(steady.tolist())) == 1,
                      f"steady-state score evals {steady[0]} per chunk"))

    out.append(workspace_reuse_check())
    # the default layout, whose quota is all forced, and one that chooses
    out.append(reference_equivalence_check(
        [config_for_mode("hybrid", _TOY), replace(_TOY, keep_ratio=0.5, window_frames=12)], 4))

    hybrid = run_stream(config_for_mode("hybrid", _TOY), 10)
    dense = run_stream(config_for_mode("dense21", _TOY), 10)
    out.append(_check("stream.hybrid_cheaper_than_dense21",
                      hybrid.chunk_score_evals[-1] < dense.chunk_score_evals[-1],
                      f"{hybrid.chunk_score_evals[-1]} vs {dense.chunk_score_evals[-1]} score evals"))
    return out


# ---------------------------------------------------------------------------
# suite: dmd
# ---------------------------------------------------------------------------


def _finite_difference_score(x, mean, cov):
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)

    def logpdf(p):
        d = p - mean
        return -0.5 * (d @ inv @ d + logdet + mean.size * math.log(2 * math.pi))

    h = 1e-5
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (logpdf(x + e) - logpdf(x - e)) / (2 * h)
    return g


def _suite_dmd() -> list[CheckResult]:
    out = []
    rng = SeededRng(7)
    worst = 0.0
    for trial in range(20):
        n = 2 + trial % 3
        world = GaussianWorld.random(rng.derive(trial), n)
        x = rng.normal(n)
        got = gaussian_score(x, world.mean, world.cov)
        want = _finite_difference_score(x, world.mean, world.cov)
        worst = max(worst, np.abs(got - want).max())
    out.append(_check("dmd.score_matches_log_density_gradient", worst < 1e-5,
                      f"max |score - FD grad| = {worst:.2e}"))
    return out + dmd_noise_checks(20_000)


def dmd_noise_checks(residual_batch: int) -> list[CheckResult]:
    """The matched-generator gradient sits below its noise floor, and the
    Monte Carlo residual at a mean-offset probe (mean over 30 draws) grows
    by sqrt(2) from `residual_batch` to half of it."""
    reps = 30
    out = []
    world = GaussianWorld.random(SeededRng(8), 2)
    matched = AffineGenerator(world.sqrt_cov.copy(), world.mean.copy())
    g = dmd_gradient(matched, world, 0.5, SeededRng(9), 100_000)
    floor = 3.0 / math.sqrt(100_000)
    out.append(_check("dmd.fixed_point_below_noise_floor", g.norm() <= floor,
                      f"matched gradient norm {g.norm():.2e} <= floor {floor:.2e}"))

    probe = AffineGenerator(world.sqrt_cov.copy(), world.mean + np.array([0.5, -0.3]))
    ga, gb = exact_dmd_gradient(probe, world, 0.5)

    def mean_residual_norm(batch, seed0):
        total = 0.0
        for r in range(reps):
            est = dmd_gradient(probe, world, 0.5, SeededRng(seed0 + r), batch)
            total += math.sqrt(np.sum((est.A - ga) ** 2) + np.sum((est.b - gb) ** 2))
        return total / reps

    ratio = mean_residual_norm(residual_batch // 2, 900) / mean_residual_norm(residual_batch, 100)
    out.append(_check("dmd.residual_scales_sqrt_batch",
                      abs(ratio - math.sqrt(2)) <= 0.3 * math.sqrt(2),
                      f"half/full residual norm ratio {ratio:.3f} (want ~1.414)"))
    return out


def convergence_check() -> CheckResult:
    """Training with lambda = 0 from a fixed seed brings |b - mean| and
    |AA^T - cov|_F to within 0.05 in 2000 updates."""
    steps, tol = 2000, 0.05
    rng = SeededRng(123)
    world = GaussianWorld.random(rng.derive(0), 2)
    gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
    res = train(DistillConfig(lam=0.0, steps=steps), world, gen, rng.derive(1))
    last = res.rows[-1]
    return _check("convergence.dmd_reaches_world",
                  last.mean_err <= tol and last.cov_err <= tol,
                  f"after {steps} updates: |b - mean| = {last.mean_err:.4f}, "
                  f"|AA^T - cov|_F = {last.cov_err:.4f}")


def _suite_gating() -> list[CheckResult]:
    out = []
    rng_seed = 55
    world = GaussianWorld.random(SeededRng(11), 2)
    gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
    cfg = DistillConfig(steps=60, phase_switch_step=30)
    a = train(cfg, world, gen, SeededRng(rng_seed))
    b = train(cfg, world, gen, SeededRng(rng_seed),
              lambda_override=lambda step, s: cfg.lam if s == 0 else 0.0)
    identical = np.array_equal(a.parameter_trajectory(), b.parameter_trajectory())
    out.append(_check("gating.lambda_inert_off_final_step", identical,
                      "bit-identical trajectories with lambda toggled on s != T steps"))

    flips = sum(1 for r1, r2 in zip(a.rows, a.rows[1:]) if r1.phase != r2.phase)
    out.append(_check("gating.phase_switches_once",
                      flips == 1 and a.rows[0].phase == "dense" and a.rows[-1].phase == "hybrid",
                      f"{flips} phase flips over {cfg.steps} steps"))
    return out


SUITES = {
    "numerics": _suite_numerics,
    "rope": _suite_rope,
    "linear_state": lambda: linear_state_checks(2, 8, 6, (12,), (4, 12), seed=10),
    "sparse": _suite_sparse,
    "cache": _suite_cache,
    "hybrid": _suite_hybrid,
    "stream": _suite_stream,
    "dmd": _suite_dmd,
    "convergence": lambda: [convergence_check()],
    "gating": _suite_gating,
}


def run_suites(only: str | None = None) -> list[CheckResult]:
    """Run every suite, or only the one named (a key of SUITES)."""
    names = list(SUITES) if only is None else [only]
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
