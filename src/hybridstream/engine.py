"""Streaming generation engine.

Per layer, attention over a chunk is the elementwise sum of two pathways:
block-sparse attention over the visible cache window (plus the chunk's own
keys) and the compressed linear-history readout. A small seeded-random
transformer ("toy denoiser") drives the few-step autoregressive loop:
initialize a chunk from noise, denoise through a descending timestep
schedule, re-noising between steps along the rectified-flow path
(rectified_flow, the one noise schedule), emit the final clean prediction,
cache its keys/values through a dedicated pass at t=0, and absorb whatever
the rolling window evicts into the linear state. That chunk step
(chunk_step), shared by run_stream and the distillation fixture, makes the
chunk its cache appends next (RollingCache.next_index). It takes the
chunk's noise from its caller, which draws it in one SeededRng.normal call
(run_stream per chunk, the distillation fixture per roll), and its t=0
pass stops after the last layer's local attention, with no history
readout, since only the keys and values of that pass are kept
(ToyDenoiser.compute_chunk_kv).

A layer pass makes one product for the queries, keys and values (the
ToyDenoiser's [model_dim, 3 * model_dim] "wqkv") and copies its head split
once into one C-contiguous [3, heads, tokens, head_dim] array, so the
rotation, the feature map, the readout, the workspace slot writes and the
cached keys and values all read unit-stride data; the queries and the
chunk's own keys are rotated in one call (hybrid_attention). Its norms,
GELU and residual adds write in place; each is rounded as its textbook
formula is.

Keys and queries turn at capped temporal indices (rope.temporal_index)
with rope's one cap and base, so a StreamConfig holds no rotary settings:
its head_dim alone picks the rotation tables.

The dense full-history oracle these pathways are checked against lives in
verify, with every other oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractViolationError, ShapeError
from .linear_history import LinearState, absorb_evicted, history_output
from .numerics import SeededRng, as_index, as_real, float_fields, integer_fields
# apply_rope has no caller here: perfbench's tracer wraps engine.apply_rope (ROADMAP item 1)
from .rope import apply_rope, check_head_dim, position_tables, rotate, rotate_into, temporal_index
from .sparse_local import BlockConfig, block_means, block_scores, build_mask, sparse_attention
from .stream_cache import ChunkKV, RollingCache

_WEIGHT_STREAM = 1
_NOISE_STREAM = 2
_NORM_EPS = 1e-5  # the layer norm's variance guard


@dataclass
class OpCounters:
    """Exact work counters, independent of wall-clock noise."""

    score_evals: int = 0     # entries of S = q k^T computed in attention
    pooled_scores: int = 0   # entries of the block-importance matrix

    def snapshot(self) -> tuple[int, int]:
        return self.score_evals, self.pooled_scores


def rectified_flow(t):
    """Rectified-flow interpolation (Liu et al., 2022): the coefficients
    (alpha, beta) = (1 - t, t) of x_t = alpha x0 + beta eps, t in [0, 1]."""
    return 1.0 - t, t


def check_timesteps(ts, name: str) -> tuple:
    """`ts` as a tuple of floats, each entry taken through numerics.as_real,
    so a str, None or bool entry, or a ts that is not a sequence, raises
    TypeError naming `name`, the config field. Raise ValueError unless it is
    a non-empty, strictly descending schedule in (0, 1]."""
    try:
        entries = iter(ts)
    except TypeError:
        raise TypeError(f"{name} must be a sequence of real numbers, got {ts!r}") from None
    ts = tuple(as_real(t, name) for t in entries)
    if not ts or any(not (0.0 < t <= 1.0) for t in ts):
        raise ValueError("timesteps must lie in (0, 1]")
    if any(ts[i] <= ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("timesteps must be strictly descending")
    return ts


@dataclass(frozen=True)
class StreamConfig:
    frames_per_chunk: int = 3
    window_frames: int = 9
    sink_chunks: int = 1
    tokens_per_frame: int = 16
    heads: int = 2
    head_dim: int = 16
    layers: int = 2
    keep_ratio: float = 0.2
    denoise_timesteps: tuple = (1.0, 0.75, 0.5, 0.25)
    seed: int = 0
    linear_history: bool = True  # absorb evicted chunks; off = plain drop

    def __post_init__(self):
        positive = ("frames_per_chunk", "window_frames", "tokens_per_frame", "heads",
                    "head_dim", "layers")
        integer_fields(self, positive + ("sink_chunks", "seed"))
        float_fields(self, ("keep_ratio",))
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sink_chunks < 0:
            raise ValueError(f"sink_chunks must be >= 0, got {self.sink_chunks}")
        SeededRng(self.seed)  # refuses a seed outside its range
        if type(self.linear_history) is not bool:
            raise TypeError(f"linear_history must be a bool, got {self.linear_history!r}")
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        if self.window_frames % self.frames_per_chunk != 0:
            raise ValueError("window_frames must be divisible by frames_per_chunk")
        # a tuple, so the frozen config hashes and its schedule cannot change
        ts = check_timesteps(self.denoise_timesteps, "denoise_timesteps")
        object.__setattr__(self, "denoise_timesteps", ts)
        check_head_dim(self.head_dim)  # a positive multiple of 4, else ShapeError

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    @property
    def chunk_tokens(self) -> int:
        return self.frames_per_chunk * self.tokens_per_frame

    @property
    def capacity_chunks(self) -> int:
        return self.window_frames // self.frames_per_chunk

    @property
    def blocks_per_chunk(self) -> int:
        # one frame per block keeps forced-sink semantics exact
        return self.frames_per_chunk

    @property
    def block_tokens(self) -> int:
        return self.tokens_per_frame


# Baseline configurations for relative-cost comparisons. "dense21" is plain
# dense sliding-window attention with a 21-frame window and no sink, no
# sparsity, no history state.
BENCH_MODES = {
    "dense21": dict(window_frames=21, sink_chunks=0, keep_ratio=1.0, linear_history=False),
    "swa": dict(sink_chunks=0, keep_ratio=1.0, linear_history=False),
    "swa_sink": dict(keep_ratio=1.0, linear_history=False),
    "hybrid": dict(),
}


def config_for_mode(mode: str, base: StreamConfig) -> StreamConfig:
    if mode not in BENCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {sorted(BENCH_MODES)}")
    return replace(base, **BENCH_MODES[mode])


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # one centring pass; the mean and variance round as x.mean and x.var do
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    xc /= np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + _NORM_EPS)
    return xc


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 x (1 + erf(x / sqrt 2)) in one buffer; halving is exact (short of
    # subnormals), so it rounds the same applied last
    out = x / math.sqrt(2.0)
    erf(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


@lru_cache(maxsize=64)
def _block_layout(sinks: int, entries: int, blocks_per_chunk: int,
                  keep_ratio: float) -> BlockConfig:
    """The BlockConfig forcing the sink blocks and the chunk's own, for a
    window of `entries` entries whose first `sinks` are the sink entries,
    the chunk's own blocks after them all. Shared by every cache and config
    with that layout, and with it the masks build_mask shares per shape."""
    bpc = blocks_per_chunk
    forced = frozenset(range(sinks * bpc)) | frozenset(range(entries * bpc, (entries + 1) * bpc))
    return BlockConfig(keep_ratio, forced)


def _window(cache: RollingCache, cfg: StreamConfig, query_chunk_index: int) -> tuple:
    """What every layer pass of a query chunk shares, built once per chunk
    into a workspace held on the cache (RollingCache.memo):

    - keys and values, [layers, heads, entries + 1, chunk_tokens, head_dim]:
      the visible keys rotated at their relative temporal indices and the
      visible values, then a last slot for the chunk itself;
    - the keys' block means, [layers, heads, (entries + 1) *
      blocks_per_chunk, head_dim], the chunk's own blocks last;
    - the cos and sin rotation tables of the visible keys, [entries,
      chunk_tokens, head_dim], at the entries' relative temporal indices;
    - the BlockConfig forcing the sink blocks and the chunk's own blocks;
    - the cos and sin rotation tables of the chunk's queries (and own keys)
      at its capped temporal index.

    Each layer pass writes its rotated keys, values and key block means into
    its layer's last slots (hybrid_attention). The next query chunk rewrites
    these arrays in place, so they are valid only until then. New arrays are
    made only when a shape changes: while the window grows, for a new
    (restored) cache, or for a config of other sizes.

    The entries' keys are copied one by one into the value slots, rotated
    from there into the key slots in one shot (rope.rotate_into, the copy
    its scratch) and overwritten by the values; the block means are summed
    into their slots. The indices come from one rope.temporal_index call,
    of each entry's distance behind the query chunk (RollingCache.visible_kv)
    and of the chunk's own distance 0. The tables are rows of
    rope.position_tables: gathered into the workspace for the keys, a
    read-only view for the queries. The BlockConfig is shared per window
    layout (_block_layout); nothing else is built per chunk.

    A cache whose entries or linear states do not fit the config's layers,
    heads, chunk_tokens and head_dim (RollingCache.shape_mismatch) raises
    ShapeError before anything is built."""
    def build(stale: tuple | None) -> tuple:
        layers, heads, d = cfg.layers, cfg.heads, cfg.head_dim
        mismatch = cache.shape_mismatch((layers, heads, cfg.chunk_tokens, d))
        if mismatch:
            raise ShapeError(f"cache does not fit the model: {mismatch}")
        visible = cache.visible_kv(query_chunk_index)
        n, bpc, bt = len(visible), cfg.blocks_per_chunk, cfg.block_tokens
        bcfg = _block_layout(len(cache.sink_entries), n, bpc, cfg.keep_ratio)
        cos, sin = position_tables(d, cfg.chunk_tokens)
        shape = (layers, heads, n + 1, cfg.chunk_tokens, d)
        means_shape = (layers, heads, (n + 1) * bpc, d)
        if stale is not None and (stale[0].shape, stale[2].shape) == (shape, means_shape):
            keys, values, key_means, key_cos, key_sin = stale[:5]
        else:
            keys, values, key_means = np.empty(shape), np.empty(shape), np.empty(means_shape)
            key_cos, key_sin = np.empty((n,) + shape[3:]), np.empty((n,) + shape[3:])
        # the entries' temporal indices, then the chunk's own (distance 0)
        *rel, q_t = temporal_index(query_chunk_index, [dist for _, dist in visible] + [0])
        if visible:
            staged = values[:, :, :n]  # the unrotated keys, then the values
            for i, (e, _) in enumerate(visible):
                staged[:, :, i] = e.keys
            # temporal indices lie in [0, cap]; "raise" would buffer out
            np.take(cos, rel, axis=0, out=key_cos, mode="clip")
            np.take(sin, rel, axis=0, out=key_sin, mode="clip")
            rotate_into(staged, key_cos, key_sin, keys[:, :, :n])
            for i, (e, _) in enumerate(visible):
                staged[:, :, i] = e.values
            means = key_means[:, :, :n * bpc]  # the sum over the count, as block_means
            np.add.reduce(keys[:, :, :n].reshape(layers, heads, -1, bt, d), axis=3, out=means)
            means /= bt
        return keys, values, key_means, key_cos, key_sin, bcfg, cos[q_t], sin[q_t]

    return cache.memo((query_chunk_index, cfg), build)


def hybrid_attention(
    qkv: np.ndarray,
    cache: RollingCache,
    layer: int,
    cfg: StreamConfig,
    query_chunk_index: int,
    history_proj: np.ndarray | None,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """One layer of hybrid attention for one chunk.

    qkv: the unrotated per-head queries, keys and values of the chunk
    being generated, [3, heads, chunk_tokens, head_dim], C-contiguous as
    ToyDenoiser.forward passes it (any layout reads the same, only more
    slowly), and left as it is. Keys from the cache and from the chunk
    itself are rotated at their relative temporal indices (the cached ones
    and the query tables once per query chunk, see _window); sink blocks
    and the chunk's own blocks are always kept active in the mask. All
    heads go through one block_scores, one build_mask and one
    sparse_attention call, the mask's rows packed block diagonally by
    BlockMask.block_diagonal. Where the layout's quota leaves no choice,
    build_mask returns the layout's one shared mask, whose packing and
    gather index were built with it, so the pass builds no mask. Where it
    chooses, the pass builds the row mask, with the index its top-k fixed,
    and its packing, whose index is the rows' offset per head.
    Returns [chunk_tokens, model_dim]: sparse local output plus the
    history readout through the layer's weight history_proj, summed
    elementwise. Until the layer's state absorbs a chunk (or with no state)
    the readout is exact zeros, so it is not computed; with no
    history_proj (a pass that discards this output, ToyDenoiser.forward)
    it is not computed either, and the local output alone is returned.

    layer is taken as it is if a plain int, else through numerics.as_index
    (TypeError for a float or a bool); one outside [0, cfg.layers) raises
    ContractViolationError, and a qkv of another shape ShapeError, before
    the workspace is touched.
    """
    layer = layer if type(layer) is int else as_index(layer, "layer")
    if not 0 <= layer < cfg.layers:
        raise ContractViolationError(f"layer {layer} outside [0, {cfg.layers})")
    shape = (3, cfg.heads, cfg.chunk_tokens, cfg.head_dim)
    if qkv.shape != shape:
        raise ShapeError(f"qkv {qkv.shape}; want {shape}")
    window_keys, window_values, window_means, _, _, bcfg, q_cos, q_sin = \
        _window(cache, cfg, query_chunk_index)
    rotated = rotate(qkv[:2], q_cos, q_sin)  # queries and own keys, one view of qkv
    q_means, k_self_means = block_means(rotated, cfg.block_tokens)  # [heads, t_m, d] each
    # the chunk's own slots; the keys and values attended are views
    keys, values, key_means = window_keys[layer], window_values[layer], window_means[layer]
    keys[:, -1] = rotated[1]
    values[:, -1] = qkv[2]
    key_means[:, -k_self_means.shape[1]:] = k_self_means

    scores = block_scores(q_means, key_means)  # [heads, t_m, t_n]
    if counters is not None:
        counters.pooled_scores += scores.size
    heads, t_m, t_n = scores.shape
    rows = build_mask(scores.reshape(heads * t_m, t_n), bcfg)
    tokens, d = shape[2:]
    local = sparse_attention(rotated[0].reshape(-1, d), keys.reshape(-1, d),
                             values.reshape(-1, d), rows.block_diagonal(heads),
                             scale=1.0 / math.sqrt(d), counters=counters)
    local = local.reshape(heads, tokens, d).transpose(1, 0, 2).reshape(tokens, heads * d)

    if history_proj is not None and layer < len(cache.linear_states) \
            and cache.linear_states[layer].evicted_tokens:
        local += history_output(cache.linear_states[layer], qkv[0], q_cos, q_sin, history_proj)
    return local


class ToyDenoiser:
    """Fixed-weight residual transformer used as the streaming fixture.

    Weights are drawn from the seeded RNG (stream 1 of the config seed) and
    scaled by 1/sqrt(fan_in); the timestep embedding table has one row per
    schedule entry plus a final row for the t=0 cache pass, scaled by 0.1.
    Per layer the query, key and value weights are drawn in that order and
    kept side by side as one [model_dim, 3 * model_dim] "wqkv", so a pass
    makes one product for all three. "history_proj", the history readout's
    output projection, lives here only. Forward passes are deterministic and
    never mutate the cache.
    """

    def __init__(self, cfg: StreamConfig):
        self.cfg = cfg
        rng = SeededRng(cfg.seed).derive(_WEIGHT_STREAM)
        d = cfg.model_dim
        hidden = 4 * d
        self.layers = []
        for _ in range(cfg.layers):
            wq, wk, wv = (rng.normal((d, d)) / math.sqrt(d) for _ in range(3))
            self.layers.append({
                "wqkv": np.concatenate((wq, wk, wv), axis=1),
                "wo": rng.normal((d, d)) / math.sqrt(d),
                "w1": rng.normal((d, hidden)) / math.sqrt(d),
                "w2": rng.normal((hidden, d)) / math.sqrt(hidden),
                "history_proj": rng.normal((d, d)) / math.sqrt(d),
            })
        self.time_table = rng.normal((len(cfg.denoise_timesteps) + 1, d)) * 0.1

    def new_cache(self) -> RollingCache:
        """An empty cache: a zero linear state per layer, or none (evictions
        are dropped) unless cfg.linear_history is set."""
        cfg = self.cfg
        states = [LinearState.zeros(cfg.heads, cfg.head_dim)
                  for _ in range(cfg.layers if cfg.linear_history else 0)]
        return RollingCache(cfg.capacity_chunks, cfg.sink_chunks, states)

    def _time_row(self, t: float) -> np.ndarray:
        ts = self.cfg.denoise_timesteps
        if t == 0.0:
            return self.time_table[len(ts)]
        for i, known in enumerate(ts):
            if t == known:
                return self.time_table[i]
        raise ValueError(f"timestep {t} not in schedule {ts}")

    def forward(
        self,
        x: np.ndarray,
        t: float,
        cache: RollingCache,
        query_chunk_index: int,
        counters: OpCounters | None = None,
        *,
        keys_only: bool = False,
    ) -> tuple[np.ndarray | None, list[tuple[np.ndarray, np.ndarray]]]:
        """One pass over a chunk. Returns (prediction, per-layer (k, v)).

        With keys_only (the t=0 cache pass, compute_chunk_kv) the last layer
        stops right after its hybrid attention, whose output nothing reads,
        and the prediction is None: the keys and values are all that pass
        keeps. That attention still runs its local pathway, so the pass's
        OpCounters (and the cost model's closed form) count every layer, but
        gets no history projection, so it makes no history readout, which
        has no counter."""
        cfg = self.cfg
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (cfg.chunk_tokens, cfg.model_dim):
            raise ShapeError(f"expected [{cfg.chunk_tokens}, {cfg.model_dim}], got {x.shape}")
        h = x + self._time_row(t)[None, :]
        layer_kvs = []
        last = len(self.layers) - 1
        for layer_idx, w in enumerate(self.layers):
            # [tokens, 3 * model_dim] split into heads: [3, heads, tokens, head_dim],
            # copied once so every reader of it runs unit-stride
            qkv = np.ascontiguousarray((_layer_norm(h) @ w["wqkv"]).reshape(
                cfg.chunk_tokens, 3, cfg.heads, cfg.head_dim).transpose(1, 2, 0, 3))
            layer_kvs.append((qkv[1], qkv[2]))
            stop = keys_only and layer_idx == last
            attended = hybrid_attention(qkv, cache, layer_idx, cfg, query_chunk_index,
                                        None if stop else w["history_proj"], counters)
            if stop:
                return None, layer_kvs
            h += attended @ w["wo"]
            h += _gelu(_layer_norm(h) @ w["w1"]) @ w["w2"]
        return h, layer_kvs

    def compute_chunk_kv(self, x0: np.ndarray, cache: RollingCache, *,
                         counters: OpCounters | None = None) -> ChunkKV:
        """Dedicated t=0 pass over the emitted chunk (cache.next_index), writing
        each layer's keys and values into the ChunkKV. The pass goes through
        forward with keys_only, so the last layer's history readout, wo
        product, residual adds, norm and MLP, whose output nothing reads,
        are not computed; its keys, values and counters equal a full
        forward(x0, 0.0, ...)'s bit for bit."""
        _, layer_kvs = self.forward(x0, 0.0, cache, cache.next_index, counters, keys_only=True)
        kv = np.empty((2, len(layer_kvs)) + layer_kvs[0][0].shape)  # keys, values
        for layer_idx, (k, v) in enumerate(layer_kvs):
            kv[0, layer_idx], kv[1, layer_idx] = k, v
        return ChunkKV(cache.next_index, kv[0], kv[1])


@dataclass
class StreamResult:
    latents: list
    chunk_ms: np.ndarray
    chunk_score_evals: np.ndarray
    chunk_pooled_scores: np.ndarray
    peak_cached_tokens: int
    config: StreamConfig
    final_cache: RollingCache


def append_and_absorb(cache: RollingCache, kv: ChunkKV) -> ChunkKV | None:
    """Append a chunk to the window and fold the chunk it evicts into every
    linear state the cache has, at temporal index 0. Returns the evicted
    entry, if any.

    Every layer's new state (a new value) is computed first, then the chunk
    is appended and the new states replace the old in the cache's list. So
    a refused append, or an absorb rejected as non-finite (ValueError),
    leaves the cache, its entries and every state as they were."""
    evicted = cache.evicts(kv)
    states = [] if evicted is None else [
        absorb_evicted(state, evicted.keys[layer_idx], evicted.values[layer_idx])
        for layer_idx, state in enumerate(cache.linear_states)]
    cache.append(kv)
    if states:
        cache.linear_states[:] = states
    return evicted


def chunk_step(model: ToyDenoiser, cache: RollingCache, timesteps: Sequence[float],
               noise: np.ndarray, *, counters: OpCounters | None = None) -> np.ndarray:
    """Generate and cache chunk cache.next_index; returns its prediction.

    Start from noise[0] at the first timestep, denoise down `timesteps`
    re-noising with noise[j] before step j, run the t=0 cache pass on the
    last prediction, then append it (absorbing any eviction). noise is the
    chunk's [len(timesteps), chunk_tokens, model_dim] draw, which the
    caller makes and chunk_step only reads: one SeededRng.normal(...,
    count=len(timesteps)) is bit for bit the draws one call per timestep
    would make. Noise of another shape raises ShapeError before the cache
    is touched.
    """
    cfg = model.cfg
    shape = (len(timesteps), cfg.chunk_tokens, cfg.model_dim)
    got = getattr(noise, "shape", type(noise).__name__)
    if got != shape:
        raise ShapeError(f"noise {got}; want {shape}")
    index = cache.next_index
    x = noise[0]
    for j, t in enumerate(timesteps):
        x0 = model.forward(x, t, cache, index, counters)[0]
        if j + 1 < len(timesteps):
            alpha, beta = rectified_flow(timesteps[j + 1])
            x = alpha * x0 + beta * noise[j + 1]
    append_and_absorb(cache, model.compute_chunk_kv(x0, cache, counters=counters))
    return x0


def run_stream(cfg: StreamConfig, num_chunks: int,
               model: ToyDenoiser | None = None) -> StreamResult:
    """Full autoregressive loop (see chunk_step) with per-chunk
    instrumentation. Each chunk's noise is drawn in one SeededRng.normal
    call on the config seed's noise stream, inside the span its chunk_ms
    times. A given model must have been built from `cfg`. num_chunks goes
    through numerics.as_index, so a float (even 2.0) or a bool raises
    TypeError."""
    num_chunks = as_index(num_chunks, "num_chunks")
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    model = model or ToyDenoiser(cfg)
    if model.cfg != cfg:
        raise ValueError(f"model config {model.cfg} differs from stream config {cfg}")
    cache = model.new_cache()
    noise_rng = SeededRng(cfg.seed).derive(_NOISE_STREAM)

    latents = []
    chunk_ms = np.zeros(num_chunks)
    chunk_scores = np.zeros(num_chunks, dtype=np.int64)
    chunk_pooled = np.zeros(num_chunks, dtype=np.int64)
    peak_tokens = 0
    timesteps = cfg.denoise_timesteps
    noise_shape = (cfg.chunk_tokens, cfg.model_dim)

    for i in range(num_chunks):
        counters = OpCounters()
        start = time.perf_counter()
        noise = noise_rng.normal(noise_shape, count=len(timesteps))
        x0 = chunk_step(model, cache, timesteps, noise, counters=counters)
        chunk_ms[i] = (time.perf_counter() - start) * 1e3
        chunk_scores[i], chunk_pooled[i] = counters.snapshot()
        peak_tokens = max(peak_tokens, cache.total_cached_tokens)
        latents.append(x0)

    return StreamResult(latents, chunk_ms, chunk_scores, chunk_pooled, peak_tokens, cfg, cache)

