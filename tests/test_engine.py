"""Engine tests: hybrid attention equivalences, toy denoiser behaviour,
streaming loop invariants, and exact cost accounting."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import erf

from hybridstream import distill, engine, rope, sparse_local
from hybridstream.distill import DistillConfig
from hybridstream.engine import (
    BENCH_MODES,
    OpCounters,
    StreamConfig,
    ToyDenoiser,
    append_and_absorb,
    chunk_step,
    config_for_mode,
    _window,
    hybrid_attention,
    rectified_flow,
    run_stream,
)
from hybridstream.errors import ContractViolationError, ShapeError
from hybridstream.numerics import SeededRng, as_index
from hybridstream.linear_history import elu_plus_one, history_output
from hybridstream.rope import MAX_TEMPORAL_INDEX, apply_rope, position_tables, temporal_index
from hybridstream.sparse_local import (BlockConfig, BlockMask, block_means, block_scores,
                                      build_mask, sparse_attention)
from hybridstream.stream_cache import ChunkKV, RollingCache
from hybridstream.verify import dense_oracle_attention, expected_score_evals, random_cache

TOY = StreamConfig(tokens_per_frame=4, heads=2, head_dim=8)


@lru_cache(maxsize=16)
def model_of(cfg):
    return ToyDenoiser(cfg)


def history_proj(cfg, layer):
    """The layer's history readout projection, a weight of the model of cfg."""
    return model_of(cfg).layers[layer]["history_proj"]


def random_chunk_kv(cfg, idx, seed):
    rng = SeededRng(seed)
    shape = (cfg.layers, cfg.heads, cfg.chunk_tokens, cfg.head_dim)
    return ChunkKV(idx, rng.normal(shape), rng.normal(shape))


def random_qkv(cfg, seed):
    """Queries, keys and values of a chunk, [3, heads, chunk_tokens, head_dim]."""
    rng = SeededRng(seed)
    shape = (cfg.heads, cfg.chunk_tokens, cfg.head_dim)
    return np.stack([rng.normal(shape) for _ in range(3)])


def per_head_hybrid(qkv, cache, layer, cfg, qci, rope=apply_rope, phi=elu_plus_one, proj=None):
    """Unbatched hybrid attention: every visible key rotated per entry and
    head, the history read out head by head through proj (by default the
    model's history_proj). rope(x, t) and the feature map phi may
    be swapped for other formulas of the same values."""
    q, k_self, v_self = qkv
    q_index = temporal_index(qci)
    visible = cache.visible_kv(qci)
    bpc = cfg.blocks_per_chunk
    forced = set(range(len(visible) * bpc, (len(visible) + 1) * bpc))
    for pos, (entry, _) in enumerate(visible):
        if entry.chunk_index < cfg.sink_chunks:
            forced.update(range(pos * bpc, (pos + 1) * bpc))
    bcfg = BlockConfig(cfg.keep_ratio, frozenset(forced))
    heads = []
    for h in range(cfg.heads):
        k_parts = [rope(e.keys[layer, h], temporal_index(qci, dist))
                   for e, dist in visible]
        q_rot, k_rot = rope(np.stack((q[h], k_self[h])), q_index)
        k_full = np.concatenate(k_parts + [k_rot])
        v_full = np.concatenate([e.values[layer, h] for e, _ in visible] + [v_self[h]])
        mask = build_mask(block_scores(block_means(q_rot, cfg.block_tokens),
                                       block_means(k_full, cfg.block_tokens)), bcfg)
        heads.append(sparse_attention(q_rot, k_full, v_full, mask,
                                      scale=1.0 / math.sqrt(cfg.head_dim)))
    out = np.concatenate(heads, axis=1)
    for state in cache.linear_states[layer:layer + 1]:  # none without the history pathway
        if state.evicted_tokens:
            fq = phi(q)
            hist = []
            for h in range(cfg.heads):
                num = rope(fq[h], q_index) @ state.L[h]
                den = fq[h] @ state.H[h] + 1e-6
                hist.append(num / den[:, None])
            out = out + np.concatenate(hist, axis=1) @ (
                history_proj(cfg, layer) if proj is None else proj)
    return out


def lane_rope(x, t):
    """Rotation as it was computed over interleaved half-width lanes: pair j
    sits in channels (2j, 2j + 1) and turns by the cos and sin of its angle."""
    cos2, sin2 = position_tables(x.shape[-1], x.shape[-2])
    cos, sin = cos2[t, :, 0::2], sin2[t, :, 1::2]  # one value per pair
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty(x.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = odd * cos + even * sin
    return out


def where_elu_plus_one(x):
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def textbook_gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def textbook_layer_norm(x, eps=1e-5):
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    return xc / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + eps)


def separate_products_forward(model, x, t, cache, qci):
    """ToyDenoiser.forward with the weights redrawn from the seed in their
    order (wq, wk, wv, wo, w1, w2, history_proj per layer), three [d, d]
    products per layer, per-head attention over lane_rope and
    where_elu_plus_one, and out-of-place residuals, norms and gelu."""
    cfg = model.cfg
    d, tokens = cfg.model_dim, cfg.chunk_tokens
    rng = SeededRng(cfg.seed).derive(1)
    shapes = [(d, d)] * 4 + [(d, 4 * d), (4 * d, d), (d, d)]
    layers = [[rng.normal(shape) / math.sqrt(shape[0]) for shape in shapes]
              for _ in range(cfg.layers)]
    time_table = rng.normal((len(cfg.denoise_timesteps) + 1, d)) * 0.1
    row = len(cfg.denoise_timesteps) if t == 0.0 else cfg.denoise_timesteps.index(t)

    def split(y):
        return y.reshape(tokens, cfg.heads, cfg.head_dim).transpose(1, 0, 2)

    h = x + time_table[row][None, :]
    layer_kvs = []
    for layer, (wq, wk, wv, wo, w1, w2, proj) in enumerate(layers):
        a = textbook_layer_norm(h)
        q, k, v = split(a @ wq), split(a @ wk), split(a @ wv)
        layer_kvs.append((k, v))
        attn = per_head_hybrid(np.stack((q, k, v)), cache, layer, cfg, qci,
                               rope=lane_rope, phi=where_elu_plus_one, proj=proj)
        h = h + attn @ wo
        h = h + textbook_gelu(textbook_layer_norm(h) @ w1) @ w2
    return h, layer_kvs


class TestFusedPassRegression:
    """The fused layer pass (one QKV product, full-width rotation tables,
    in-place elementwise ops) against the formulas it replaced, bit for bit."""

    CONFIGS = [
        (StreamConfig(), 6),                         # default: history absorbed
        (StreamConfig(window_frames=45), 18),        # 16 visible entries
        (StreamConfig(heads=3), 6),
    ]

    @pytest.mark.parametrize("cfg, chunks", CONFIGS)
    def test_forward_bit_equal_to_separate_products(self, cfg, chunks):
        model = ToyDenoiser(cfg)
        cache = random_cache(cfg, chunks, seed=110, model=model)
        assert all(s.evicted_tokens for s in cache.linear_states)
        x = SeededRng(111).normal((cfg.chunk_tokens, cfg.model_dim))
        for t in (cfg.denoise_timesteps[0], cfg.denoise_timesteps[-1], 0.0):
            got, got_kvs = model.forward(x, t, cache, chunks)
            want, want_kvs = separate_products_forward(model, x, t, cache, chunks)
            assert np.array_equal(got, want), t
            for (k, v), (wk, wv) in zip(got_kvs, want_kvs):
                assert np.array_equal(k, wk) and np.array_equal(v, wv)

    @pytest.mark.parametrize("cfg, chunks", CONFIGS)
    def test_hybrid_attention_bit_equal_to_lane_rotation(self, cfg, chunks):
        cache = random_cache(cfg, chunks, seed=112)
        qkv = random_qkv(cfg, 113)
        for layer in range(cfg.layers):
            got = hybrid_attention(qkv, cache, layer, cfg, chunks, history_proj(cfg, layer))
            want = per_head_hybrid(qkv, cache, layer, cfg, chunks,
                                   rope=lane_rope, phi=where_elu_plus_one)
            assert np.array_equal(got, want), layer

    def test_elementwise_ops_at_special_values(self):
        tiny = np.finfo(np.float64).tiny
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
                      tiny / 3, -tiny / 3, 1e-300, -1e-300, 1.5, -1.5, 40.0, -40.0, 710.0,
                      -750.0, -8.3, 8.3])
        x = np.concatenate([x, SeededRng(114).normal(4000) * 4])
        with np.errstate(invalid="ignore"):  # gelu(-inf) is -inf * 0 in both
            pairs = [(elu_plus_one(x), where_elu_plus_one(x)),
                     (engine._gelu(x), textbook_gelu(x))]
        for got, want in pairs:
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        rows = SeededRng(115).normal((48, 32)) * np.logspace(-3, 3, 48)[:, None]
        assert np.array_equal(engine._layer_norm(rows), textbook_layer_norm(rows))


_FIXTURE = replace(distill._FIXTURE, denoise_timesteps=DistillConfig().timesteps)


class TestCachePass:
    """compute_chunk_kv stops the t=0 pass after the last layer's attention;
    what it keeps equals a full forward(x0, 0.0, ...)'s bit for bit."""

    CONFIGS = [
        (StreamConfig(), 6),
        (StreamConfig(window_frames=45), 18),
        (StreamConfig(heads=3), 6),
        (replace(_FIXTURE, keep_ratio=1.0, linear_history=False), 4),  # distill, dense phase
        (_FIXTURE, 4),                                                 # distill, hybrid phase
    ]

    @pytest.mark.parametrize("cfg, chunks", CONFIGS)
    def test_keys_values_and_counters_equal_a_full_pass(self, cfg, chunks):
        model = model_of(cfg)
        cache = random_cache(cfg, chunks, seed=120, model=model)
        x0 = SeededRng(121).normal((cfg.chunk_tokens, cfg.model_dim))
        full, cached = OpCounters(), OpCounters()
        _, layer_kvs = model.forward(x0, 0.0, cache, chunks, full)
        kv = model.compute_chunk_kv(x0, cache, counters=cached)
        assert kv.chunk_index == chunks
        assert np.array_equal(kv.keys, np.stack([k for k, _ in layer_kvs]))
        assert np.array_equal(kv.values, np.stack([v for _, v in layer_kvs]))
        assert cached.snapshot() == full.snapshot()
        assert cached.score_evals > 0 and cached.pooled_scores > 0

    def test_one_forward_call_and_no_gelu_in_the_last_layer(self, monkeypatch):
        cfg = StreamConfig()
        model = model_of(cfg)
        cache = random_cache(cfg, 6, seed=122, model=model)
        x0 = SeededRng(123).normal((cfg.chunk_tokens, cfg.model_dim))
        gelus, forwards = [], []
        gelu, forward = engine._gelu, ToyDenoiser.forward

        def counted_gelu(x):
            gelus.append(1)
            return gelu(x)

        def counted_forward(self, *args, **kwargs):
            forwards.append((args[3], kwargs))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(engine, "_gelu", counted_gelu)
        monkeypatch.setattr(ToyDenoiser, "forward", counted_forward)
        model.compute_chunk_kv(x0, cache)
        assert forwards == [(6, {"keys_only": True})]
        assert len(gelus) == cfg.layers - 1
        gelus.clear()
        prediction, _ = model.forward(x0, 0.0, cache, 6)
        assert prediction is not None and len(gelus) == cfg.layers


def noisy_step(model, cache, rng, timesteps=None):
    """chunk_step on the chunk's noise drawn from rng as run_stream draws
    it, in one normal call; timesteps default to the model's schedule."""
    cfg = model.cfg
    ts = cfg.denoise_timesteps if timesteps is None else timesteps
    noise = rng.normal((cfg.chunk_tokens, cfg.model_dim), count=len(ts))
    return chunk_step(model, cache, ts, noise)


def per_step_noise_chunk_step(model, cache, timesteps, rng):
    """chunk_step as it drew its noise: one normal call per timestep, the
    start first, then each re-noising's just before it."""
    cfg = model.cfg
    shape = (cfg.chunk_tokens, cfg.model_dim)
    x = rng.normal(shape)
    for j, t in enumerate(timesteps):
        x0 = model.forward(x, t, cache, cache.next_index)[0]
        if j + 1 < len(timesteps):
            eps = rng.normal(shape)
            alpha, beta = rectified_flow(timesteps[j + 1])
            x = alpha * x0 + beta * eps
    append_and_absorb(cache, model.compute_chunk_kv(x0, cache))
    return x0


class TestChunkNoise:
    def test_one_normal_call_per_chunk(self, monkeypatch):
        model = model_of(TOY)  # built before the count: its weights are draws too
        want = run_stream(TOY, 3, model)
        counts = []
        normal = SeededRng.normal

        def counted(self, shape, count=None):
            counts.append((shape, count))
            return normal(self, shape, count=count)

        monkeypatch.setattr(SeededRng, "normal", counted)
        got = run_stream(TOY, 3, model)
        shape = (TOY.chunk_tokens, TOY.model_dim)
        assert counts == [(shape, len(TOY.denoise_timesteps))] * 3
        assert all(np.array_equal(a, b) for a, b in zip(got.latents, want.latents, strict=True))

    @pytest.mark.parametrize("shape", [(3, 12, 16), (5, 12, 16), (4, 16, 12), (12, 16),
                                       (4, 12, 16, 1), None])
    def test_noise_of_another_shape_refused_before_the_cache_changes(self, shape):
        model = model_of(TOY)
        cache, rng = model.new_cache(), SeededRng(134)
        for _ in range(5):  # past the first eviction
            noisy_step(model, cache, rng)
        before = cache.snapshot()
        # None: an rng in place of its draw
        noise = rng if shape is None else rng.normal(shape)
        with pytest.raises(ShapeError, match="noise"):
            chunk_step(model, cache, TOY.denoise_timesteps, noise)
        assert cache.next_index == 5 and cache.snapshot() == before
        # the schedule fixes the count: the full draw does not fit a shorter one
        with pytest.raises(ShapeError, match="noise"):
            chunk_step(model, cache, TOY.denoise_timesteps[:2], rng.normal((4, 12, 16)))
        assert cache.next_index == 5 and cache.snapshot() == before

    @pytest.mark.parametrize("timesteps", [(1.0, 0.75, 0.5, 0.25), (1.0, 0.75), (1.0,)])
    def test_bit_equal_to_one_draw_per_timestep(self, timesteps):
        # 8 chunks evict and absorb; shorter schedules are the distill fixture's
        model = model_of(TOY)
        got_cache, want_cache = model.new_cache(), model.new_cache()
        got_rng, want_rng = SeededRng(131), SeededRng(131)
        for i in range(8):
            got = noisy_step(model, got_cache, got_rng, timesteps)
            want = per_step_noise_chunk_step(model, want_cache, timesteps, want_rng)
            assert np.array_equal(got, want), i
        assert got_cache.snapshot() == want_cache.snapshot()
        assert np.array_equal(got_rng.integers(2), want_rng.integers(2))


class TestChunkIndexFromCache:
    """chunk_step and compute_chunk_kv work on the chunk the cache expects
    next (cache.next_index); neither takes an index."""

    def test_restored_stream_continues_bit_for_bit(self):
        # 8 chunks evict and absorb; the 16 after the restore run past the cap
        cfg = TOY
        whole = run_stream(cfg, 24)
        model = ToyDenoiser(cfg)
        cache, rng = model.new_cache(), SeededRng(cfg.seed).derive(engine._NOISE_STREAM)
        head = [noisy_step(model, cache, rng) for _ in range(8)]
        restored = RollingCache.restore(cache.snapshot())
        model = ToyDenoiser(cfg)  # nothing of the first model is kept
        tail = [noisy_step(model, restored, rng) for _ in range(16)]
        assert restored.next_index == 24
        assert all(np.array_equal(a, b) for a, b in zip(head + tail, whole.latents, strict=True))
        assert restored.snapshot() == whole.final_cache.snapshot()

    def test_an_index_argument_is_a_type_error(self):
        model = model_of(TOY)
        cache = model.new_cache()
        x0 = SeededRng(132).normal((TOY.chunk_tokens, TOY.model_dim))
        ts = TOY.denoise_timesteps
        noise = SeededRng(133).normal(x0.shape, count=len(ts))
        with pytest.raises(TypeError):
            chunk_step(model, cache, 0, ts, noise)
        with pytest.raises(TypeError):
            chunk_step(model, cache, ts, noise, chunk_index=0)
        with pytest.raises(TypeError):
            model.compute_chunk_kv(x0, cache, 0)
        with pytest.raises(TypeError):
            model.compute_chunk_kv(x0, cache, chunk_index=0)
        assert cache.next_index == 0 and cache.entries() == []


class TestAbsorbAllOrNothing:
    def test_rejected_absorb_changes_nothing(self):
        # chunk 4's layer-1 values overflow layer 1's state when chunk 7 evicts it
        cfg = StreamConfig()
        cache = random_cache(cfg, 5, seed=140)
        cache.window_entries[-1].values[1] = 1e308
        for i in (5, 6):
            append_and_absorb(cache, random_chunk_kv(cfg, i, seed=141 + i))
        entries = cache.entries()
        states = [(s.L.copy(), s.H.copy(), s.evicted_tokens) for s in cache.linear_states]
        snapshot = cache.snapshot()
        with pytest.raises(ValueError, match="absorb rejected"):
            append_and_absorb(cache, random_chunk_kv(cfg, 7, seed=148))
        assert cache.next_index == 7
        assert [e.chunk_index for e in cache.entries()] == [0, 4, 5, 6]
        assert all(a is b for a, b in zip(cache.entries(), entries))
        for s, (L, H, evicted) in zip(cache.linear_states, states):
            assert np.array_equal(s.L, L) and np.array_equal(s.H, H)
            assert s.evicted_tokens == evicted == 3 * cfg.chunk_tokens
        assert cache.snapshot() == snapshot
        restored = RollingCache.restore(cache.snapshot())
        assert restored.next_index == 7

    def test_accepted_absorb_replaces_the_states(self):
        # new state values go into the cache's own list; the old values are
        # left as they were
        cfg = StreamConfig()
        cache = random_cache(cfg, 5, seed=150)
        listed, states = cache.linear_states, list(cache.linear_states)
        before = [s.L.copy() for s in states]
        evicted = append_and_absorb(cache, random_chunk_kv(cfg, 5, seed=151))
        assert evicted.chunk_index == 2
        assert cache.linear_states is listed and len(listed) == len(states)
        for new, old, L in zip(listed, states, before):
            assert new is not old and old.evicted_tokens == cfg.chunk_tokens  # chunk 1
            assert np.array_equal(old.L, L)
            assert new.evicted_tokens == 2 * cfg.chunk_tokens  # chunks 1 and 2
            assert not np.array_equal(new.L, L)


class TestRotatedWindowMemo:
    """The visible keys are rotated once per query chunk and held on the
    cache; every reuse must give what a fresh computation gives."""

    CFG = replace(TOY, keep_ratio=0.5, window_frames=12)  # real top-k selection

    def test_bit_equal_to_per_head_reference(self):
        configs = [
            self.CFG,
            replace(self.CFG, heads=3),
            TOY,  # quota == forced blocks, as in the default config: no selection
        ]
        for cfg, chunks in itertools.product(configs, (0, 1, 3, 9)):
            cache = random_cache(cfg, chunks, seed=20 + chunks)
            qkv = random_qkv(cfg, 30 + chunks)
            for layer in range(cfg.layers):
                got = hybrid_attention(qkv, cache, layer, cfg, chunks, history_proj(cfg, layer))
                want = per_head_hybrid(qkv, cache, layer, cfg, chunks)
                assert np.array_equal(got, want), (cfg.heads, cfg.keep_ratio, chunks, layer)

    def test_second_call_bit_equal_to_cold_call(self):
        cfg = self.CFG
        cache = random_cache(cfg, 8, seed=40)
        cold_cache = RollingCache.restore(cache.snapshot())
        qkv = random_qkv(cfg, 41)
        first = hybrid_attention(qkv, cache, 1, cfg, 8, history_proj(cfg, 1))
        second = hybrid_attention(qkv, cache, 1, cfg, 8, history_proj(cfg, 1))
        cold = hybrid_attention(qkv, cold_cache, 1, cfg, 8, history_proj(cfg, 1))
        assert np.array_equal(first, second)
        assert np.array_equal(second, cold)

    def test_reuse_after_change_matches_fresh(self):
        cfg = self.CFG
        cache = random_cache(cfg, 8, seed=50)
        qkv = random_qkv(cfg, 51)
        hybrid_attention(qkv, cache, 0, cfg, 9, history_proj(cfg, 0))  # fills the memo
        # a different query index past the cap moves every relative index
        got = hybrid_attention(qkv, cache, 0, cfg, 30, history_proj(cfg, 0))
        assert np.array_equal(got, per_head_hybrid(qkv, cache, 0, cfg, 30))
        # a restored snapshot carries no memo
        restored = RollingCache.restore(cache.snapshot())
        got = hybrid_attention(qkv, restored, 0, cfg, 9, history_proj(cfg, 0))
        assert np.array_equal(got, per_head_hybrid(qkv, restored, 0, cfg, 9))
        # the same query index after an append (which evicts here)
        hybrid_attention(qkv, cache, 0, cfg, 9, history_proj(cfg, 0))
        assert append_and_absorb(cache, random_chunk_kv(cfg, 8, seed=52)) is not None
        for layer in range(cfg.layers):
            got = hybrid_attention(qkv, cache, layer, cfg, 9, history_proj(cfg, layer))
            assert np.array_equal(got, per_head_hybrid(qkv, cache, layer, cfg, 9))

    def test_window_values_bit_equal_to_per_entry_concatenation(self):
        cfg = self.CFG

        def check(cache, qci):
            values = _window(cache, cfg, qci)[1]
            for layer, h in np.ndindex(cfg.layers, cfg.heads):
                want = np.concatenate([e.values[layer, h] for e, _ in cache.visible_kv(qci)])
                # the last slot is the query chunk's own, written by each pass
                assert np.array_equal(values[layer, h, :-1].reshape(want.shape), want)
            return values

        cache = random_cache(cfg, 8, seed=70)
        before = check(cache, 9)
        assert _window(cache, cfg, 9)[1] is before  # reused within the query chunk
        before = before.copy()  # the next build rewrites the workspace in place
        # an append (which evicts here) drops the memo for the same query index
        assert append_and_absorb(cache, random_chunk_kv(cfg, 8, seed=71)) is not None
        after = check(cache, 9)
        assert after.shape == before.shape
        assert not np.array_equal(after[:, :, :-1], before[:, :, :-1])
        # a restored snapshot builds its own
        restored = RollingCache.restore(cache.snapshot())
        assert check(restored, 9) is not after

    def test_snapshot_bytes_unchanged_by_memo(self):
        cfg = self.CFG
        cache = random_cache(cfg, 8, seed=60)
        before = cache.snapshot()
        qkv = random_qkv(cfg, 61)
        hybrid_attention(qkv, cache, 0, cfg, 8, history_proj(cfg, 0))
        assert cache.snapshot() == before


def traced_peak(fn) -> int:
    """Peak bytes fn() allocates on top of what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWindowWorkspace:
    """One workspace per cache, rewritten in place for each query chunk."""

    CFG = TestRotatedWindowMemo.CFG  # sink 1, capacity 4: 5 visible entries from chunk 5

    @staticmethod
    def arrays(w):
        # keys, values, block means and the keys' rotation tables; the
        # selector is shared per window layout, not owned by the cache
        return w[:5]

    def test_reused_across_steady_chunks_reallocated_in_warm_up(self):
        cfg = self.CFG
        model = ToyDenoiser(cfg)
        cache = model.new_cache()
        rng = SeededRng(80)
        seen = []
        for i in range(10):
            seen.append(self.arrays(_window(cache, cfg, i)))
            noisy_step(model, cache, rng)
        for i in range(1, 10):
            # the window grows through chunk 5, then keeps its size
            reused = [a is b for a, b in zip(seen[i], seen[i - 1])]
            assert reused == [i > 5] * 5, (i, reused)

    @pytest.mark.parametrize("size, value", [("layers", 3), ("heads", 3),
                                             ("tokens_per_frame", 2), ("head_dim", 12)])
    def test_cache_of_other_sizes_refused_before_any_change(self, size, value):
        # TOY is verify._TOY, the sizes of the verify suites' caches
        cache = RollingCache.restore(random_cache(TOY, 8, seed=85).snapshot())
        model = model_of(replace(TOY, **{size: value}))
        entries = [e.chunk_index for e in cache.entries()]
        with pytest.raises(ShapeError, match="cache does not fit the model"):
            noisy_step(model, cache, SeededRng(86))
        assert cache.next_index == 8 and [e.chunk_index for e in cache.entries()] == entries

    def test_reallocated_after_restore_and_for_other_sizes(self):
        cfg = self.CFG
        cache = random_cache(cfg, 8, seed=81)
        qkv = random_qkv(cfg, 82)
        first = self.arrays(_window(cache, cfg, 8))
        restored = RollingCache.restore(cache.snapshot())
        assert not any(a is b for a, b in zip(first, self.arrays(_window(restored, cfg, 8))))
        # two-frame chunks of 6 tokens: the same keys, other block means
        other = replace(cfg, frames_per_chunk=2, tokens_per_frame=6)
        got = hybrid_attention(qkv, cache, 1, other, 8, history_proj(other, 1))
        assert np.array_equal(got, per_head_hybrid(qkv, cache, 1, other, 8))
        assert _window(cache, other, 8)[2] is not first[2]
        # a config of the same sizes rewrites the arrays it finds
        same_sizes = replace(cfg, keep_ratio=0.25)
        kept = self.arrays(_window(cache, same_sizes, 8))
        for c in (cfg, same_sizes, cfg):
            got = hybrid_attention(qkv, cache, 0, c, 8, history_proj(c, 0))
            assert np.array_equal(got, per_head_hybrid(qkv, cache, 0, c, 8))
            assert all(a is b for a, b in zip(kept, self.arrays(_window(cache, c, 8))))

    def test_output_unchanged_by_later_passes(self):
        cfg = self.CFG
        cache = random_cache(cfg, 8, seed=83)
        qkv = random_qkv(cfg, 84)
        out = hybrid_attention(qkv, cache, 0, cfg, 8, history_proj(cfg, 0))
        kept = out.copy()
        for seed in (85, 86):
            qkv2 = random_qkv(cfg, seed)
            for layer in range(cfg.layers):
                hybrid_attention(qkv2, cache, layer, cfg, 8, history_proj(cfg, layer))
            append_and_absorb(cache, random_chunk_kv(cfg, cache.next_index, seed))
            hybrid_attention(qkv2, cache, 0, cfg, cache.next_index, history_proj(cfg, 0))
        assert np.array_equal(out, kept)

    def test_one_cache_bit_equal_to_per_head_reference_past_the_cap(self):
        # the same cache from its first chunk until relative indices saturate
        cfg = self.CFG
        cache = ToyDenoiser(cfg).new_cache()
        for i in range(MAX_TEMPORAL_INDEX + 5):
            for seed in (1000 + i, 2000 + i):  # two passes per query chunk
                qkv = random_qkv(cfg, seed)
                for layer in range(cfg.layers):
                    got = hybrid_attention(qkv, cache, layer, cfg, i, history_proj(cfg, layer))
                    want = per_head_hybrid(qkv, cache, layer, cfg, i)
                    assert np.array_equal(got, want), (i, seed, layer)
            append_and_absorb(cache, random_chunk_kv(cfg, i, seed=3000 + i))

    def test_steady_chunk_allocates_less_than_a_layer_of_window_keys(self, monkeypatch):
        # window 45 in steady state: 16 visible entries of 48 tokens
        cfg = replace(StreamConfig(), window_frames=45)
        cache = random_cache(cfg, 17, seed=87)
        qkv = random_qkv(cfg, 88)
        hybrid_attention(qkv, cache, 0, cfg, 17, history_proj(cfg, 0))
        append_and_absorb(cache, random_chunk_kv(cfg, 17, seed=89))
        visible = len(cache.visible_kv(18))
        assert visible == 16
        layer_keys = cfg.heads * visible * cfg.chunk_tokens * cfg.head_dim * 8

        # the chunk's rebuild rewrites the last chunk's arrays
        assert traced_peak(lambda: _window(cache, cfg, 18)) < layer_keys

        # a pass holds nothing that large beside its gathered softmax, whose
        # own temporaries test_sparse_local bounds
        calls = []

        def kernel(*args, **kwargs):
            calls.append((args, kwargs))
            return sparse_attention(*args, **kwargs)

        monkeypatch.setattr(engine, "sparse_attention", kernel)
        proj = history_proj(cfg, 1)
        hybrid_attention(qkv, cache, 1, cfg, 18, proj)
        attention = traced_peak(lambda: hybrid_attention(qkv, cache, 1, cfg, 18, proj))
        args, kwargs = calls[-1]
        softmax = traced_peak(lambda: sparse_attention(*args, **kwargs))
        assert attention - softmax < layer_keys, (attention, softmax, layer_keys)


class TestWindowFill:
    """The window is filled entry by entry and rotated in one shot, and its
    block means are summed into their slots: bit for bit what per-entry
    rotations and block_means give."""

    @pytest.mark.parametrize("cfg, chunks", [
        (TestRotatedWindowMemo.CFG, 9),
        (replace(StreamConfig(), window_frames=45), 30),  # 16 entries, past the cap
        (_FIXTURE, 3),
    ])
    def test_bit_equal_to_per_entry_rotation_and_block_means(self, cfg, chunks):
        cache = random_cache(cfg, chunks, seed=130)
        keys, values, means = _window(cache, cfg, chunks)[:3]
        visible = cache.visible_kv(chunks)
        rel = temporal_index(chunks, [dist for _, dist in visible])
        for i, ((entry, _), t) in enumerate(zip(visible, rel)):
            assert np.array_equal(keys[:, :, i], apply_rope(entry.keys, t))
            assert np.array_equal(values[:, :, i], entry.values)
        n = len(visible)
        window_keys = keys[:, :, :n].reshape(cfg.layers, cfg.heads, -1, cfg.head_dim)
        assert np.array_equal(means[:, :, :n * cfg.blocks_per_chunk],
                              block_means(window_keys, cfg.block_tokens))


class TestSharedTables:
    """The rotation tables, the block layouts and the masks whose quota
    leaves no choice are built once per sizes and shared by every cache,
    config and seed that has them."""

    @staticmethod
    def stream_every_mode(seed):
        for window in (9, 45):
            for mode in BENCH_MODES:
                cfg = config_for_mode(mode, replace(TOY, window_frames=window, seed=seed))
                run_stream(cfg, 18)  # window 45 is full from chunk 16

    def test_bounded_and_independent_of_the_seed(self):
        caches = (position_tables, engine._block_layout)
        for c in caches:
            c.cache_clear()
        self.stream_every_mode(seed=1)
        first = [c.cache_info() for c in caches]
        assert all(0 < info.currsize < info.maxsize for info in first), first
        for seed in (2, 3):
            self.stream_every_mode(seed)
        # no entry was added or rebuilt: every later lookup hit
        for info, c in zip(first, caches):
            now = c.cache_info()
            assert (now.currsize, now.misses) == (info.currsize, info.misses), (info, now)

    def test_shared_arrays_are_read_only(self):
        cache = random_cache(TOY, 8, seed=95)
        bcfg, q_cos, q_sin = _window(cache, TOY, 8)[5:]
        cos, sin = position_tables(TOY.head_dim, TOY.chunk_tokens)
        # sink 1 and own 3 of 15 blocks forced, quota 3: one mask for the layout
        rows = build_mask(np.zeros((TOY.heads * TOY.blocks_per_chunk, 15)), bcfg)
        packed = rows.block_diagonal(TOY.heads)
        for a in (cos, sin, q_cos, q_sin, bcfg.forced_index, rows.active, packed.active):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_query_tables_are_the_capped_index_views(self):
        cache = random_cache(TOY, 8, seed=96)
        cos, sin = position_tables(TOY.head_dim, TOY.chunk_tokens)
        for qci in (8, MAX_TEMPORAL_INDEX + 9):
            q_cos, q_sin = _window(cache, TOY, qci)[6:]
            t = temporal_index(qci)
            assert q_cos.base is cos and q_sin.base is sin
            assert np.array_equal(q_cos, cos[t]) and np.array_equal(q_sin, sin[t])

    @staticmethod
    def steady_chunk(monkeypatch, window):
        """The masks a steady chunk at `window` frames makes, each as
        (constructor, mask): "copy" for BlockMask(active), "made" for the
        masks made with the index their maker fixed."""
        cfg = StreamConfig(window_frames=window, seed=22)
        model = ToyDenoiser(cfg)
        cache = model.new_cache()
        rng = SeededRng(23)
        for _ in range(20):  # a 45-frame window is full from chunk 16
            noisy_step(model, cache, rng)
        masks = []
        init, made = BlockMask.__post_init__, BlockMask._made
        monkeypatch.setattr(BlockMask, "__post_init__",
                            lambda m: (masks.append(("copy", m)), init(m)))
        monkeypatch.setattr(BlockMask, "_made", classmethod(
            lambda cls, active, index: masks.append(("made", made(active, index))) or masks[-1][1]))
        noisy_step(model, cache, rng)
        monkeypatch.undo()
        return masks

    @pytest.mark.parametrize("window, built", [(9, 0), (45, 20)])
    def test_masks_built_per_steady_chunk(self, monkeypatch, window, built):
        # the default layout's quota is its 6 forced blocks of 15, so every
        # pass reuses one mask and its packing; a 45-frame window picks 11 of
        # 51, so each of a chunk's 10 passes builds its rows and their packing
        assert len(self.steady_chunk(monkeypatch, window)) == built

    def test_masks_are_made_with_their_counted_plans(self, monkeypatch):
        # a steady window-45 chunk makes its 20 masks without copying a matrix
        assert [kind for kind, _ in self.steady_chunk(monkeypatch, 45)] == ["made"] * 20
        # and every mask attended, in every mode and width, has the index that
        # BlockMask(active) reads off its matrix
        seen = []
        attend = engine.sparse_attention
        monkeypatch.setattr(engine, "sparse_attention",
                            lambda q, k, v, mask, **kw: (seen.append(mask),
                                                         attend(q, k, v, mask, **kw))[1])
        for window in (9, 45):
            for mode in BENCH_MODES:
                run_stream(config_for_mode(mode, replace(TOY, window_frames=window)), 18)
        run_stream(replace(TOY, window_frames=45, keep_ratio=0.5), 18)
        assert len(seen) == 9 * 18 * 5 * TOY.layers
        for mask in seen:
            got, want = mask.index, BlockMask(mask.active).index
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert not got.flags.writeable


class TestContiguousQkv:
    @pytest.mark.parametrize("window", [9, 45])
    def test_every_pass_attends_a_contiguous_qkv(self, monkeypatch, window):
        # forward copies the head split of its QKV product once per layer pass,
        # so what hybrid_attention rotates, reads out and writes to its slots
        # is unit-stride, in the denoise passes and the keys-only cache pass
        cfg = StreamConfig(window_frames=window, seed=24)
        model = ToyDenoiser(cfg)
        cache = model.new_cache()
        rng = SeededRng(25)
        attend = engine.hybrid_attention
        seen = []

        def spy(qkv, cache, layer, cfg, qci, history_proj, counters=None):
            seen.append((qkv.flags.c_contiguous, history_proj is None))
            return attend(qkv, cache, layer, cfg, qci, history_proj, counters)

        monkeypatch.setattr(engine, "hybrid_attention", spy)
        chunks = cfg.sink_chunks + cfg.capacity_chunks + 2  # past the first eviction
        for _ in range(chunks):
            noisy_step(model, cache, rng)
        assert len(seen) == chunks * (len(cfg.denoise_timesteps) + 1) * cfg.layers
        assert all(contiguous for contiguous, _ in seen)
        # one keys-only layer (the cache pass's last, with no projection) per chunk
        assert sum(keys_only for _, keys_only in seen) == chunks


class TestHistorySkip:
    """An empty linear state is not read out; its readout was exact zeros."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("history_output called on an empty history")

    @staticmethod
    def with_empty_readout(qkv, cache, layer, cfg, qci):
        # the per-head reference plus the empty state's (all-zero) readout,
        # if the cache has a state at all
        cos, sin = position_tables(cfg.head_dim, cfg.chunk_tokens)
        t = temporal_index(qci)
        out = per_head_hybrid(qkv, cache, layer, cfg, qci)
        for state in cache.linear_states[layer:layer + 1]:
            assert state.evicted_tokens == 0
            out = out + history_output(state, qkv[0], cos[t], sin[t], history_proj(cfg, layer))
        return out

    @pytest.mark.parametrize("cfg, chunks", [
        (TOY, 4),  # sink 1, capacity 3: the next append is the first eviction
        (replace(TOY, linear_history=False), 9),  # five chunks dropped, none absorbed
    ])
    def test_empty_history_not_read(self, monkeypatch, cfg, chunks):
        cache = random_cache(cfg, chunks, seed=97)
        qkv = random_qkv(cfg, 98)
        want = [self.with_empty_readout(qkv, cache, layer, cfg, chunks)
                for layer in range(cfg.layers)]
        monkeypatch.setattr(engine, "history_output", self.refuse)
        for layer in range(cfg.layers):
            got = hybrid_attention(qkv, cache, layer, cfg, chunks, history_proj(cfg, layer))
            assert np.array_equal(got, want[layer]), layer
        # whole chunk steps: before the first eviction, and with no history
        model = ToyDenoiser(cfg)
        stream = model.new_cache()
        for _ in range(chunks + 1):
            noisy_step(model, stream, SeededRng(99))

    def test_read_once_per_pass_after_an_eviction(self, monkeypatch):
        cfg = TOY
        model = ToyDenoiser(cfg)
        cache = random_cache(cfg, 5, seed=100, model=model)
        states = list(cache.linear_states)  # the chunk's eviction replaces them at its end
        assert all(s.evicted_tokens for s in states)
        calls, timesteps = [], []
        forward = model.forward

        def spy_forward(x, t, *args, **kwargs):
            timesteps.append(t)
            return forward(x, t, *args, **kwargs)

        def spy(*args, **kwargs):
            calls.append((timesteps[-1], args[0]))
            return history_output(*args, **kwargs)

        monkeypatch.setattr(model, "forward", spy_forward)
        monkeypatch.setattr(engine, "history_output", spy)
        noisy_step(model, cache, SeededRng(101))
        passes = len(cfg.denoise_timesteps) + 1
        # the t=0 cache pass discards its last layer's attention output, and
        # with it that layer's readout
        assert len(calls) == passes * cfg.layers - 1
        want = [(t, s) for t in (*cfg.denoise_timesteps, 0.0) for s in states][:-1]
        assert all(t == u and a is b for (t, a), (u, b) in zip(calls, want))


class TestHybridAttention:
    def test_history_only_probe(self):
        # zero every visible value: the local term is exactly zero and the
        # hybrid output equals the history readout alone
        cfg = TOY
        cache = random_cache(cfg, 8, seed=5)
        for e in cache.entries():
            e.values[:] = 0.0
        qkv = random_qkv(cfg, 77)
        qkv[2] = 0.0
        cos, sin = position_tables(cfg.head_dim, cfg.chunk_tokens)
        t = temporal_index(8)
        for layer in range(cfg.layers):
            got = hybrid_attention(qkv, cache, layer, cfg, 8, history_proj(cfg, layer))
            hist = history_output(cache.linear_states[layer], qkv[0], cos[t], sin[t],
                                  history_proj(cfg, layer))
            assert np.abs(got - hist).max() < 1e-9

    def test_zero_query_closed_form(self):
        # q = 0: local rows are uniform means over the keys of active
        # blocks; the history term is the feature map at zero read out of
        # (L, H). Both are evaluated directly.
        cfg = TOY
        cache = random_cache(cfg, 8, seed=6)
        qkv = random_qkv(cfg, 88)
        qkv[0] = 0.0
        q, k_self, v_self = qkv
        layer = 0
        got = hybrid_attention(qkv, cache, layer, cfg, 8, history_proj(cfg, layer))

        q_index = temporal_index(8)
        visible = cache.visible_kv(8)
        bpc = cfg.blocks_per_chunk
        forced = set()
        for pos, (entry, _) in enumerate(visible):
            if entry.chunk_index < cfg.sink_chunks:
                forced.update(range(pos * bpc, (pos + 1) * bpc))
        forced.update(range(len(visible) * bpc, (len(visible) + 1) * bpc))
        bcfg = BlockConfig(cfg.keep_ratio, frozenset(forced))
        local_heads = []
        for h in range(cfg.heads):
            k_parts = [apply_rope(e.keys[layer, h], temporal_index(8, dist))
                       for e, dist in visible]
            k_parts.append(apply_rope(k_self[h], q_index))
            v_parts = [e.values[layer, h] for e, _ in visible] + [v_self[h]]
            k_full = np.concatenate(k_parts)
            v_full = np.concatenate(v_parts)
            q_rot = apply_rope(q[h], q_index)
            b = cfg.block_tokens
            mask = build_mask(block_scores(block_means(q_rot, b), block_means(k_full, b)), bcfg)
            rows = []
            for i in range(mask.shape[0]):
                vals = np.concatenate(
                    [v_full[j * b:(j + 1) * b] for j in np.flatnonzero(mask.active[i])])
                rows.append(np.repeat(vals.mean(axis=0)[None, :], b, axis=0))
            local_heads.append(np.concatenate(rows))
        local = np.concatenate(local_heads, axis=1)

        state = cache.linear_states[layer]
        fq = elu_plus_one(q)  # elu1(0) = 1 everywhere
        per_head = []
        for h in range(cfg.heads):
            num = apply_rope(fq[h], q_index) @ state.L[h]
            den = fq[h] @ state.H[h] + 1e-6
            per_head.append(num / den[:, None])
        hist = np.concatenate(per_head, axis=1) @ history_proj(cfg, layer)
        assert np.abs(got - (local + hist)).max() < 1e-9

    @pytest.mark.parametrize("layer, error", [(-1, ContractViolationError),
                                              (2, ContractViolationError),
                                              (1.0, TypeError), (True, TypeError),
                                              pytest.param(np.float64(1.0), TypeError,
                                                           id="float64-TypeError"),
                                              pytest.param(np.array(1.0), TypeError,
                                                           id="0d-float-TypeError")])
    def test_layer_outside_the_model_rejected(self, layer, error):
        # -1 would read the last layer's slots, 1.0 index them as 1, True broadcast
        cache = random_cache(TOY, 8, seed=7)
        with pytest.raises(error, match="layer"):
            hybrid_attention(random_qkv(TOY, 89), cache, layer, TOY, 8, history_proj(TOY, 0))
        assert cache._memo is None  # refused before the workspace was built

    def test_plain_int_layer_and_distances_skip_as_index(self, monkeypatch):
        # a plain int is taken as it is; anything else still goes through
        # as_index (test_layer_outside_the_model_rejected and
        # test_non_integer_position_or_distance_rejected pin its refusals)
        taken = []

        def counted(value, name):
            taken.append(name)
            return as_index(value, name)

        for module in (engine, rope, sparse_local):
            monkeypatch.setattr(module, "as_index", counted)
        model = model_of(TOY)
        cache, rng = model.new_cache(), SeededRng(131)
        for _ in range(5):  # the window fills by chunk 4; each layout is built once
            noisy_step(model, cache, rng)
        taken.clear()
        for _ in range(2):
            noisy_step(model, cache, rng)
        assert taken == []
        qkv, proj = random_qkv(TOY, 132), history_proj(TOY, 1)
        want = hybrid_attention(qkv, cache, 1, TOY, 7, proj)
        assert np.array_equal(hybrid_attention(qkv, cache, np.int64(1), TOY, 7, proj), want)
        assert taken == ["layer"]
        assert temporal_index(np.int64(30), [np.int64(3), 2]) == [18, 19]
        assert taken[-2:] == ["chunk_pos", "distance"]


class TestDenseOracle:
    def test_single_token_history(self):
        cfg = replace(TOY, frames_per_chunk=1, window_frames=2, tokens_per_frame=1,
                      sink_chunks=0)
        kv = random_chunk_kv(cfg, 0, seed=3)
        q, k_self, v_self = random_qkv(cfg, 4)
        out = dense_oracle_attention(q, k_self, v_self, [], 0, cfg, 0)
        # with no history, a single-token chunk attends only to itself:
        # softmax over one key returns that key's value exactly
        want = np.concatenate([v_self[h] for h in range(cfg.heads)], axis=1)
        assert np.abs(out - want).max() < 1e-12
        del kv

    def test_matches_naive_token_loop(self):
        cfg = TOY
        history = [random_chunk_kv(cfg, i, seed=50 + i) for i in range(4)]
        q, k_self, v_self = random_qkv(cfg, 60)
        qci = 4
        got = dense_oracle_attention(q, k_self, v_self, history, 1, cfg, qci)

        q_index = temporal_index(qci)
        scale = 1.0 / math.sqrt(cfg.head_dim)
        outs = []
        for h in range(cfg.heads):
            keys, vals = [], []
            for e in history:
                rel = temporal_index(qci, qci - e.chunk_index)
                rk = apply_rope(e.keys[1, h], rel)
                for tok in range(cfg.chunk_tokens):
                    keys.append(rk[tok])
                    vals.append(e.values[1, h, tok])
            rk = apply_rope(k_self[h], q_index)
            for tok in range(cfg.chunk_tokens):
                keys.append(rk[tok])
                vals.append(v_self[h, tok])
            qr = apply_rope(q[h], q_index)
            rows = []
            for tok in range(cfg.chunk_tokens):
                logits = np.array([qr[tok] @ kk * scale for kk in keys])
                w = np.exp(logits - logits.max())
                w /= w.sum()
                rows.append(sum(wi * vi for wi, vi in zip(w, vals)))
            outs.append(np.stack(rows))
        want = np.concatenate(outs, axis=1)
        assert np.abs(got - want).max() < 1e-10


class TestToyDenoiser:
    def test_deterministic(self):
        model = ToyDenoiser(TOY)
        cache = random_cache(TOY, 3, seed=9, model=model)
        x = SeededRng(1).normal((TOY.chunk_tokens, TOY.model_dim))
        a = model.forward(x, 0.5, cache, 3)[0]
        b = model.forward(x, 0.5, cache, 3)[0]
        assert np.array_equal(a, b)

    def test_finite_under_large_inputs(self):
        model = ToyDenoiser(TOY)
        cache = random_cache(TOY, 3, seed=10, model=model)
        rng = SeededRng(11)
        for scale in (1.0, 10.0, 1e2, 1e3):
            x = rng.normal((TOY.chunk_tokens, TOY.model_dim)) * scale
            out = model.forward(x, 0.25, cache, 3)[0]
            assert np.isfinite(out).all()

    def test_seed_changes_weights(self):
        a = ToyDenoiser(TOY)
        b = ToyDenoiser(replace(TOY, seed=123))
        cache_a = random_cache(TOY, 1, seed=12, model=a)
        cache_b = random_cache(replace(TOY, seed=123), 1, seed=12, model=b)
        x = SeededRng(13).normal((TOY.chunk_tokens, TOY.model_dim))
        assert not np.array_equal(a.forward(x, 0.5, cache_a, 1)[0],
                                  b.forward(x, 0.5, cache_b, 1)[0])

    def test_no_state_without_the_history_pathway(self):
        assert ToyDenoiser(replace(TOY, linear_history=False)).new_cache().linear_states == []
        states = ToyDenoiser(TOY).new_cache().linear_states
        assert [(s.heads, s.head_dim, s.evicted_tokens) for s in states] == [(2, 8, 0)] * 2
        # evictions are dropped: the stream ends with no state
        res = run_stream(config_for_mode("swa", TOY), TOY.capacity_chunks + 3)
        assert res.final_cache.linear_states == []

    def test_output_shape_matches_input(self):
        model = ToyDenoiser(TOY)
        cache = model.new_cache()
        x = SeededRng(14).normal((TOY.chunk_tokens, TOY.model_dim))
        out = model.forward(x, 1.0, cache, 0)[0]
        assert out.shape == x.shape

    def test_unknown_timestep_rejected(self):
        model = ToyDenoiser(TOY)
        cache = model.new_cache()
        x = np.zeros((TOY.chunk_tokens, TOY.model_dim))
        with pytest.raises(ValueError):
            model.forward(x, 0.33, cache, 0)

    def test_bad_shape_rejected(self):
        model = ToyDenoiser(TOY)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 3)), 1.0, model.new_cache(), 0)


class TestGenerateStream:
    def test_single_chunk_no_eviction(self):
        res = run_stream(TOY, 1)
        assert len(res.latents) == 1
        # the window never filled, so nothing was evicted or absorbed
        assert all(s.evicted_tokens == 0 for s in res.final_cache.linear_states)
        assert res.final_cache.total_cached_tokens == TOY.chunk_tokens

    def test_eviction_absorbs_into_state(self):
        res = run_stream(TOY, TOY.sink_chunks + TOY.capacity_chunks + 2)
        expected = 2 * TOY.chunk_tokens
        assert all(s.evicted_tokens == expected
                   for s in res.final_cache.linear_states)

    def test_deterministic_across_runs(self):
        a = run_stream(TOY, 6).latents
        b = run_stream(TOY, 6).latents
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_long_horizon_finite_and_capped(self):
        # 100 chunks run far past the RoPE cap (21); every index from chunk
        # 21 on is the capped one
        res = run_stream(TOY, 100)
        assert all(np.isfinite(x).all() for x in res.latents)

    def test_norm_band_regression(self):
        # frozen band for the default toy fixture (seed 0); regenerating the
        # fixture must stay inside it
        res = run_stream(StreamConfig(), 40)
        norms = np.array([np.linalg.norm(x) for x in res.latents])
        assert norms.min() > 10.0
        assert norms.max() < 1e5

    def test_model_built_from_another_config_rejected(self):
        model = ToyDenoiser(replace(TOY, seed=5))
        with pytest.raises(ValueError, match="seed=5.*seed=0"):
            run_stream(TOY, 2, model)
        assert np.array_equal(run_stream(TOY, 2, ToyDenoiser(TOY)).latents[1],
                              run_stream(TOY, 2).latents[1])

    def test_num_chunks_that_is_not_an_integer_rejected(self):
        # 2.0 and True failed inside numpy, naming no argument
        assert len(run_stream(TOY, np.int64(2)).latents) == 2
        for bad in (2.0, True, "2"):
            with pytest.raises(TypeError, match="num_chunks must be an integer"):
                run_stream(TOY, bad)

    def test_memory_bound(self):
        res = run_stream(TOY, 30)
        expected = (TOY.sink_chunks + TOY.capacity_chunks) * TOY.chunk_tokens
        assert res.peak_cached_tokens == expected


class TestCostModel:
    def test_counts_match_analytic_formula(self):
        for mode in ("hybrid", "dense21", "swa", "swa_sink"):
            cfg = config_for_mode(mode, TOY)
            res = run_stream(cfg, 10)
            for i in range(10):
                assert res.chunk_score_evals[i] == expected_score_evals(cfg, i), mode

    def test_hybrid_strictly_cheaper_than_dense21(self):
        hybrid = config_for_mode("hybrid", TOY)
        dense = config_for_mode("dense21", TOY)
        h = run_stream(hybrid, 12)
        d = run_stream(dense, 12)
        steady = slice(8, 12)
        assert (h.chunk_score_evals[steady] < d.chunk_score_evals[steady]).all()
        # steady-state ratio is exact and integral for the toy geometry
        ratio = d.chunk_score_evals[-1] / h.chunk_score_evals[-1]
        want = expected_score_evals(dense, 11) / expected_score_evals(hybrid, 11)
        assert ratio == want

    def test_same_seed_same_counts(self):
        cfg = config_for_mode("hybrid", TOY)
        a = run_stream(cfg, 6)
        b = run_stream(cfg, 6)
        assert np.array_equal(a.chunk_score_evals, b.chunk_score_evals)
        assert np.array_equal(a.chunk_pooled_scores, b.chunk_pooled_scores)


class TestNoiseSchedule:
    def test_rectified_flow_endpoints(self):
        assert rectified_flow(0.0) == (1.0, 0.0)
        assert rectified_flow(1.0) == (0.0, 1.0)


class TestConfigValidation:
    def test_window_divisibility(self):
        with pytest.raises(ValueError):
            StreamConfig(window_frames=10, frames_per_chunk=3)

    def test_timesteps_descending(self):
        with pytest.raises(ValueError):
            StreamConfig(denoise_timesteps=(0.5, 0.75))

    def test_seed_range(self):
        StreamConfig(seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                StreamConfig(seed=seed)

    def test_fractional_seed_rejected(self):
        # SeededRng would run seed 1's stream while the config says 1.5
        assert StreamConfig(seed=np.int64(3)).seed == 3
        for seed in (1.5, 2.0):
            with pytest.raises(TypeError, match="seed must be an integer"):
                StreamConfig(seed=seed)

    @pytest.mark.parametrize("name", ["frames_per_chunk", "window_frames", "sink_chunks",
                                      "tokens_per_frame", "heads", "head_dim", "layers"])
    def test_fractional_integer_field_rejected(self, name):
        # sink_chunks=0.5 streamed with one sink while its config said 0.5, and
        # heads=2.0 failed late, inside run_stream, with a bare TypeError
        value = getattr(StreamConfig(), name)
        held = getattr(StreamConfig(**{name: np.int64(value)}), name)
        assert held == value and type(held) is int
        for bad in (value + 0.5, float(value)):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                StreamConfig(**{name: bad})

    def test_bool_integer_field_rejected(self):
        # heads=True was held as 1
        with pytest.raises(TypeError, match="heads must be an integer, got True"):
            StreamConfig(heads=True)

    @pytest.mark.parametrize("name, whole", [("keep_ratio", 1)])
    def test_float_field_that_is_not_a_number_rejected(self, name, whole):
        # keep_ratio=True was held as 1.0, and keep_ratio="0.5" failed comparing
        # a float with a str, naming no field
        value = getattr(StreamConfig(), name)
        for good in (np.float64(value), whole):
            held = getattr(StreamConfig(**{name: good}), name)
            assert held == good and type(held) is float
        for bad in (True, str(value), None):
            with pytest.raises(TypeError, match=f"{name} must be a real number, got {bad!r}"):
                StreamConfig(**{name: bad})

    def test_timesteps_held_as_a_tuple(self):
        # a list was held as given: the config could not be hashed, and the
        # schedule could be changed after check_timesteps passed it
        schedule = [1.0, 0.5]
        cfg = StreamConfig(denoise_timesteps=schedule)
        schedule.append(0.75)
        assert cfg.denoise_timesteps == (1.0, 0.5)
        assert cfg == StreamConfig(denoise_timesteps=(1.0, 0.5))
        assert hash(cfg) == hash(StreamConfig(denoise_timesteps=(1.0, 0.5)))
        held = StreamConfig(denoise_timesteps=(np.float32(0.5),)).denoise_timesteps
        assert held == (0.5,) and type(held[0]) is float

    @pytest.mark.parametrize("config, name, schedule", [
        (StreamConfig, "denoise_timesteps", (True,)),
        (StreamConfig, "denoise_timesteps", ("1.0",)),
        (DistillConfig, "timesteps", "1"),
        (StreamConfig, "denoise_timesteps", 0.5),
        (DistillConfig, "timesteps", 0.5),
    ])
    def test_timestep_that_is_not_a_number_rejected(self, config, name, schedule):
        # (True,) was held as given; "1.0" and "1" failed comparing a float
        # with a str, and 0.5 failed iterating a float, both naming no field
        with pytest.raises(TypeError, match=f"{name} must be a"):
            config(**{name: schedule})

    @pytest.mark.parametrize("value", ["no", 2, 1, None])
    def test_non_bool_linear_history_rejected(self, value):
        # linear_history="no" streamed with history while the config held "no"
        with pytest.raises(TypeError, match=f"linear_history must be a bool, got {value!r}"):
            StreamConfig(linear_history=value)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            config_for_mode("nope", TOY)
