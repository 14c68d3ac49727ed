"""Block-sparse attention tests: pooled scores, masks, the gathered softmax
and heads packed into one call."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from hybridstream.errors import ContractViolationError, ShapeError
from hybridstream.numerics import SeededRng, softmax_rows
from hybridstream.sparse_local import (
    BlockConfig,
    BlockMask,
    block_means,
    block_scores,
    build_mask,
    sparse_attention,
)
from hybridstream.verify import masked_dense_attention, random_mask


def reference_mask(scores, cfg):
    """Row-by-row top-K selection: walk each row in (-score, index) order and
    take the first free blocks until the quota is met."""
    t_m, t_n = scores.shape
    forced = sorted(cfg.forced_blocks)
    quota = max(len(forced), int(np.ceil(cfg.keep_ratio * t_n)))
    active = np.zeros((t_m, t_n), dtype=bool)
    active[:, forced] = True
    for i in range(t_m):
        taken = 0
        for j in np.lexsort((np.arange(t_n), -scores[i])):
            if taken >= quota - len(forced):
                break
            if not active[i, j]:
                active[i, j] = True
                taken += 1
    return active


def pooled_scores(q, k, b_q, b_kv):
    return block_scores(block_means(q, b_q), block_means(k, b_kv))


def random_qkv(seed, n_q=16, n_kv=32, d=8):
    rng = SeededRng(seed)
    return rng.normal((n_q, d)), rng.normal((n_kv, d)), rng.normal((n_kv, d))


class TestBlockScores:
    def test_identical_key_blocks_give_constant_rows(self):
        rng = SeededRng(0)
        q = rng.normal((8, 4))
        kb = rng.normal((4, 4))
        k = np.concatenate([kb, kb, kb], axis=0)
        scores = pooled_scores(q, k, 4, 4)
        assert np.abs(scores - scores[:, :1]).max() < 1e-12

    def test_all_ones_blocks_score_is_dim(self):
        d = 6
        q = np.ones((4, d))
        k = np.ones((4, d))
        scores = pooled_scores(q, k, 4, 4)
        assert scores.shape == (1, 1)
        assert abs(scores[0, 0] - d) < 1e-12

    def test_matches_per_token_mean_oracle(self):
        q, k, _ = random_qkv(1)
        scores = pooled_scores(q, k, 4, 8)
        t_m, t_n = scores.shape
        for i in range(t_m):
            qi = q[i * 4:(i + 1) * 4].mean(axis=0)
            for j in range(t_n):
                kj = k[j * 8:(j + 1) * 8].mean(axis=0)
                assert abs(scores[i, j] - qi @ kj) < 1e-12

    def test_block_means_round_as_numpy_mean(self):
        rng = SeededRng(15)
        for shape, block in (((48, 16), 16), ((2, 2, 6, 48, 16), 16), ((3, 40, 8), 8),
                             ((12, 4), 3)):
            x = rng.normal(shape) * 1e3
            want = x.reshape(*shape[:-2], -1, block, shape[-1]).mean(axis=-2)
            assert np.array_equal(block_means(x, block), want), shape

    def test_indivisible_tokens_rejected(self):
        for shape in ((5, 4), (2, 7, 4), (4,)):
            with pytest.raises(ShapeError):
                block_means(np.zeros(shape), 4)
        for block in (0, -4):  # refused before the modulo (0 divided by zero)
            with pytest.raises(ShapeError, match=f"blocks of {block}"):
                block_means(np.zeros((8, 4)), block)

    @pytest.mark.parametrize("block", [2.0, True, np.float64(4.0), np.array(4.0)])
    def test_non_integer_block_rejected(self, block):
        # 2.0 and True reached reshape unchecked and failed there, unnamed
        with pytest.raises(TypeError, match="block must be an integer"):
            block_means(np.zeros((8, 4)), block)

    def test_integer_block_types_accepted(self):
        x = SeededRng(16).normal((8, 4))
        for block in (np.int64(4), np.array(4)):
            assert np.array_equal(block_means(x, block), block_means(x, 4))

    def test_batched_bit_equal_to_per_slice_calls(self):
        rng = SeededRng(16)
        q, k = rng.normal((2, 3, 16, 8)), rng.normal((2, 3, 40, 8))
        got = pooled_scores(q, k, 4, 8)
        assert got.shape == (2, 3, 4, 5)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], pooled_scores(q[i, j], k[i, j], 4, 8))
            assert np.array_equal(block_means(k, 8)[i, j], block_means(k[i, j], 8))

    def test_leading_dims_must_agree(self):
        for q, k in [((2, 2, 4), (3, 2, 4)), ((2, 2, 4), (2, 4)), ((2, 4), (2,)),
                     ((2, 2, 4), (2, 2, 5))]:
            with pytest.raises(ShapeError):
                block_scores(np.zeros(q), np.zeros(k))


class TestBuildMask:
    def test_dense_limit(self):
        scores = SeededRng(2).normal((3, 5))
        mask = build_mask(scores, BlockConfig(1.0))
        assert mask.active.all()

    def test_argsort_oracle(self):
        scores = np.array([[3.0, 1.0, 2.0, 0.0]])
        mask = build_mask(scores, BlockConfig(0.5))  # quota ceil(0.5*4)=2
        assert set(np.flatnonzero(mask.active[0])) == {0, 2}

    def test_tie_break_by_lower_index(self):
        scores = np.zeros((2, 4))
        mask = build_mask(scores, BlockConfig(0.5))
        for row in mask.active:
            assert set(np.flatnonzero(row)) == {0, 1}

    def test_forced_blocks_always_active(self):
        scores = np.array([[10.0, 9.0, 8.0, -5.0]])
        mask = build_mask(scores, BlockConfig(0.25, frozenset({3})))
        assert mask.active[0, 3]

    def test_quota_is_max_of_forced_and_ratio(self):
        scores = SeededRng(3).normal((4, 10))
        forced = frozenset({0, 1, 2, 3})
        mask = build_mask(scores, BlockConfig(0.2, forced))  # ceil(2) < 4 forced
        assert (mask.active.sum(axis=1) == 4).all()
        mask2 = build_mask(scores, BlockConfig(0.8, forced))  # ceil(8) > forced
        assert (mask2.active.sum(axis=1) == 8).all()

    def test_deterministic(self):
        scores = SeededRng(4).normal((6, 12))
        cfg = BlockConfig(0.3, frozenset({5}))
        a = build_mask(scores, cfg)
        b = build_mask(scores, cfg)
        assert np.array_equal(a.active, b.active)

    def test_matches_reference_loop_with_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            t_m, t_n = rng.integers(1, 7), rng.integers(1, 25)
            # few distinct values, so rows are full of ties
            scores = rng.integers(-3, 4, size=(t_m, t_n)).astype(np.float64)
            forced = frozenset(rng.choice(t_n, size=rng.integers(0, t_n + 1),
                                          replace=False).tolist())
            ratios = [0.01, float(rng.uniform(0.01, 1.0)), 1.0]
            if forced:
                ratios.append(len(forced) / t_n)  # quota equal to the forced count
            for ratio in ratios:
                cfg = BlockConfig(ratio, forced)
                got = build_mask(scores, cfg).active
                assert np.array_equal(got, reference_mask(scores, cfg)), (trial, ratio)
                quota = max(len(forced), int(np.ceil(ratio * t_n)))
                assert (got.sum(axis=1) == quota).all()
                if ratio == 1.0:
                    assert got.all()  # quota equal to t_n

    def test_stacked_head_rows_equal_per_head_masks(self):
        # the engine builds one mask over [heads * t_m, t_n]: each row is one
        # (head, query block) pair with the same forced set and quota
        rng = np.random.default_rng(17)
        for trial in range(50):
            heads, t_m, t_n = rng.integers(1, 4), rng.integers(1, 5), rng.integers(2, 20)
            scores = rng.integers(-2, 3, size=(heads, t_m, t_n)).astype(np.float64)
            forced = frozenset(rng.choice(t_n, size=rng.integers(0, t_n), replace=False).tolist())
            cfg = BlockConfig(float(rng.uniform(0.05, 1.0)), forced)
            stacked = build_mask(scores.reshape(heads * t_m, t_n), cfg).active
            per_head = np.concatenate([build_mask(scores[h], cfg).active for h in range(heads)])
            assert np.array_equal(stacked, per_head)

    def test_forced_index_sorted_read_only_and_built_once(self):
        cfg = BlockConfig(0.5, frozenset({7, 0, 3}))
        index = cfg.forced_index
        assert index.tolist() == [0, 3, 7] and cfg.forced_index is index
        with pytest.raises(ValueError):
            index[0] = 1
        assert BlockConfig(0.5).forced_index.size == 0
        # a forced block past the key blocks is named in the error
        with pytest.raises(ShapeError, match=r"\[0, 3, 7\] out of range for 5"):
            build_mask(np.zeros((2, 5)), cfg)

    @pytest.mark.parametrize("forced", [{1.5}, {True}, {np.float64(1.0)}, {0, 2.0}])
    def test_non_integer_forced_block_rejected(self, forced):
        # a float is not truncated (1.5 was block 1), and True is not block 1
        with pytest.raises(TypeError, match="forced_blocks"):
            BlockConfig(0.5, frozenset(forced))

    def test_every_row_nonempty(self):
        scores = SeededRng(5).normal((8, 3))
        mask = build_mask(scores, BlockConfig(0.01))
        assert mask.active.any(axis=1).all()

    def test_empty_row_mask_rejected(self):
        with pytest.raises(ContractViolationError):
            BlockMask(np.zeros((2, 3), dtype=bool))

    def test_one_shared_mask_exactly_when_the_quota_leaves_no_choice(self):
        # the engine's layouts: sink blocks and the chunk's own blocks forced
        rng = SeededRng(20)
        for ratio, entries, sinks, bpc in itertools.product(
                (0.2, 0.5, 1.0), range(17), (0, 1), (1, 3)):
            if sinks > entries:
                continue
            t_n = (entries + 1) * bpc
            forced = frozenset(range(sinks * bpc)) | frozenset(range(entries * bpc, t_n))
            cfg = BlockConfig(ratio, forced)
            quota = max(len(forced), math.ceil(ratio * t_n))
            first, second = (build_mask(rng.normal((2 * bpc, t_n)), cfg) for _ in range(2))
            no_choice = quota in (len(forced), t_n)
            assert (first is second) == no_choice, (ratio, entries, sinks, bpc)
            if no_choice:
                want = np.zeros((2 * bpc, t_n), dtype=bool)
                want[:, sorted(forced) if quota < t_n else slice(None)] = True
                assert np.array_equal(first.active, want)
                with pytest.raises(ValueError):
                    first.active[0, 0] = not first.active[0, 0]

    def test_mask_holds_a_read_only_copy(self):
        active = np.array([[True, False, True], [False, True, True]])
        mask = BlockMask(active)
        active[0] = False  # the caller's array, not the mask's
        assert mask.active.tolist() == [[True, False, True], [False, True, True]]
        assert mask.index.tolist() == [[0, 2], [1, 2]]
        with pytest.raises(ValueError):
            mask.active[0, 1] = True
        with pytest.raises(ValueError):
            mask.index[0, 0] = 1

    def test_block_diagonal_packs_heads_once(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            heads, t_m, t_n = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 12)
            forced = frozenset(rng.choice(t_n, size=rng.integers(0, t_n), replace=False).tolist())
            cfg = BlockConfig(float(rng.uniform(0.05, 1.0)), forced)
            rows = build_mask(rng.standard_normal((heads * t_m, t_n)), cfg)
            packed = rows.block_diagonal(heads)
            want = np.eye(heads, dtype=bool)[:, None, :, None] \
                & rows.active.reshape(heads, t_m, 1, t_n)
            assert np.array_equal(packed.active, want.reshape(heads * t_m, heads * t_n))
            assert rows.block_diagonal(heads) is packed
            # the packing's index is the rows' offset per head
            for mask in (rows, packed):
                assert_index_matches_reference(mask)
        with pytest.raises(ShapeError, match="3 mask rows"):
            BlockMask(np.ones((3, 2), dtype=bool)).block_diagonal(2)

    def test_one_config_at_many_widths_masks_as_fresh_ones(self):
        # a window growing to capacity behind a 3-block sink, keep 0.5: every
        # width chooses, and one config keeps a quota and free index per width
        shared = BlockConfig(0.5, frozenset(range(3)))
        rng = SeededRng(24)
        widths = [3 * entries for entries in range(3, 17)]
        for t_n in widths + widths[::-1]:
            scores = rng.normal((6, t_n))
            got = build_mask(scores, shared)
            want = build_mask(scores, BlockConfig(0.5, frozenset(range(3))))
            assert np.array_equal(got.active, want.active), t_n
            assert np.array_equal(got.active, reference_mask(scores, shared)), t_n
            assert build_mask(scores, shared) is not got  # it chose
        assert sorted(shared.choices) == widths and not shared.shared_masks
        for t_n, (need, free) in shared.choices.items():
            assert need == math.ceil(t_n / 2) - 3
            assert free.tolist() == list(range(3, t_n))
            with pytest.raises(ValueError):
                free[0] = 0

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("keep", [0.2, 0.5])
    def test_choosing_plan_is_the_counted_plan(self, keep, heads):
        # a choosing mask is made with the index its top-k fixed, and its
        # packing with that index offset per head: each equals the index
        # BlockMask reads off its matrix
        cfg = BlockConfig(keep, frozenset(range(3)))
        rng = SeededRng(26 + heads)
        chose = 0
        for t_n in [3 * entries for entries in range(3, 17)]:
            rows = build_mask(rng.normal((heads * 3, t_n)), cfg)
            if cfg.shared_masks.get(rows.shape) is rows:
                continue
            chose += 1
            packed = rows.block_diagonal(heads)
            for mask in (rows, packed):
                got, want = mask.index, BlockMask(mask.active).index
                assert np.array_equal(got, want) and got.dtype == want.dtype
                assert not got.flags.writeable and mask.active_count() == got.size
        assert chose == (11 if keep == 0.2 else 14)  # quota 3 < ceil(keep * t_n) < t_n

    @pytest.mark.parametrize("heads", [2, 3])
    @pytest.mark.parametrize("kind", ["choosing", "shared"])
    def test_packed_plan_is_the_packed_matrix_plan(self, heads, kind):
        rng = SeededRng(25 + heads)
        t_m, t_n = 3, 12
        forced = frozenset({0, 1, 9, 10, 11})
        cfg = BlockConfig(0.6 if kind == "choosing" else 0.2, forced)
        rows = build_mask(rng.normal((heads * t_m, t_n)), cfg)
        assert (cfg.shared_masks.get(rows.shape) is rows) == (kind == "shared")
        packed = rows.block_diagonal(heads)
        got, want = packed.index, BlockMask(packed.active).index
        assert np.array_equal(got, want) and got.dtype == want.dtype


def random_rows(rng, t_m, t_n, keep):
    """A [t_m, t_n] bool matrix whose row i keeps keep[i] random blocks."""
    active = np.zeros((t_m, t_n), dtype=bool)
    for row, k in zip(active, keep):
        row[rng.choice(t_n, size=k, replace=False)] = True
    return active


def assert_index_matches_reference(mask):
    """The index of `mask` against one built row by row: each row's kept
    blocks ascending."""
    rows = [np.flatnonzero(r).tolist() for r in mask.active]
    assert mask.index.tolist() == rows
    assert mask.active_count() == sum(map(len, rows))


class TestIndex:
    def test_matches_a_row_by_row_reference(self):
        # random masks whose rows all keep one count
        rng = np.random.default_rng(23)
        for trial in range(40):
            t_m, t_n = rng.integers(1, 7), rng.integers(1, 12)
            mask = BlockMask(random_rows(rng, t_m, t_n, np.full(t_m, rng.integers(1, t_n + 1))))
            assert_index_matches_reference(mask)
            assert not mask.index.flags.writeable

    def test_ragged_empty_or_no_rows_rejected(self):
        # every row must keep one count of at least 1; the error names the counts
        rng = np.random.default_rng(24)
        cases = [np.zeros((0, 3), dtype=bool), np.zeros((2, 0), dtype=bool),
                 np.array([[True, False], [False, False]])]
        for trial in range(20):
            t_m, t_n = rng.integers(2, 7), rng.integers(2, 12)
            keep = rng.integers(1, t_n + 1, size=t_m)
            if (keep == keep[0]).all():
                keep[0] = keep[0] % t_n + 1  # some row keeps another count
            cases.append(random_rows(rng, t_m, t_n, keep))
        for active in cases:
            with pytest.raises(ContractViolationError,
                               match=re.escape(str(active.sum(axis=1).tolist()))):
                BlockMask(active)


class TestSparseAttention:
    def test_dense_limit_equals_plain_softmax(self):
        q, k, v = random_qkv(6)
        mask = build_mask(pooled_scores(q, k, 4, 4), BlockConfig(1.0))
        scale = 1.0 / np.sqrt(q.shape[1])
        got = sparse_attention(q, k, v, mask, scale)
        want = softmax_rows((q @ k.T) * scale) @ v
        assert np.abs(got - want).max() < 1e-6

    def test_single_active_block_matches_restricted_softmax(self):
        q, k, v = random_qkv(7, n_q=4, n_kv=16, d=8)
        active = np.zeros((1, 4), dtype=bool)
        active[0, 2] = True
        scale = 1.0 / np.sqrt(8)
        got = sparse_attention(q, k, v, BlockMask(active), scale)
        want = softmax_rows((q @ k[8:12].T) * scale) @ v[8:12]
        assert np.abs(got - want).max() < 1e-9

    def test_outputs_in_convex_hull_of_active_values(self):
        # 1-D values: every output must lie between the min and max of the
        # values in that query row's active blocks
        rng = np.random.default_rng(11)
        q, k, _ = random_qkv(12, n_q=8, n_kv=16, d=8)
        v = rng.standard_normal((16, 1))
        for trial in range(10):  # rows of one random count per mask
            mask = random_mask(rng, 2, 4)
            out = sparse_attention(q, k, v, mask, 1.0 / np.sqrt(8))
            for i in range(2):
                vals = np.concatenate([v[j * 4:(j + 1) * 4, 0]
                                       for j in np.flatnonzero(mask.active[i])])
                rows = out[i * 4:(i + 1) * 4, 0]
                assert (rows >= vals.min() - 1e-12).all()
                assert (rows <= vals.max() + 1e-12).all()

    def test_score_eval_count_is_exact(self):
        class Counter:
            score_evals = 0

        q, k, v = random_qkv(13, n_q=8, n_kv=24, d=8)
        mask = build_mask(pooled_scores(q, k, 4, 4), BlockConfig(0.34))
        c = Counter()
        sparse_attention(q, k, v, mask, 1.0 / np.sqrt(8), counters=c)
        assert c.score_evals == mask.active_count() * 4 * 4

    def test_packed_heads_bit_equal_to_per_head_calls(self):
        # q, k, v of every head stacked on the token axis with a block-diagonal
        # mask: head h's rows keep only head h's key blocks
        rng = SeededRng(18)
        heads, b, t_m, t_n, d = 3, 4, 2, 6, 8
        cfg = BlockConfig(0.5, frozenset({0, 5}))
        q = rng.normal((heads, t_m * b, d))
        k, v = rng.normal((heads, t_n * b, d)), rng.normal((heads, t_n * b, d))
        rows = build_mask(pooled_scores(q, k, b, b).reshape(heads * t_m, t_n), cfg).active
        packed = np.zeros((heads, t_m, heads, t_n), dtype=bool)
        for h in range(heads):
            packed[h, :, h] = rows.reshape(heads, t_m, t_n)[h]
        scale = 1.0 / np.sqrt(d)
        got = sparse_attention(q.reshape(-1, d), k.reshape(-1, d), v.reshape(-1, d),
                               BlockMask(packed.reshape(heads * t_m, heads * t_n)), scale)
        for h in range(heads):
            want = sparse_attention(q[h], k[h], v[h], BlockMask(rows[h * t_m:(h + 1) * t_m]),
                                    scale)
            assert np.array_equal(got[h * t_m * b:(h + 1) * t_m * b], want)

    def test_softmax_temporaries_fit_one_score_array(self):
        # the batched window-45 layer pass: 2 heads x 3 query blocks over
        # 2 x 51 key blocks, quota 11 (sink + self forced). The softmax works
        # in place, so the call's peak allocation is the gathered keys and
        # values, one score array and the output, plus a ufunc's iteration
        # buffer and the small index arrays.
        rng = SeededRng(19)
        heads, t_m, t_n, b, d = 2, 3, 51, 16, 16
        q = rng.normal((heads * t_m * b, d))
        k, v = rng.normal((heads * t_n * b, d)), rng.normal((heads * t_n * b, d))
        cfg = BlockConfig(0.2, frozenset({0, 1, 2, 48, 49, 50}))
        rows = build_mask(rng.normal((heads * t_m, t_n)), cfg).active
        quota = 11
        assert (rows.sum(axis=1) == quota).all()
        packed = np.eye(heads, dtype=bool)[:, None, :, None] & rows.reshape(heads, t_m, 1, t_n)
        mask = BlockMask(packed.reshape(heads * t_m, heads * t_n))
        sparse_attention(q, k, v, mask, 0.25)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = sparse_attention(q, k, v, mask, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        gathered = heads * t_m * quota * b * d * 8  # keys, and values alike
        scores = heads * t_m * b * quota * b * 8
        slack = np.getbufsize() * 8 + 16 * 1024
        assert peak <= 2 * gathered + scores + out.nbytes + slack, (peak, gathered)
