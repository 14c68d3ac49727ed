"""Rotary embedding tests: cap behaviour, relative indices, isometry, relative
offsets."""

import numpy as np
import pytest

from hybridstream.errors import ContractViolationError, ShapeError
from hybridstream.numerics import SeededRng
from hybridstream.rope import (RoPEConfig, apply_rope, position_tables, rotate, rotate_into,
                               temporal_index)

CFG = RoPEConfig(16, max_temporal_index=21)


def rand_tokens(seed, tokens=6, dim=16):
    return SeededRng(seed).normal((tokens, dim))


def per_slice(x, t):
    """x rotated by one apply_rope call per [tokens, 16] slice, each at its
    own int index: t is an int or an int array broadcasting over
    x.shape[:-2]."""
    t = np.broadcast_to(t, x.shape[:-2])
    out = np.empty(x.shape)
    for i in np.ndindex(t.shape):
        out[i] = apply_rope(x[i], int(t[i]), CFG)
    return out


class TestTemporalIndex:
    def test_below_cap(self):
        assert temporal_index(5, CFG) == 5

    def test_far_beyond_cap(self):
        assert temporal_index(300, CFG) == 21

    def test_cap_boundary(self):
        assert temporal_index(21, CFG) == 21

    def test_never_exceeds_cap(self):
        for pos in [0, 1, 20, 21, 22, 1000, 10**9]:
            assert temporal_index(pos, CFG) <= 21

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            temporal_index(-1, CFG)

    @pytest.mark.parametrize("chunk_pos, distance", [(5.7, 0), (True, 0), (8, [1.5]),
                                                     (8, True), (8, [0, True]), (8, 1.0),
                                                     (8, np.float64(2.0)), (8, np.array(2.0))])
    def test_non_integer_position_or_distance_rejected(self, chunk_pos, distance):
        # a float is not truncated (5.7 read as 5, [1.5] gave [7.5]), a scalar
        # float distance (a 0-d array too) is not taken for a sequence, and
        # True is not 1
        with pytest.raises(TypeError, match="chunk_pos|distance"):
            temporal_index(chunk_pos, CFG, distance)

    def test_zero_d_integer_array_is_one_distance(self):
        # as a 0-d integer chunk_pos is one position
        assert temporal_index(8, CFG, np.array(2)) == temporal_index(np.array(8), CFG, 2) == 6
        assert type(temporal_index(8, CFG, np.array(2))) is int


class TestRelativeIndices:
    """temporal_index of what lies `distance` chunks behind a querying chunk:
    a cached entry's relative temporal index, with CFG's cap of 21."""

    def test_saturated_query_maps_to_cap(self):
        assert temporal_index(500, CFG, 0) == 21
        for dist in (1, 2, 3):
            rel = temporal_index(500, CFG, dist)
            assert rel == 21 - dist
            assert 0 <= rel <= 21

    def test_shift_invariance_once_saturated(self):
        for q1, q2 in [(100, 500), (22, 1000)]:
            pat1 = [temporal_index(q1, CFG, d) for d in range(4)]
            pat2 = [temporal_index(q2, CFG, d) for d in range(4)]
            assert pat1 == pat2

    def test_unsaturated_indices_are_absolute_positions(self):
        for q in range(22):
            for e in range(q + 1):
                assert temporal_index(q, CFG, q - e) == e

    def test_sink_pins_to_zero_beyond_cap(self):
        for q in [21, 22, 100, 10_000]:
            assert temporal_index(q, CFG, q) == 0

    def test_negative_distance_rejected(self):
        # an entry newer than the querying chunk
        with pytest.raises(ValueError):
            temporal_index(3, CFG, -1)
        with pytest.raises(ValueError):
            temporal_index(3, CFG, [2, -1])

    @pytest.mark.parametrize("q", [0, 5, 21, 22, 500])
    def test_sequence_of_distances_is_each_distance_index(self, q):
        dists = [q, q // 2, 3, 1, 0]
        assert temporal_index(q, CFG, dists) == [temporal_index(q, CFG, d) for d in dists]
        assert temporal_index(q, CFG, np.array(dists)) == temporal_index(q, CFG, dists)
        assert temporal_index(q, CFG, []) == []


class TestApplyRope:
    # one-token inputs sit at spatial index 0, so they turn on the temporal
    # axis alone
    def test_zero_angles_identity(self):
        x = rand_tokens(0, tokens=1)
        out = apply_rope(x, 0, CFG)
        assert np.array_equal(out, x)

    def test_norm_preserved(self):
        x = rand_tokens(1)
        out = apply_rope(x, 13, CFG)
        before = np.linalg.norm(x, axis=1)
        after = np.linalg.norm(out, axis=1)
        assert np.abs(before - after).max() < 1e-10

    def test_temporal_rotation_composes_additively(self):
        x = rand_tokens(2, tokens=1)
        once = apply_rope(apply_rope(x, 4, CFG), 9, CFG)
        combined = apply_rope(x, 13, CFG)
        assert np.abs(once - combined).max() < 1e-12

    def test_dot_products_depend_only_on_offset(self):
        q = rand_tokens(4, tokens=1)
        k = rand_tokens(5, tokens=1)
        base = apply_rope(q, 9, CFG) @ apply_rope(k, 4, CFG).T
        shifted = apply_rope(q, 14, CFG) @ apply_rope(k, 9, CFG).T
        assert abs(base[0, 0] - shifted[0, 0]) < 1e-9

    def test_spatial_relative_property(self):
        # every row holds one vector, so row i turns it by its place i alone:
        # q_i . k_j depends only on the token offset i - j
        tokens = 12
        q = np.repeat(rand_tokens(6, tokens=1), tokens, axis=0)
        k = np.repeat(rand_tokens(7, tokens=1), tokens, axis=0)
        dots = apply_rope(q, 5, CFG) @ apply_rope(k, 5, CFG).T
        for offset in range(1 - tokens, tokens):
            diagonal = np.diagonal(dots, offset)
            assert np.abs(diagonal - diagonal[0]).max() < 1e-9
        assert not np.allclose(dots[0, 0], dots[0, 1])  # the offset does matter

    def test_uncapped_index_rejected(self):
        with pytest.raises(ContractViolationError):
            apply_rope(rand_tokens(8), 22, CFG)

    def test_spatial_indices_never_capped(self):
        # a long chunk's places run to 4095; only the temporal axis saturates
        x = rand_tokens(9, tokens=4096)
        out = apply_rope(x, 21, CFG)
        assert np.isfinite(out).all()
        drift = np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(x, axis=1)).max()
        assert drift < 1e-10

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            apply_rope(np.zeros((3, 8)), 0, CFG)
        with pytest.raises(ShapeError):
            apply_rope(np.zeros(16), 0, CFG)

    def test_index_must_be_an_int(self):
        x = np.zeros((2, 6, 16))
        for bad in (np.array([0, 3]), np.array(3), True, 1.5):
            with pytest.raises(ContractViolationError, match="must be an int"):
                apply_rope(x, bad, CFG)
        assert np.array_equal(apply_rope(x, np.int64(3), CFG), apply_rope(x, 3, CFG))


class TestBatchedRope:
    def test_batched_bit_equal_to_per_slice_calls(self):
        x = SeededRng(11).normal((2, 3, 4, 6, 16))
        shared = apply_rope(x, 13, CFG)  # one index for every slice
        for a, b, c in np.ndindex(2, 3, 4):
            assert np.array_equal(shared[a, b, c], apply_rope(x[a, b, c], 13, CFG))


class TestTablesAndRotate:
    def test_rotate_with_tables_bit_equal_to_apply_rope(self):
        x = SeededRng(12).normal((2, 3, 6, 16))
        cos, sin = position_tables(CFG, 6)
        for t in (0, 13, 21, np.array([4, 21, 0]), np.array([[1, 2, 3], [21, 20, 0]])):
            assert np.array_equal(rotate(x, cos[t], sin[t]), per_slice(x, t))
        # one table set rotates many tensors, here stacked queries and keys
        both = rotate(np.stack((x, 2 * x)), cos[9], sin[9])
        assert np.array_equal(both[1], apply_rope(2 * x, 9, CFG))

    def test_tables_must_fit_x(self):
        x = np.zeros((2, 4, 6, 16))
        cos, sin = position_tables(CFG, 6)
        cos5, sin5 = position_tables(CFG, 5)
        slices = np.zeros(3, dtype=int)
        for bad_cos, bad_sin in [
            (cos5[3], sin5[3]),                                      # token count
            (cos[slices], sin[slices]),                              # slices
            (cos[3], sin[3, :, :-1]),                                # cos vs sin
            (cos[None, None, None, 3], sin[None, None, None, 3]),    # too many dims
        ]:
            with pytest.raises(ShapeError):
                rotate(x, bad_cos, bad_sin)
        with pytest.raises(ShapeError):
            rotate(np.zeros((6, 15)), cos[3], sin[3])

    def test_size_one_dims_do_not_broadcast(self):
        # tables of the input's own trailing shape only: [1, tokens, d] over
        # [heads, tokens, d] is refused
        x = np.zeros((2, 6, 16))
        cos, sin = position_tables(CFG, 6)
        with pytest.raises(ShapeError, match="do not fit"):
            rotate(x, cos[None, 3], sin[None, 3])
        assert rotate(x, cos[[3, 3]], sin[[3, 3]]).shape == x.shape

    def test_out_bit_equal_to_fresh_result(self):
        # rotate_into writes into out, here a strided view such as the
        # engine's window slots, with tables that broadcast over leading
        # dims, and leaves its scratch input holding x * cos
        x = SeededRng(13).normal((2, 3, 4, 6, 16))
        tables = position_tables(CFG, 6)
        for t in (7, np.array([0, 21, 5, 9]), np.array([[1, 2, 3, 4]] * 3)):
            want = per_slice(x, t)
            cos, sin = (table[t] for table in tables)
            slots = np.full((2, 3, 5, 6, 16), np.nan)
            scratch = x.copy()
            got = rotate_into(scratch, cos, sin, slots[:, :, :4])
            assert got.base is slots and np.array_equal(got, want)
            assert np.isnan(slots[:, :, 4]).all()  # nothing outside out is written
            assert np.array_equal(scratch, x * cos)
            assert np.array_equal(rotate(x, cos, sin), want)

    def test_rotate_leaves_its_input_unchanged(self):
        # rotate hands the kernel a copy as its scratch; x, a view of a
        # larger array here, keeps every bit
        base = SeededRng(14).normal((3, 2, 6, 16))
        x = base[1:]
        before = base.copy()
        cos, sin = (table[[4, 21]] for table in position_tables(CFG, 6))
        got = rotate(x, cos, sin)
        assert np.array_equal(base, before)
        assert not np.shares_memory(got, base)
        assert np.array_equal(got, per_slice(x, np.array([4, 21])))
        # the engine's query rotation: a view of the chunk's qkv
        qkv = SeededRng(15).normal((3, 2, 6, 16))
        kept = qkv.copy()
        rotate(qkv[:2], cos[1], sin[1])
        assert np.array_equal(qkv, kept)

    def test_position_tables_equal_angles_from_scratch(self):
        tokens, p = 6, CFG.pairs
        cos, sin = position_tables(CFG, tokens)
        assert cos.shape == sin.shape == (CFG.max_temporal_index + 1, tokens, 16)
        # pair j < p turns by the temporal index t, pair p + j by the token's
        # place n, both at frequency base_theta ** (-2j / (2 p))
        freqs = CFG.base_theta ** (-2.0 * np.arange(p, dtype=np.float64) / (2.0 * p))
        t = np.arange(CFG.max_temporal_index + 1, dtype=np.float64)
        n = np.arange(tokens, dtype=np.float64)
        ang = np.empty(cos.shape[:2] + (2 * p,))
        ang[..., :p] = (t[:, None] * freqs)[:, None, :]
        ang[..., p:] = n[:, None] * freqs
        assert np.array_equal(cos[..., 0::2], np.cos(ang))
        assert np.array_equal(cos[..., 1::2], np.cos(ang))
        assert np.array_equal(sin[..., 0::2], -np.sin(ang))
        assert np.array_equal(sin[..., 1::2], np.sin(ang))
        # row t is a view; the tables are built once per (config, tokens), and
        # nobody can write into them
        assert np.shares_memory(cos[5], cos) and np.shares_memory(sin[5], sin)
        assert position_tables(RoPEConfig(16, max_temporal_index=21), tokens)[0] is cos
        assert position_tables(CFG, 5)[0].shape == (22, 5, 16)
        with pytest.raises(ValueError):
            cos[3] = 0.0
        with pytest.raises(ValueError):
            sin[3] = 0.0


class TestConfig:
    @pytest.mark.parametrize("theta", [1.0, 0.5, np.nan, np.inf])
    def test_base_theta_must_be_finite_and_exceed_one(self, theta):
        # at inf every pair's frequency but the first is 0: no rotation
        with pytest.raises(ValueError, match="base_theta must be finite and exceed 1"):
            RoPEConfig(16, base_theta=theta)

    def test_head_dim_must_be_positive_multiple_of_4(self):
        for head_dim in (0, -4, 2, 6, 18):
            with pytest.raises(ShapeError, match="positive multiple of 4"):
                RoPEConfig(head_dim)

    @pytest.mark.parametrize("name", ["head_dim", "max_temporal_index"])
    def test_fractional_integer_field_rejected(self, name):
        # max_temporal_index=21.5 failed late, building tables, with a bare TypeError
        held = getattr(RoPEConfig(**{"head_dim": 16, name: np.int64(16)}), name)
        assert held == 16 and type(held) is int
        for bad in (16.5, 16.0):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                RoPEConfig(**{"head_dim": 16, name: bad})

    def test_bool_integer_field_rejected(self):
        with pytest.raises(TypeError, match="max_temporal_index must be an integer, got True"):
            RoPEConfig(16, max_temporal_index=True)

    def test_pairs_split_evenly_between_axes(self):
        # the temporal pairs take channels [0, 8) of a head_dim 16, the spatial [8, 16)
        assert RoPEConfig(4).pairs == 1 and CFG.pairs == 4
        # one token sits at spatial index 0; at temporal index 0 only the
        # spatial pairs of tokens 1.. turn
        x = rand_tokens(10)
        temporal = apply_rope(x[:1], 13, CFG)
        spatial = apply_rope(x, 0, CFG)
        assert np.array_equal(temporal[:, 8:], x[:1, 8:])
        assert not np.allclose(temporal[:, :8], x[:1, :8])
        assert np.array_equal(spatial[:, :8], x[:, :8])
        assert np.array_equal(spatial[0], x[0])
        assert not np.allclose(spatial[1:, 8:], x[1:, 8:])
