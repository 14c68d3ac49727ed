"""Rotary embedding tests: cap behaviour, isometry, relative offsets."""

import numpy as np
import pytest

from hybridstream.errors import ContractViolationError, ShapeError
from hybridstream.numerics import SeededRng
from hybridstream.rope import (RoPEConfig, apply_rope, position_tables, rotate,
                               rotation_tables, temporal_index)

CFG = RoPEConfig(16, max_temporal_index=21)


def rand_tokens(seed, tokens=6, dim=16):
    return SeededRng(seed).normal((tokens, dim))


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


class TestApplyRope:
    def test_zero_angles_identity(self):
        x = rand_tokens(0)
        out = apply_rope(x, 0, np.zeros(6), CFG)
        assert np.array_equal(out, x)

    def test_norm_preserved(self):
        x = rand_tokens(1)
        out = apply_rope(x, 13, np.arange(6), CFG)
        before = np.linalg.norm(x, axis=1)
        after = np.linalg.norm(out, axis=1)
        assert np.abs(before - after).max() < 1e-10

    def test_temporal_rotation_composes_additively(self):
        x = rand_tokens(2)
        zeros = np.zeros(6)
        once = apply_rope(apply_rope(x, 4, zeros, CFG), 9, zeros, CFG)
        combined = apply_rope(x, 13, zeros, CFG)
        assert np.abs(once - combined).max() < 1e-12

    def test_spatial_rotation_composes_additively(self):
        x = rand_tokens(3)
        s1 = np.arange(6.0)
        s2 = 2.0 * np.arange(6.0)
        once = apply_rope(apply_rope(x, 0, s1, CFG), 0, s2, CFG)
        combined = apply_rope(x, 0, s1 + s2, CFG)
        assert np.abs(once - combined).max() < 1e-12

    def test_dot_products_depend_only_on_offset(self):
        q = rand_tokens(4, tokens=1)
        k = rand_tokens(5, tokens=1)
        s = np.zeros(1)
        base = apply_rope(q, 9, s, CFG) @ apply_rope(k, 4, s, CFG).T
        shifted = apply_rope(q, 14, s, CFG) @ apply_rope(k, 9, s, CFG).T
        assert abs(base[0, 0] - shifted[0, 0]) < 1e-9

    def test_spatial_relative_property(self):
        q = rand_tokens(6, tokens=3)
        k = rand_tokens(7, tokens=3)
        s = np.array([0.0, 5.0, 11.0])
        base = apply_rope(q, 0, s, CFG) @ apply_rope(k, 0, s, CFG).T
        shifted = apply_rope(q, 0, s + 100.0, CFG) @ apply_rope(k, 0, s + 100.0, CFG).T
        assert np.abs(base - shifted).max() < 1e-9

    def test_uncapped_index_rejected(self):
        with pytest.raises(ContractViolationError):
            apply_rope(rand_tokens(8), 22, np.zeros(6), CFG)

    def test_spatial_indices_never_capped(self):
        # huge spatial indices are fine; only the temporal axis saturates
        x = rand_tokens(9)
        out = apply_rope(x, 21, np.full(6, 1e6), CFG)
        assert np.isfinite(out).all()

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            apply_rope(np.zeros((3, 8)), 0, np.zeros(3), CFG)
        with pytest.raises(ShapeError):
            apply_rope(np.zeros((3, 16)), 0, np.zeros(4), CFG)


class TestBatchedRope:
    def test_batched_bit_equal_to_per_slice_calls(self):
        x = SeededRng(11).normal((2, 3, 4, 6, 16))
        t = np.array([[0, 5, 21, 7], [3, 3, 1, 20], [21, 0, 0, 9]])  # over dims 1, 2
        s = np.arange(6.0)
        out = apply_rope(x, t, s, CFG)
        shared = apply_rope(x, 13, s, CFG)  # one scalar index for every slice
        for a, b, c in np.ndindex(2, 3, 4):
            assert np.array_equal(out[a, b, c], apply_rope(x[a, b, c], int(t[b, c]), s, CFG))
            assert np.array_equal(shared[a, b, c], apply_rope(x[a, b, c], 13, s, CFG))

    def test_over_cap_element_anywhere_rejected(self):
        x = np.zeros((2, 4, 6, 16))
        for pos in np.ndindex(2, 4):
            t = np.full((2, 4), 21)
            t[pos] = 22
            with pytest.raises(ContractViolationError):
                apply_rope(x, t, np.zeros(6), CFG)
            t[pos] = -1
            with pytest.raises(ContractViolationError):
                apply_rope(x, t, np.zeros(6), CFG)

    def test_index_must_broadcast_and_be_integer(self):
        x = np.zeros((2, 4, 6, 16))
        with pytest.raises(ShapeError):
            apply_rope(x, np.zeros(3, dtype=int), np.zeros(6), CFG)
        with pytest.raises(ShapeError):
            apply_rope(x[0, 0], np.zeros(1, dtype=int), np.zeros(6), CFG)
        with pytest.raises(ContractViolationError):
            apply_rope(x, 1.5, np.zeros(6), CFG)


class TestTablesAndRotate:
    def test_rotate_with_tables_bit_equal_to_apply_rope(self):
        x = SeededRng(12).normal((2, 3, 6, 16))
        s = np.arange(6.0) + 3.0
        for t in (0, 13, 21, np.array([4, 21, 0]), np.array([[1, 2, 3], [21, 20, 0]])):
            assert np.array_equal(rotate(x, *rotation_tables(t, s, CFG)), apply_rope(x, t, s, CFG))
        # one table set rotates many tensors, here stacked queries and keys
        cos, sin = rotation_tables(9, s, CFG)
        both = rotate(np.stack((x, 2 * x)), cos, sin)
        assert np.array_equal(both[1], apply_rope(2 * x, 9, s, CFG))

    def test_tables_checks_match_apply_rope(self):
        with pytest.raises(ContractViolationError):
            rotation_tables(22, np.zeros(6), CFG)
        with pytest.raises(ContractViolationError):
            rotation_tables(np.array([3, -1]), np.zeros(6), CFG)
        with pytest.raises(ContractViolationError):
            rotation_tables(1.5, np.zeros(6), CFG)
        with pytest.raises(ShapeError):
            rotation_tables(3, np.zeros((2, 6)), CFG)

    def test_tables_must_fit_x(self):
        x = np.zeros((2, 4, 6, 16))
        cos, sin = rotation_tables(3, np.zeros(6), CFG)
        for bad_cos, bad_sin in [
            rotation_tables(3, np.zeros(5), CFG),                   # token count
            rotation_tables(np.zeros(3, dtype=int), np.zeros(6), CFG),  # slices
            (cos, sin[..., :-1]),                                    # cos vs sin
            (cos[None, None, None], sin[None, None, None]),          # too many dims
        ]:
            with pytest.raises(ShapeError):
                rotate(x, bad_cos, bad_sin)
        with pytest.raises(ShapeError):
            rotate(np.zeros((6, 15)), cos, sin)

    def test_out_bit_equal_to_fresh_result(self):
        # slab-wise into out, including a strided view such as the engine's
        # window slots, and with tables that broadcast over leading dims
        x = SeededRng(13).normal((2, 3, 4, 6, 16))
        s = np.arange(6.0)
        for t in (7, np.array([0, 21, 5, 9]), np.array([[1, 2, 3, 4]] * 3)):
            want = apply_rope(x, t, s, CFG)
            cos, sin = rotation_tables(t, s, CFG)
            slots = np.full((2, 3, 5, 6, 16), np.nan)
            got = rotate(x, cos, sin, out=slots[:, :, :4])
            assert got.base is slots and np.array_equal(got, want)
            assert np.isnan(slots[:, :, 4]).all()  # nothing outside out is written
            assert np.array_equal(rotate(x, cos, sin, out=np.empty(x.shape)), want)

    def test_position_tables_bit_equal_to_rotation_tables(self):
        cos, sin = position_tables(CFG, 6)
        assert cos.shape == sin.shape == (CFG.max_temporal_index + 1, 6, 16)
        s = np.arange(6.0)
        for t in range(CFG.max_temporal_index + 1):  # a view per index
            want_cos, want_sin = rotation_tables(t, s, CFG)
            assert np.array_equal(cos[t], want_cos) and np.array_equal(sin[t], want_sin)
        rel = np.array([0, 21, 5, 5])  # gathered, one table per slice
        want_cos, want_sin = rotation_tables(rel, s, CFG)
        assert np.array_equal(cos[rel], want_cos) and np.array_equal(sin[rel], want_sin)
        # built once per (config, tokens), and nobody can write into them
        assert position_tables(RoPEConfig(16, max_temporal_index=21), 6)[0] is cos
        assert position_tables(CFG, 5)[0].shape == (22, 5, 16)
        with pytest.raises(ValueError):
            cos[3] = 0.0

    def test_out_must_fit_x(self):
        x = np.zeros((2, 4, 6, 16))
        cos, sin = rotation_tables(3, np.zeros(6), CFG)
        for shape in ((2, 4, 6, 15), (1, 4, 6, 16), (4, 6, 16)):
            with pytest.raises(ShapeError):
                rotate(x, cos, sin, out=np.empty(shape))


class TestConfig:
    def test_head_dim_must_be_positive_multiple_of_4(self):
        for head_dim in (0, -4, 2, 6, 18):
            with pytest.raises(ShapeError, match="positive multiple of 4"):
                RoPEConfig(head_dim)

    def test_pairs_split_evenly_between_axes(self):
        # the temporal pairs take channels [0, 8) of a head_dim 16, the spatial [8, 16)
        assert RoPEConfig(4).pairs == 1 and CFG.pairs == 4
        x = rand_tokens(10)
        temporal = apply_rope(x, 13, np.zeros(6), CFG)
        spatial = apply_rope(x, 0, np.arange(6.0) + 13, CFG)
        assert np.array_equal(temporal[:, 8:], x[:, 8:])
        assert not np.allclose(temporal[:, :8], x[:, :8])
        assert np.array_equal(spatial[:, :8], x[:, :8])
        assert not np.allclose(spatial[:, 8:], x[:, 8:])
