"""Linear history state tests: closed forms, batch-sum oracle, constant memory."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from hybridstream.errors import ShapeError
from hybridstream.linear_history import (
    EPS_DIV,
    LinearState,
    absorb_evicted,
    elu_plus_one,
    history_output,
)
from hybridstream.numerics import SeededRng
from hybridstream.rope import RoPEConfig, apply_rope, position_tables

HEADS, HEAD_DIM = 2, 8
MODEL_DIM = HEADS * HEAD_DIM
ROPE = RoPEConfig(HEAD_DIM, max_temporal_index=21)
# the readout's output projection, a layer weight the caller passes in
PROJ = SeededRng(0).normal((MODEL_DIM, MODEL_DIM)) / np.sqrt(MODEL_DIM)


def fresh_state():
    return LinearState.zeros(HEADS, HEAD_DIM)


def tables(t_index, tokens, rope_cfg=ROPE):
    """The rotation tables of `tokens` queries at t_index (an int or an
    index per slice): its rows of rope.position_tables."""
    cos, sin = position_tables(rope_cfg, tokens)
    return cos[t_index], sin[t_index]


def random_chunk(seed, tokens=6):
    rng = SeededRng(seed)
    return rng.normal((HEADS, tokens, HEAD_DIM)), rng.normal((HEADS, tokens, HEAD_DIM))


def batch_state_oracle(chunks, rope_cfg):
    """Direct batch sums over all evicted tokens: L = sum rotate(phi(k))^T v,
    H = sum over chunks of mean_tokens phi(k)."""
    L = np.zeros((HEADS, HEAD_DIM, HEAD_DIM))
    H = np.zeros((HEADS, HEAD_DIM))
    for keys, values in chunks:
        fk = elu_plus_one(keys)
        for h in range(HEADS):
            rot = apply_rope(fk[h], 0, rope_cfg)
            for tok in range(keys.shape[1]):
                L[h] += np.outer(rot[tok], values[h, tok])
            H[h] += fk[h].mean(axis=0)
    return L, H


class TestState:
    def test_holds_only_what_was_absorbed(self):
        # no model weight: the readout's projection is passed to history_output
        assert [f.name for f in fields(LinearState)] == ["L", "H", "evicted_tokens"]
        state = fresh_state()
        state = absorb_evicted(state, *random_chunk(1), ROPE)
        assert state.evicted_tokens == 6
        assert state.nbytes == state.L.nbytes + state.H.nbytes + 8 == 1160

    def test_absorb_returns_a_new_state_and_leaves_its_input(self):
        state = absorb_evicted(fresh_state(), *random_chunk(1), ROPE)
        arrays, L, H = (state.L, state.H), state.L.copy(), state.H.copy()
        new = absorb_evicted(state, *random_chunk(2), ROPE)
        assert new is not state and (new.evicted_tokens, state.evicted_tokens) == (12, 6)
        assert state.L is arrays[0] and state.H is arrays[1]  # the same arrays, unwritten
        assert np.array_equal(state.L, L) and np.array_equal(state.H, H)
        assert not np.array_equal(new.L, L) and not np.array_equal(new.H, H)

    def test_fields_cannot_be_assigned(self):
        state = fresh_state()
        for name, value in (("L", state.L + 1), ("H", state.H + 1), ("evicted_tokens", 6)):
            with pytest.raises(FrozenInstanceError):
                setattr(state, name, value)
        assert state.evicted_tokens == 0 and not state.L.any() and not state.H.any()

    def test_arrays_cannot_be_written_in_place(self):
        # the write is refused before it lands, so no half-updated state is left
        state = fresh_state()
        with pytest.raises(ValueError, match="read-only"):
            state.L += 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.H[0, 0] = 1.0
        assert state.L.sum() == 0.0 and state.H.sum() == 0.0
        # a state built from writable arrays does not share their writability
        L = np.zeros((HEADS, HEAD_DIM, HEAD_DIM))
        with pytest.raises(ValueError, match="read-only"):
            LinearState(L, np.zeros((HEADS, HEAD_DIM)), 0).L[0, 0, 0] = 1.0
        assert L.flags.writeable and not L.any()


class TestAbsorb:
    def test_non_finite_absorb_raises_and_leaves_state_unchanged(self):
        state = fresh_state()
        for seed in range(3):
            state = absorb_evicted(state, *random_chunk(seed), ROPE)
        L, H, tokens = state.L.copy(), state.H.copy(), state.evicted_tokens
        keys, values = random_chunk(9)
        values[1, 2, 3] = np.inf
        with pytest.raises(ValueError):
            absorb_evicted(state, keys, values, ROPE)
        keys[0, 0, 0] = np.nan  # poisons H as well
        with pytest.raises(ValueError):
            absorb_evicted(state, keys, np.zeros_like(keys), ROPE)
        assert np.array_equal(state.L, L)
        assert np.array_equal(state.H, H)
        assert state.evicted_tokens == tokens

    def test_zero_values_leave_L_unchanged(self):
        state = fresh_state()
        keys, _ = random_chunk(1)
        state = absorb_evicted(state, keys, np.zeros_like(keys), ROPE)
        assert np.array_equal(state.L, np.zeros_like(state.L))
        assert not np.array_equal(state.H, np.zeros_like(state.H))
        assert state.evicted_tokens == 6

    def test_single_token_closed_form(self):
        # positive keys, so phi(k) = k + 1; one token has zero rotation
        # angles: L = phi(k)^T v, H = phi(k)
        state = fresh_state()
        rng = SeededRng(2)
        k = np.abs(rng.normal((HEADS, 1, HEAD_DIM))) + 0.1
        v = rng.normal((HEADS, 1, HEAD_DIM))
        state = absorb_evicted(state, k, v, ROPE)
        for h in range(HEADS):
            assert np.abs(state.L[h] - np.outer(k[h, 0] + 1.0, v[h, 0])).max() < 1e-12
            assert np.abs(state.H[h] - (k[h, 0] + 1.0)).max() < 1e-12

    def test_chunkwise_equals_concatenated(self):
        # same per-chunk mean convention: compare two chunks of equal size
        # against one chunk holding both halves, scaling H appropriately
        k1, v1 = random_chunk(3, tokens=4)
        k2, v2 = random_chunk(4, tokens=4)
        sep, first, second = fresh_state(), fresh_state(), fresh_state()
        for k, v in [(k1, v1), (k2, v2)]:
            sep = absorb_evicted(sep, k, v, ROPE)
        first = absorb_evicted(first, k1, v1, ROPE)
        second = absorb_evicted(second, k2, v2, ROPE)
        # L is a plain token sum over chunks, each rotated at its own
        # positions 0..tokens - 1
        assert np.abs(sep.L - (first.L + second.L)).max() < 1e-12
        # H averages per absorbed chunk: two 4-token chunks sum to twice the
        # 8-token mean of the same tokens
        cat = fresh_state()
        cat = absorb_evicted(cat, np.concatenate([k1, k2], axis=1),
                             np.concatenate([v1, v2], axis=1), ROPE)
        assert np.abs(sep.H - 2.0 * cat.H).max() < 1e-12
        assert sep.evicted_tokens == cat.evicted_tokens == 8

    def test_order_invariance(self):
        chunks = [random_chunk(s, tokens=5) for s in range(5, 9)]
        fwd = fresh_state()
        rev = fresh_state()
        for k, v in chunks:
            fwd = absorb_evicted(fwd, k, v, ROPE)
        for k, v in reversed(chunks):
            rev = absorb_evicted(rev, k, v, ROPE)
        assert np.abs(fwd.L - rev.L).max() < 1e-12
        assert np.abs(fwd.H - rev.H).max() < 1e-12
        assert fwd.evicted_tokens == rev.evicted_tokens == 20

    def test_matches_batch_oracle(self):
        chunks = [random_chunk(s, tokens=6) for s in range(20, 28)]
        state = fresh_state()
        for k, v in chunks:
            state = absorb_evicted(state, k, v, ROPE)
        L, H = batch_state_oracle(chunks, ROPE)
        assert np.abs(state.L - L).max() / (np.abs(L).max() + 1e-30) < 1e-9
        assert np.abs(state.H - H).max() / (np.abs(H).max() + 1e-30) < 1e-9

    def test_shape_mismatch(self):
        state = fresh_state()
        with pytest.raises(ShapeError):
            absorb_evicted(state, np.zeros((HEADS, 3, HEAD_DIM + 1)),
                           np.zeros((HEADS, 3, HEAD_DIM + 1)), ROPE)


class TestHistoryOutput:
    def test_bit_equal_to_per_head_readout(self):
        state = fresh_state()
        for seed in range(4):
            state = absorb_evicted(state, *random_chunk(seed), ROPE)
        assert state.evicted_tokens == 24
        # a transposed view, as the engine passes its split heads
        q = SeededRng(32).normal((5, HEADS, HEAD_DIM)).transpose(1, 0, 2)
        out = history_output(state, q, *tables(7, 5), PROJ)
        fq = elu_plus_one(q)
        per_head = []
        for h in range(HEADS):
            num = apply_rope(fq[h], 7, ROPE) @ state.L[h]
            den = fq[h] @ state.H[h] + EPS_DIV
            per_head.append(num / den[:, None])
        want = np.concatenate(per_head, axis=1) @ PROJ
        assert np.array_equal(out, want)

    def test_empty_state_outputs_zeros(self):
        state = fresh_state()
        q = SeededRng(30).normal((HEADS, 4, HEAD_DIM))
        out = history_output(state, q, *tables(5, 4), PROJ)
        assert out.shape == (4, MODEL_DIM)
        assert np.array_equal(out, np.zeros_like(out))

    def test_tables_that_do_not_fit_the_queries_rejected(self):
        empty, full = fresh_state(), fresh_state()
        full = absorb_evicted(full, *random_chunk(3), ROPE)
        assert full.evicted_tokens == 6
        q = SeededRng(34).normal((HEADS, 4, HEAD_DIM))
        cos, sin = tables(5, 4)
        wide = RoPEConfig(2 * HEAD_DIM)
        bad = [
            tables(5, 3),                                  # too few tokens
            tables(np.array([5, 5, 5]), 4),                # 3 slices over 2 heads
            tables(5, 4, wide),                            # pairs of another head_dim
            (cos, sin[:, :-1]),                            # cos and sin disagree
            (cos[0], sin[0]),                              # no token axis
        ]
        for state in (empty, full):
            for bad_cos, bad_sin in bad:
                with pytest.raises(ShapeError):
                    history_output(state, q, bad_cos, bad_sin, PROJ)
            # one table per head broadcasts, and reads as the shared table does
            per_head = tables(np.array([5, 5]), 4)  # [2, 4, head_dim]
            assert np.array_equal(history_output(state, q, *per_head, PROJ),
                                  history_output(state, q, cos, sin, PROJ))

    def test_size_one_table_dims_do_not_broadcast(self):
        # [1, tokens, d] tables over [heads, tokens, d] queries are refused,
        # whether or not the state has absorbed anything
        empty, full = fresh_state(), fresh_state()
        full = absorb_evicted(full, *random_chunk(3), ROPE)
        assert full.evicted_tokens == 6
        q = SeededRng(36).normal((HEADS, 4, HEAD_DIM))
        cos, sin = tables(np.array([5]), 4)
        for state in (empty, full):
            with pytest.raises(ShapeError):
                history_output(state, q, cos, sin, PROJ)

    def test_projection_of_another_shape_rejected(self):
        empty, full = fresh_state(), fresh_state()
        full = absorb_evicted(full, *random_chunk(3), ROPE)
        assert full.evicted_tokens == 6
        q = SeededRng(35).normal((HEADS, 4, HEAD_DIM))
        for state in (empty, full):
            for bad in (PROJ[:, :-1], PROJ[:-1], PROJ[None], np.eye(MODEL_DIM + 2)):
                with pytest.raises(ShapeError, match="projection must be"):
                    history_output(state, q, *tables(5, 4), bad)

    def test_single_token_brute_force(self):
        # one absorbed token, zero angles, positive data so phi(x) = x + 1:
        # output = PROJ( (phi(q) . phi(k)) / (phi(q) . phi(k) + eps) * v )
        state = fresh_state()
        rng = SeededRng(31)
        k = np.abs(rng.normal((HEADS, 1, HEAD_DIM))) + 0.1
        v = rng.normal((HEADS, 1, HEAD_DIM))
        state = absorb_evicted(state, k, v, ROPE)
        q = np.abs(rng.normal((HEADS, 1, HEAD_DIM))) + 0.1
        out = history_output(state, q, *tables(0, 1), PROJ)
        per_head = []
        for h in range(HEADS):
            dot = (q[h] + 1.0) @ (k[h, 0] + 1.0)
            num = dot[:, None] * v[h, 0][None, :]
            den = dot + EPS_DIV
            per_head.append(num / den[:, None])
        want = np.concatenate(per_head, axis=1) @ PROJ
        assert np.abs(out - want).max() < 1e-12

    def test_linear_in_absorbed_values(self):
        k, v = random_chunk(32, tokens=5)
        base = fresh_state()
        scaled = fresh_state()
        base = absorb_evicted(base, k, v, ROPE)
        scaled = absorb_evicted(scaled, k, 3.0 * v, ROPE)
        q = SeededRng(33).normal((HEADS, 4, HEAD_DIM))
        out1 = history_output(base, q, *tables(7, 4), PROJ)
        out3 = history_output(scaled, q, *tables(7, 4), PROJ)
        assert np.abs(out3 - 3.0 * out1).max() < 1e-9
        assert np.abs(out1).max() > 0

    def test_denominator_positive_for_adversarial_queries(self):
        state = fresh_state()
        for s in range(40, 44):
            k, v = random_chunk(s, tokens=6)
            state = absorb_evicted(state, k, v, ROPE)
        assert state.evicted_tokens == 24
        rng = SeededRng(50)
        for _ in range(50):
            q = rng.normal((HEADS, 2, HEAD_DIM)) * 20.0
            fq = elu_plus_one(q)
            for h in range(HEADS):
                den = fq[h] @ state.H[h] + EPS_DIV
                assert (den >= EPS_DIV).all()

    def test_constant_memory(self):
        few = fresh_state()
        many = fresh_state()
        for s in range(4):
            k, v = random_chunk(s, tokens=6)
            few = absorb_evicted(few, k, v, ROPE)
        for s in range(400):
            k, v = random_chunk(s, tokens=6)
            many = absorb_evicted(many, k, v, ROPE)
        assert few.nbytes == many.nbytes
        assert (few.evicted_tokens, many.evicted_tokens) == (24, 2400)


class TestFeatureMap:
    def test_positive_everywhere(self):
        x = np.linspace(-50, 50, 1001)
        assert (elu_plus_one(x) > 0).all()

    def test_elu1_values(self):
        fm = elu_plus_one
        assert fm(np.array([0.0]))[0] == 1.0
        assert fm(np.array([2.5]))[0] == 3.5
        assert abs(fm(np.array([-1.0]))[0] - np.exp(-1.0)) < 1e-15

    def test_no_overflow_for_large_inputs(self):
        out = elu_plus_one(np.array([1e4, -1e4]))
        assert np.isfinite(out).all()
