"""Foundation tests: softmax, seeded RNG, tensor container."""

import hashlib
import io
import struct
import warnings

import numpy as np
import pytest

from hybridstream.errors import FormatError, LengthError
from hybridstream.numerics import (
    TENSOR_MAGIC,
    SeededRng,
    read_tensor,
    read_tensor_from,
    softmax_rows,
    write_tensor,
)


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_large_values_no_overflow(self):
        out = softmax_rows([[1000.0, 1000.0]])
        assert np.isfinite(out).all()
        assert np.allclose(out, [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows([[0.0, np.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_and_in_unit_interval(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((40, 17)) * 50
        out = softmax_rows(m)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert (out >= 0).all() and (out <= 1).all()


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42).normal(1000)
        b = SeededRng(42).normal(1000)
        assert np.array_equal(a, b)

    def test_stream_independent_of_batching(self):
        whole = SeededRng(9).uniform(100)
        r = SeededRng(9)
        pieces = np.concatenate([r.uniform(13), r.uniform(50), r.uniform(37)])
        assert np.array_equal(whole, pieces)

    def test_gaussian_moments(self):
        z = SeededRng(42).normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_empty_gaussian(self):
        assert SeededRng(0).normal(0).shape == (0,)

    def test_known_raw_values(self):
        # splitmix64 outputs for seed 0 are pinned by the documented constants
        raw = SeededRng(0).integers(3)
        assert raw[0] == 0xE220A8397B1DCDAF
        assert raw[1] == 0x6E789E6AA1B965F4
        assert raw[2] == 0x06C45D188009454F

    def test_derive_changes_stream(self):
        base = SeededRng(7)
        assert not np.array_equal(base.derive(0).uniform(8), base.derive(1).uniform(8))

    def test_shaped_normal_row_major(self):
        flat = SeededRng(3).normal(12)
        shaped = SeededRng(3).normal((3, 4))
        assert np.array_equal(shaped.reshape(-1), flat)

    # First 16 hex digits of the SHA-256 of each draw's bytes, in the order
    # normal(5), normal(6), normal((4, 8)), normal((48, 32)), uniform(9) on
    # one generator. Seed 2**64 - 1 makes seed + i * GOLDEN wrap from the
    # first draw. The Gaussian digests hold for the libm they were recorded
    # with (x86-64, numpy 2.4); test_normal_is_box_muller_of_raw_stream pins
    # the Gaussian transform on any platform.
    GOLDEN = {
        0: ["02fd8c015f5b2f37", "2778eab167842ae7", "fc7fd8ff3296cfc9",
            "e6466452f99a4932", "4bddd77c393c4cb6"],
        7: ["69ce99a880774e72", "00e013b62a35b9c3", "f9a1e77d269f6649",
            "59b9ad33846cd1d7", "8cd1d84fe5571aa6"],
        2**64 - 1: ["05d23ea551b652d6", "1856d0d2c6cabe77", "7cdff0487f7a4d67",
                    "ec4d844efff805e8", "ea56d954affbf00f"],
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_draws(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # wrapping arithmetic must not warn
            r = SeededRng(seed)
            draws = [r.normal(5), r.normal(6), r.normal((4, 8)), r.normal((48, 32)),
                     r.uniform(9)]
        assert [d.shape for d in draws] == [(5,), (6,), (4, 8), (48, 32), (9,)]
        got = [hashlib.sha256(d.tobytes()).hexdigest()[:16] for d in draws]
        assert got == self.GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_normal_is_box_muller_of_raw_stream(self, seed):
        # odd count: 2 * ceil(7 / 2) = 8 raw draws, u1 from the first half
        raw = SeededRng(seed).integers(8)
        u1 = ((raw[:4] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (raw[4:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r, theta = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
        want = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)[:7]
        assert np.array_equal(SeededRng(seed).normal(7), want)
        assert np.array_equal(SeededRng(seed).uniform(8),
                              (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)


    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1])
    def test_batched_normal_bit_equal_to_successive_calls(self, seed):
        # odd and even sizes; the leading uniform draw puts each batch at an odd counter
        for shape in [1, 2, 7, 8, (3, 5), (4, 8), (5, 3, 3), (256, 2)]:
            for count in range(1, 6):
                batched, successive = SeededRng(seed), SeededRng(seed)
                batched.uniform(1)
                successive.uniform(1)
                got = batched.normal(shape, count=count)
                want = np.stack([successive.normal(shape) for _ in range(count)])
                assert got.shape == want.shape == (count,) + np.shape(np.empty(shape))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (shape, count)
                # the counter moved as far: the next raw draws agree
                assert np.array_equal(batched.integers(3), successive.integers(3))

    def test_batched_normal_of_count_zero_draws_nothing(self):
        r = SeededRng(5)
        assert r.normal((3, 4), count=0).shape == (0, 3, 4)
        assert r.normal(0, count=3).shape == (3, 0)
        assert np.array_equal(r.integers(4), SeededRng(5).integers(4))

    def test_batched_normal_of_negative_count_rejected(self):
        r = SeededRng(5)
        with pytest.raises(ValueError, match="count"):
            r.normal(4, count=-1)
        assert np.array_equal(r.integers(4), SeededRng(5).integers(4))

    def test_fractional_draw_count_rejected_before_drawing(self):
        r = SeededRng(5)
        with pytest.raises(TypeError):
            r.uniform(2.5)
        assert np.array_equal(r.integers(4), SeededRng(5).integers(4))
        assert r.uniform(np.int64(2)).shape == (2,)

    def test_fractional_shape_entry_rejected_before_drawing(self):
        r = SeededRng(5)
        for shape in ((2.7, 3), (2, 3.0), [np.float64(2), 3]):
            with pytest.raises(TypeError):
                r.normal(shape)
        assert np.array_equal(r.normal((2, 3)), SeededRng(5).normal((2, 3)))
        assert r.normal((np.int64(2), 3)).shape == (2, 3)

    def test_fractional_seed_and_stream_rejected(self):
        # True was taken as seed (or stream) 1
        for seed in (1.5, 1.0, True):
            with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
                SeededRng(seed)
        for stream in (1.5, 1.0, True):
            with pytest.raises(TypeError, match=f"stream must be an integer, got {stream!r}"):
                SeededRng(1).derive(stream)
        assert np.array_equal(SeededRng(np.uint64(1)).derive(np.int64(1)).integers(3),
                              SeededRng(1).derive(1).integers(3))

    def test_seed_outside_64_bits_rejected(self):
        # -1 and 2**64 were masked to 2**64 - 1 and 0, aliasing their streams
        for seed in (-1, 2**64, -(2**64)):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                SeededRng(seed)
        assert SeededRng(2**64 - 1).seed == 2**64 - 1 and SeededRng(0).seed == 0

    def test_negative_draw_count_rejected_before_drawing(self):
        r = SeededRng(5)
        for draw in (r.integers, r.uniform):
            with pytest.raises(ValueError, match="n must be >= 0"):
                draw(-1)
        assert np.array_equal(r.integers(4), SeededRng(5).integers(4))


class TestTensorFormat:
    def test_round_trip_bitwise(self, tmp_path):
        p = tmp_path / "t.hft"
        data = np.random.default_rng(2).standard_normal((4, 5)).astype(np.float32)
        write_tensor(p, data)
        back = read_tensor(p)
        assert back.shape == (4, 5)
        assert back.dtype == np.float32
        assert np.array_equal(back, data)
        # writing the read-back must give identical bytes
        buf = io.BytesIO()
        write_tensor(buf, back)
        assert buf.getvalue() == p.read_bytes()

    def test_f64_input_is_stored_as_f32(self, tmp_path):
        p = tmp_path / "t.hft"
        data = np.random.default_rng(3).standard_normal(7)
        write_tensor(p, data)
        back = read_tensor(p)
        assert np.array_equal(back, data.astype(np.float32))

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.hft"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(p)

    def test_truncated_payload_is_length_error(self, tmp_path):
        p = tmp_path / "short.hft"
        write_tensor(p, np.zeros((2, 2)))
        blob = p.read_bytes()
        p.write_bytes(blob[:-4])  # drop one f32: header claims 2x2, payload has 3
        with pytest.raises(LengthError):
            read_tensor(p)

    def test_huge_header_in_stream_is_length_error(self):
        header = TENSOR_MAGIC + struct.pack("<9I", 8, *[0xFFFFFFFF] * 8)
        with pytest.raises(LengthError, match="f32 values, got 1$"):
            read_tensor_from(io.BytesIO(header + b"\x00" * 4))

    def test_header_claiming_more_than_the_file_is_length_error(self, tmp_path):
        p = tmp_path / "huge.hft"
        p.write_bytes(TENSOR_MAGIC + struct.pack("<3I", 2, 60000, 60000) + b"\x00" * 64)
        with pytest.raises(LengthError, match="3600000000 f32 values, got 16"):
            read_tensor(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.hft"
        write_tensor(p, np.zeros(2))
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(LengthError):
            read_tensor(p)

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.arange(6).reshape(2, 3))
        blob = buf.getvalue()
        assert blob[:4] == b"HFT1"
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:12] == (2).to_bytes(4, "little")
        assert blob[12:16] == (3).to_bytes(4, "little")
        assert len(blob) == 16 + 6 * 4

    def test_stream_reader_multiple_tensors(self):
        buf = io.BytesIO()
        write_tensor(buf, [1.0, 2.0])
        write_tensor(buf, [3.0, 4.0, 5.0])
        buf.seek(0)
        d1 = read_tensor_from(buf)
        d2 = read_tensor_from(buf)
        assert d1.shape == (2,) and d2.shape == (3,)
        assert np.array_equal(d1, [1.0, 2.0]) and np.array_equal(d2, [3.0, 4.0, 5.0])
