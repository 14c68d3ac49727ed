"""Deterministic numeric foundation: seeded RNG, stable softmax, and the
binary tensor container used for all on-disk artifacts.

All reference-path math is float64. Tensor files store float32 payloads
(see `write_tensor`); a float64 array goes in bit for bit as its float32
view, which is how cache snapshots store theirs (stream_cache).
"""

from __future__ import annotations

import io
import operator
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError, LengthError, ShapeError

TENSOR_MAGIC = b"HFT1"

# splitmix64 constants (Steele, Lea & Flood, "Fast splittable pseudorandom
# number generators", OOPSLA 2014). The generator below is counter-based:
# draw i is the splitmix64 output for state seed + (i + 1) * GOLDEN, so any
# contiguous batch can be produced vectorized and the stream depends only on
# (seed, draw index), never on batch boundaries.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF

_INV_2_53 = 2.0**-53


def _mix64_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def as_index(value, name: str) -> int:
    """operator.index(value). Raises TypeError naming `name` if value is not
    an integer or is a bool (a float, even 2.0, and True are refused)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def integer_fields(config, names) -> None:
    """Set each named field of a (frozen) dataclass to as_index of its value,
    so a config holds ints."""
    for name in names:
        object.__setattr__(config, name, as_index(getattr(config, name), name))


class SeededRng:
    """Counter-based deterministic generator.

    The raw 64-bit stream is fully specified by the constants above, so the
    integer (and uniform) streams are reproducible bit-exactly for a given
    seed on any platform. Gaussian draws use Box-Muller on that uniform
    stream: a request for n values consumes exactly 2 * ceil(n / 2) raw
    draws (u1 from the first half mapped to (0, 1], u2 from the second half
    mapped to [0, 1)), and pairs are emitted as (r cos, r sin) interleaved.
    A batched request, normal(shape, count=k), takes k such runs back to
    back, one per array, so it consumes and returns exactly what k
    successive normal(shape) calls would.
    Gaussian bit patterns may differ across libm implementations; the
    distribution and the underlying uniform stream do not.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed)
        if not 0 <= self.seed <= _MASK64:  # no seed aliases another modulo 2**64
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        # n is checked before the counter moves: a float would leave it off
        # the integers and a negative n would rewind it
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # splitmix64 of seed + i * GOLDEN, mixed in place in one array (unsigned
        # array arithmetic wraps modulo 2**64 without a warning)
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.seed)
        shifted = np.empty_like(z)
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= np.uint64(_MIX_A)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(_MIX_B)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return z

    def derive(self, stream: int) -> "SeededRng":
        """Independent child generator for a numbered stream."""
        child = _mix64_int(self.seed + (operator.index(stream) + 1) * _GOLDEN)
        return SeededRng(child)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution; n is checked as integers
        checks it."""
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64)
        u *= _INV_2_53
        return u

    def integers(self, n: int) -> np.ndarray:
        """n raw uint64 draws. Raises TypeError unless n is an integer and
        ValueError if it is negative, before any draw is taken."""
        return self._raw(n)

    def normal(self, shape, count: int | None = None) -> np.ndarray:
        """Standard normal draws via Box-Muller, filled row-major.

        With `count`, `count` draws of `shape` stacked as [count, *shape]:
        bit for bit what `count` successive normal(shape) calls return, the
        counter advanced as they would advance it (count = 0 draws nothing).
        normal(shape) is the draw of count None, shaped `shape`."""
        if isinstance(shape, (int, np.integer)):
            shape = (shape,)
        out_shape = tuple(map(operator.index, shape))
        n = 1
        for s in out_shape:
            if s < 0:
                raise ValueError("shape entries must be >= 0")
            n *= s
        k = 1 if count is None else operator.index(count)
        if k < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count is not None:
            out_shape = (k,) + out_shape
        if n == 0 or k == 0:
            return np.zeros(out_shape, dtype=np.float64)
        m = (n + 1) // 2
        # one row of 2m raw draws per requested array: its u1 from the first
        # half, its u2 from the second, as a call for that array alone takes
        # them. Every 53-bit draw is exact in float64, so adding 1 after the
        # conversion rounds as adding it before would
        u = (self._raw(2 * m * k) >> np.uint64(11)).astype(np.float64).reshape(k, 2 * m)
        u1, u2 = u[:, :m], u[:, m:]
        u1 += 1.0
        u *= _INV_2_53
        r = np.log(u1)
        r *= -2.0
        np.sqrt(r, out=r)
        u2 *= 2.0 * np.pi  # theta
        z = np.empty((k, 2 * m), dtype=np.float64)
        np.multiply(r, np.cos(u2), out=z[:, 0::2])
        np.multiply(r, np.sin(u2), out=z[:, 1::2])
        return z[:, :n].reshape(out_shape)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Rows consisting entirely of -inf come back as all zeros rather than NaN,
    which is what masked-attention callers want for fully inactive rows.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got shape {m.shape}")
    row_max = np.max(m, axis=1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.exp(m - row_max)
    denom = e.sum(axis=1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


# ---------------------------------------------------------------------------
# Tensor container: b"HFT1" | u32 rank | rank * u32 dims | prod(dims) * f32,
# all little-endian.
# ---------------------------------------------------------------------------

_MAX_RANK = 64


def write_tensor(path_or_file, data) -> None:
    """Write one tensor of data's shape. float32 input is stored verbatim
    (bit-preserving); anything else is cast to float32 first."""
    arr = np.asarray(data)
    payload = np.ascontiguousarray(arr.reshape(-1), dtype="<f4")
    header = TENSOR_MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)

    if hasattr(path_or_file, "write"):
        path_or_file.write(header)
        path_or_file.write(payload.tobytes())
    else:
        with open(path_or_file, "wb") as f:
            f.write(header)
            f.write(payload.tobytes())


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated tensor {what}: wanted {n} bytes, got {len(buf)}")
    return buf


def read_tensor_from(f: BinaryIO, allow_trailing: bool = True):
    """Read one tensor from an open, seekable binary stream. Returns the
    float32 array, shaped as its header says; a payload longer than the
    stream's rest is a LengthError."""
    magic = f.read(4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, "header"))
    if rank > _MAX_RANK:
        raise FormatError(f"implausible rank {rank}")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "header"))
    count = 1
    for d in dims:
        count *= d
    here = f.tell()
    left = f.seek(0, io.SEEK_END) - here
    f.seek(here)
    if 4 * count > left:
        raise LengthError(
            f"payload for shape {dims} needs {count} f32 values, got {left // 4}"
        )
    payload = f.read(4 * count)
    if not allow_trailing:
        extra = f.read(1)
        if extra:
            raise LengthError(f"trailing bytes after payload for shape {dims}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def read_tensor(path):
    """Read a tensor file. Returns the float32 array; the file must contain
    exactly one tensor."""
    with open(path, "rb") as f:
        return read_tensor_from(f, allow_trailing=False)
