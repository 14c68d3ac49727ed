"""Rotary position embedding with a capped temporal axis.

Head channels are split into 2-D rotation pairs, half of them on each of
two factorized axes: a temporal axis shared by every token of a chunk, and
a spatial axis carrying each token's place 0..tokens - 1 inside the chunk.
Temporal indices saturate at `max_temporal_index` so arbitrarily long
streams keep a bounded index range: temporal_index caps a query chunk's
index and, from its distance behind the query, a cached key's.

position_tables is the one builder of rotation tables: per config and
token count, the cos and sin of every pair's angle at every capped
temporal index, built once and read-only. rotate applies such tables to a
tensor through rotate_into, the one kernel, which takes its input as
scratch; apply_rope is the two composed. The tables are full width, one
entry per channel: a pair's cos on both of its (even, odd) lanes, its sin
negated on the even lane. A rotation is then x * cos plus x with each
pair's lanes swapped times sin, two contiguous products. rotate takes
tables of its input's own trailing shape: one row (a view) rotates a chunk
at one index, and a gather of rows, one per slice, rotates slices at
several. apply_rope takes one int index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError, ShapeError
from .numerics import as_index, integer_fields


@dataclass(frozen=True)
class RoPEConfig:
    head_dim: int
    base_theta: float = 10000.0
    max_temporal_index: int = 21

    def __post_init__(self):
        integer_fields(self, ("head_dim", "max_temporal_index"))
        if self.head_dim < 4 or self.head_dim % 4:
            raise ShapeError(f"head_dim must be a positive multiple of 4, got {self.head_dim}")
        if self.max_temporal_index < 1:
            raise ValueError("max_temporal_index must be >= 1")
        if not 1.0 < self.base_theta < np.inf:  # also rejects nan
            raise ValueError(f"base_theta must be finite and exceed 1, got {self.base_theta}")

    @property
    def pairs(self) -> int:
        # rotation pairs per axis: channels [0 : 2 * pairs] are temporal, the rest spatial
        return self.head_dim // 4


def temporal_index(chunk_pos: int, config: RoPEConfig, distance=0):
    """Capped temporal position of what lies `distance` chunks behind the
    chunk at chunk_pos: max(0, min(chunk_pos, cap) - distance). The querying
    chunk (distance 0) saturates at the cap, and the clamp at 0 pins a sink
    entry to the origin for arbitrarily long streams. An int distance (or
    a 0-d integer array) gives an int; a sequence of distances, the list of
    their positions. chunk_pos and every distance are taken through
    numerics.as_index, so a float (even a scalar 1.0 or a 0-d float array)
    or a bool raises TypeError; a plain int skips that call."""
    chunk_pos = chunk_pos if type(chunk_pos) is int else as_index(chunk_pos, "chunk_pos")
    many = hasattr(distance, "__iter__") and getattr(distance, "ndim", 1) > 0
    distances = [d if type(d) is int else as_index(d, "distance")
                 for d in (distance if many else (distance,))]
    if chunk_pos < 0 or min(distances, default=0) < 0:
        raise ValueError(f"chunk_pos and distance must be >= 0, got {chunk_pos}, {distance}")
    capped = min(chunk_pos, config.max_temporal_index)
    rel = [max(0, capped - d) for d in distances]
    return rel if many else rel[0]


@lru_cache(maxsize=32)
def position_tables(config: RoPEConfig, tokens: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every rotation pair's angle, each [max_temporal_index
    + 1, tokens, head_dim]: row t holds the temporal pairs at index t and
    the spatial pairs at each token's place 0..tokens - 1. Channels 2j and
    2j + 1 hold pair j: cos on both, sin negated on 2j. Built once per
    (config, tokens) and read-only, since every caller with that config and
    token count shares them: a row (a view) rotates a chunk at one index, a
    gather of rows rotates slices at several."""
    # pair k of an axis rotates at angle index / base_theta ** (2k / axis_dim),
    # axis_dim being the axis's channel count, 2 * pairs
    freqs = config.base_theta ** (-2.0 * np.arange(config.pairs, dtype=np.float64)
                                  / (2.0 * config.pairs))
    t_ang = np.arange(config.max_temporal_index + 1, dtype=np.float64)[:, None] * freqs
    s_ang = np.arange(tokens, dtype=np.float64)[:, None] * freqs
    p = config.pairs
    cos = np.empty((config.max_temporal_index + 1, tokens, 2 * p))
    sin = np.empty_like(cos)
    cos[..., :p] = np.cos(t_ang)[:, None, :]
    sin[..., :p] = np.sin(t_ang)[:, None, :]
    cos[..., p:] = np.cos(s_ang)
    sin[..., p:] = np.sin(s_ang)
    # full width: each pair's values on both of its lanes, the even lane's
    # sin negated (exact), so rotate() needs no subtraction
    cos, sin = np.repeat(cos, 2, axis=-1), np.repeat(sin, 2, axis=-1)
    np.negative(sin[..., 0::2], out=sin[..., 0::2])
    for table in (cos, sin):
        table.flags.writeable = False
    return cos, sin


def check_tables(shape: tuple, cos: np.ndarray, sin: np.ndarray) -> None:
    """Raise ShapeError unless cos and sin are rotation tables for an x of
    `shape` ([..., tokens, head_dim]): both of x's trailing shape, at least
    [tokens, head_dim]."""
    if cos.ndim < 2 or cos.shape != shape[-cos.ndim:] or sin.shape != cos.shape or shape[-1] % 2:
        raise ShapeError(f"rotation tables {cos.shape} do not fit x {shape}")


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate x's (even, odd) channel pairs by the angles whose cos and sin
    are given (see position_tables and check_tables), into a new array; x
    is left as it was. Rotations preserve per-token norms exactly (up to
    rounding)."""
    x = np.array(x, dtype=np.float64)  # a copy: rotate_into's scratch
    check_tables(x.shape, cos, sin)
    return rotate_into(x, cos, sin, np.empty(x.shape))


def rotate_into(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write the rotation of x into out, an array of x's shape that does
    not overlap it, and return out. x is scratch: it is left holding x *
    cos. The tables are of x's trailing shape, as rotate takes them, but
    unchecked."""
    # even' = even cos - odd sin, odd' = odd cos + even sin: out takes x with
    # each pair's lanes swapped, times sin (negative on the even lane), plus
    # x cos. a + (-b) rounds as a - b, and a two-term sum in either order.
    out[..., 0::2] = x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    out *= sin
    x *= cos
    out += x
    return out


def apply_rope(x: np.ndarray, t_index: int, config: RoPEConfig) -> np.ndarray:
    """Rotate each token's pairs: temporal pairs by the capped temporal
    index t_index, spatial pairs by the token's place 0..tokens - 1 in the
    chunk. The same as rotate(x, cos[t_index], sin[t_index]) with the
    tables of position_tables(config, tokens).

    x: [..., tokens, head_dim]; channels [0 : 2 * pairs] hold the temporal
    pairs as (even, odd) lanes, the remainder the spatial pairs. Every slice
    turns at the same index. t_index: an int in [0, max_temporal_index].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != config.head_dim:
        raise ShapeError(f"expected [..., tokens, {config.head_dim}], got {x.shape}")
    if isinstance(t_index, bool) or not isinstance(t_index, (int, np.integer)):
        raise ContractViolationError(
            f"temporal index must be an int, got {type(t_index).__name__}")
    cap = config.max_temporal_index
    if not 0 <= t_index <= cap:
        raise ContractViolationError(
            f"temporal index {t_index} outside [0, {cap}]; "
            "callers must saturate with temporal_index() first"
        )
    cos, sin = position_tables(config, x.shape[-2])
    return rotate(x, cos[t_index], sin[t_index])
