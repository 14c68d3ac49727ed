"""Block-sparse local attention: pooled block scoring, per-row top-K mask
construction, and masked attention through one gathered softmax.

A mask row is one query block's row of key blocks. block_scores takes
block means (block_means), so a caller can keep the means of keys it
scores many times. The engine packs all heads into one call: block_scores
batches over leading [heads] dims, build_mask takes the scores as [heads *
t_m, t_n] rows (one per (head, query block) pair), and sparse_attention
takes q, k and v as [heads * tokens, d] with the [heads * t_m, heads * t_n]
block-diagonal mask BlockMask.block_diagonal packs from those rows, whose
head-h rows are active only in head h's key blocks.

Gather rule: every row of a mask keeps the same number c >= 1 of key
blocks (BlockMask's invariant; build_mask keeps its quota on every row).
Each row's kept blocks, ascending (BlockMask.index), are gathered as
[rows, c * b_kv, d]; one batched product, one max-subtracted exp and one
product with the values over the row sums give the output, which is dense
attention with -inf scores on the inactive blocks.
verify.row_loop_attention is the online-softmax reference.

A mask is read-only and gets its index when it is made: BlockMask(active)
reads it off a copy of the matrix, and a choosing pass's two masks, the
rows and their packing, are made with the index their maker fixed. Where
the quota leaves no choice, build_mask returns one shared mask per layout
and shape, so such a layer pass makes no mask at all; where it chooses,
the layout's quota and free blocks are looked up per T_n
(BlockConfig.choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ShapeError
from .numerics import as_index, float_fields


@dataclass(frozen=True)
class BlockConfig:
    """What build_mask needs of a layout; the block sizes come from the
    shapes of the arrays passed to block_means and sparse_attention. The
    derived fields are left out of comparison, hashing and repr. keep_ratio
    is taken through numerics.float_fields and each forced block through
    numerics.as_index, so a str or a bool keep ratio, or a float or a bool
    forced block, raises TypeError naming its field."""

    keep_ratio: float
    forced_blocks: frozenset = field(default_factory=frozenset)  # key-block indices
    # forced_blocks ascending, read-only
    forced_index: np.ndarray = field(init=False, repr=False, compare=False)
    # build_mask's one mask per (T_m, T_n) whose quota leaves no choice
    shared_masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    choices: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # choice()

    def __post_init__(self):
        float_fields(self, ("keep_ratio",))
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        index = np.array(sorted(as_index(b, "forced_blocks") for b in self.forced_blocks), np.intp)
        index.flags.writeable = False
        object.__setattr__(self, "forced_index", index)

    def choice(self, t_n: int) -> tuple:
        """(need, free) for T_n key blocks, built on first use into choices:
        how many blocks a row picks beyond the forced ones, and the read-only
        index of the blocks it picks them from, ascending (those not forced).
        Raises ShapeError if a forced block lies outside T_n key blocks."""
        choice = self.choices.get(t_n)
        if choice is None:
            forced = self.forced_index
            if forced.size and (forced[0] < 0 or forced[-1] >= t_n):
                raise ShapeError(
                    f"forced block {forced.tolist()} out of range for {t_n} key blocks")
            quota = max(forced.size, math.ceil(self.keep_ratio * t_n))
            free = np.setdiff1d(np.arange(t_n), forced)
            free.flags.writeable = False
            choice = self.choices[t_n] = (quota - forced.size, free)
        return choice


@dataclass(eq=False)
class BlockMask:
    """Boolean [query blocks x key blocks] activity matrix whose rows all
    keep the same number c >= 1 of blocks. A row is one query block of one
    head; heads packed into one call stack their rows, and their key blocks
    too when the mask is block diagonal (block_diagonal).

    BlockMask(active) holds read-only copies of the matrix and of its index
    ([rows, c], each row's kept blocks ascending). Raises
    ContractViolationError naming the rows' counts unless they are one
    count of at least 1. The mask also keeps the block-diagonal packing of
    the last head count asked for."""

    active: np.ndarray
    index: np.ndarray = field(init=False, repr=False)
    _packed: tuple = field(default=(), init=False, repr=False)  # (heads, block_diagonal(heads))

    def __post_init__(self):
        active = np.array(self.active, dtype=bool)
        if active.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {active.shape}")
        counts = np.add.reduce(active, axis=1).tolist()  # a bool sum counts in intp
        if len(set(counts)) != 1 or counts[0] < 1:
            raise ContractViolationError(
                f"every mask row must keep one number of blocks, at least 1; got {counts}")
        index = active.nonzero()[1].reshape(-1, counts[0])
        active.flags.writeable = index.flags.writeable = False
        self.active, self.index = active, index

    @classmethod
    def _made(cls, active: np.ndarray, index: np.ndarray) -> "BlockMask":
        """A mask over `active`, a bool matrix its maker has just built and
        holds no other reference to, and the index its maker fixed: both are
        marked read-only, not copied, checked or counted."""
        active.flags.writeable = index.flags.writeable = False
        mask = cls.__new__(cls)
        mask.active, mask.index, mask._packed = active, index, ()
        return mask

    @property
    def shape(self):
        return self.active.shape

    def active_count(self) -> int:
        return self.index.size

    def block_diagonal(self, heads: int) -> "BlockMask":
        """These rows as `heads` groups of t_m query blocks, packed for one
        call over every head's tokens: [heads * t_m, heads * t_n], head h's
        rows active only in head h's key blocks. Built on the first call for
        a head count, then the same object. Its index is these rows' index,
        head h's offset by h * t_n, without reading the wider matrix."""
        if self._packed and self._packed[0] == heads:
            return self._packed[1]
        rows, t_n = self.active.shape
        if rows % heads:
            raise ShapeError(f"{rows} mask rows do not split into {heads} heads")
        per_head, head = rows // heads, np.arange(heads)
        packed = np.zeros((heads, per_head, heads, t_n), dtype=bool)
        packed[head, :, head] = self.active.reshape(heads, per_head, t_n)
        offsets = (head * t_n).repeat(per_head)[:, None]
        packed = BlockMask._made(packed.reshape(rows, heads * t_n), self.index + offsets)
        self._packed = (heads, packed)
        return packed


def block_means(x: np.ndarray, block: int) -> np.ndarray:
    """Mean of each run of `block` consecutive tokens: [..., tokens, d] to
    [..., tokens // block, d]. block is taken through numerics.as_index
    (TypeError naming it for a float or a bool); raises ShapeError unless
    it is at least 1 and divides the token count."""
    x = np.asarray(x, dtype=np.float64)
    block = block if type(block) is int else as_index(block, "block")
    if block < 1 or x.ndim < 2 or x.shape[-2] % block != 0:
        raise ShapeError(f"token count of {x.shape} does not split into blocks of {block}")
    # the sum over the block axis divided by the count, as x.mean rounds it
    return np.add.reduce(x.reshape(*x.shape[:-2], -1, block, x.shape[-1]), axis=-2) / block


def block_scores(q_means: np.ndarray, k_means: np.ndarray) -> np.ndarray:
    """Pooled importance scores: each query block mean dotted with each key
    block mean (see block_means). q_means: [..., T_m, d] and k_means:
    [..., T_n, d] with equal leading dims, scored slice by slice into
    [..., T_m, T_n]. Raw scores are returned; any row-monotone transform
    (e.g. a softmax) selects the same top-K set."""
    q, k = np.asarray(q_means, dtype=np.float64), np.asarray(k_means, dtype=np.float64)
    if q.ndim < 2 or k.ndim != q.ndim or q.shape[:-2] != k.shape[:-2] \
            or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"q {q.shape} and k {k.shape} differ outside their block axis")
    return q @ k.swapaxes(-1, -2)


def build_mask(scores: np.ndarray, cfg: BlockConfig) -> BlockMask:
    """Activate forced blocks plus the highest-scoring remainder per query row.

    The per-row quota is max(forced count, ceil(keep_ratio * T_n)); forced
    blocks count toward it. Score ties break toward the lower key-block
    index, so masks are deterministic.

    Where the quota leaves no choice (it equals the forced count, or T_n)
    the scores cannot change the mask: it is made once per (cfg, T_m, T_n)
    (cfg.shared_masks) and that one read-only mask is returned for every
    later score matrix of that shape, with its index and head packing. The
    quota and the free blocks are built once per (cfg, T_n)
    (BlockConfig.choice). Where it chooses, every row keeps the quota, and
    the mask is made with its active blocks in row order as its index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got shape {scores.shape}")
    shared = cfg.shared_masks.get(scores.shape)
    if shared is not None:
        return shared
    t_m, t_n = scores.shape
    need, free = cfg.choice(t_n)
    active = np.zeros((t_m, t_n), dtype=bool)
    active[:, cfg.forced_index] = True
    if 0 < need < free.size:
        # a stable sort of the negated scores of the free blocks is descending
        # by score with ties kept in ascending (lower-index-first) order
        order = (-scores[:, free]).argsort(axis=1, kind="stable")[:, :need]
        active[np.arange(t_m)[:, None], free[order]] = True
        quota = cfg.forced_index.size + need
        return BlockMask._made(active, active.nonzero()[1].reshape(t_m, quota))
    if need:
        active[:] = True
    mask = cfg.shared_masks[scores.shape] = BlockMask(active)
    return mask


def sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: BlockMask,
    scale: float,
    counters=None,
) -> np.ndarray:
    """Masked attention over active blocks as one gathered softmax, as the
    module docstring describes. counters, when given, gets `score_evals`
    bumped by b_q * b_kv per active (query block, key block) pair (the exact
    number of S entries computed)."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t_m, t_n = mask.active.shape
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("q, k, v must be 2-D")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k and v token counts differ: {k.shape[0]} vs {v.shape[0]}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"head dims differ: {q.shape} vs {k.shape}")
    if q.shape[0] % t_m != 0 or k.shape[0] % t_n != 0:
        raise ShapeError(
            f"mask {mask.shape} incompatible with {q.shape[0]} queries / {k.shape[0]} keys"
        )
    b_q, b_kv = q.shape[0] // t_m, k.shape[0] // t_n
    idx = mask.index  # [t_m, c]
    c = idx.shape[1]
    if counters is not None:
        counters.score_evals += idx.size * b_q * b_kv

    k_rows = k.reshape(t_n, b_kv, -1).take(idx, axis=0).reshape(t_m, c * b_kv, -1)
    v_rows = v.reshape(t_n, b_kv, -1).take(idx, axis=0).reshape(t_m, c * b_kv, -1)
    # the softmax works in place on s, so the scores are the one temporary as
    # large as the gathered keys
    s = q.reshape(t_m, b_q, -1) @ k_rows.transpose(0, 2, 1)  # [t_m, b_q, c*b_kv]
    s *= scale
    s -= np.maximum.reduce(s, axis=2, keepdims=True)
    np.exp(s, out=s)
    out = s @ v_rows
    out /= np.add.reduce(s, axis=2, keepdims=True)
    return out.reshape(q.shape[0], v.shape[1])
