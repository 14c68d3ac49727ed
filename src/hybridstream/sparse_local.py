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

Gather rule: each query-block row's kept key blocks, in ascending order and
padded to the largest per-row count c, are gathered as [rows, c * b_kv, d];
one batched product, one max-subtracted exp and one product with the values
over the row sums give the output. A padding slot holds a block the row does
not keep and scores -inf, so the result is dense attention with -inf scores
on the inactive blocks. build_mask gives every row the same count, so its
masks never pad. verify.row_loop_attention is the online-softmax reference.

A mask is read-only, so what is derived from it is built once and kept on
it: the gather plan (BlockMask.plan) and its head packing, whose plan is
the rows' own with each head's blocks offset by a read-only column built
once per (heads, rows, T_n). Where the quota leaves no choice, build_mask
returns one shared mask per layout and shape, so a layer pass over such a
layout builds no mask at all; where it does choose, the layout's quota and
free blocks are looked up per T_n (BlockConfig.choice), and the mask is
given the plan its top-k fixed, so nothing recounts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, ShapeError


@dataclass(frozen=True)
class BlockConfig:
    """What build_mask needs of a layout; the block sizes come from the
    shapes of the arrays passed to block_means and sparse_attention."""

    keep_ratio: float
    forced_blocks: frozenset = field(default_factory=frozenset)  # key-block indices

    def __post_init__(self):
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")

    @cached_property
    def forced_index(self) -> np.ndarray:
        """forced_blocks in ascending order, as a read-only index array built
        on first use."""
        index = np.array(sorted(self.forced_blocks), dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def shared_masks(self) -> dict:
        """build_mask's one mask per (T_m, T_n) for the shapes whose quota
        leaves no choice."""
        return {}

    @cached_property
    def choices(self) -> dict:
        """build_mask's (need, free) per T_n: how many blocks a row picks
        beyond the forced ones, and the read-only index of the blocks it
        picks them from, ascending (those not forced)."""
        return {}

    def choice(self, t_n: int) -> tuple:
        """choices[t_n], built on first use. Raises ShapeError if a forced
        block lies outside T_n key blocks."""
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


class GatherPlan(NamedTuple):
    """What sparse_attention reads of a mask to gather its rows."""

    counts: np.ndarray  # [rows] kept blocks per row
    total: int          # kept blocks over all rows
    widest: int         # the largest count, c
    index: np.ndarray   # [rows, c]: each row's kept blocks ascending, then its first dropped ones
    pads: bool          # whether some row keeps fewer than c blocks


@lru_cache(maxsize=16)
def _head_selector(heads: int) -> np.ndarray:
    """The read-only [heads, 1, heads, 1] selector of a block-diagonal head
    mask, built once per head count."""
    selector = np.eye(heads, dtype=bool)[:, None, :, None]
    selector.flags.writeable = False
    return selector


@lru_cache(maxsize=16)
def _head_offsets(heads: int, rows: int, t_n: int) -> np.ndarray:
    """The read-only [rows, 1] offset column of a block-diagonal packing:
    h * t_n on each of head h's rows // heads rows, built once per
    (heads, rows, t_n)."""
    offsets = np.arange(0, heads * t_n, t_n).repeat(rows // heads)[:, None]
    offsets.flags.writeable = False
    return offsets


@dataclass(eq=False)
class BlockMask:
    """Boolean [query blocks x key blocks] activity matrix. A row is one
    query block of one head; heads packed into one call stack their rows,
    and their key blocks too when the mask is block diagonal
    (block_diagonal).

    The mask holds a read-only copy of the matrix it is given, so what it
    builds from it once stays valid: the gather plan (plan) and the
    block-diagonal packing of the last head count asked for."""

    active: np.ndarray
    _packed: tuple = field(default=(), init=False, repr=False)  # (heads, block_diagonal(heads))

    def __post_init__(self):
        self.active = np.array(self.active, dtype=bool)
        self.active.flags.writeable = False
        if self.active.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {self.active.shape}")
        if not np.logical_and.reduce(np.logical_or.reduce(self.active, axis=1)):
            raise ContractViolationError("every query row needs at least one active block")

    @property
    def shape(self):
        return self.active.shape

    def active_count(self) -> int:
        return int(self.active.sum())

    @cached_property
    def plan(self) -> GatherPlan:
        """The gather plan, built on first use from the rows' own counts. If
        every row keeps c blocks (as build_mask's masks do), the active
        blocks in row-major order are the index; else a stable sort puts each
        row's kept blocks first, ascending. Raises ContractViolationError if
        a row keeps no block."""
        counts = np.add.reduce(self.active, axis=1)  # a bool sum counts in intp
        per_row = counts.tolist()  # a few values: Python's max and sum are cheaper
        if 0 in per_row:
            raise ContractViolationError("a query row has no active blocks")
        c, total = max(per_row), sum(per_row)
        if total == c * len(per_row):  # no row keeps fewer than c
            # row-major: each row's blocks ascending
            return GatherPlan(counts, total, c, self.active.nonzero()[1].reshape(-1, c), False)
        index = (~self.active).argsort(axis=1, kind="stable")[:, :c]
        return GatherPlan(counts, total, c, index, True)

    def block_diagonal(self, heads: int) -> "BlockMask":
        """These rows as `heads` groups of t_m query blocks, packed for one
        call over every head's tokens: [heads * t_m, heads * t_n], head h's
        rows active only in head h's key blocks. Built on the first call for
        a head count, then the same object.

        Unless a row pads, the packed plan is these rows' plan with head h's
        index offset by h * t_n: a packed row keeps the same blocks, shifted
        into its head's. So it is the plan the packed matrix's own counting
        would give, without counting the heads-times wider matrix."""
        if self._packed and self._packed[0] == heads:
            return self._packed[1]
        rows, t_n = self.active.shape
        if rows % heads:
            raise ShapeError(f"{rows} mask rows do not split into {heads} heads")
        packed = _head_selector(heads) & self.active.reshape(heads, rows // heads, 1, t_n)
        packed = BlockMask(packed.reshape(rows, heads * t_n))
        counts, total, c, index, pads = self.plan
        if not pads:  # a padding row's slots past its count differ once packed
            packed.plan = GatherPlan(counts, total, c, index + _head_offsets(heads, rows, t_n),
                                     False)
        self._packed = (heads, packed)
        return packed


def block_means(x: np.ndarray, block: int) -> np.ndarray:
    """Mean of each run of `block` consecutive tokens: [..., tokens, d] to
    [..., tokens // block, d]. Raises ShapeError unless block divides the
    token count."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] % block != 0:
        raise ShapeError(f"token count of {x.shape} not divisible by block size {block}")
    # the sum over the block axis divided by the count, as x.mean rounds it
    return np.add.reduce(x.reshape(*x.shape[:-2], -1, block, x.shape[-1]), axis=-2) / block


def block_scores(q_means: np.ndarray, k_means: np.ndarray) -> np.ndarray:
    """Pooled importance scores: each query block mean dotted with each key
    block mean (see block_means). q_means: [..., T_m, d] and k_means:
    [..., T_n, d] with equal leading dims, scored slice by slice into
    [..., T_m, T_n]. Raw scores are returned; any row-monotone transform
    (e.g. a softmax) selects the same top-K set."""
    q = np.asarray(q_means, dtype=np.float64)
    k = np.asarray(k_means, dtype=np.float64)
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
    the scores cannot change the mask: it is built once per (cfg, T_m, T_n)
    and that one read-only mask is returned for every later score matrix
    of that shape, with its gather plan and head packing. The quota and
    the free blocks are built once per (cfg, T_n) (BlockConfig.choice).
    Where it chooses, every row keeps the quota, so the mask is given its
    gather plan as it is built: the active blocks in row order, unpadded,
    field for field what BlockMask.plan would count.
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
        mask = BlockMask(active)
        c = cfg.forced_index.size + need  # the quota, kept by every row
        mask.plan = GatherPlan(np.full(t_m, c, dtype=np.intp), t_m * c, c,
                               mask.active.nonzero()[1].reshape(t_m, c), False)
        return mask
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
    number of S entries computed; padding is not counted)."""
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
    if t_m == 0 or q.shape[0] % t_m != 0 or k.shape[0] % t_n != 0:
        raise ShapeError(
            f"mask {mask.shape} incompatible with {q.shape[0]} queries / {k.shape[0]} keys"
        )
    b_q = q.shape[0] // t_m
    b_kv = k.shape[0] // t_n
    counts, total, c, idx, pads = mask.plan  # idx: [t_m, c]
    if counters is not None:
        counters.score_evals += total * b_q * b_kv

    k_rows = k.reshape(t_n, b_kv, -1)[idx].reshape(t_m, c * b_kv, -1)
    v_rows = v.reshape(t_n, b_kv, -1)[idx].reshape(t_m, c * b_kv, -1)
    # the softmax works in place on s, so the scores are the one temporary as
    # large as the gathered keys
    s = q.reshape(t_m, b_q, -1) @ k_rows.transpose(0, 2, 1)  # [t_m, b_q, c*b_kv]
    s *= scale
    if pads:
        padded = np.repeat(np.arange(c) >= counts[:, None], b_kv, axis=1)  # [t_m, c*b_kv]
        s[np.broadcast_to(padded[:, None, :], s.shape)] = -np.inf
    s -= np.maximum.reduce(s, axis=2, keepdims=True)
    np.exp(s, out=s)
    out = s @ v_rows
    out /= np.add.reduce(s, axis=2, keepdims=True)
    return out.reshape(q.shape[0], v.shape[1])
