"""Block-sparse local attention: pooled block scoring, per-row top-K mask
construction, and masked attention through an online softmax.

The online accumulation (running row max, running normalizer, rescaled
partial output) visits only active blocks, so inactive blocks contribute
exactly nothing and the result equals dense attention with -inf scores on
the inactive blocks, independent of visit order.

Visit rule: the loop is key-block-major. Each key block that some query-block
row keeps is visited once per call, in visit order; a block every row keeps
is one step over all query rows at once, any other block one step per row
that keeps it. So each row folds in its blocks in visit order with the same
arithmetic as a row-by-row loop, and the output and score count are bit-equal
to that loop (verify.row_loop_attention), while the Python-level steps per
call fall from (rows x kept blocks) to about the number of distinct kept
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ShapeError


@dataclass(frozen=True)
class BlockConfig:
    block_q: int
    block_kv: int
    keep_ratio: float
    forced_blocks: frozenset = field(default_factory=frozenset)  # key-block indices

    def __post_init__(self):
        if self.block_q < 1 or self.block_kv < 1:
            raise ShapeError("block sizes must be >= 1")
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")


@dataclass
class BlockMask:
    """Boolean [query blocks x key blocks] activity matrix for one head."""

    active: np.ndarray

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=bool)
        if self.active.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {self.active.shape}")
        if self.active.shape[0] > 0 and not self.active.any(axis=1).all():
            raise ContractViolationError("every query row needs at least one active block")

    @property
    def shape(self):
        return self.active.shape

    def active_count(self) -> int:
        return int(self.active.sum())


def _split_blocks(x: np.ndarray, block: int, what: str) -> np.ndarray:
    if x.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n % block != 0:
        raise ShapeError(f"{what} length {n} not divisible by block size {block}")
    return x.reshape(n // block, block, d)


def block_scores(q: np.ndarray, k: np.ndarray, cfg: BlockConfig) -> np.ndarray:
    """Pooled importance scores: mean of each query block dotted with the
    mean of each key block. Raw scores are returned; any row-monotone
    transform (e.g. a softmax) selects the same top-K set."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"head dims differ: {q.shape} vs {k.shape}")
    qb = _split_blocks(q, cfg.block_q, "q").mean(axis=1)  # [T_m, d]
    kb = _split_blocks(k, cfg.block_kv, "k").mean(axis=1)  # [T_n, d]
    return qb @ kb.T


def build_mask(scores: np.ndarray, cfg: BlockConfig) -> BlockMask:
    """Activate forced blocks plus the highest-scoring remainder per query row.

    The per-row quota is max(forced count, ceil(keep_ratio * T_n)); forced
    blocks count toward it. Score ties break toward the lower key-block
    index, so masks are deterministic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got shape {scores.shape}")
    t_m, t_n = scores.shape
    forced = sorted(cfg.forced_blocks)
    if forced and (forced[0] < 0 or forced[-1] >= t_n):
        raise ShapeError(f"forced block {forced} out of range for {t_n} key blocks")
    quota = max(len(forced), math.ceil(cfg.keep_ratio * t_n))
    active = np.zeros((t_m, t_n), dtype=bool)
    active[:, forced] = True
    need = quota - len(forced)
    if need > 0:
        # a stable sort of the negated scores of the free blocks is descending
        # by score with ties kept in ascending (lower-index-first) order
        is_free = np.ones(t_n, dtype=bool)
        is_free[forced] = False
        free = np.flatnonzero(is_free)
        order = np.argsort(-scores[:, free], axis=1, kind="stable")[:, :need]
        active[np.arange(t_m)[:, None], free[order]] = True
    return BlockMask(active)


def sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: BlockMask,
    scale: float | None = None,
    visit_order=None,
    counters=None,
) -> np.ndarray:
    """Masked attention over active blocks via online softmax, visiting key
    blocks as the module docstring describes.

    visit_order optionally permutes the key-block iteration; the result is
    unchanged up to rounding. counters, when given, gets `score_evals`
    bumped by b_q * b_kv per active (query block, key block) pair (the exact
    number of S entries computed).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t_m, t_n = mask.shape
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
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[1])
    order = list(range(t_n)) if visit_order is None else [int(j) for j in visit_order]
    if sorted(order) != list(range(t_n)):
        raise ShapeError("visit_order must be a permutation of the key blocks")
    if not mask.active.any(axis=1).all():
        raise ContractViolationError("a query row has no active blocks")

    # running max, normalizer and accumulator per query row, grouped by
    # query block; a matmul over a stack of query blocks computes each block
    # exactly as a matmul over that block alone
    q_blocks = q.reshape(t_m, b_q, q.shape[1])
    m = np.full((t_m, b_q), -np.inf)
    l = np.zeros((t_m, b_q))
    acc = np.zeros((t_m, b_q, v.shape[1]))
    kept = mask.active.T.tolist()  # kept[j][i]: query block i keeps key block j
    for j in [j for j in order if any(kept[j])]:
        lo = j * b_kv
        k_j, v_j = k[lo:lo + b_kv], v[lo:lo + b_kv]
        if all(kept[j]):
            m, l, acc = _online_step(q_blocks, k_j, v_j, scale, m, l, acc, counters)
            continue
        for i, keeps in enumerate(kept[j]):
            if keeps:
                r = slice(i, i + 1)
                m[r], l[r], acc[r] = _online_step(q_blocks[r], k_j, v_j, scale,
                                                  m[r], l[r], acc[r], counters)
    return (acc / l[..., None]).reshape(q.shape[0], v.shape[1])


def _online_step(q, k, v, scale, m, l, acc, counters):
    """Fold key block (k, v) into the running max m, normalizer l and
    accumulator acc of the query blocks q; returns the new (m, l, acc)."""
    s = (q @ k.T) * scale
    if counters is not None:
        counters.score_evals += s.size
    m_new = np.maximum(m, s.max(axis=2))
    alpha = np.exp(m - m_new)
    p = np.exp(s - m_new[..., None])
    return m_new, alpha * l + p.sum(axis=2), alpha[..., None] * acc + p @ v
