"""Compressed history pathway: a constant-size linear-attention state over
evicted cache entries.

Per head the state is a feature-space accumulator L (sum over evicted
tokens of rotate(phi(k))^T v) and a normalizer vector H (sum over evicted
chunks of the per-chunk mean of phi(k), kept unrotated). Queries read the
state as projection(rotate(phi(q)) L / (phi(q) . H + eps)), where the
projection is a model weight the caller passes in, so memory and query
cost never grow with how much has been evicted. The feature map phi
is elu(x) + 1 (Katharopoulos et al., 2020): positive everywhere and only
linear in growth, which keeps the normalizer meaningful and finite. It is
evaluated as exp(min(x, 0)) + max(x, 0), equal to elu(x) + 1 bit for bit.
Rotations use rope.position_tables of the state's head_dim: absorb_evicted
rotates through apply_rope, which reads the cached row at temporal index 0,
and folds the chunk into L as one batched matrix product, rotate(phi(k))^T
v per head, and history_output takes the query chunk's row from its caller
and rotates phi(q) in place of a copy (rope.rotate_into), after the
denominator has read it.

Note the deliberate asymmetry: the rotation enters L and the query
numerator but not H or the denominator, and H averages within each evicted
chunk before summing across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rope import apply_rope, check_tables, rotate_into

EPS_DIV = 1e-6  # denominator guard for adversarial queries


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """The feature map phi(x) = elu(x) + 1, elementwise."""
    # exp(min(x, 0)) + max(x, 0) is exp(x) + 0 for x <= 0 and 1 + x above, as
    # elu(x) + 1 is, bit for bit (also at +-0, +-inf and nan)
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(np.minimum(x, 0.0))
    out += np.maximum(x, 0.0)
    return out


@dataclass(frozen=True)
class LinearState:
    """Per-head (L, H) summary of everything evicted so far: exactly what a
    stream absorbed. A value: absorb_evicted returns a new state, so no
    field is ever assigned, and L and H are read-only views, so an in-place
    write (state.L += 1.0) fails before it changes anything. The readout's
    output projection is a model weight, not state (history_output)."""

    L: np.ndarray        # [heads, head_dim, head_dim]
    H: np.ndarray        # [heads, head_dim]
    evicted_tokens: int

    def __post_init__(self):
        for name in ("L", "H"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def zeros(cls, heads: int, head_dim: int) -> "LinearState":
        return cls(L=np.zeros((heads, head_dim, head_dim)), H=np.zeros((heads, head_dim)),
                   evicted_tokens=0)

    @property
    def heads(self) -> int:
        return self.L.shape[0]

    @property
    def head_dim(self) -> int:
        return self.L.shape[1]

    @property
    def nbytes(self) -> int:
        """State footprint; independent of how many tokens were absorbed."""
        return self.L.nbytes + self.H.nbytes + 8


def absorb_evicted(
    state: LinearState,
    keys: np.ndarray,
    values: np.ndarray,
) -> LinearState:
    """The state with one evicted chunk folded in, as a new LinearState;
    `state` itself is left as it was.

    keys/values: [heads, chunk_tokens, head_dim]. Rotation is applied once
    here, anchoring evicted content at temporal index 0 (and each token at
    its place 0..chunk_tokens - 1 in the chunk) so that query-side capped
    indices keep a monotone relative offset to everything already
    absorbed. The rotation reads the cached row 0 of rope.position_tables,
    so an eviction builds no tables. Raises ValueError when the new L or H
    would be non-finite.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.shape != values.shape:
        raise ShapeError(f"keys {keys.shape} and values {values.shape} differ")
    if keys.ndim != 3 or keys.shape[0] != state.heads or keys.shape[2] != state.head_dim:
        raise ShapeError(
            f"expected [{state.heads}, tokens, {state.head_dim}], got {keys.shape}"
        )
    fk = elu_plus_one(keys)
    rotated = apply_rope(fk, 0)
    L = state.L + rotated.transpose(0, 2, 1) @ values  # one BLAS product per head
    H = np.add.reduce(fk, axis=1)
    H /= keys.shape[1]  # the sum over the count, as fk.mean rounds it
    H += state.H
    if not (np.logical_and.reduce(np.isfinite(L), axis=None)
            and np.logical_and.reduce(np.isfinite(H), axis=None)):
        raise ValueError("linear state would become non-finite; absorb rejected")
    return LinearState(L, H, state.evicted_tokens + keys.shape[1])


def history_output(
    state: LinearState,
    queries: np.ndarray,
    cos: np.ndarray,
    sin: np.ndarray,
    projection: np.ndarray,
) -> np.ndarray:
    """Read the history pathway for a batch of per-head queries.

    queries: [heads, tokens, head_dim], unrotated. cos, sin: the queries'
    rotation tables, [tokens, head_dim] (the query chunk's temporal-index
    row of rope.position_tables, which a caller takes once per query chunk)
    or [heads, tokens, head_dim], one per head. projection: the layer's
    [model_dim, model_dim] weight ("history_proj"), applied to the heads
    concatenated.
    Returns [tokens, model_dim]. An empty state, whose L and H are zero,
    reads zeros (0 / EPS_DIV): the pathway is inactive until the first
    eviction.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 3 or queries.shape[0] != state.heads or queries.shape[2] != state.head_dim:
        raise ShapeError(
            f"expected [{state.heads}, tokens, {state.head_dim}], got {queries.shape}"
        )
    model_dim = state.heads * state.head_dim
    if projection.shape != (model_dim, model_dim):
        raise ShapeError(f"projection must be [{model_dim}, {model_dim}], got {projection.shape}")
    check_tables(queries.shape, cos, sin)
    tokens = queries.shape[1]
    fq = elu_plus_one(queries)
    # a matrix-vector product per head, rounded as fq[h] @ H[h] would be;
    # taken first, since the rotation then takes fq as its scratch
    den = fq @ state.H[:, :, None] + EPS_DIV  # [heads, tokens, 1]
    num = rotate_into(fq, cos, sin, np.empty(fq.shape)) @ state.L  # [heads, tokens, head_dim]
    num /= den
    concat = num.transpose(1, 0, 2).reshape(tokens, model_dim)
    return concat @ projection
