"""Streaming attention engine with a compressed linear history pathway,
block-sparse local attention, a rolling KV cache with pinned sinks, capped
relative rotary positions, and a closed-form Gaussian distillation lab.

`import hybridstream` loads the streaming engine and what it uses. The
distillation lab, `hybridstream.distill`, loads on first use of it or of a
name it re-exports here (`train`, `DistillConfig`, ...), since no stream
runs it. `hybridstream.verify` and `hybridstream.cli` load only when
imported.
"""

import importlib

from .engine import (
    BENCH_MODES,
    OpCounters,
    StreamConfig,
    StreamResult,
    ToyDenoiser,
    config_for_mode,
    hybrid_attention,
    rectified_flow,
    run_stream,
)
from .errors import (
    ContractViolationError,
    DivergenceError,
    FormatError,
    LengthError,
    SequenceError,
    ShapeError,
)
from .linear_history import (
    EPS_DIV,
    LinearState,
    absorb_evicted,
    elu_plus_one,
    history_output,
)
from .numerics import (
    SeededRng,
    read_tensor,
    softmax_rows,
    write_tensor,
)
from .rope import RoPEConfig, apply_rope, position_tables, rotate, temporal_index
from .sparse_local import (
    BlockConfig,
    BlockMask,
    block_means,
    block_scores,
    build_mask,
    sparse_attention,
)
from .stream_cache import ChunkKV, RollingCache

__version__ = "0.1.0"

# re-exported from .distill, which __getattr__ loads on first use
_DISTILL_NAMES = frozenset({
    "AffineGenerator",
    "DistillConfig",
    "DmdGradient",
    "GaussianWorld",
    "Phase",
    "TrainResult",
    "diffuse_gaussian",
    "dmd_gradient",
    "flow_matching_loss",
    "gaussian_kl",
    "gaussian_score",
    "reg_loss",
    "teacher_rollout",
    "train",
})


def __getattr__(name: str):
    # import_module, not `from . import distill`: the latter asks this
    # package for the attribute first, which would call __getattr__ again
    if name == "distill" or name in _DISTILL_NAMES:
        distill = importlib.import_module(f"{__name__}.distill")
        return distill if name == "distill" else getattr(distill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _DISTILL_NAMES | {"distill"})
