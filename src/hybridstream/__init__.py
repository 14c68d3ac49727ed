"""Streaming attention engine with a compressed linear history pathway,
block-sparse local attention, a rolling KV cache with pinned sinks, capped
relative rotary positions, and a closed-form Gaussian distillation lab."""

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
from .distill import (
    AffineGenerator,
    DistillConfig,
    DmdGradient,
    GaussianWorld,
    Phase,
    TrainResult,
    diffuse_gaussian,
    dmd_gradient,
    flow_matching_loss,
    gaussian_kl,
    gaussian_score,
    reg_loss,
    teacher_rollout,
    train,
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
