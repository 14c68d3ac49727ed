"""Distillation lab on a closed-form Gaussian world.

The data distribution is an explicit Gaussian, the student is an affine
map of noise, and both score functions are analytic, so the distribution
matching gradient, the flow-matching loss, the teacher rollout, and the
KL being descended all have checkable closed forms. Every diffusion here
follows the engine's one noise schedule, rectified flow (rectified_flow).
The training loop keeps the full structural skeleton of streaming
distillation: per step it uniformly samples which timestep carries the
update, rolls a small streaming fixture through the engine's chunk step
down the distillation timesteps (dense attention before
`phase_switch_step`, hybrid attention from it on), its noise for every
chunk of the roll drawn in one call, reads the analytic
critic off the current generator, and adds the teacher-anchored
regularizer only on steps whose sampled timestep is the first (noisiest)
one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .engine import StreamConfig, ToyDenoiser, check_timesteps, chunk_step, rectified_flow
from .errors import DivergenceError, ShapeError
from .numerics import SeededRng, float_fields, integer_fields

_WORLD_EIGS = (0.3, 1.3)  # the covariance spectrum of a GaussianWorld.random
# the streaming fixture train rolls each step, under the DistillConfig's timesteps
_FIXTURE = StreamConfig(
    frames_per_chunk=1,
    window_frames=2,
    sink_chunks=1,
    tokens_per_frame=4,
    heads=1,
    head_dim=8,
    layers=1,
    keep_ratio=0.5,
    seed=7,
)


@dataclass(frozen=True)
class GaussianWorld:
    """The data distribution: an explicit n-dimensional Gaussian."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    sqrt_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ShapeError(f"mean {mean.shape} and cov {cov.shape} are inconsistent")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "chol", np.linalg.cholesky(cov))
        w, v = np.linalg.eigh(cov)
        if w.min() <= 0:
            raise np.linalg.LinAlgError("covariance is not positive definite")
        object.__setattr__(self, "sqrt_cov", (v * np.sqrt(w)) @ v.T)

    @property
    def n(self) -> int:
        return self.mean.size

    def sample(self, rng: SeededRng, batch: int) -> np.ndarray:
        return self.mean + rng.normal((batch, self.n)) @ self.chol.T

    @classmethod
    def random(cls, rng: SeededRng, n: int) -> "GaussianWorld":
        """A reproducible random world whose covariance eigenvalues lie in
        _WORLD_EIGS."""
        mean = 2.0 * rng.uniform(n) - 1.0
        a = rng.normal((n, n))
        q, _ = np.linalg.qr(a)
        lo, hi = _WORLD_EIGS
        eigs = lo + (hi - lo) * rng.uniform(n)
        return cls(mean, (q * eigs) @ q.T)


@dataclass
class AffineGenerator:
    """Student g(eps) = A eps + b; its output distribution is N(b, A A^T)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ShapeError(f"A must be square, got {self.A.shape}")
        if self.b.shape != (self.A.shape[0],):
            raise ShapeError(f"b must be length {self.A.shape[0]}, got {self.b.shape}")

    @property
    def n(self) -> int:
        return self.b.size

    def transform(self, eps: np.ndarray) -> np.ndarray:
        return eps @ self.A.T + self.b

    def induced(self) -> tuple[np.ndarray, np.ndarray]:
        return self.b.copy(), self.A @ self.A.T

    def copy(self) -> "AffineGenerator":
        return AffineGenerator(self.A.copy(), self.b.copy())


def diffuse_gaussian(mean: np.ndarray, cov: np.ndarray,
                     t: float) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of alpha x + beta eps for x ~ N(mean, cov), (alpha, beta)
    = rectified_flow(t): N(alpha mean, alpha^2 cov + beta^2 I)."""
    a, bt = rectified_flow(t)
    n = np.asarray(mean).size
    return a * np.asarray(mean), (a * a) * np.asarray(cov) + (bt * bt) * np.eye(n)


def gaussian_score(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Exact score of N(mean, cov): -cov^{-1} (x - mean).

    Accepts a single point [n] or a batch [batch, n]. A singular covariance
    raises numpy.linalg.LinAlgError.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != mean.size:
        raise ShapeError(f"points {x.shape} do not match mean {mean.shape}")
    out = -np.linalg.solve(cov, (pts - mean).T).T
    return out[0] if single else out


def gaussian_kl(mean0, cov0, mean1, cov1) -> float:
    """KL(N(mean0, cov0) || N(mean1, cov1))."""
    mean0, mean1 = np.asarray(mean0), np.asarray(mean1)
    n = mean0.size
    diff = mean1 - mean0
    solve = np.linalg.solve(cov1, np.column_stack([cov0, diff[:, None]]))
    trace = np.trace(solve[:, :n])
    quad = diff @ solve[:, n]
    _, logdet0 = np.linalg.slogdet(cov0)
    _, logdet1 = np.linalg.slogdet(cov1)
    return 0.5 * (trace + quad - n + logdet1 - logdet0)


def flow_matching_loss(velocity_fn, x0: np.ndarray, eps: np.ndarray,
                       t: np.ndarray) -> float:
    """Mean squared velocity error: E || v(x_t, t) - (eps - x0) ||^2, x_t on
    the rectified-flow path.

    The expectation is over the batch of per-sample squared L2 norms.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if x0.shape != eps.shape or x0.shape[0] != t.shape[0]:
        raise ShapeError(f"batch shapes differ: x0 {x0.shape}, eps {eps.shape}, t {t.shape}")
    a, bt = rectified_flow(t)
    xt = a[:, None] * x0 + bt[:, None] * eps
    v = velocity_fn(xt, t)
    resid = v - (eps - x0)
    return float(np.mean(np.sum(resid * resid, axis=1)))


def teacher_rollout(world: GaussianWorld, eps: np.ndarray) -> np.ndarray:
    """Frozen teacher's complete denoising of the given noise: the exact
    Gaussian transport eps -> mean + sqrt(cov) eps. Pairs (eps, rollout) are
    deterministic, so they can be precomputed once per run."""
    eps = np.asarray(eps, dtype=np.float64)
    return world.mean + eps @ world.sqrt_cov.T


def reg_loss(student_first_step: np.ndarray, teacher_rollout_out: np.ndarray) -> float:
    """Mean squared elementwise distance between the student's map of the
    initial noise and the teacher's rollout of the same noise."""
    a = np.asarray(student_first_step, dtype=np.float64)
    b = np.asarray(teacher_rollout_out, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class DmdGradient:
    A: np.ndarray
    b: np.ndarray

    def norm(self) -> float:
        return math.sqrt(float(np.sum(self.A * self.A)) + float(np.sum(self.b * self.b)))


def dmd_gradient(gen: AffineGenerator, world: GaussianWorld, t: float,
                 rng: SeededRng, batch: int) -> DmdGradient:
    """Monte Carlo distribution-matching gradient over (A, b).

    Draw eps, push it through the student, diffuse with independent noise
    eps', evaluate the analytic real and fake scores at the diffused
    points, and chain through the affine map (dx_t/dA = alpha eps outer,
    dx_t/db = alpha I). The expectation equals the exact gradient of
    KL(fake_t || real_t); at matched distributions the two scores cancel
    pointwise and the estimate is identically zero.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must be in (0, 1], got {t}")
    a, bt = rectified_flow(t)
    eps, eps_diff = rng.normal((batch, world.n), count=2)  # one call, drawn in that order
    x0 = gen.transform(eps)
    xt = a * x0 + bt * eps_diff

    real_mean, real_cov = diffuse_gaussian(world.mean, world.cov, t)
    fake_b, fake_cov_0 = gen.induced()
    fake_mean, fake_cov = diffuse_gaussian(fake_b, fake_cov_0, t)

    d = gaussian_score(xt, real_mean, real_cov) - gaussian_score(xt, fake_mean, fake_cov)
    grad_a = -a * (d.T @ eps) / batch
    grad_b = -a * d.mean(axis=0)
    return DmdGradient(grad_a, grad_b)


class Phase(Enum):
    DENSE = "dense"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class DistillConfig:
    lam: float = 0.05
    timesteps: tuple = (1.0, 0.75, 0.5, 0.25)
    phase_switch_step: int = 1000
    steps: int = 2000                 # generator updates
    generator_lr: float = 0.05
    batch_size: int = 256
    fixture_chunks: int = 4

    def __post_init__(self):
        integer_fields(self, ("phase_switch_step", "steps", "batch_size", "fixture_chunks"))
        float_fields(self, ("lam", "generator_lr"))
        if not (0.0 <= self.lam < math.inf):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (0.0 < self.generator_lr < math.inf):
            raise ValueError(f"generator_lr must be finite and > 0, got {self.generator_lr}")
        object.__setattr__(self, "timesteps", check_timesteps(self.timesteps, "timesteps"))
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        if self.phase_switch_step < 0:
            raise ValueError(f"phase_switch_step must be >= 0, got {self.phase_switch_step}")
        if self.fixture_chunks < 0:
            raise ValueError(f"fixture_chunks must be >= 0, got {self.fixture_chunks}")


@dataclass
class TraceRow:
    step: int
    phase: str
    loss_dmd: float
    loss_reg: float
    grad_norm: float
    mean_err: float
    cov_err: float
    s_index: int          # sampled timestep slot; 0 is the noisiest step
    lambda_effective: float
    loss_total: float     # loss_dmd + lambda_effective * loss_reg as applied


@dataclass
class TrainResult:
    rows: list
    generator: AffineGenerator
    trajectory: np.ndarray  # [steps, n * n + n]: A then b after each update

    def parameter_trajectory(self) -> np.ndarray:
        return np.asarray(self.trajectory)


def write_trace_csv(path, rows: Sequence[TraceRow]) -> None:
    """TraceRow's field names, then one line per row (a float as its repr)."""
    names = [f.name for f in fields(TraceRow)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        for r in rows:
            writer.writerow([getattr(r, name) for name in names])


def train(
    config: DistillConfig,
    world: GaussianWorld,
    gen: AffineGenerator,
    rng: SeededRng,
    lambda_override: Callable[[int, int], float] | None = None,
) -> TrainResult:
    """Distill the affine student against the Gaussian world.

    Per generator update: sample the carrying timestep slot uniformly, roll
    the streaming fixture (dense or hybrid attention per the phase
    schedule) down `config.timesteps` to that slot, take the
    distribution-matching gradient at the sampled timestep, and,
    only when the sampled slot is the noisiest one, add lambda times the
    teacher-anchored regularizer. A roll's noise, fixture_chunks * (slot
    + 1) arrays, is drawn in one rng.normal call (none when fixture_chunks
    is 0), each chunk taking its slot + 1 in order: the draws one call per
    chunk would make. Everything downstream of the rng is deterministic;
    lambda never influences the rng stream, so runs that differ only in
    lambda are step-for-step comparable.

    A diverging run raises DivergenceError naming its first step whose
    critic solve fails, or after which |b - mean| or |AA^T - cov|_F is not
    finite.
    """
    gen = gen.copy()
    n = world.n
    t_count = len(config.timesteps)

    # Precomputed teacher pairs, drawn regardless of lambda so the rng
    # stream is identical across lambda settings.
    pool_eps = rng.normal((config.batch_size, n))
    pool_rollout = teacher_rollout(world, pool_eps)

    fixture = replace(_FIXTURE, denoise_timesteps=config.timesteps)
    fixture_models = {
        Phase.DENSE: ToyDenoiser(replace(fixture, keep_ratio=1.0, linear_history=False)),
        Phase.HYBRID: ToyDenoiser(fixture),
    }
    noise_shape = (fixture.chunk_tokens, fixture.model_dim)

    rows = []
    trajectory = []
    for step in range(config.steps):
        phase = Phase.DENSE if step < config.phase_switch_step else Phase.HYBRID
        s_index = int(rng.uniform(1)[0] * t_count)
        s_index = min(s_index, t_count - 1)
        # the fixture: a forward-only pass of the chunk loop on a fresh
        # cache, each chunk denoised from the noisiest timestep to the sampled one
        if config.fixture_chunks:
            model = fixture_models[phase]
            cache = model.new_cache()
            rolled = config.timesteps[:s_index + 1]
            noise = rng.normal(noise_shape, count=config.fixture_chunks * len(rolled))
            for chunk_noise in noise.reshape((config.fixture_chunks, len(rolled)) + noise_shape):
                chunk_step(model, cache, rolled, chunk_noise)

        # the analytic critic: the fake score comes straight from the
        # current generator parameters
        fake_mean, fake_cov = gen.induced()

        t_s = config.timesteps[s_index]
        real_mean_t, real_cov_t = diffuse_gaussian(world.mean, world.cov, t_s)
        fake_mean_t, fake_cov_t = diffuse_gaussian(fake_mean, fake_cov, t_s)
        try:
            grad = dmd_gradient(gen, world, t_s, rng, config.batch_size)
            loss_dmd = gaussian_kl(fake_mean_t, fake_cov_t, real_mean_t, real_cov_t)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(f"step {step}: the critic's solve failed ({exc})") from exc

        lam = float(config.lam if lambda_override is None else lambda_override(step, s_index))
        loss_reg = 0.0
        grad_a, grad_b = grad.A.copy(), grad.b.copy()
        if s_index == 0 and lam != 0.0:
            student = gen.transform(pool_eps)
            resid = student - pool_rollout
            loss_reg = reg_loss(student, pool_rollout)
            scale = 2.0 / (config.batch_size * n)
            grad_a += lam * scale * (resid.T @ pool_eps)
            grad_b += lam * scale * resid.sum(axis=0)

        gen.A -= config.generator_lr * grad_a
        gen.b -= config.generator_lr * grad_b

        grad_norm = math.sqrt(float(np.sum(grad_a * grad_a)) + float(np.sum(grad_b * grad_b)))
        mean_err = float(np.linalg.norm(gen.b - world.mean))
        cov_err = float(np.linalg.norm(gen.A @ gen.A.T - world.cov))
        if not (math.isfinite(mean_err) and math.isfinite(cov_err)):
            raise DivergenceError(f"step {step}: the generator's error is no longer finite "
                                  f"(|b - mean| = {mean_err}, |AA^T - cov|_F = {cov_err})")
        loss_total = float(loss_dmd) + lam * loss_reg
        rows.append(TraceRow(step, phase.value, float(loss_dmd), loss_reg,
                             grad_norm, mean_err, cov_err, s_index, lam,
                             loss_total))
        trajectory.append(np.concatenate([gen.A.reshape(-1), gen.b]))

    return TrainResult(rows, gen, np.asarray(trajectory))
