"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hybridstream import verify
from hybridstream.distill import AffineGenerator, DistillConfig, GaussianWorld, train
from hybridstream.engine import (_NOISE_STREAM, OpCounters, StreamConfig, ToyDenoiser,
                                 chunk_step, config_for_mode, run_stream)
from hybridstream.numerics import SeededRng
from hybridstream.cli import main as cli_main
from hybridstream.verify import expected_score_evals

TOY = StreamConfig()  # the reference toy configuration


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"{name}: {elapsed:.1f}s over the {budget_s}s budget"
    print(f"[ACCEPTANCE] PASS {name} ({elapsed:.1f}s)")


def assert_passed(results):
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_dense_limit_equivalence():
    with criterion("dense-limit equivalence (keep=1.0, empty state)", 10.0):
        assert_passed([verify.dense_limit_check(TOY, 50, 8, seed=77, cache_seed=9000)])


def test_linear_state_brute_force():
    with criterion("linear-state brute force vs direct sums", 10.0):
        assert_passed(verify.linear_state_checks(
            TOY.heads, TOY.head_dim, TOY.chunk_tokens, evictions=(3, 7, 17, 50),
            memory_after=(4, 400), seed=123))


def test_online_softmax_equivalence():
    with criterion("online-softmax vs masked-dense attention", 10.0):
        assert_passed(verify.masked_dense_checks(100, 7, (2, 6), seed=7, data_seed=3000))


def test_rope_cap_and_long_horizon_stability():
    with criterion("RoPE cap + 200-chunk constant-cost streaming", 60.0):
        res = run_stream(TOY, 200)
        assert all(np.isfinite(x).all() for x in res.latents)
        early = float(np.median(res.chunk_ms[10:60]))
        late = float(np.median(res.chunk_ms[150:200]))
        assert abs(late / early - 1.0) <= 0.20, f"late/early = {late / early:.3f}"


def alternated_streams(cfgs, chunks: int):
    """Stream every config's chunks in turn, chunk i of each before chunk
    i + 1 of any, and the order flipped every chunk, so a change of host
    speed reaches every stream alike. Per config: (score_evals, chunk_ms),
    each [chunks], with the noise run_stream would draw, drawn as it draws
    it: in one call per chunk, inside the chunk's timed span."""
    models = [ToyDenoiser(cfg) for cfg in cfgs]
    caches = [m.new_cache() for m in models]
    rngs = [SeededRng(cfg.seed).derive(_NOISE_STREAM) for cfg in cfgs]
    evals = np.zeros((len(cfgs), chunks), dtype=np.int64)
    ms = np.zeros((len(cfgs), chunks))
    for i in range(chunks):
        order = range(len(cfgs)) if i % 2 == 0 else reversed(range(len(cfgs)))
        for j in order:
            counters = OpCounters()
            ts, cfg = cfgs[j].denoise_timesteps, cfgs[j]
            start = time.perf_counter()
            noise = rngs[j].normal((cfg.chunk_tokens, cfg.model_dim), count=len(ts))
            chunk_step(models[j], caches[j], ts, noise, counters=counters)
            ms[j, i] = (time.perf_counter() - start) * 1e3
            evals[j, i] = counters.score_evals
    return list(zip(evals, ms))


def test_cost_model_hybrid_vs_dense21():
    with criterion("cost model: hybrid cheaper than dense SWA(21)", 60.0):
        hybrid_cfg = config_for_mode("hybrid", TOY)
        dense_cfg = config_for_mode("dense21", TOY)
        (h_evals, h_ms), (d_evals, d_ms) = alternated_streams([hybrid_cfg, dense_cfg], 40)
        # exact integer agreement with the analytic operation count
        for i in range(40):
            assert h_evals[i] == expected_score_evals(hybrid_cfg, i)
            assert d_evals[i] == expected_score_evals(dense_cfg, i)
        assert (h_evals < d_evals)[8:].all()
        ratio = d_evals[-1] / h_evals[-1]
        want = expected_score_evals(dense_cfg, 39) / expected_score_evals(hybrid_cfg, 39)
        assert ratio == want
        # desk-scale wall clock: at least 1.2x faster per chunk
        speedup = float(np.median(d_ms[10:]) / np.median(h_ms[10:]))
        assert speedup >= 1.2, f"wall-clock speedup {speedup:.2f}"


def test_dmd_fixed_point_and_batch_scaling():
    with criterion("DMD fixed point + sqrt(batch) noise scaling", 30.0):
        assert_passed(verify.dmd_noise_checks(residual_batch=100_000))


def test_dmd_convergence():
    with criterion("DMD convergence: 2000 updates to the 2-D world", 120.0):
        assert_passed([verify.convergence_check()])


def test_objective_gating():
    with criterion("objective gating: lambda only at the noisiest step", 60.0):
        world = GaussianWorld.random(SeededRng(11), 2)
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        cfg = DistillConfig(steps=80, phase_switch_step=40)
        a = train(cfg, world, gen, SeededRng(55))
        b = train(cfg, world, gen, SeededRng(55),
                  lambda_override=lambda step, s: cfg.lam if s == 0 else 0.0)
        assert np.array_equal(a.parameter_trajectory(), b.parameter_trajectory())

        supervised = [r for r in a.rows if r.s_index == 0]
        assert supervised
        for r in supervised:
            assert r.lambda_effective == 0.05
            assert r.loss_reg > 0.0
            # exact decomposition of the logged objective at s = T
            assert r.loss_total == r.loss_dmd + 0.05 * r.loss_reg
        for r in a.rows:
            if r.s_index != 0:
                assert r.loss_reg == 0.0
                assert r.loss_total == r.loss_dmd


def test_regularizer_tendency():
    with criterion("regularizer tendency: majority of 5 seeds", 120.0):
        # Budget 300 updates: mid-descent, where the anchoring effect is
        # observable. At the full 2000-update budget both runs sit at the
        # numerical floor and the comparison degenerates.
        wins = 0
        for seed in range(5):
            world = GaussianWorld.random(SeededRng(1000 + seed), 2)
            gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
            finals = {}
            for lam in (0.0, 0.05):
                cfg = DistillConfig(lam=lam, steps=300, phase_switch_step=150)
                res = train(cfg, world, gen, SeededRng(2000 + seed))
                finals[lam] = res.rows[-1].mean_err
            wins += finals[0.05] <= finals[0.0]
        assert wins >= 3, f"lambda=0.05 no better on {5 - wins}/5 seeds"


def _dir_bytes(path):
    out = {}
    for p in sorted(path.iterdir()):
        out[p.name] = p.read_bytes()
    return out


def test_cli_determinism(tmp_path):
    with criterion("CLI determinism: generate + distill byte-identical", 120.0):
        g1, g2 = tmp_path / "g1", tmp_path / "g2"
        for out in (g1, g2):
            assert cli_main(["generate", "--chunks", "4", "--seed", "3",
                             "--out", str(out)]) == 0
        assert _dir_bytes(g1) == _dir_bytes(g2)

        cfgfile = tmp_path / "distill.cfg"
        cfgfile.write_text("steps = 120\nseed = 5\n")
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for out in (d1, d2):
            assert cli_main(["distill", "--config", str(cfgfile),
                             "--out", str(out)]) == 0
        assert _dir_bytes(d1) == _dir_bytes(d2)
