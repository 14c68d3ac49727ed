"""Tests of the benchmark itself: tracing must not change outputs, must put
every wrapped name back, and the closed-form count check must catch a wrong
count; the result line must carry every end-to-end metric BENCHMARK.json
names. Run with `python -m pytest perfbench` from the repository root."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
from spans import Tracer

hs = run.import_package()


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _short_stream_cfg():
    return run.stream_config(hs, "stream_hybrid", 5)


def test_traced_and_untraced_runs_are_bit_identical():
    cfg = _short_stream_cfg()
    plain = hs.engine.run_stream(cfg, 8)
    distill_cfg = replace(hs.DistillConfig(), steps=12, phase_switch_step=6)
    world, gen, rng = run.distill_inputs(hs, 3)
    plain_train = hs.distill.train(distill_cfg, world, gen, rng)

    with Tracer() as tracer:
        run.install_tracing(tracer, hs, stream_ops=True)
        tracer.op = (0, 0)
        traced = hs.engine.run_stream(cfg, 8)
    with Tracer() as distill_tracer:
        run.install_tracing(distill_tracer, hs, stream_ops=False)
        world, gen, rng = run.distill_inputs(hs, 3)
        traced_train = hs.distill.train(distill_cfg, world, gen, rng)

    speed = run.HostSpeed()
    timed = hs.engine.run_stream(cfg, 8, run.speed_model(hs, speed)(cfg))

    assert len(speed.kernel_ms) == 8
    assert all(np.array_equal(a, b) for a, b in zip(plain.latents, timed.latents))
    assert all(np.array_equal(a, b) for a, b in zip(plain.latents, traced.latents))
    assert np.array_equal(plain.chunk_score_evals, traced.chunk_score_evals)
    assert np.array_equal(plain.chunk_pooled_scores, traced.chunk_pooled_scores)
    assert np.array_equal(plain_train.parameter_trajectory(), traced_train.parameter_trajectory())
    # the wrappers' own counts agree with the program's counters, chunk by chunk
    for i in range(8):
        assert tracer.counts[(0, i), "sparse_local.score_evals"] == plain.chunk_score_evals[i]
        assert tracer.counts[(0, i), "sparse_local.pooled_scores"] == plain.chunk_pooled_scores[i]
    names = {span[0] for span in tracer.spans + distill_tracer.spans}
    assert names == set(run.SELF_TIME_SPANS)


def test_every_wrapper_is_restored():
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            run.install_tracing(tracer, hs, stream_ops=True)
            replaced = list(tracer.saved)
            assert all(_current(owner, attr) is not original for owner, attr, original in replaced)
            raise RuntimeError("abort mid-run")
    assert len(replaced) == 17
    assert all(_current(owner, attr) is original for owner, attr, original in replaced)


def test_count_check_catches_a_wrong_expected_count():
    cfg = _short_stream_cfg()
    result = hs.engine.run_stream(cfg, 8)
    expected = run.expected_counts(cfg, 8)
    assert not run.check_stream(result, expected).any()

    wrong = run.expected_counts(cfg, 8)
    wrong.score_evals[6] += 1
    assert run.check_stream(result, wrong).tolist() == [i == 6 for i in range(8)]

    wrong = run.expected_counts(cfg, 8)
    wrong.evictions[5] = 0
    assert run.check_stream(result, wrong).all()


def test_reference_check_catches_a_drifted_latent():
    cfg = _short_stream_cfg()
    result = hs.engine.run_stream(cfg, 8)
    expected = run.expected_counts(cfg, 8)
    reference = run.sketch(result.latents)
    assert not run.check_stream(result, expected, reference).any()
    result.latents[3] = result.latents[3] * (1 + 1e-7)
    assert run.check_stream(result, expected, reference).tolist() == [i == 3 for i in range(8)]


def test_without_the_program_the_benchmark_fails_cleanly(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "stream_hybrid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_result_line_has_every_metric_of_benchmark_json():
    bench = Path(run.__file__).resolve().parent
    spec = json.loads((bench.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "stream_hybrid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bench.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
