"""Command-line interface tests: subcommands, config handling, exit codes,
output formats."""

import argparse
import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from hybridstream import cli
from hybridstream.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from hybridstream.distill import DistillConfig, GaussianWorld
from hybridstream.engine import BENCH_MODES, StreamConfig
from hybridstream.numerics import SeededRng, read_tensor
from hybridstream.sparse_local import BlockConfig
from hybridstream.verify import mask_invariant_check

SMALL_STREAM = """
# small geometry for fast runs
tokens_per_frame = 4
heads = 2
head_dim = 8
layers = 1
chunks = 5
seed = 11
"""

SMALL_DISTILL = """
steps = 40
phase_switch_step = 20
seed = 4
"""


@pytest.fixture
def stream_cfg(tmp_path):
    p = tmp_path / "stream.cfg"
    p.write_text(SMALL_STREAM)
    return str(p)


@pytest.fixture
def distill_cfg(tmp_path):
    p = tmp_path / "distill.cfg"
    p.write_text(SMALL_DISTILL)
    return str(p)


class TestVerifyCommand:
    def test_suite_filter(self, capsys):
        assert main(["verify", "--suite", "rope"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rope.cap" in out
        assert "sparse." not in out

    def test_unknown_suite_is_usage_error(self):
        assert main(["verify", "--suite", "nope"]) == EXIT_USAGE

    def test_empty_suite_is_usage_error(self, capsys):
        # "" names no suite; only leaving --suite out runs them all
        assert main(["verify", "--suite", ""]) == EXIT_USAGE
        assert "unknown suite ''" in capsys.readouterr().err

    def test_key_error_inside_a_suite_is_not_a_usage_error(self, monkeypatch):
        # only an unknown suite name is the command line's fault
        import hybridstream.verify as verify_mod

        def faulty_suite():
            raise KeyError("missing")

        monkeypatch.setitem(verify_mod.SUITES, "rope", faulty_suite)
        with pytest.raises(KeyError, match="missing"):
            main(["verify", "--suite", "rope"])

    def test_json_listing(self, tmp_path, capsys):
        assert main(["verify", "--suite", "numerics", "--out", str(tmp_path)]) == EXIT_OK
        data = json.loads((tmp_path / "verify.json").read_text())
        assert data["failed"] == []
        assert all(c["passed"] for c in data["checks"])

    def test_injected_fault_gives_named_failure(self):
        # a keep ratio of zero smuggled past validation must surface as the
        # named mask-invariant failure, which is what drives exit code 1
        cfg = BlockConfig(0.5)
        object.__setattr__(cfg, "keep_ratio", 0.0)
        result = mask_invariant_check(cfg)
        assert not result.passed
        assert result.name == "sparse.mask_invariants"

    def test_failing_suite_exits_one_and_names_property(self, capsys, monkeypatch):
        import hybridstream.verify as verify_mod

        def broken_suite():
            cfg = BlockConfig(0.5)
            object.__setattr__(cfg, "keep_ratio", 0.0)
            return [mask_invariant_check(cfg)]

        monkeypatch.setitem(verify_mod.SUITES, "injected", broken_suite)
        assert main(["verify", "--suite", "injected"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAIL sparse.mask_invariants" in out
        assert "FAILED: sparse.mask_invariants" in out


class TestBenchCommand:
    def test_single_mode_csv_and_json(self, tmp_path, stream_cfg):
        out = tmp_path / "bench"
        assert main(["bench", "--mode", "hybrid", "--config", stream_cfg,
                     "--out", str(out)]) == EXIT_OK
        with open(out / "bench.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["mode"] for r in rows] == ["hybrid"]
        assert list(rows[0].keys()) == [
            "mode", "chunks", "ms_mean", "ms_p50", "ms_p95", "peak_cached_tokens",
            "score_evals_steady", "score_evals_total", "pooled_scores_total",
            "seed", "window_frames", "keep_ratio", "sink_chunks", "linear_history",
        ]
        report = json.loads((out / "bench.json").read_text())
        assert report["reports"][0]["chunks"] == 5

    def test_all_modes(self, tmp_path, stream_cfg):
        out = tmp_path / "bench"
        assert main(["bench", "--mode", "all", "--config", stream_cfg,
                     "--chunks", "4", "--out", str(out)]) == EXIT_OK
        with open(out / "bench.csv") as f:
            rows = list(csv.DictReader(f))
        assert sorted(r["mode"] for r in rows) == ["dense21", "hybrid", "swa", "swa_sink"]

    def test_hybrid_fewer_score_evals_than_dense21(self, tmp_path, stream_cfg):
        out = tmp_path / "bench"
        assert main(["bench", "--mode", "all", "--config", stream_cfg,
                     "--chunks", "10", "--out", str(out)]) == EXIT_OK
        rows = {r["mode"]: r for r in json.loads((out / "bench.json").read_text())["reports"]}
        assert rows["hybrid"]["score_evals_steady"] < rows["dense21"]["score_evals_steady"]

    def test_chunks_one_no_eviction(self, tmp_path, stream_cfg, capsys):
        assert main(["bench", "--mode", "hybrid", "--config", stream_cfg,
                     "--chunks", "1"]) == EXIT_OK
        assert "1" not in ""  # no output dir needed; command prints a summary
        assert "hybrid:" in capsys.readouterr().out

    def test_operation_counts_reproducible(self, tmp_path, stream_cfg):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["bench", "--mode", "hybrid", "--config", stream_cfg,
                         "--out", str(out)]) == EXIT_OK
            reports.append(json.loads((out / "bench.json").read_text())["reports"][0])
        a, b = reports
        assert a["score_evals_total"] == b["score_evals_total"]
        assert a["pooled_scores_total"] == b["pooled_scores_total"]

    def test_invalid_mode_is_usage_error(self):
        assert main(["bench", "--mode", "bogus"]) == EXIT_USAGE

    def test_all_modes_one_row_each_in_order(self, tmp_path, stream_cfg):
        out = tmp_path / "bench"
        assert main(["bench", "--mode", "all", "--config", stream_cfg,
                     "--chunks", "3", "--out", str(out)]) == EXIT_OK
        with open(out / "bench.csv") as f:
            assert [r["mode"] for r in csv.DictReader(f)] == list(BENCH_MODES)


class TestGenerateCommand:
    def test_writes_tensors_and_manifest(self, tmp_path, stream_cfg):
        out = tmp_path / "gen"
        assert main(["generate", "--config", stream_cfg, "--chunks", "4",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["chunks"] == 4
        assert len(manifest["files"]) == 4
        for name in manifest["files"]:
            data = read_tensor(out / name)
            assert data.shape == (12, 16)  # chunk_tokens x model_dim
            assert np.isfinite(data).all()

    def test_concat_single_tensor(self, tmp_path, stream_cfg):
        out = tmp_path / "gen"
        assert main(["generate", "--config", stream_cfg, "--chunks", "3",
                     "--concat", "--out", str(out)]) == EXIT_OK
        assert read_tensor(out / "latents.hft").shape == (3, 12, 16)

    def test_rerun_byte_identical(self, tmp_path, stream_cfg):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--config", stream_cfg, "--out", str(out)]) == EXIT_OK
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    def test_hash_sensitive_to_every_field(self, tmp_path):
        # flipping any single config field must change the manifest hash
        base = dict(tokens_per_frame=4, heads=2, head_dim=8,
                    layers=1, chunks=3, seed=11, keep_ratio=0.2,
                    window_frames=9, sink_chunks=1, frames_per_chunk=3,
                    max_temporal_index=21)
        tweaks = dict(seed=12, chunks=4, keep_ratio=0.4, window_frames=18,
                      sink_chunks=0, max_temporal_index=5, layers=2)

        def run(cfg_dict, tag):
            p = tmp_path / f"{tag}.cfg"
            p.write_text("\n".join(f"{k} = {v}" for k, v in cfg_dict.items()))
            out = tmp_path / tag
            assert main(["generate", "--config", str(p), "--out", str(out)]) == EXIT_OK
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        base_hash = run(base, "base")
        for field, value in tweaks.items():
            changed = dict(base)
            changed[field] = value
            assert run(changed, f"tweak_{field}") != base_hash, field

    def test_flags_override_config(self, tmp_path, stream_cfg):
        out = tmp_path / "gen"
        assert main(["generate", "--config", stream_cfg, "--chunks", "2",
                     "--seed", "99", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99 and manifest["chunks"] == 2

    @pytest.mark.parametrize("args, field", [
        (["--sparsity", "1.5"], "keep_ratio"),
        (["--sparsity", "nan"], "keep_ratio"),
        (["--window", "0"], "window_frames"),
        (["--seed", "-1"], "seed"),  # SeededRng would alias these to 2**64 - 1 and 0
        (["--seed", str(2**64)], "seed"),
        ("frames_per_chunk = 0", "frames_per_chunk"),
        ("tokens_per_frame = 0", "tokens_per_frame"),
        ("layers = 0", "layers"),
        ("max_temporal_index = 0", "max_temporal_index"),
        ("base_theta = 1", "base_theta"),
        ("base_theta = nan", "base_theta"),
        ("base_theta = inf", "base_theta"),
        ("denoise_timesteps = 1.0,,0.5", "denoise_timesteps"),  # an empty item
        ("denoise_timesteps = 1.0, 0.5,", "denoise_timesteps"),
    ])
    def test_out_of_range_field_is_usage_error(self, tmp_path, capsys, args, field):
        if isinstance(args, str):
            p = tmp_path / "bad.cfg"
            p.write_text(args + "\n")
            args = ["--config", str(p)]
        out = tmp_path / "gen"
        assert main(["generate", "--chunks", "2", *args, "--out", str(out)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path, stream_cfg):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["generate", "--config", stream_cfg,
                     "--out", str(blocker / "sub")]) == EXIT_IO


class TestDistillCommand:
    def test_trace_and_params(self, tmp_path, distill_cfg):
        out = tmp_path / "dis"
        assert main(["distill", "--config", distill_cfg, "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = list(reader)
        assert header == ["step", "phase", "loss_dmd", "loss_reg", "grad_norm", "mean_err",
                          "cov_err", "s_index", "lambda_effective", "loss_total"]
        assert len(rows) == 40
        for r in (dict(zip(header, row)) for row in rows):
            assert 0 <= int(r["s_index"]) < 4
            applied = float(r["loss_dmd"]) + float(r["lambda_effective"]) * float(r["loss_reg"])
            assert float(r["loss_total"]) == applied
        assert read_tensor(out / "generator_A.hft").shape == (2, 2)

    def test_lambda_zero_zeroes_reg_column(self, tmp_path, distill_cfg):
        out = tmp_path / "dis"
        assert main(["distill", "--config", distill_cfg, "--lambda", "0",
                     "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv") as f:
            rows = list(csv.DictReader(f))
        assert all(float(r["loss_reg"]) == 0.0 for r in rows)

    def test_phase_switch_zero_is_all_hybrid(self, tmp_path, distill_cfg):
        out = tmp_path / "dis"
        assert main(["distill", "--config", distill_cfg, "--phase-switch", "0",
                     "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv") as f:
            rows = list(csv.DictReader(f))
        assert all(r["phase"] == "hybrid" for r in rows)

    def test_loss_decomposition_in_trace(self, tmp_path, distill_cfg):
        out = tmp_path / "dis"
        assert main(["distill", "--config", distill_cfg, "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv") as f:
            rows = list(csv.DictReader(f))
        # rows that carried the regularizer show a nonzero loss_reg; the
        # total applied objective is loss_dmd + 0.05 * loss_reg there
        assert any(float(r["loss_reg"]) > 0 for r in rows)

    def test_unknown_config_field_names_it(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("stepz = 50\n")
        assert main(["distill", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "stepz" in capsys.readouterr().err

    def test_bad_value_names_field(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("steps = many\n")
        assert main(["distill", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "steps" in capsys.readouterr().err

    def test_custom_timesteps_drive_the_fixture(self, tmp_path):
        p = tmp_path / "ts.cfg"
        p.write_text("timesteps = 0.9, 0.3\nsteps = 20\n")
        out = tmp_path / "dis"
        assert main(["distill", "--config", str(p), "--out", str(out)]) == EXIT_OK
        with open(out / "trace.csv") as f:
            assert len(list(csv.DictReader(f))) == 20

    def test_manifest_config_holds_the_file_keys(self, tmp_path):
        p = tmp_path / "ts.cfg"
        p.write_text("timesteps = 1.0, 0.5\nsteps = 4\n")
        out = tmp_path / "dis"
        assert main(["distill", "--config", str(p), "--out", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == set(cli._DISTILL_FIELDS)
        assert config["timesteps"] == [1.0, 0.5] and config["steps"] == 4

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_nonpositive_world_dim_is_usage_error(self, tmp_path, capsys, dim):
        p = tmp_path / "bad.cfg"
        p.write_text(f"world_dim = {dim}\n")
        assert main(["distill", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "world_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["lam = nan", "lam = inf", "generator_lr = nan",
                                      "generator_lr = inf", "generator_lr = 0",
                                      "generator_lr = -0.1", "batch_size = 0",
                                      "phase_switch_step = -5", "fixture_chunks = -3",
                                      "seed = -1", f"seed = {2**64}",
                                      "timesteps = 0.9,,0.3", "timesteps = 0.9, 0.3,"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["distill", "--config", str(p), "--out", str(out)]) == EXIT_USAGE
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr, cause", [
        ("2", "step 192: the critic's solve failed"),  # a singular covariance
        # the errors overflow at once; left to run, the parameters turn NaN
        ("1e308", "step 0: the generator's error is no longer finite"),
    ])
    def test_diverging_run_exits_one_and_writes_nothing(self, tmp_path, capsys, lr, cause):
        p = tmp_path / "lr.cfg"
        p.write_text(f"generator_lr = {lr}\nsteps = 300\n")
        out = tmp_path / "o"
        assert main(["distill", "--config", str(p), "--out", str(out)]) == EXIT_VERIFY_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"distillation diverged: {cause}") and err.count("\n") == 1
        assert not out.exists()

    def test_default_config_converges(self, tmp_path):
        # the full documented budget: 2000 updates, lambda 0.05
        out = tmp_path / "dis"
        assert main(["distill", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_mean_err"] <= 0.05
        assert manifest["final_cov_err"] <= 0.05


BENCH_JSON_SCHEMA = {
    "type": "object",
    "required": ["reports", "config"],
    "properties": {
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["mode", "chunks", "ms_mean", "ms_p50", "ms_p95",
                             "peak_cached_tokens", "score_evals_steady",
                             "score_evals_total", "seed"],
                "properties": {
                    "mode": {"enum": ["dense21", "swa", "swa_sink", "hybrid"]},
                    "chunks": {"type": "integer", "minimum": 1},
                    "score_evals_steady": {"type": "integer", "minimum": 0},
                },
            },
        },
        "config": {"type": "object"},
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["config", "config_hash", "seed", "chunks", "files"],
    "properties": {
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "files": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["checks", "passed", "failed"],
    "properties": {
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "detail"],
            },
        },
        "failed": {"type": "array", "items": {"type": "string"}},
    },
}


class TestJsonSchemas:
    def test_outputs_validate(self, tmp_path, stream_cfg):
        import jsonschema

        bench_out = tmp_path / "bench"
        assert main(["bench", "--mode", "hybrid", "--config", stream_cfg,
                     "--out", str(bench_out)]) == EXIT_OK
        jsonschema.validate(json.loads((bench_out / "bench.json").read_text()),
                            BENCH_JSON_SCHEMA)

        gen_out = tmp_path / "gen"
        assert main(["generate", "--config", stream_cfg, "--chunks", "2",
                     "--out", str(gen_out)]) == EXIT_OK
        jsonschema.validate(json.loads((gen_out / "manifest.json").read_text()),
                            MANIFEST_SCHEMA)

        ver_out = tmp_path / "ver"
        assert main(["verify", "--suite", "rope", "--out", str(ver_out)]) == EXIT_OK
        jsonschema.validate(json.loads((ver_out / "verify.json").read_text()),
                            VERIFY_SCHEMA)


class TestFlags:
    """Each flag's dest is the config key it sets, so flags and file keys
    reach a config by one path."""

    SCHEMAS = {"verify": {}, "bench": {**cli._STREAM_FIELDS, **cli._RUN_FIELDS},
               "generate": {**cli._STREAM_FIELDS, **cli._RUN_FIELDS},
               "distill": cli._DISTILL_FIELDS}

    def test_every_option_sets_a_key_of_its_commands_schema(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.SCHEMAS)
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert (action.dest in self.SCHEMAS[command] or action.dest in
                            {"config", "out", "mode", "concat", "suite"}), (command, action.dest)

    @pytest.mark.parametrize("flag, key, value", [
        ("--seed", "seed", 99), ("--chunks", "chunks", 1),
        ("--window", "window_frames", 3), ("--sparsity", "keep_ratio", 0.25)])
    def test_stream_flag_overrides_the_file_key(self, tmp_path, flag, key, value):
        file_values = {"tokens_per_frame": 2, "layers": 1, "chunks": 2,
                       "seed": 11, "window_frames": 6, "keep_ratio": 0.5}
        p = tmp_path / "stream.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in file_values.items()))
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(p), flag, str(value),
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in file_values} == {**file_values, key: value}

    @pytest.mark.parametrize("flag, key, value", [
        ("--seed", "seed", 9), ("--lambda", "lam", 0.125), ("--phase-switch", "phase_switch_step", 3)])
    def test_distill_flag_overrides_the_file_key(self, tmp_path, monkeypatch, flag, key, value):
        class Built(Exception):
            pass

        def capture(cfg, world, gen, rng):  # stands in for the 2000-step run
            raise Built(cfg, world)

        monkeypatch.setattr(cli, "train", capture)
        p = tmp_path / "distill.cfg"
        p.write_text("seed = 4\nlam = 0.5\nphase_switch_step = 7\n")
        with pytest.raises(Built) as info:
            main(["distill", "--config", str(p), flag, str(value), "--out", str(tmp_path / "o")])
        cfg, world = info.value.args
        want = {"seed": 4, "lam": 0.5, "phase_switch_step": 7, key: value}
        assert (cfg.lam, cfg.phase_switch_step) == (want["lam"], want["phase_switch_step"])
        mean = GaussianWorld.random(SeededRng(want["seed"]).derive(cli._WORLD_STREAM), 2).mean
        assert np.array_equal(world.mean, mean)


class TestConfigParsing:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("this is not a key value line\n")
        assert main(["generate", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "twice.cfg"
        p.write_text("keep_ratio = 0.5\n# comment\n\nkeep_ratio = 0.9\n")
        out = tmp_path / "o"
        assert main(["generate", "--config", str(p), "--chunks", "1",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{p}:4" in err and "keep_ratio" in err and "line 1" in err
        assert not out.exists()

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("# comment\n\nseed = 3  # trailing\n")
        out = tmp_path / "o"
        assert main(["generate", "--config", str(p), "--chunks", "1",
                     "--out", str(out)]) == EXIT_OK

    @staticmethod
    def restating(tmp_path, values):
        """A config file setting `values`: tuples as comma lists, bools as
        true/false, everything else as str() writes it."""
        def text(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, tuple):
                return ", ".join(map(str, v))
            return str(v)

        p = tmp_path / "defaults.cfg"
        p.write_text("".join(f"{k} = {text(v)}\n" for k, v in values.items()))
        return str(p)

    def test_stream_file_restating_every_default_builds_the_default(self, tmp_path):
        defaults = {f.name: f.default for f in fields(StreamConfig)}
        assert set(cli._STREAM_FIELDS) == set(defaults)
        out = tmp_path / "o"
        p = self.restating(tmp_path, {**defaults, "chunks": 8})
        assert main(["generate", "--config", p, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        want = json.loads(json.dumps({**asdict(StreamConfig()), "chunks": 8}))
        assert manifest["config"] == want and len(manifest["files"]) == 8

    def test_distill_file_restating_every_default_builds_the_default(self, tmp_path,
                                                                     monkeypatch):
        class Built(Exception):
            pass

        def capture(cfg, world, gen, rng):  # stands in for the 2000-step run
            raise Built(cfg, world)

        monkeypatch.setattr(cli, "train", capture)
        defaults = {f.name: f.default for f in fields(DistillConfig)}
        defaults.update(seed=0, world_dim=2)
        assert set(cli._DISTILL_FIELDS) == set(defaults)
        with pytest.raises(Built) as info:
            main(["distill", "--config", self.restating(tmp_path, defaults),
                  "--out", str(tmp_path / "o")])
        cfg, world = info.value.args
        assert cfg == DistillConfig()
        want = GaussianWorld.random(SeededRng(0).derive(cli._WORLD_STREAM), 2)
        assert np.array_equal(world.mean, want.mean) and np.array_equal(world.cov, want.cov)

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
