"""Command line interface: verification suites, throughput/cost benchmarks,
stream generation dumps, and distillation runs.

Exit codes: 0 success, 1 verification failure or a diverged distillation
(one line on stderr, no files written), 2 usage error, 3 I/O error. Config
files are plain `key = value` lines ('#' starts a comment); command-line
flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .distill import AffineGenerator, DistillConfig, GaussianWorld, train, write_trace_csv
from .engine import BENCH_MODES, StreamConfig, config_for_mode, run_stream
from .errors import DivergenceError
from .numerics import SeededRng, write_tensor

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_WORLD_STREAM = 10
_TRAIN_STREAM = 11


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _file_fields(config_class) -> dict:
    """The fields of a config dataclass a config file may set, with their
    types: those whose default is an int, float, bool or tuple."""
    return {f.name: type(f.default) for f in fields(config_class)
            if type(f.default) in (int, float, bool, tuple)}


_STREAM_FIELDS = _file_fields(StreamConfig)
_DISTILL_FIELDS = {**_file_fields(DistillConfig), "seed": int, "world_dim": int}
_RUN_FIELDS = {"chunks": int}


def parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: config file is not UTF-8 text ({exc.reason})")
    out, seen = {}, {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: key '{key}' already set on line {seen[key]}")
        out[key], seen[key] = value, lineno
    return out


def _coerce(field: str, kind, raw: str):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(map(float, raw.split(",")))  # an empty item is refused
        return kind(raw)
    except ValueError:
        raise UsageError(f"invalid value for config field '{field}': {raw!r}")


def _read_config(args, schema: dict, what: str) -> dict:
    """The values a command runs with: its --config file's, typed by
    `schema`, then every flag given, each under the key it sets (its dest)."""
    raw = parse_config_file(args.config) if args.config else {}
    values = {}
    for key, value in raw.items():
        if key not in schema:
            raise UsageError(f"unknown {what} config field '{key}'")
        values[key] = _coerce(key, schema[key], value)
    # flags win over file values
    values.update((key, getattr(args, key)) for key in schema
                  if getattr(args, key, None) is not None)
    return values


def _build(config_class, values: dict, what: str):
    try:
        return config_class(**values)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid {what} config: {exc}")


def _write_manifest(out: str, payload: dict, **extra) -> None:
    canon = json.dumps(payload, sort_keys=True)
    manifest = {"config": payload,
                "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(), **extra}
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _stream_config_payload(cfg: StreamConfig, chunks: int) -> dict:
    return {**asdict(cfg), "chunks": chunks}


def _build_stream_config(args) -> tuple[StreamConfig, int]:
    values = _read_config(args, {**_STREAM_FIELDS, **_RUN_FIELDS}, "stream")
    chunks = values.pop("chunks", 8)
    if chunks < 1:
        raise UsageError("chunks must be >= 1")
    return _build(StreamConfig, values, "stream"), chunks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify as verify_mod  # here, not at the top: no other command reads it

    if args.suite is not None and args.suite not in verify_mod.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"available: {', '.join(verify_mod.SUITES)}")
    results = verify_mod.run_suites(args.suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} -- {r.detail}")
    failed = [r for r in results if not r.passed]
    summary = {
        "checks": [r.as_dict() for r in results],
        "passed": len(results) - len(failed),
        "failed": [r.name for r in failed],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "verify.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _bench_one(mode: str, base: StreamConfig, chunks: int) -> dict:
    cfg = config_for_mode(mode, base)
    res = run_stream(cfg, chunks)
    ms = res.chunk_ms
    return {
        "mode": mode,
        "chunks": chunks,
        "ms_mean": float(ms.mean()),
        "ms_p50": float(np.percentile(ms, 50)),
        "ms_p95": float(np.percentile(ms, 95)),
        "peak_cached_tokens": int(res.peak_cached_tokens),
        "score_evals_steady": int(res.chunk_score_evals[-1]),
        "score_evals_total": int(res.chunk_score_evals.sum()),
        "pooled_scores_total": int(res.chunk_pooled_scores.sum()),
        "seed": cfg.seed,
        "window_frames": cfg.window_frames,
        "keep_ratio": cfg.keep_ratio,
        "sink_chunks": cfg.sink_chunks,
        "linear_history": cfg.linear_history,
    }


def cmd_bench(args) -> int:
    base, chunks = _build_stream_config(args)
    modes = list(BENCH_MODES) if args.mode == "all" else [args.mode]
    rows = [_bench_one(m, base, chunks) for m in modes]

    for row in rows:
        print(f"{row['mode']}: {row['ms_mean']:.2f} ms/chunk mean, "
              f"{row['score_evals_steady']} score evals/chunk steady, "
              f"peak {row['peak_cached_tokens']} cached tokens")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bench.csv"), "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))  # _bench_one's keys
            writer.writeheader()
            writer.writerows(rows)
        with open(os.path.join(args.out, "bench.json"), "w") as f:
            json.dump({"reports": rows,
                       "config": _stream_config_payload(base, chunks)},
                      f, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg, chunks = _build_stream_config(args)
    res = run_stream(cfg, chunks)
    os.makedirs(args.out, exist_ok=True)
    files = []
    if args.concat:
        stacked = np.stack(res.latents)
        name = "latents.hft"
        write_tensor(os.path.join(args.out, name), stacked)
        files.append(name)
    else:
        for i, latent in enumerate(res.latents):
            name = f"chunk_{i:04d}.hft"
            write_tensor(os.path.join(args.out, name), latent)
            files.append(name)
    _write_manifest(args.out, _stream_config_payload(cfg, chunks), seed=cfg.seed,
                    chunks=chunks, files=files)
    print(f"wrote {len(files)} tensor file(s) + manifest to {args.out}")
    return EXIT_OK


def cmd_distill(args) -> int:
    values = _read_config(args, _DISTILL_FIELDS, "distill")
    seed = values.pop("seed", 0)
    world_dim = values.pop("world_dim", 2)
    if world_dim < 1:
        raise UsageError(f"config field 'world_dim' must be >= 1, got {world_dim}")
    try:
        master = SeededRng(seed)
    except ValueError as exc:
        raise UsageError(f"config field 'seed': {exc}")
    cfg = _build(DistillConfig, values, "distill")

    world = GaussianWorld.random(master.derive(_WORLD_STREAM), world_dim)
    gen = AffineGenerator(0.5 * np.eye(world_dim), np.zeros(world_dim))
    try:
        # a diverging run ends in DivergenceError, not in overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(cfg, world, gen, master.derive(_TRAIN_STREAM))
    except DivergenceError as exc:
        print(f"distillation diverged: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED

    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(os.path.join(args.out, "trace.csv"), result.rows)
    write_tensor(os.path.join(args.out, "generator_A.hft"), result.generator.A)
    write_tensor(os.path.join(args.out, "generator_b.hft"), result.generator.b)
    write_tensor(os.path.join(args.out, "world_mean.hft"), world.mean)
    write_tensor(os.path.join(args.out, "world_cov.hft"), world.cov)
    last = result.rows[-1]
    _write_manifest(args.out, {**asdict(cfg), "seed": seed, "world_dim": world_dim},
                    final_mean_err=last.mean_err, final_cov_err=last.cov_err,
                    files=["trace.csv", "generator_A.hft", "generator_b.hft",
                           "world_mean.hft", "world_cov.hft"])
    print(f"distilled {cfg.steps} steps: |b - mean| = {last.mean_err:.4f}, "
          f"|AA^T - cov|_F = {last.cov_err:.4f}; trace in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridstream",
        description="streaming hybrid-attention engine: verify, bench, generate, distill",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run oracle/property suites")
    p.add_argument("--suite", default=None,
                   help="run one suite (e.g. rope, sparse, dmd); default all")
    p.add_argument("--out", default=None, help="directory for verify.json")
    p.set_defaults(func=cmd_verify)

    # the stream flags bench and generate share; each dest is the key it sets
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--chunks", type=int, default=None)
    stream.add_argument("--window", dest="window_frames", type=int, default=None,
                        help="window size in frames")
    stream.add_argument("--sparsity", dest="keep_ratio", type=float, default=None,
                        help="keep ratio in (0, 1]")
    stream.add_argument("--seed", type=int, default=None)
    stream.add_argument("--config", default=None, help="key = value config file")

    p = sub.add_parser("bench", parents=[stream], help="benchmark attention modes")
    p.add_argument("--mode", default="all",
                   choices=sorted(BENCH_MODES) + ["all"])
    p.add_argument("--out", default=None, help="directory for bench.csv / bench.json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", parents=[stream],
                       help="run the stream and dump latents")
    p.add_argument("--concat", action="store_true",
                   help="one stacked tensor instead of one file per chunk")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("distill", help="run the Gaussian distillation loop")
    p.add_argument("--config", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularizer weight")
    p.add_argument("--phase-switch", dest="phase_switch_step", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
