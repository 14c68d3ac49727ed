"""Seeded fuzz of the two binary formats: RollingCache snapshots and HFT1
tensor files.

Each case flips a byte, truncates, or edits a header of a real blob. The
blob must then either be rejected with FormatError or decode to exactly the
state its bytes spell out: encoding the decoded value again gives the same
bytes, so nothing was dropped, defaulted or reinterpreted on the way in. A
snapshot ends in a CRC-32 of every byte before it, so every flipped or
truncated snapshot is rejected; the structured edits seal the trailer
again, so they reach the checks on the header's fields. An HFT1 file carries no checksum, so a flipped payload byte there
decodes to the flipped value. Passed to the CLI as a config file, a mutated
blob must end in exit code 2 or 3, never in a traceback.
"""

import io
import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from hybridstream.cli import EXIT_IO, EXIT_USAGE, main
from hybridstream.engine import StreamConfig, run_stream
from hybridstream.errors import FormatError
from hybridstream.numerics import TENSOR_MAGIC, read_tensor_from, write_tensor
from hybridstream.stream_cache import RollingCache
from hybridstream.verify import random_cache

CFG = StreamConfig(tokens_per_frame=2, heads=2, head_dim=4, layers=2)
# a snapshot's header: magic, version, capacity_chunks, sink_chunks,
# next_index, the number of linear states
HEADER = struct.Struct("<4sIQQQI")


def sealed(body):
    """A snapshot body followed by its CRC-32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def header_spans(blob, start):
    """(start, end) of every HFT1 header in blob at or after `start`."""
    spans = []
    at = blob.find(TENSOR_MAGIC, start)
    while at >= 0:
        (rank,) = struct.unpack("<I", blob[at + 4:at + 8])
        spans.append((at, at + 8 + 4 * rank))
        at = blob.find(TENSOR_MAGIC, at + 8 + 4 * rank)
    return spans


def flip(blob, gen, lo=0, hi=None):
    out = bytearray(blob)
    pos = int(gen.integers(lo, len(blob) if hi is None else hi))
    out[pos] ^= int(gen.integers(1, 256))
    return bytes(out)


def snapshot_edit(blob, gen):
    """A header edit: the magic set to random bytes, or one other field set to
    a small or huge value. The trailer is sealed again over the edited bytes."""
    fields = list(HEADER.unpack_from(blob))
    i = int(gen.integers(len(fields)))
    if i == 0:
        fields[0] = bytes(gen.integers(0, 256, 4, dtype=np.uint8))
    else:
        values = [0, 1, 2, 3, 6, 7, 8, 9, 2**32 - 1] + ([] if i in (1, 5) else [2**64 - 1])
        fields[i] = values[int(gen.integers(len(values)))]
    return sealed(HEADER.pack(*fields) + blob[HEADER.size:-4])


def tensor_edit(blob, gen):
    """A header edit: a new rank, or one dim set to a small or huge value."""
    (rank,) = struct.unpack("<I", blob[4:8])
    out = bytearray(blob)
    if gen.integers(2) == 0 or rank == 0:
        out[4:8] = struct.pack("<I", int(gen.choice([0, 1, 3, 8, 64, 65, 2**32 - 1])))
    else:
        i = int(gen.integers(rank))
        value = int(gen.choice([0, 1, 5, 60000, 2**31, 2**32 - 1]))
        out[8 + 4 * i:12 + 4 * i] = struct.pack("<I", value)
    return bytes(out)


def cases(blob, gen, spans, edit, n):
    """n seeded mutations of blob, tagged by kind."""
    out = []
    for i in range(n):
        kind = ("flip", "header flip", "truncate", "edit")[i % 4]
        if kind == "flip":
            out.append((kind, flip(blob, gen)))
        elif kind == "header flip":
            lo, hi = spans[int(gen.integers(len(spans)))]
            out.append((kind, flip(blob, gen, lo, hi)))
        elif kind == "truncate":
            out.append((kind, blob[:int(gen.integers(len(blob)))]))
        else:
            out.append((kind, edit(blob, gen)))
    return out


@pytest.fixture(scope="module")
def snapshot():
    cache = random_cache(CFG, 7, seed=3)  # sink 0, window 4-6, three absorbed
    return cache, cache.snapshot()


@pytest.fixture(scope="module")
def tensor_file():
    latent = run_stream(CFG, 1).latents[0]
    buf = io.BytesIO()
    write_tensor(buf, latent)
    return buf.getvalue()


def test_snapshot_fuzz(snapshot):
    cache, blob = snapshot
    restored = RollingCache.restore(blob)
    assert [(e.chunk_index, r) for e, r in restored.visible_kv(7)] == \
        [(e.chunk_index, r) for e, r in cache.visible_kv(7)]
    spans = [(0, HEADER.size)] + header_spans(blob, HEADER.size)
    outcomes = Counter()
    for kind, mutated in cases(blob, np.random.default_rng(2026), spans, snapshot_edit, 400):
        try:
            got = RollingCache.restore(mutated)
        except FormatError:
            outcomes[kind, "rejected"] += 1
            continue
        assert got.snapshot() == mutated, kind
        outcomes[kind, "accepted"] += 1
    # the trailer catches every unsealed change
    for kind in ("flip", "header flip", "truncate"):
        assert outcomes[kind, "accepted"] == 0, kind
    # an edit that keeps the payload's geometry restores, evicted tokens derived
    assert outcomes["edit", "rejected"] > 0 and outcomes["edit", "accepted"] > 0


def test_tensor_fuzz(tensor_file):
    outcomes = Counter()
    for kind, mutated in cases(tensor_file, np.random.default_rng(7),
                               header_spans(tensor_file, 0), tensor_edit, 400):
        try:
            data = read_tensor_from(io.BytesIO(mutated), allow_trailing=False)
        except FormatError:
            outcomes[kind, "rejected"] += 1
            continue
        buf = io.BytesIO()
        write_tensor(buf, data)
        assert buf.getvalue() == mutated, kind
        outcomes[kind, "accepted"] += 1
    assert outcomes["truncate", "accepted"] == 0
    assert outcomes["flip", "accepted"] > 0
    assert outcomes["header flip", "rejected"] > 0 and outcomes["edit", "rejected"] > 0


def test_mutated_blobs_as_cli_config_exit_cleanly(snapshot, tensor_file, tmp_path, capsys):
    gen = np.random.default_rng(11)
    blobs = cases(snapshot[1], gen, [(0, HEADER.size)], snapshot_edit, 20) + \
        cases(tensor_file, gen, header_spans(tensor_file, 0), tensor_edit, 20)
    for i, (kind, mutated) in enumerate(blobs):
        path = tmp_path / f"case{i}.cfg"
        path.write_bytes(mutated)
        command = ("generate", "distill")[i % 2]
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (EXIT_USAGE, EXIT_IO), (i, kind, code, err)
        assert "Traceback" not in err
