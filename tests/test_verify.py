"""Every check of every verification suite passes, and only verify sets
their tolerances."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from hybridstream import verify
from hybridstream.engine import BENCH_MODES, StreamConfig, config_for_mode
from hybridstream.stream_cache import RollingCache

CHECKS = sorted(name for name in vars(verify)
                if name.endswith(("_check", "_checks")) and not name.startswith("_"))


# the convergence suite trains for 2000 steps; test_acceptance.py's
# test_dmd_convergence runs that same check under its time budget
@pytest.mark.parametrize("suite", [name for name in verify.SUITES if name != "convergence"])
def test_suite_passes(suite):
    failed = [f"{r.name}: {r.detail}" for r in verify.SUITES[suite]() if not r.passed]
    assert not failed


@pytest.mark.parametrize("window", [9, 45])
@pytest.mark.parametrize("mode", list(BENCH_MODES))
def test_stream_equals_the_reference(mode, window):
    # 4 chunks past the RoPE cap; window 45 keeps 16 entries from chunk 16
    # on, and its hybrid layout picks 5 of 45 free blocks per row
    cfg = config_for_mode(mode, StreamConfig(window_frames=window))
    check = verify.reference_equivalence_check([cfg], 4)
    assert check.passed, check.detail


@pytest.mark.parametrize("name", CHECKS)
def test_tolerance_is_not_an_argument(name):
    with pytest.raises(TypeError, match="tol"):
        inspect.signature(getattr(verify, name)).bind_partial(tol=1.0)


@pytest.mark.parametrize("loss", ["value bit", "H bit", "evicted tokens"])
def test_snapshot_round_trip_check_sees_a_lost_bit(monkeypatch, loss):
    # a restore that changed one value's last bit, one history readout
    # normalizer's, or one state's evicted-token count must fail the check
    restore = RollingCache.restore.__func__

    def lossy(cls, data):
        cache = restore(cls, data)
        entry, state = cache.window_entries[-1], cache.linear_states[0]
        if loss == "value bit":
            entry.values = np.nextafter(entry.values, np.inf)
        elif loss == "H bit":
            cache.linear_states[0] = replace(state, H=np.nextafter(state.H, np.inf))
        else:
            cache.linear_states[0] = replace(state, evicted_tokens=0)
        return cache

    monkeypatch.setattr(RollingCache, "restore", classmethod(lossy))
    [check] = [r for r in verify.SUITES["cache"]() if r.name == "cache.snapshot_round_trip"]
    assert not check.passed
