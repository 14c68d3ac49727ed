"""Every check of every verification suite passes."""

import pytest

from hybridstream import verify


# the convergence suite trains for 2000 steps; test_acceptance.py's
# test_dmd_convergence runs that same check under its time budget
@pytest.mark.parametrize("suite", [name for name in verify.SUITES if name != "convergence"])
def test_suite_passes(suite):
    failed = [f"{r.name}: {r.detail}" for r in verify.SUITES[suite]() if not r.passed]
    assert not failed
