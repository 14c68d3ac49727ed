"""Every check of every verification suite passes, and only verify sets
their tolerances."""

import inspect

import pytest

from hybridstream import verify

CHECKS = sorted(name for name in vars(verify)
                if name.endswith(("_check", "_checks")) and not name.startswith("_"))


# the convergence suite trains for 2000 steps; test_acceptance.py's
# test_dmd_convergence runs that same check under its time budget
@pytest.mark.parametrize("suite", [name for name in verify.SUITES if name != "convergence"])
def test_suite_passes(suite):
    failed = [f"{r.name}: {r.detail}" for r in verify.SUITES[suite]() if not r.passed]
    assert not failed


@pytest.mark.parametrize("name", CHECKS)
def test_tolerance_is_not_an_argument(name):
    with pytest.raises(TypeError, match="tol"):
        inspect.signature(getattr(verify, name)).bind_partial(tol=1.0)
