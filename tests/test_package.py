"""What a fresh import loads: `import hybridstream` leaves out distill, verify
and cli, `import hybridstream.cli` leaves out verify, and the names the
package re-exports from distill resolve on first use to distill's own."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridstream

ROOT = Path(__file__).resolve().parent.parent
DISTILL_NAMES = (
    "AffineGenerator", "DistillConfig", "DmdGradient", "GaussianWorld", "Phase",
    "TrainResult", "diffuse_gaussian", "dmd_gradient", "flow_matching_loss",
    "gaussian_kl", "gaussian_score", "reg_loss", "teacher_rollout", "train",
)


def fresh(code: str):
    """Run `code` in a new interpreter that imports hybridstream from src/;
    return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def loaded_after(statement: str) -> set:
    return set(fresh(f"{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_package_import_leaves_out_distill_verify_and_cli():
    loaded = loaded_after("import hybridstream")
    assert "hybridstream.engine" in loaded
    assert not loaded & {"hybridstream.distill", "hybridstream.verify", "hybridstream.cli"}


def test_cli_import_leaves_out_verify():
    loaded = loaded_after("import hybridstream.cli")
    assert "hybridstream.distill" in loaded
    assert "hybridstream.verify" not in loaded


def test_lazy_names_are_distills_own_on_first_use():
    same = fresh(f"""
from hybridstream import train
import hybridstream
first = hybridstream.distill
import hybridstream.distill as distill
same = {{name: getattr(hybridstream, name) is getattr(distill, name) for name in {DISTILL_NAMES!r}}}
same["distill"] = first is distill
same["from-import train"] = train is distill.train
print(json.dumps(same))
""")
    assert same == dict.fromkeys([*DISTILL_NAMES, "distill", "from-import train"], True)


def test_unknown_name_is_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hybridstream.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from hybridstream import no_such_name  # noqa: F401


def test_dir_lists_the_lazy_names():
    assert {*DISTILL_NAMES, "distill", "StreamConfig"} <= set(dir(hybridstream))
