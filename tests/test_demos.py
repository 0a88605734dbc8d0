import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, line", [
    ("demo_delta_certificate",
     "the middle one is positive, so the rows condition_constraints "
     "emits reject P."),
    ("demo_double_integrator", "(holds: True)"),
    ("demo_pmsm_torque_control", "fallback steps        0"),
])
def test_demo_runs(demo, line):
    # Each demo runs as a user would start it, against this source tree.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert any(out.endswith(line) for out in proc.stdout.splitlines()), (
        proc.stdout)
