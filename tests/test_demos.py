"""Smoke tests of the demo scripts: each runs as a fresh process against the
package sources, under the suite's own warning filters, and must exit cleanly
with its verdict, ``: PASS``, at the end of its last line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # as in pyproject.toml: a numpy overflow or invalid value, or a silent
    # complex-to-real cast, fails a demo as it fails a test
    warnings = ["-W", "error::RuntimeWarning",
                "-W", "error:Casting complex values to real discards the imaginary part"]
    result = subprocess.run(
        [sys.executable, *warnings, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1].endswith(": PASS"), result.stdout
