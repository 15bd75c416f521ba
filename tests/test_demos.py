"""Each script in demos/ runs from a checkout and ends as it should."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, last_line", [
    ("embed_and_certify.py", "  step4   edge ->4: 00001 -> 10001"),
    ("tightness.py", "Q_4: no rainbow cycle up to length 8: True"),
    ("wide_ambient.py", "colors used: 150 (all distinct by construction)"),
])
def test_demo(script, last_line):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == last_line
