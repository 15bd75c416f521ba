"""The README's examples run as written, so a removed or renamed name
cannot leave a stale example behind."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_library_quick_start():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_command_lines(tmp_path):
    # the one shell block of commands; the install block runs pip and pytest
    (block,) = [body for lang, body in BLOCKS if lang == "sh" and body.startswith("rainbowcube ")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "rainbowcube", line
        out = subprocess.run(
            [sys.executable, "-m", "rainbowcube", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, (line, out.stderr)
