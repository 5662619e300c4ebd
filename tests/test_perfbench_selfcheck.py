"""The benchmark's self-check runs every request kind once at tiny sizes
and checks each output, so an API change that breaks the benchmark fails
here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("selfcheck: passed")
