import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    """Each demo exits 0, writes nothing to stderr and leaves no temporary
    file behind."""
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert os.listdir(tmp_path) == []
