import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    """Each demo exits 0, writes nothing to stderr, leaves no temporary file
    behind and prints the bytes of ``tests/golden/demos/<stem>.txt``, with
    the path of any temporary directory it names replaced by ``<tmpdir>``."""
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert os.listdir(tmp_path) == []
    stdout = re.sub(re.escape(str(tmp_path)) + r"\S*", "<tmpdir>", result.stdout)
    assert stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
