"""Every script under demos/, and the README's library quick tour, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # the suite's own warning policy (-W error::RuntimeWarning) holds in the demos too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    done = _run_python(str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_exits_cleanly():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    done = _run_python("-c", blocks[0])
    assert done.returncode == 0, done.stderr
