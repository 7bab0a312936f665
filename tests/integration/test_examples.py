"""Every runnable example in ``examples/`` exits 0.

Each example checks its own claims and exits non-zero when one fails,
so running them is what keeps them from rotting.  Each runs in a fresh
interpreter, as a user would run it, with ``src/`` on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, str(example)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
