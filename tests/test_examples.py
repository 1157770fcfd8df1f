"""Every example script runs to completion.

Each ``examples/*.py`` runs in its own subprocess, with warnings as
errors, from a temporary working directory (so nothing it writes lands
in the tree), and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, "no examples/*.py"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
