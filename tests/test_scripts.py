"""Each script in scripts/ imports and parses its arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(SCRIPTS) if n.endswith(".py")))
def test_script_help(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
