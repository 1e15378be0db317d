"""Each demo script runs to completion from a scratch working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_child_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
