"""Every narrated demo runs to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lp_isoforge

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the subprocess runs in tmp_path, where a relative PYTHONPATH would
    # not resolve; point it at the src directory this package came from
    src_dir = Path(lp_isoforge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
