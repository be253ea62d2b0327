"""Every script under demos/ runs to completion as a user would start it:
in its own interpreter, from an unrelated working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / 'demos').glob('*.py'))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize('demo', DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(tmp_path, demo):
    path = [str(ROOT / 'src'), os.environ.get('PYTHONPATH', '')]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
