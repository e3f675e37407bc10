"""The demos run to completion against the package in ``src``.

``demos/ablation_walkthrough.py`` is left out: it trains several models
and takes about 12 s even with ``--seeds 1``, where these two take about
4 s together. Its imports are still checked by
``test_top_level_names_are_the_readme_api_and_cover_benchmark_and_demos``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, args",
    [("quickstart.py", ["--out-dir", "{tmp}"]), ("gradient_audit.py", ["--trials", "2"])],
    ids=["quickstart", "gradient_audit"],
)
def test_demo_exits_zero(tmp_path, demo, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "demos" / demo), *(a.format(tmp=tmp_path) for a in args)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
