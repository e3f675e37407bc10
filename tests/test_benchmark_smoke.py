"""The benchmark harness runs end to end at toy size and passes its self checks."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import gzsl_align

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "benchmark/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_top_level_names_are_the_readme_api_and_cover_benchmark_and_demos():
    """The smoke run reaches only its toy path, so check every name the harness uses here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section[section.index("\n- "):])  # the bullet list
    assert sorted(listed) == sorted(gzsl_align.__all__) and len(set(listed)) == len(listed)

    used = set()
    for path in sorted((ROOT / "benchmark").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ga":
                used.add(node.attr)
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "gzsl_align":
                used.update(alias.name for alias in node.names)
    assert {"train", "evaluate", "run_gradient_check"} <= used
    assert sorted(used - set(gzsl_align.__all__)) == []
    assert all(hasattr(gzsl_align, name) for name in gzsl_align.__all__)
