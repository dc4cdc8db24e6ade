"""The package runs on the standard library alone: numpy is a test dependency."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import satorbits

SRC = str(Path(satorbits.__file__).resolve().parent.parent)


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports satorbits from this tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_leaves_numpy_out(tmp_path):
    result = _run(
        "import sys, satorbits.cli\nprint('numpy' in sys.modules)",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


PIPELINE = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from satorbits import cli, fixture_path

graph = str(fixture_path("graph7.txt"))
codes = []
for name in ("di", "ns"):
    cfg = ["--config", str(fixture_path(name + ".cfg"))]
    plan = ["--plan", name + "-plan.txt"]
    codes.append((
        name,
        cli.main(["synthesize", graph, *cfg, "-o", plan[1]]),
        cli.main(["simulate", graph, *cfg, *plan, "-o", name + ".csv"]),
        cli.main(["verify", graph, *cfg, *plan, "--csv", name + ".csv"]),
    ))
print(codes)
"""


def test_pipeline_runs_without_numpy(tmp_path):
    result = _run(PIPELINE, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str([("di", 0, 0, 0), ("ns", 0, 0, 0)])
