"""The CI workflow's shell steps parse, and the closed-stdout step passes
when run the way GitHub Actions runs a ``shell: bash`` step:
``bash --noprofile --norc -eo pipefail {0}``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="PyYAML is needed to read the workflow")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

pytestmark = pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not installed")


def steps() -> list[dict]:
    """The workflow's steps that run a shell script."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step for step in jobs["tests"]["steps"] if "run" in step]


@pytest.mark.parametrize("step", steps(), ids=lambda step: step["name"])
def test_every_run_block_parses(step, tmp_path):
    script = tmp_path / "step.sh"
    script.write_text(step["run"])
    result = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_closed_stdout_step_passes_under_the_runner_flags(tmp_path):
    (step,) = [s for s in steps() if s["name"].startswith("A reader that closes stdout early")]
    script = tmp_path / "step.sh"
    script.write_text(step["run"])
    # The step calls ``python``: make that this test's interpreter.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    (bin_dir / "python").chmod(0o755)
    path = f"{bin_dir}{os.pathsep}{os.environ['PATH']}"
    env = {**os.environ, "PATH": path, "RUNNER_TEMP": str(tmp_path)}
    result = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
